"""Exercise the command line surface through cli.main."""
from __future__ import annotations

import functools
import io

import ntsp.cli as cli
import ntsp.detour
import ntsp.zigzag
from graphcases import named_graph
from ntsp.dominators import UnreachableVertexError
from ntsp.graph import parse_graph, serialize_graph
from ntsp.oracle import oracle_next_to_shortest
from ntsp.zigzag import FlowOutcome, RealizationExhausted


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def fixture_file(tmp_path, name):
    g, s, t = named_graph(name)
    path = tmp_path / f"{name}.txt"
    path.write_text(serialize_graph(g))
    return str(path), s, t


def test_solve_json_golden(tmp_path, capsys):
    path, s, t = fixture_file(tmp_path, "tri")
    assert run(["solve", path, "-s", str(s), "-t", str(t), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == '{"status":"found","kind":"detour","shortest":1,"length":2,"path":[0,1,2]}\n'


def test_solve_json_none_golden(tmp_path, capsys):
    path, s, t = fixture_file(tmp_path, "quad0")
    assert run(["solve", path, "-s", str(s), "-t", str(t), "--json"]) == 0
    assert capsys.readouterr().out == '{"status":"none","shortest":2}\n'


def test_solve_human_output(tmp_path, capsys):
    path, s, t = fixture_file(tmp_path, "tri")
    assert run(["solve", path, "-s", str(s), "-t", str(t)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["found detour: length 2 (shortest 1)", "path: 0 1 2"]
    path, s, t = fixture_file(tmp_path, "chain")
    assert run(["solve", path, "-s", str(s), "-t", str(t)]) == 0
    assert capsys.readouterr().out == "none (shortest 2)\n"


def test_solve_path_flag_and_stdin(tmp_path, capsys, monkeypatch):
    path, s, t = fixture_file(tmp_path, "tri")
    assert run(["solve", "--path", path, "-s", str(s), "-t", str(t), "--json"]) == 0
    via_flag = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(named_graph("tri")[0])))
    assert run(["solve", "-s", str(s), "-t", str(t), "--json"]) == 0
    assert capsys.readouterr().out == via_flag


def test_solve_rejects_both_path_spellings(tmp_path, capsys):
    path, s, t = fixture_file(tmp_path, "tri")
    assert run(["solve", path, "--path", path, "-s", str(s), "-t", str(t)]) == 1
    assert "once" in capsys.readouterr().err


def test_usage_errors_exit_one(tmp_path, capsys):
    path, _, _ = fixture_file(tmp_path, "tri")
    assert run(["solve", path, "-s", "0"]) == 1  # missing --target
    assert run(["frobnicate"]) == 1
    capsys.readouterr()


def test_same_endpoints_exit_one(tmp_path, capsys):
    path, s, _ = fixture_file(tmp_path, "tri")
    assert run(["solve", path, "-s", str(s), "-t", str(s)]) == 1
    assert "differ" in capsys.readouterr().err


def test_bad_input_exit_two(tmp_path, capsys):
    junk = tmp_path / "junk.txt"
    junk.write_text("3 1\n0 1\n")
    assert run(["solve", str(junk), "-s", "0", "-t", "2"]) == 2
    assert "line 2" in capsys.readouterr().err
    assert run(["solve", str(tmp_path / "missing.txt"), "-s", "0", "-t", "1"]) == 2
    capsys.readouterr()


def test_out_of_range_endpoint_exit_two(tmp_path, capsys):
    path, _, _ = fixture_file(tmp_path, "tri")
    assert run(["solve", path, "-s", "0", "-t", "9"]) == 2
    capsys.readouterr()


def test_check_passes_on_fixtures(tmp_path, capsys):
    for name in ("tri", "out", "pent", "quad0", "tII", "phantom"):
        path, s, t = fixture_file(tmp_path, name)
        assert run(["solve", path, "-s", str(s), "-t", str(t), "--check"]) == 0
    capsys.readouterr()


def test_check_catches_wrong_answer(tmp_path, capsys, monkeypatch):
    path, s, t = fixture_file(tmp_path, "tri")
    monkeypatch.setattr(cli, "oracle_next_to_shortest", lambda g, a, b: 7)
    assert run(["solve", path, "-s", str(s), "-t", str(t), "--check"]) == 3
    assert "check failed" in capsys.readouterr().err


def test_internal_error_exit_four(tmp_path, capsys, monkeypatch):
    path, s, t = fixture_file(tmp_path, "tri")
    for exc in (
        RealizationExhausted("no crossing expanded"),
        UnreachableVertexError("vertex 3 unreachable from 0"),
    ):

        def broken(g, s, t):
            raise exc

        monkeypatch.setattr(cli, "next_to_shortest", broken)
        assert run(["solve", path, "-s", str(s), "-t", str(t)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ntsp: internal error: {type(exc).__name__}: {exc}\n"


def test_open_pair_flow_failure_exit_four(tmp_path, capsys, monkeypatch):
    # pent's answer is an open-pair zigzag; when its flow cannot carry two
    # units the solver must fail loudly, not fall through to a worse answer
    path, s, t = fixture_file(tmp_path, "pent")
    monkeypatch.setattr(
        ntsp.zigzag, "max_flow_at_least", lambda net, k: FlowOutcome(False, 0, 1, [])
    )
    assert run(["solve", path, "-s", str(s), "-t", str(t)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ntsp: internal error: RealizationExhausted: open pair")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_bad_detour_witness_exit_four(tmp_path, capsys, monkeypatch):
    # tri's answer is a detour of length 2; a construction that hands back
    # the length-1 shortest path instead must fail the witness check loudly
    path, s, t = fixture_file(tmp_path, "tri")
    monkeypatch.setattr(ntsp.detour, "_direct", lambda g, labels, parent, x, y: [s, t])
    assert run(["solve", path, "-s", str(s), "-t", str(t)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ntsp: internal error: RealizationExhausted: crossing")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_oracle_subcommand(tmp_path, capsys):
    path, s, t = fixture_file(tmp_path, "tri")
    assert run(["oracle", path, "-s", str(s), "-t", str(t), "--json"]) == 0
    assert capsys.readouterr().out == '{"status":"found","shortest":1,"length":2}\n'
    path, s, t = fixture_file(tmp_path, "chain")
    assert run(["oracle", path, "-s", str(s), "-t", str(t)]) == 0
    assert capsys.readouterr().out == "none (shortest 2)\n"


def test_oracle_runs_one_distance_pass(tmp_path, capsys, monkeypatch):
    # only the s-side distance to t is printed, so one pass from s is enough
    roots = []
    dijkstra = cli.dijkstra

    def counted(g, root):
        roots.append(root)
        return dijkstra(g, root)

    monkeypatch.setattr(cli, "dijkstra", counted)
    path, s, t = fixture_file(tmp_path, "pent")
    assert run(["oracle", path, "-s", str(s), "-t", str(t)]) == 0
    assert capsys.readouterr().out == "found: length 5 (shortest 3)\n"
    assert roots == [s]


def test_exhaustive_cap_exit_two(tmp_path, capsys, monkeypatch):
    # tII has more than two simple s-t paths, so a cap of 2 truncates
    capped = functools.partial(oracle_next_to_shortest, cap=2)
    monkeypatch.setattr(cli, "oracle_next_to_shortest", capped)
    path, s, t = fixture_file(tmp_path, "tII")
    for argv in (["oracle", path], ["solve", path, "--check"]):
        assert run([*argv, "-s", str(s), "-t", str(t)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "ntsp: too large for exhaustive search: more than 2 simple s-t paths\n"
        )


def test_gen_deterministic_and_parseable(capsys):
    argv = ["gen", "--n", "12", "--m", "20", "--zero-prob", "0.3", "--seed", "7"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    g = parse_graph(first)
    assert (g.n, g.m) == (12, 20)


def test_gen_to_file(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert run(["gen", "--n", "6", "--m", "8", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    g = parse_graph(out.read_text())
    assert (g.n, g.m) == (6, 8)


def test_gen_infeasible_exit_two(capsys):
    assert run(["gen", "--n", "5", "--m", "2"]) == 2
    assert capsys.readouterr().err


def test_gen_bad_weight_spec_exit_two(capsys):
    for argv in (["--max-weight", "0"], ["--max-weight", "-1"], ["--zero-prob", "1.5"]):
        assert run(["gen", "--n", "5", "--m", "6", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ntsp: ") and captured.err.count("\n") == 1


def test_gen_unwritable_output_exit_two(tmp_path, capsys):
    out = tmp_path / "missing" / "x.txt"
    assert run(["gen", "--n", "6", "--m", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ntsp: cannot write output: ") and err.count("\n") == 1
