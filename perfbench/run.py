"""Whole-query benchmark for the ntsp solver.

    python3 perfbench/run.py --workload random-zp20 --seed 1 --seconds 30 --trace 0

One client answers the workload's queries in a closed loop through the public
API (`ntsp.next_to_shortest`) and the command line front end (`ntsp.cli.main`,
in process), in whole passes for at least `--seconds`, then every answer is
checked.  Timings are taken over each query's fastest run.  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones.  A readable
report goes first; the last line of stdout is one JSON object.  The exit code
is 0 only when every answer passed its check.  Metric names and units come
from BENCHMARK.json; README.md in this directory explains them.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

from tracing import LAYERS, PeakMemory, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
RSS_CHILD_TIMEOUT_S = 90


def parse_args(argv):
    p = argparse.ArgumentParser(description="whole-query benchmark for ntsp")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def result_json(res) -> dict:
    """What `ntsp solve --json` must print for this API answer."""
    out = {"status": res.status, "shortest": res.shortest}
    if res.status == "found":
        out.update(kind=res.kind, length=res.length, path=list(res.path))
    return out


class Answers:
    """The first answer to each query, checked after timing; every later
    answer to the same query, from the API or the CLI, must repeat it."""

    def __init__(self, work):
        self.work = work
        self.first: dict = {}
        self.uses: Counter = Counter()  # operations that returned first[idx]
        self.attempted = 0
        self.failures: Counter = Counter()  # complaint -> failed operations
        self.trace_shown = False

    def _raised(self, exc: BaseException) -> None:
        if not self.trace_shown:
            traceback.print_exception(exc, file=sys.stderr)
            self.trace_shown = True
        self.failures[f"raised {type(exc).__name__}"] += 1

    def api(self, idx: int, res) -> None:
        self.attempted += 1
        if isinstance(res, BaseException):
            self._raised(res)
            return
        first = self.first.setdefault(idx, res)
        if res != first:
            self.failures["answer changed between runs of one query"] += 1
            return
        self.uses[idx] += 1

    def cli(self, idx: int, res, out: str) -> None:
        self.attempted += 1
        if isinstance(res, BaseException):
            self._raised(res)
            return
        first = self.first.get(idx)
        if res != 0 or first is None:
            self.failures[f"cli exit code {res}"] += 1
            return
        try:
            got = json.loads(out)
        except ValueError:
            got = None
        if got != result_json(first):
            self.failures["cli output differs from the API answer"] += 1
            return
        self.uses[idx] += 1

    def verify(self) -> None:
        for idx, res in sorted(self.first.items()):
            why = self.work.check(self.work.queries[idx], res)
            if why is not None:
                self.failures[f"query {idx}: {why}"] += self.uses[idx]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def timed_api(ntsp, q):
    t0 = time.perf_counter_ns()
    try:
        res = ntsp.next_to_shortest(q.graph, q.s, q.t)
    except Exception as exc:  # counted as a failed query
        res = exc
    return time.perf_counter_ns() - t0, res


def timed_cli(ntsp, argv):
    buf = io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with redirect_stdout(buf):
            res = ntsp.cli.main(argv)
    except SystemExit as exc:
        res = exc.code
    except Exception as exc:  # counted as a failed query
        res = exc
    return time.perf_counter_ns() - t0, res, buf.getvalue()


def closed_loop(ntsp, work, answers: Answers, seconds: float, tracer=None):
    """Answer the queries in turn, each only after the last, in whole passes
    over the query list until `seconds` have passed.  Every query thus counts
    equally, however many passes fit.  With a tracer the loop makes at least
    two passes, and a query's API call runs traced on every other pass, half
    of the queries starting traced; its CLI solve runs traced on the other
    passes.  So every query is timed both ways, on the same machine.  Returns
    three maps from query index to nanoseconds: untraced API calls, untraced
    CLI solves and traced API calls."""
    n = len(work.queries)
    api_ns: dict[int, list[int]] = {}
    cli_ns: dict[int, list[int]] = {}
    traced_ns: dict[int, list[int]] = {}
    min_passes = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_passes * n or i % n or time.perf_counter() < deadline:
        idx = i % n
        q = work.queries[idx]
        if i % work.collect_every == 0:
            gc.collect()
        traced = tracer is not None and (i // n + idx) % 2 == 1
        i += 1
        with tracer if traced else nullcontext():
            ns, res = timed_api(ntsp, q)
        (traced_ns if traced else api_ns).setdefault(idx, []).append(ns)
        answers.api(idx, res)
        if q.cli_file is None:
            continue
        if work.collect_every == 1:
            gc.collect()
        argv = ["solve", q.cli_file, "-s", str(q.s), "-t", str(q.t), "--json"]
        traced = tracer is not None and not traced
        with tracer if traced else nullcontext():
            ns, res, out = timed_cli(ntsp, argv)
        if not traced:
            cli_ns.setdefault(idx, []).append(ns)
        answers.cli(idx, res, out)
    return api_ns, cli_ns, traced_ns


def answer_each(ntsp, queries) -> None:
    """Answer each query once, untimed; the timed loop counts any failure."""
    for q in queries:
        try:
            ntsp.next_to_shortest(q.graph, q.s, q.t)
        except Exception:
            pass


def set_up(build, seed: int, cli_dir, repeats: int, min_seconds: float):
    """Build the inputs at least `repeats` times and until `min_seconds` have
    been spent building; the last build, the median time and the count."""
    times = []
    work = None
    while len(times) < repeats or sum(times) < min_seconds:
        work = None
        gc.collect()
        t0 = time.perf_counter()
        work = build(seed, cli_dir)
        times.append(time.perf_counter() - t0)
    return work, statistics.median(times), len(times)


def nearest_rank(values, q: float):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def rss_child(ntsp, build, seed: int) -> int:
    """Answer one query per distinct graph in a fresh process; print the
    process's peak resident set in KiB.  VmHWM belongs to the new address
    space, unlike ru_maxrss, which keeps the parent's peak across exec."""
    work = build(seed, None)
    firsts: dict = {}
    for q in work.queries:
        firsts.setdefault(id(q.graph), q)
    answer_each(ntsp, firsts.values())
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    return 0


def peak_rss_mb(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--rss-child",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RSS_CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-RSS child failed:\n{proc.stderr}")
    return int(proc.stdout.split()[-1]) / 1024


def best_times(runs: dict[int, list[int]]) -> list[float]:
    """Each query's fastest run, in seconds.  On a shared host a run is
    slowed, never sped up, by other load, so the fastest of a query's runs
    repeats across runs of the benchmark far better than their median."""
    return [min(ns) / 1e9 for ns in runs.values()]


def sample_note(runs: dict[int, list[int]], what: str) -> str:
    lo, hi = min(len(ns) for ns in runs.values()), max(len(ns) for ns in runs.values())
    return f"{len(runs)} {what}, best of {lo if lo == hi else f'{lo}-{hi}'} runs each"


def end_to_end(ntsp, args, work, answers, setup_s, setups):
    answer_each(ntsp, work.queries[: work.warmup])
    api_ns, cli_ns, _ = closed_loop(ntsp, work, answers, args.seconds)
    api, cli = best_times(api_ns), best_times(cli_ns)
    values = {
        "setup_s": setup_s,
        "query_p50_s": statistics.median(api),
        "query_p99_s": nearest_rank(api, 0.99),
        "queries_per_s": len(api) / sum(api),
        "cli_solve_s": statistics.median(cli),
        "peak_rss_mb": peak_rss_mb(args.workload, args.seed),
    }
    notes = {
        "query_p50_s": sample_note(api_ns, "queries"),
        "query_p99_s": sample_note(api_ns, "queries"),
        "queries_per_s": sample_note(api_ns, "queries"),
        "cli_solve_s": sample_note(cli_ns, "CLI files"),
        "setup_s": f"median of {setups} set-ups",
    }
    return values, notes


def per_layer(ntsp, args, work, answers):
    with PeakMemory() as peak:
        answer_each(ntsp, work.queries[: work.warmup])
    tracer = Tracer()
    plain, _, traced = closed_loop(ntsp, work, answers, args.seconds, tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz",
                 {"workload": args.workload, "seed": args.seed})

    calls, incl, own = tracer.totals()
    queries = calls["solver.next_to_shortest"]
    cli_calls = max(1, calls["cli.main"])
    query_ns = incl["solver.next_to_shortest"]
    values = {}
    for span in dict.fromkeys(span for _, _, span, _ in LAYERS):
        per = cli_calls if span.split(".")[0] in ("cli", "graph") else queries
        metric = "zigzag.realize" if span == "zigzag.zigzag_shortest" else span
        values[f"{metric}_s"] = own[span] / per / 1e9
    values["solver.query_s"] = query_ns / queries / 1e9
    for count in ("spdag.core_vertices", "zerostruct.clusters", "zigzag.candidates_pinned",
                  "zigzag.flow_solves", "zigzag.flow_rounds", "detour.candidates"):
        values[count] = tracer.counts[count] / queries
    solves = tracer.counts["zigzag.flow_solves"]
    values["zigzag.flow_confirm_ratio"] = tracer.counts["zigzag.flow_confirmed"] / solves if solves else 0.0
    values["zigzag.share"] = sum(v for k, v in own.items() if k.startswith("zigzag.")) / query_ns
    values["zerostruct.build_cluster_dag_peak_kb"] = max(peak.peaks, default=0) / 1024
    values["trace.overhead_s"] = statistics.median(
        min(traced[idx]) - min(plain[idx]) for idx in traced
    ) / 1e9

    shares = Counter()
    for span, ns in own.items():
        shares[span.split(".")[0]] += ns
    notes = {
        "solver.query_s": f"{queries} traced queries, {len(tracer.name)} spans",
        "trace.overhead_s": f"median over {len(traced)} queries of best traced minus best untraced",
    }
    print("self time as a share of the traced queries' time:")
    for layer in ("solver", "sssp", "spdag", "dominators", "zerostruct", "zigzag", "detour"):
        print(f"  {layer:<12} {100 * shares[layer] / query_ns:6.2f} %")
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ntsp" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: run from a checkout holding src/ntsp and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ntsp
    import ntsp.cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    build = WORKLOADS[args.workload]
    if args.rss_child:
        return rss_child(ntsp, build, args.seed)

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    cli_dir = OUT / f"inputs-{os.getpid()}"
    cli_dir.mkdir(parents=True)
    try:
        if args.trace:
            work, setup_s, setups = set_up(build, args.seed, cli_dir, 1, 0.0)
        else:
            work, setup_s, setups = set_up(build, args.seed, cli_dir, SETUP_REPEATS, SETUP_MIN_S)
        answers = Answers(work)
        if args.trace:
            values, notes = per_layer(ntsp, args, work, answers)
        else:
            values, notes = end_to_end(ntsp, args, work, answers, setup_s, setups)
        answers.verify()
    finally:
        shutil.rmtree(cli_dir, ignore_errors=True)

    if set(values) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for m in wanted:
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']:<6} {note}")
    print(f"  {'failed_frac':<40} {answers.failed / answers.attempted:>14.6g} "
          f"{'ratio':<6} {answers.failed} of {answers.attempted} operations")
    for why, n in answers.failures.most_common(10):
        print(f"  FAILED x{n}: {why}")
    if len(answers.failures) > 10:
        print(f"  ... and {len(answers.failures) - 10} more kinds of failure")
    print(json.dumps({
        "correct": answers.failed == 0,
        "attempted": answers.attempted,
        "failed": answers.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if answers.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
