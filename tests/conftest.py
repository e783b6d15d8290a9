"""Session fixtures and the acceptance scoreboard printed after the run."""
from __future__ import annotations

import pytest

import ntsp.zigzag
from graphcases import corpus

# criterion number -> (passed, one-line detail)
ACCEPTANCE: dict[int, tuple[bool, str]] = {}


def record_criterion(num: int, ok: bool, detail: str) -> None:
    ACCEPTANCE[num] = (ok, detail)


@pytest.fixture(scope="session")
def criterion_corpus():
    """The randomized corpus shared by the equivalence and invariant suites."""
    return corpus(5000)


@pytest.fixture
def flow_log(monkeypatch):
    """(network, k, outcome) of every flow decision made during the test.

    Every flow solve in the solver looks max_flow_at_least up in
    ntsp.zigzag, so wrapping that name sees each one.  Clear the list to
    start a new query's record.
    """
    log = []
    solve = ntsp.zigzag.max_flow_at_least

    def recorded(net, k):
        outcome = solve(net, k)
        log.append((net, k, outcome))
        return outcome

    monkeypatch.setattr(ntsp.zigzag, "max_flow_at_least", recorded)
    return log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE):
        ok, detail = ACCEPTANCE[num]
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {word} - {detail}")
