"""Shared pytest plumbing: collects the per-criterion acceptance verdict lines
and replays them in the terminal summary, so they are visible even when pytest
captures test stdout, builds the complete <=2-face class corpus once per
session for every test that reads it, and keeps the scan the bitset filter
replaced as an oracle."""

import time
from types import SimpleNamespace

import pytest

from squarewalls.complexes import check_generalized_iso
from squarewalls.enumeration import EnumerationCursor, IsoViolation
from squarewalls.fulfill import check_assignment, fulfill_search

ACCEPTANCE_LINES: list = []


def record(line: str) -> None:
    print(line)
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus2():
    """Every class of EnumerationCursor(2), with the seconds the build took.
    Tests only read it: a test that needs fresh per-class caches wraps the
    bases anew."""
    t0 = time.perf_counter()
    classes = list(EnumerationCursor(2))
    return SimpleNamespace(classes=classes, build_time=time.perf_counter() - t0)


def oracle_scan(R, K, p, classes=None):
    """scan_local_iso as it read before the bitset filter, unchanged: the
    search kernel runs on every above-threshold class."""
    out = []
    for Y in classes if classes is not None else EnumerationCursor(K):
        size = len(Y.base.faces)
        threshold = 4 * (p.d + p.eps) * size
        can = Y.cancel
        if can <= threshold:
            continue
        asg = fulfill_search(Y, R)
        if asg is None:
            continue
        assert check_assignment(Y, asg)
        assert check_generalized_iso(Y.base, p).violation
        out.append(IsoViolation(Y, asg, can, size, threshold))
    return out
