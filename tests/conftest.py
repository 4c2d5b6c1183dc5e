"""Shared pytest plumbing: collects the per-criterion acceptance verdict lines
and replays them in the terminal summary, so they are visible even when pytest
captures test stdout, and builds the complete <=2-face class corpus once per
session for every test that reads it."""

import time
from types import SimpleNamespace

import pytest

from squarewalls.enumeration import EnumerationCursor

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
