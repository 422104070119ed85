"""Shared fixtures and the acceptance-line reporter.

Acceptance tests record one line each through the ``criterion`` fixture;
the lines are echoed in a terminal summary block so a plain ``pytest -v``
run shows every acceptance check as an explicit PASS/FAIL line, including
checks that fail.
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

# pytest's ``pythonpath`` setting reaches only this process; tests that run
# ``python -m fbmsde`` need the checkout's package in their environment too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Return a recorder: criterion(name, passed, detail) -> passed."""

    def record(name: str, passed: bool, detail: str = "") -> bool:
        status = "PASS" if passed else "FAIL"
        line = f"{name}: {status}"
        if detail:
            line += f" ({detail})"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        return passed

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
