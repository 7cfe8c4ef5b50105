"""Shared fixtures: acceptance-result registry, CSV helpers and two CPUs."""
import io
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# criterion id -> (passed, one-line detail); printed once at the end of the run
_ACCEPTANCE = {}


def _record(cid: str, passed: bool, detail: str) -> None:
    _ACCEPTANCE[cid] = (bool(passed), detail)


@pytest.fixture
def acceptance():
    """Callable (criterion_id, passed, detail) collected for the final summary."""
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(_ACCEPTANCE):
        passed, detail = _ACCEPTANCE[cid]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{cid}: {status} - {detail}")


def _load_csv(path):
    """Returns (comment_lines, column_names, data array) for a '#'-commented CSV."""
    with open(path) as fh:
        lines = fh.readlines()
    comments = [l.rstrip("\n") for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    names = body[0].strip().split(",")
    data = np.loadtxt(io.StringIO("".join(body[1:])), delimiter=",", ndmin=2)
    return comments, names, data


@pytest.fixture
def load_csv():
    return _load_csv


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the machine has, so --threads 2 forks one worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
