import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracmoment
from fracmoment.characters import build_table

_TABLES: dict = {}

# one line per acceptance criterion, echoed after the run (fd-level capture
# would swallow plain prints from passing tests)
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def table_for(q: int):
    if q not in _TABLES:
        _TABLES[q] = build_table(q)
    return _TABLES[q]


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def run_python(code: str, *args: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this fracmoment, with text output captured."""
    src = str(Path(fracmoment.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=check)
