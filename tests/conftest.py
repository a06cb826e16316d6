import numpy as np
import pytest

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
