import math
from itertools import zip_longest

import numpy as np
import pytest

from fracmoment.reporting import CSV_BLOCK, csv_text, emit, fmt_float


def reference_csv(header, columns):
    """Row-wise formatter: one Python list per row, each cell by its type."""

    def cell(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return fmt_float(v)
        if hasattr(v, "item"):
            return cell(v.item())
        return str(v)

    rows = [list(row) for row in zip(*columns)]
    return "\n".join([",".join(header)] + [",".join(cell(v) for v in row) for row in rows]) + "\n"


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 0.1, -2.5e-300, 1e300, 5e-324, 1 / 3]
FINITE = [v for v in SPECIALS if math.isfinite(v)]
SIZES = [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1]


@pytest.mark.parametrize(
    "size, lead",
    [pytest.param(n, SPECIALS, id=str(n)) for n in SIZES]
    + [pytest.param(n, FINITE, id=f"finite-{n}") for n in SIZES],
)
def test_csv_text_matches_row_wise_reference(size, lead):
    """lead fills the first rows of the float column: with NaN/inf it prints through
    fmt_float, and with only finite values through the %.17g cell."""
    rng = np.random.default_rng(size)
    floats = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
    floats[: len(lead)] = lead[:size]
    ints = rng.integers(-(2**62), 2**62, size)
    words = np.array(["afe", "oracle", "smoothed"])[rng.integers(0, 3, size)]
    header = ["n", "x", "method", "parity"]
    columns = [ints, floats, words, rng.integers(0, 2, size).astype(np.int8)]
    assert first_difference(csv_text(header, columns), reference_csv(header, columns)) is None


def test_each_float_column_picks_its_own_cell():
    size = CSV_BLOCK + 1
    rng = np.random.default_rng(7)
    finite = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    late_nan = rng.standard_normal(size)
    late_nan[-1] = math.nan
    header = ["n", "finite", "late_nan"]
    columns = [np.arange(size), finite, late_nan]
    text = csv_text(header, columns)
    assert first_difference(text, reference_csv(header, columns)) is None
    assert text.endswith(f"{size - 1},{finite[-1]:.17g},NaN\n")


def test_special_floats_print_as_json_literals():
    text = csv_text(["x"], [np.array([math.nan, math.inf, -math.inf, -0.0, 0.1])])
    assert text == "x\nNaN\nInfinity\n-Infinity\n-0\n0.10000000000000001\n"


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError):
        csv_text(["a", "b"], [np.arange(3), np.arange(4)])
    with pytest.raises(ValueError):
        csv_text(["a", "b"], [np.arange(3)])


def test_emit_chooses_the_format_by_content(tmp_path):
    path = tmp_path / "t.csv"
    assert emit((["n"], [np.arange(1, 3)]), str(path)) == "n\n1\n2\n" == path.read_text()
    assert emit({"a": 1.5}, None) == '{\n  "a": 1.5\n}\n'


@pytest.mark.parametrize("size", [1, 2, CSV_BLOCK + 1])
def test_constant_columns_print_as_every_row_would(size):
    """A constant column goes into the row template once; its literal must read as each
    row's cell would, a % in it included, and 0.0 next to -0.0 is not constant."""
    rng = np.random.default_rng(size)
    zeros = np.where(np.arange(size) % 2 == 1, -0.0, 0.0)
    header = ["q", "j", "method", "nan", "negzero", "zeros", "err", "word"]
    columns = [np.full(size, 20011), np.arange(size), np.full(size, "afe"), np.full(size, math.nan),
               np.full(size, -0.0), zeros, np.full(size, 1 / 3), np.full(size, "100%s%%")]
    diff = first_difference(csv_text(header, columns), reference_csv(header, columns))
    assert diff is None
    floats = rng.standard_normal(size)
    diff = first_difference(csv_text(header[:2], [columns[0], floats]), reference_csv(header[:2], [columns[0], floats]))
    assert diff is None


def first_difference(text: str, want: str):
    """None when text == want, else the first line where they differ: pytest's report
    of a failed comparison of two long strings takes minutes."""
    if text == want:
        return None
    return next((i, a, b) for i, (a, b) in enumerate(zip_longest(text.split("\n"), want.split("\n")), 1) if a != b)
