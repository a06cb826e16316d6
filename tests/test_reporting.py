import json
import math
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from fracmoment import reporting
from fracmoment.characters import build_table
from fracmoment.lvalues import lvalue_table
from fracmoment.reporting import CSV_BLOCK, csv_text, emit, fmt_float


def reference_csv(header, columns):
    """Row-wise formatter: one Python list per row, each cell by its type (a bool as str prints it)."""

    def cell(v) -> str:
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


def test_json_strings_escape_every_control_character():
    text = "".join(map(chr, range(0x20))) + '"\\' + "\u00e9\u2028"
    doc = reporting.json_dumps({text: [text]})
    assert json.loads(doc) == {text: [text]}
    assert reporting.json_dumps('a"b\\c\nd\u00e9\u2028') == '"a\\"b\\\\c\\nd\u00e9\u2028"'  # as before


def test_reports_are_written_as_utf8_in_any_locale(tmp_path, monkeypatch):
    # int() reads full-width digits and json_dumps writes non-ASCII text as is, so a report
    # may echo it; an ASCII locale without UTF-8 mode must still get the UTF-8 bytes.  The
    # digits are built in the child, since an ASCII locale would mangle them in its argv
    wide = "".join(chr(0xFF10 + int(d)) for d in "101")
    code = ("import sys\nfrom fracmoment import cli\n"
            "wide = ''.join(chr(0xFF10 + int(d)) for d in '101')\n"
            "argv = ['verify', 'diagonal', '--primes', '101,' + wide, '--pairs', '1', '--out', sys.argv[1]]\n"
            "sys.exit(cli.main(argv))\n")
    out = {}
    for locale, utf8_mode in (("POSIX", "0"), ("C.UTF-8", "1")):
        monkeypatch.setenv("LC_ALL", locale)
        monkeypatch.setenv("PYTHONUTF8", utf8_mode)
        path = tmp_path / f"{locale}.json"
        assert run_python(code, str(path), check=False).returncode == 0, locale
        out[locale] = path.read_bytes()
    assert out["POSIX"] == out["C.UTF-8"] and f"101,{wide}".encode() in out["POSIX"]


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
    header = ["q", "j", "method", "nan", "negzero", "zeros", "err", "word", "odd", "on"]
    columns = [np.full(size, 20011), np.arange(size), np.full(size, "afe"), np.full(size, math.nan),
               np.full(size, -0.0), zeros, np.full(size, 1 / 3), np.full(size, "100%s%%"),
               np.arange(size) % 2 == 1, np.full(size, True)]
    diff = first_difference(csv_text(header, columns), reference_csv(header, columns))
    assert diff is None
    floats = rng.standard_normal(size)
    diff = first_difference(csv_text(header[:2], [columns[0], floats]), reference_csv(header[:2], [columns[0], floats]))
    assert diff is None


def column_text(column) -> str:
    """csv_text of one column x, to compare with fmt_float or str cell by cell."""
    return csv_text(["x"], [np.asarray(column)])


def cell_by_cell(column) -> str:
    cell = fmt_float if np.asarray(column).dtype.kind == "f" else str
    return "x\n" + "".join(cell(v) + "\n" for v in np.asarray(column).tolist())


@given(st.lists(st.floats(), max_size=40))
@settings(max_examples=300, deadline=None)
def test_float_cells_match_fmt_float(values):
    """NaN, +-inf, +-0 and subnormals included; a list of one repeated value is a constant column."""
    assert first_difference(column_text(np.array(values, dtype=float)), cell_by_cell(values)) is None


@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
@settings(max_examples=300, deadline=None)
def test_float_cells_of_raw_bit_patterns_match_fmt_float(words):
    column = np.array(words, dtype=np.uint64).view(np.float64)
    assert first_difference(column_text(column), cell_by_cell(column)) is None


@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
       st.sampled_from([np.int64, np.int32, np.int8, np.uint64]))
@settings(max_examples=300, deadline=None)
def test_integer_cells_match_str(values, dtype):
    info = np.iinfo(dtype)
    column = np.array([min(max(v, info.min), info.max) for v in values], dtype=dtype)
    assert first_difference(column_text(column), cell_by_cell(column)) is None


def _neighbours(x: np.ndarray) -> np.ndarray:
    """x, the doubles next to it on both sides, and the negatives of all three."""
    around = np.concatenate([np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)])
    return np.concatenate([around, -around])


# every power of ten a double comes near, with its neighbours; the integers around 10^17,
# where 17 digits roll over to 18, also at other exponents; doubles whose decimal
# expansion is an exact tie at 17 digits (the formatter rounds it half to even)
EDGES = {
    "powers_of_ten": _neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)])),
    "around_1e17": _neighbours(np.arange(10**17 - 3000, 10**17 + 3001).astype(float)),
    "around_1e7": _neighbours(np.arange(10**17 - 3000, 10**17 + 3001).astype(float) * 1e-10),
    "around_1e-13": _neighbours(np.arange(10**17 - 3000, 10**17 + 3001).astype(float) * 1e-30),
    "ties": np.concatenate([
        ((10**15 + np.arange(2000)) + np.array([[0.25], [0.75]])).ravel(),  # 18 digits, the last a 5
        # odd N / 2^j has j decimals, the last a 5: 18 digits for N / 2^j in [10^(17 - j), 10^(18 - j))
        *(np.arange(lo, hi, 38) / 2.0**j for j, lo, hi in ((18, 26215, 2**18), (19, 5243, 52429), (20, 1049, 10486))),
    ]),
    "fixed_or_scientific": _neighbours(np.array([
        m * 10.0**e
        for e in (-5, -4, 16, 17)
        for m in (1.0, 1.5, 1.2345678901234567, 9.999999999999999, 9.9999999999999999)
    ])),
}


@pytest.mark.parametrize("name", EDGES)
def test_float_cells_at_the_edges_match_fmt_float(name):
    column = EDGES[name]
    assert first_difference(column_text(column), cell_by_cell(column)) is None


@pytest.mark.parametrize("column", [
    np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1, 10**16, -(10**16) + 1]),
    np.arange(-128, 128).astype(np.int8),
    np.array([0, 1, 9999, 10**4, np.iinfo(np.uint64).max], dtype=np.uint64),
    np.array([10**k for k in range(19)] + [10**k - 1 for k in range(1, 19)]),
], ids=["int64", "int8", "uint64", "powers_of_ten"])
def test_integer_cells_print_as_str(column):
    assert first_difference(column_text(column), cell_by_cell(column)) is None


def test_fast_path_covers_lvalues_signs_zeros_and_integers(monkeypatch):
    """fmt_float, the per-cell fallback, is never needed for these columns: each is proven
    on the fast path.  It is needed for NaN, inf, values past 1e280 and exact ties."""
    table = build_table(1009)
    values, squares, err = lvalue_table(table, "oracle")
    n = table.order - 1
    lvalues = [np.full(n, table.q), np.arange(1, table.order), table.parity[1:], values[1:].real,
               values[1:].imag, squares[1:], np.full(n, "oracle"), np.full(n, err)]
    rng = np.random.default_rng(5)
    columns = {
        "lvalues": lvalues,
        "mobius": [np.tile([1.0, -1.0, 0.0, -0.0], 100)],
        "integers": [rng.integers(-(10**17), 10**17, 5000).astype(float)],
    }
    slow = [np.array([math.nan, -math.inf, 1e300, 1e15 + 0.25, 26215 / 2**18])]
    want = {name: reference_csv(["x"] * len(cols), cols) for name, cols in [*columns.items(), ("slow", slow)]}
    calls = []
    monkeypatch.setattr(reporting, "fmt_float", lambda x: calls.append(x) or fmt_float(x))
    for name, cols in columns.items():
        assert first_difference(csv_text(["x"] * len(cols), cols), want[name]) is None
        assert calls == [], name
    assert first_difference(csv_text(["x"], slow), want["slow"]) is None
    assert list(map(repr, calls)) == list(map(repr, slow[0].tolist()))


def first_difference(text: str, want: str):
    """None when text == want, else the first line where they differ: pytest's report
    of a failed comparison of two long strings takes minutes."""
    if text == want:
        return None
    return next((i, a, b) for i, (a, b) in enumerate(zip_longest(text.split("\n"), want.split("\n")), 1) if a != b)
