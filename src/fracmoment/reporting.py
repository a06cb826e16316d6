"""Deterministic JSON/CSV report emission.

Reports must be byte-identical across runs with the same inputs: fields keep
their insertion order, every float prints as fmt_float prints it (17
significant digits, enough to round-trip a double exactly; NaN and the
infinities as JSON literals), and files are written atomically via a temp
file and os.replace.

A CSV is built as bytes by numpy, CSV_BLOCK rows at a time: each block is one
uint8 matrix in which every column fills a group of byte columns, and the PAD
bytes of cells shorter than their group are deleted once per block.  A float
cell takes a double-double fast path wherever its 17 digits are proven
(_float_cells states the proof); every other float cell prints through
fmt_float, so fmt_float stays the one definition of a float cell.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

# rows per block of csv_text: bounds the byte matrix and the text alive at once
CSV_BLOCK = 1 << 13


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def json_dumps(obj: Any, indent: int = 0) -> str:
    """Minimal JSON serializer with fixed float formatting and key order.

    Accepts dict/list/tuple/str/bool/None/int/float/complex/Fraction; complex
    becomes {"re": ..., "im": ...} and Fraction becomes its "r/s" literal.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, complex):
        return json_dumps({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, Fraction):
        return json_dumps(f"{obj.numerator}/{obj.denominator}", indent)
    if isinstance(obj, str):  # every control character escaped, all other text as is
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json_dumps(str(k))}: {json_dumps(v, indent + 2)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{json_dumps(v, indent + 2)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    # fall back on numpy scalars and anything float-like
    if hasattr(obj, "item"):
        return json_dumps(obj.item(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_text(header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """CSV of equal-length 1-D columns under header, built CSV_BLOCK rows at a time.

    Each block is one uint8 matrix with a row per CSV row.  Each column fills a
    group of byte columns (_cells), followed by a comma or the newline; the PAD
    bytes of cells shorter than their group are deleted once per block.  A column
    whose cells all have the same bits is formatted once per block, as a literal
    that every row repeats.
    """
    size = columns[0].size if columns else 0
    if len(columns) != len(header) or any(c.shape != (size,) for c in columns):
        raise ValueError("csv_text needs one equal-length 1-D column per header field")
    fixed = [size > 0 and _constant(c) for c in columns]
    parts = [",".join(header) + "\n"]
    for lo in range(0, size, CSV_BLOCK):
        n = min(CSV_BLOCK, size - lo)
        groups = []
        for f, cells in zip(fixed, _cells([c[:1] if f else c[lo : lo + n] for c, f in zip(columns, fixed)])):
            groups += [_unpadded(cells)] if f else cells
            groups.append(_COMMA)
        groups[-1] = _NEWLINE
        parts.append(_rows(groups, n))
    return "".join(parts)


def _constant(column: np.ndarray) -> bool:
    """Whether every cell of a nonempty column has the bits of the first: 0.0 and -0.0
    differ, and NaNs of one payload agree.  An object column counts as varying."""
    if column.dtype.hasobject:
        return False
    word = math.gcd(column.itemsize, 8)
    bits = np.ascontiguousarray(column).view(f"u{word}").reshape(column.size, -1)
    return bool((bits == bits[0]).all())


def _unpadded(groups: list[np.ndarray]) -> np.ndarray:
    """The one cell that groups of one row each give, as a (1, w) group with no PAD."""
    cell = np.concatenate(groups, axis=1)
    return cell[cell != PAD][None, :]


def _rows(groups: list[np.ndarray], n: int) -> str:
    """The n rows of text that groups of (n, w) or (1, w) bytes give side by side, PAD deleted."""
    block = np.concatenate([g if len(g) == n else g.repeat(n, axis=0) for g in groups], axis=1)
    return block.tobytes().translate(None, _PAD_BYTE).decode()


PAD = 0xFF  # a byte UTF-8 never emits: it fills the unused bytes of each cell
_PAD_BYTE = bytes([PAD])
_COMMA, _NEWLINE = np.array([[44]], np.uint8), np.array([[10]], np.uint8)
_E_MIN, _E_MAX = -281, 281  # floor(log10 |x|) on the float fast path, with one to spare each side
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit doubles
_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _cells(columns: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Each column's cells as groups of (n, w) uint8 whose rows, side by side and with
    PAD deleted, are the cells: floats as fmt_float prints them, all float columns in
    one call of _float_cells; integers, and every other kind, as str prints them."""
    floats = [c for c in columns if c.dtype.kind == "f"]
    if floats:
        stacked = _float_cells(np.concatenate(floats).astype(np.float64, copy=False))
        ends = np.cumsum([c.size for c in floats])
        floats = iter([[g[end - c.size : end] for g in stacked] for c, end in zip(floats, ends)])
    return [
        next(floats) if c.dtype.kind == "f"
        else _int_cells(c) if c.dtype.kind in "iu"
        else [_byte_rows([str(v).encode() for v in c.tolist()])]
        for c in columns
    ]


def _byte_rows(cells: list[bytes], width: int = 0) -> np.ndarray:
    """(len(cells), w) uint8, one cell a row, filled with PAD to w, the larger of width
    and the longest cell."""
    width = max([width, *map(len, cells)])
    return np.frombuffer(b"".join(b.ljust(width, _PAD_BYTE) for b in cells), np.uint8).reshape(len(cells), width)


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The digit, power and layout tables of the cell formatters, built on first use.

    quad4, quad8: the four ASCII digits of each k < 10^4 as one uint32, and with a
      "." after each digit as one uint64;
    tz4: the trailing zeros of each k < 10^4 written as four digits;
    skip: the OR mask over 5 quad4 words (an integer's 20 digits) that puts PAD on
      the first s bytes, at row s;
    hi, lo: 10^(16 - E) = hi + lo to within 2^-106 relative, at row E - _E_MIN for E
      in [_E_MIN, _E_MAX]: hi is the double nearest the exact power and lo the double
      nearest the rest, each by Python's correctly rounded division of integers;
      hh, hl: hi's Veltkamp split;
    keep: the OR mask over 5 quad8 words (a float's 3 + 17 digits) that puts PAD on
      the first 3 digits, on the digits from `keep` on and on every "." but the one
      before digit `dot` (none for dot = 0), at row 18 keep + dot;
    lead: the first n bytes of "0.000", at row n;
    exp: "e", the sign and two or three digits of E, as %g writes them, at row
      E - _E_MIN; the last row is empty.
    """
    k = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1])
    digits = (48 + k - k // 10 * 10).astype(np.uint8)
    dotted = np.stack([digits, np.full_like(digits, 46)], axis=2).reshape(-1, 8)
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        exact = Fraction(10) ** (16 - e)
        num, den = exact.numerator, exact.denominator
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    hh, hl = _split(hi)
    slot = np.arange(40)
    digit = slot // 2 - 3  # the digit at, or just before, each byte of 5 quad8 words
    keep, dot = np.arange(18)[:, None, None], np.arange(18)[None, :, None]
    pad = np.where((slot & 1) == 0, (digit < 0) | (digit >= keep), (digit != dot - 1) | (dot == 0))
    lead = [b"0.000"[:n] for n in range(6)]
    exp = [f"e{e:+03d}".encode() for e in range(_E_MIN, _E_MAX + 1)] + [b""]
    return {
        "quad4": digits.view(np.uint32).ravel(),
        "quad8": dotted.view(np.uint64).ravel(),
        "tz4": np.cumprod(digits[:, ::-1] == 48, axis=1).sum(axis=1),
        "skip": np.where(np.arange(20) < np.arange(21)[:, None], PAD, 0).astype(np.uint8).view(np.uint32),
        "hi": hi, "hh": hh, "hl": hl, "lo": np.array(lo),
        "keep": np.where(pad, PAD, 0).astype(np.uint8).reshape(-1, 40).view(np.uint64),
        "lead": _byte_rows(lead, 8).view(np.uint64).ravel(),
        "exp": _byte_rows(exp, 8).view(np.uint64).ravel(),
    }


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = h + l exactly, each with at most 26 significant bits (for |a| below 1e300)."""
    c = a * _SPLIT
    h = c - (c - a)
    return h, a - h


def _groups(mag: np.ndarray, count: int) -> np.ndarray:
    """(count, n) intp: the last count groups of four decimal digits of magnitudes below
    2^64, most significant first (the first group takes every digit above them)."""
    groups = np.empty((count, mag.size), np.intp)
    for i in range(count - 1):
        p = 10 ** (4 * (count - 1 - i))
        groups[i] = top = mag // p
        mag = mag - top * p
    groups[-1] = mag
    return groups


def _words(table: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """(n, count) words of table, one per group of _groups, to be read as n rows of bytes."""
    words = np.empty(groups.shape[::-1], table.dtype)
    for i, g in enumerate(groups):
        words[:, i] = table[g]
    return words


def _int_cells(column: np.ndarray) -> list[np.ndarray]:
    """Integer cells as str prints them: a "-" group where some cell is negative, then
    the digits without their leading zeros."""
    t = _tables()
    wide = column.astype(np.uint64)  # two's complement: 0 - wide is |v| for v < 0, int64's minimum included
    neg = column < 0
    mag = np.where(neg, 0 - wide, wide)
    size = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1)  # digits to print; 0 prints one
    longest = int(size.max())
    count = -(-longest // 4)  # groups of four digits the longest needs
    mask = t["skip"][20 - size, 5 - count :]
    digits = (_words(t["quad4"], _groups(mag, count)) | mask).view(np.uint8)[:, 4 * count - longest :]
    return _signed(neg, [digits])


def _signed(neg: np.ndarray, groups: list[np.ndarray]) -> list[np.ndarray]:
    """groups after a group with a "-" in each row where neg is set, if any is."""
    return [np.where(neg, 45, PAD).astype(np.uint8)[:, None], *groups] if neg.any() else groups


def _float_cells(x: np.ndarray) -> list[np.ndarray]:
    """Float cells, each as fmt_float prints it: by a fast path wherever its digits are
    proven, and through fmt_float itself elsewhere.

    The 17 significant digits of |x| are round(V) for V = |x| 10^(16 - E), with
    E = floor(log10 |x|) from np.log10.  V is computed as the unevaluated sum p + pl:
    p + err = |x| hi exactly (Dekker's TwoProduct, exact while no product or split
    overflows or underflows), and pl = err + |x| lo.  For V < 2e17 the error
    |V - (p + pl)| is below 1e-14: at most 2^-106 V from hi + lo, 2^-53 |x lo| from
    |x| lo (|x lo| <= 2^-53 V < 23) and half an ulp of |pl| < 40 (|err| <= 16) from the
    sum, under 2.5e-15, 2.6e-15 and 3.6e-15.  p > 2^53 is an integer, so
    D = p + rint(pl), and a cell's digits are D's when
      - 1e-280 <= |x| <= 1e280, which keeps every product, split and table entry
        normal and finite;
      - pl is more than 1e-9 from a half-integer, far more than the error, so that
        D = round(V) however the error falls; every exact decimal tie (which the
        formatter rounds half to even) is left to fmt_float this way;
      - V >= 10^16 - 0.04: below 10^16 the true exponent is E - 1, but there
        10 V > 10^17 - 0.5 rounds to 10^17, as D = 10^16 at E does; and
      - D <= 10^17: V in [10^17 - 0.5, 10^17 + 0.5) rounds to 10^(E + 1) at either
        exponent, so D = 10^17 is renormalised to 10^16 at E + 1.
    +-0 takes the fast path too; NaN, +-inf, values outside the range, near ties and
    a log10 that is off by one do not.  The layout is %g's: fixed notation for
    -4 <= E < 17, else scientific, with trailing zeros and a bare point dropped.
    """
    t = _tables()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    row = e - _E_MIN
    p = a * t["hi"][row]
    ah, al = _split(a)
    hh, hl = t["hh"][row], t["hl"][row]
    pl = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * t["lo"][row]
    r = np.rint(pl)
    d = p.astype(np.int64) + r.astype(np.int64)
    fast &= (np.abs(pl - r) < 0.5 - 1e-9) & ((p - 1e16) + pl >= -0.04) & (d <= 10**17)
    top = d == 10**17
    d[top] = 10**16
    e += top
    zero = x == 0
    d[zero], e[zero] = 0, 0
    fast |= zero

    groups = _groups(d, 5)
    tz = t["tz4"][groups[0]]  # D's trailing zeros: a zero group adds four to those before it
    for g in groups[1:]:
        tz = np.where(g == 0, tz + 4, t["tz4"][g])
    sig = 17 - tz  # the digits left once trailing zeros go: none of 0, which prints its integer part
    sig[zero] = 0
    sci = (e < -4) | (e > 16)
    keep = np.where(sci, sig, np.maximum(sig, e + 1))  # fixed notation keeps the integer part's zeros
    dot = np.where(sci, 1, e + 1)  # the point goes before digit `dot`, when a digit follows it
    dot = np.where((sig > dot) & (dot > 0), dot, 0)
    body = (_words(t["quad8"], groups) | t["keep"].take(18 * keep + dot, axis=0)).view(np.uint8)[:, 6:39]
    groups = [body]
    lead = np.where(sci | (e >= 0) | ~fast, 0, 1 - e)  # "0." and the zeros of -4 <= E < 0
    if lead.any():
        groups.insert(0, t["lead"][lead].view(np.uint8).reshape(-1, 8)[:, : lead.max()])
    if (sci & fast).any():
        exp = t["exp"][np.where(sci & fast, e - _E_MIN, -1)]
        groups.append(exp.view(np.uint8).reshape(-1, 8)[:, :5])
    slow = np.flatnonzero(~fast)
    if slow.size:
        body[slow] = _byte_rows([fmt_float(v).encode() for v in x[slow].tolist()], body.shape[1])
    return _signed(np.signbit(x) & fast, groups)


def atomic_write(path: str, text: str) -> None:
    """Write text to path as UTF-8, atomically (temp file in the same directory + replace)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fracmoment-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def emit(report: Any, path: str | None) -> str:
    """Serialize a report dict as JSON, or a (header, columns) pair as CSV.

    Writes to path when given (atomically); always returns the text.
    """
    if isinstance(report, dict):
        text = json_dumps(report) + "\n"
    else:
        text = csv_text(*report)
    if path:
        atomic_write(path, text)
    return text
