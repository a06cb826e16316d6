"""Deterministic JSON/CSV report emission.

Reports must be byte-identical across runs with the same inputs: fields keep
their insertion order, every float is printed with 17 significant digits
(enough to round-trip a double exactly), and files are written atomically
via a temp file and os.replace.
"""

from __future__ import annotations

import math
import os
import tempfile
from fractions import Fraction
from itertools import chain
from typing import Any, Sequence

import numpy as np

# rows per formatting block of csv_text: bounds the per-row strings alive at once
CSV_BLOCK = 1 << 16


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
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{inner}"{k}": {json_dumps(v, indent + 2)}' for k, v in obj.items()
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
    """CSV of equal-length 1-D columns under header, formatted CSV_BLOCK rows at a time.

    Each block is one % of a row template over the block's cells.  A float
    column prints through "%.17g", which is f"{x:.17g}" for every finite
    double; a float column holding a NaN or inf prints through fmt_float
    instead, and every other column through "%s" (str).  A column whose cells
    all have the same bits is formatted once, into the template as a literal
    (with % doubled), so each row's % formats only the varying cells.
    """
    size = columns[0].size if columns else 0
    if len(columns) != len(header) or any(c.shape != (size,) for c in columns):
        raise ValueError("csv_text needs one equal-length 1-D column per header field")
    special = [c.dtype.kind == "f" and not np.isfinite(c).all() for c in columns]
    fields, varying = [], []
    for c, sp in zip(columns, special):
        fmt = "%.17g" if c.dtype.kind == "f" and not sp else "%s"
        if size and _constant(c):
            first = c[:1].tolist()[0]
            fields.append((fmt_float(first) if sp else fmt % first).replace("%", "%%"))
        else:
            fields.append(fmt)
            varying.append((c, sp))
    row = ",".join(fields) + "\n"
    parts = [",".join(header) + "\n"]
    for lo in range(0, size, CSV_BLOCK):
        block = [(c[lo : lo + CSV_BLOCK].tolist(), sp) for c, sp in varying]
        cells = [map(fmt_float, col) if sp else col for col, sp in block]
        parts.append((row * min(CSV_BLOCK, size - lo)) % tuple(chain.from_iterable(zip(*cells))))
    return "".join(parts)


def _constant(column: np.ndarray) -> bool:
    """Whether every cell of a nonempty column has the bits of the first: 0.0 and -0.0
    differ, and NaNs of one payload agree.  An object column counts as varying."""
    if column.dtype.hasobject:
        return False
    word = math.gcd(column.itemsize, 8)
    bits = np.ascontiguousarray(column).view(f"u{word}").reshape(column.size, -1)
    return bool((bits == bits[0]).all())


def atomic_write(path: str, text: str) -> None:
    """Write text to path atomically (temp file in the same directory + replace)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fracmoment-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
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
