"""Deterministic text/JSON/CSV emission helpers.

Every number leaving the library goes through :func:`decstr` so that repeated
runs with the same configuration produce byte-identical artifacts.  No locale
formatting, no timestamps.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction

from mpmath import mp, mpf, mpc

SCHEMA_VERSION = 1


def decstr(x, dps: int | None = None) -> str:
    """Full-precision decimal string for an mpmath/Fraction/int value."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, mpc) or isinstance(x, complex):
        re = decstr(mp.re(x), dps)
        im = decstr(mp.im(x), dps)
        return f"({re} {'+' if mp.im(x) >= 0 else '-'} {im.lstrip('-')}j)"
    n = dps if dps is not None else mp.dps
    return mp.nstr(mpf(x), n)


def jsonable(obj):
    """Recursively convert values to JSON-friendly types (numbers become
    decimal strings, Fractions become 'p/q')."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, mpf, mpc, complex, Fraction)):
        return decstr(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, 2-space indent, trailing newline)."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def csv_text(header, rows) -> str:
    """CSV with deterministic decimal-string cells."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(decstr(c) if not isinstance(c, str) else c for c in row) + "\n")
    return buf.getvalue()
