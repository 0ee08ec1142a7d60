"""Deterministic report rendering: JSON with fixed float formatting, CSV.

The stdlib json module is avoided for *output* because its float
formatting is repr-based; reports pin every float to %.17g so a report
is byte-identical across runs and platforms and still round-trips
exactly.  Input hashing helpers live here too.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["format_float", "render_json", "render_csv", "sha256_bytes"]


def format_float(value: float) -> str:
    """Shortest-ish fixed rendering that still round-trips: %.17g."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"report: non-finite value {x!r}")
    return format(x, ".17g")


def _render(obj, out, level, indent):
    # Exact types first: reports are dicts and lists of Python floats, and
    # a numeric numpy array becomes a list in one tolist() call.  Numpy
    # scalars, bools, ints, strings, None, subclasses and other arrays take
    # the isinstance chain.
    kind = type(obj)
    if kind is float:
        out.append(format_float(obj))
    elif kind is dict:
        _render_dict(obj, out, level, indent)
    elif kind is list:
        _render_list(obj, out, level, indent)
    elif kind is np.ndarray and obj.ndim and obj.dtype.kind in "biuf":
        _render_list(obj.tolist(), out, level, indent)
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))  # json.dumps's string escaping
    elif isinstance(obj, dict):
        _render_dict(obj, out, level, indent)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        _render_list(list(obj), out, level, indent)
    else:
        raise TypeError(f"report: cannot render {type(obj).__name__}")


def _render_dict(obj: dict, out, level, indent):
    if not obj:
        out.append("{}")
        return
    pad = " " * (indent * (level + 1))
    out.append("{\n")
    for k, (key, value) in enumerate(obj.items()):
        if not isinstance(key, str):
            raise TypeError(f"report: keys must be strings, got {type(key).__name__}")
        out.append(",\n" + pad if k else pad)
        out.append(encode_basestring_ascii(key))
        out.append(": ")
        _render(value, out, level + 1, indent)
    out.append("\n" + " " * (indent * level) + "}")


def _render_list(items: list, out, level, indent):
    if not items:
        out.append("[]")
        return
    pad = " " * (indent * (level + 1))
    out.append("[\n")
    for k, value in enumerate(items):
        out.append(",\n" + pad if k else pad)
        _render(value, out, level + 1, indent)
    out.append("\n" + " " * (indent * level) + "]")


def render_json(obj, indent: int = 2) -> str:
    out: list[str] = []
    _render(obj, out, 0, indent)
    out.append("\n")
    return "".join(out)


def render_csv(header: list[str], rows: list[list]) -> str:
    """CSV text with the same float discipline as the JSON reports."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_float(x) if isinstance(x, (float, np.floating)) else x for x in row]
        )
    return buf.getvalue()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
