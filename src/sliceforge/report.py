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
import json

import numpy as np

__all__ = ["format_float", "render_json", "render_csv", "sha256_bytes"]


def format_float(value: float) -> str:
    """Shortest-ish fixed rendering that still round-trips: %.17g."""
    if not np.isfinite(value):
        raise ValueError(f"non-finite value in report: {value!r}")
    return format(float(value), ".17g")


def _render(obj, out, level, indent):
    pad = " " * (indent * (level + 1))
    close = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))  # stdlib string escaping only
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {type(key).__name__}")
            out.append(pad)
            out.append(json.dumps(key))
            out.append(": ")
            _render(value, out, level + 1, indent)
            out.append(",\n" if k + 1 < len(obj) else "\n")
        out.append(close + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for k, value in enumerate(items):
            out.append(pad)
            _render(value, out, level + 1, indent)
            out.append(",\n" if k + 1 < len(items) else "\n")
        out.append(close + "]")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} in a report")


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
