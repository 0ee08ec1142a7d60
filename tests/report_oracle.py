"""Reference JSON renderer for the report bytes.

`sliceforge.report.render_json` dispatches on exact types and turns numpy
arrays into lists in one call.  This module keeps the plain renderer it
replaced: one `isinstance` chain per value and numpy arrays iterated
element by element.  The library's output is checked byte for byte
against it.
"""

import json

import numpy as np


def format_float(value):
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
        out.append(json.dumps(obj))
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


def render_json(obj, indent=2):
    out = []
    _render(obj, out, 0, indent)
    out.append("\n")
    return "".join(out)
