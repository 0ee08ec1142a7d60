import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import report_oracle
import sliceforge.cli
from sliceforge.report import format_float, render_csv, render_json, sha256_bytes


def test_float_round_trip():
    values = [0.1, 1.0 / 3.0, 1e-300, 6.02e23, -0.0, 2.0 ** -1074, math.pi]
    for v in values:
        assert float(format_float(v)) == v


def test_non_finite_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            format_float(bad)


def test_render_json_parses_and_preserves_values():
    doc = {
        "a": 1,
        "b": [0.1, 0.2, True, None],
        "c": {"nested": "text with \"quotes\""},
        "d": np.array([1.5, 2.5]),
        "empty_list": [],
        "empty_map": {},
    }
    text = render_json(doc)
    back = json.loads(text)
    assert back["a"] == 1
    assert back["b"] == [0.1, 0.2, True, None]
    assert back["c"]["nested"] == 'text with "quotes"'
    assert back["d"] == [1.5, 2.5]
    assert back["empty_list"] == [] and back["empty_map"] == {}


def test_render_json_is_deterministic():
    doc = {"x": [1.0 / 3.0, {"y": 7}], "z": "s"}
    assert render_json(doc) == render_json(doc)
    assert render_json(doc).endswith("\n")


def test_render_json_key_order_preserved():
    text = render_json({"zebra": 1, "ant": 2})
    assert text.index("zebra") < text.index("ant")


def test_unrenderable_types_rejected():
    with pytest.raises(TypeError):
        render_json({"x": object()})
    with pytest.raises(TypeError):
        render_json({1: "non-string key"})


def test_errors_name_the_layer():
    # Every layer's messages start with its name, as the CLI prints them.
    with pytest.raises(ValueError, match=r"^report: non-finite value inf$"):
        format_float(math.inf)
    with pytest.raises(ValueError, match=r"^report: non-finite value nan$"):
        render_json({"x": [np.float64(math.nan)]})
    with pytest.raises(TypeError, match=r"^report: cannot render object$"):
        render_json({"x": object()})
    with pytest.raises(TypeError, match=r"^report: keys must be strings, got int$"):
        render_json({1: "non-string key"})


def test_render_csv():
    text = render_csv(["id", "value"], [["a", 0.1], ["b", 2.0]])
    lines = text.splitlines()
    assert lines[0] == "id,value"
    # floats go through the same shortest-faithful discipline as JSON:
    # the rendered text must parse back to the exact same double
    assert lines[1].split(",")[0] == "a"
    assert float(lines[1].split(",")[1]) == 0.1
    assert float(lines[2].split(",")[1]) == 2.0


def test_sha256():
    assert sha256_bytes(b"") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


# --- the renderer against the plain isinstance-chain oracle ---------------

MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"
DEMOS = ("reference_2x3", "symmetric_pair", "three_potentials")


def _demo_commands():
    for name in DEMOS:
        model = str(MODELS / f"{name}.json")
        yield ["validate", model]
        yield ["evaluate", model, "--alloc", "proportional"]
        yield ["evaluate", model, "--alloc", "proportional", "--phi"]
        yield ["solve", model]
        yield ["simulate", model, "--alloc", "proportional", "--seed", "3", "--horizon", "200"]
    yield ["solve-reconfig", str(MODELS / "three_potentials.json"), "--budget", "1"]


def test_cli_reports_match_the_oracle_bytes(tmp_path, monkeypatch):
    reports = []

    def capture(obj, indent=2):
        reports.append(obj)
        return render_json(obj, indent)

    monkeypatch.setattr(sliceforge.cli, "render_json", capture)
    for k, argv in enumerate(_demo_commands()):
        assert sliceforge.cli.run(argv + ["--out", str(tmp_path / f"{k}.json")]) == 0, argv
    assert len(reports) == 16
    for obj in reports:
        assert render_json(obj) == report_oracle.render_json(obj)


_finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_leaves = st.one_of(
    _finite,
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
    _finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(),
    st.sampled_from(['quote " slash \\ tab \t', "line\nbreak", "\x00\x1f ", "é ünï 中 \U0001f600"]),
    st.lists(_finite, max_size=6).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(st.integers(-5, 5), max_size=6).map(np.array),
    st.lists(st.booleans(), max_size=6).map(lambda xs: np.array(xs, dtype=bool)),
    st.lists(_finite, min_size=4, max_size=4).map(lambda xs: np.array(xs).reshape(2, 2)),
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(doc=_documents, indent=st.sampled_from([0, 2, 4]))
def test_render_json_matches_the_oracle_bytes(doc, indent):
    assert render_json(doc, indent) == report_oracle.render_json(doc, indent)


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"x": [1.0, math.inf]}, ValueError),
        ({"x": {"y": math.nan}}, ValueError),
        ([np.float64(-math.inf)], ValueError),
        (np.array([0.5, math.nan]), ValueError),
        ({"x": [{2: 1.0}]}, TypeError),
        ([object()], TypeError),
        ({"x": np.array(1.5)}, TypeError),
        ({"x": np.array([1 + 2j])}, TypeError),
    ],
)
def test_render_json_keeps_the_oracle_errors(doc, error):
    with pytest.raises(error) as got:
        render_json(doc)
    with pytest.raises(error) as expected:
        report_oracle.render_json(doc)
    if error is ValueError:
        assert "non-finite" in str(got.value) and "non-finite" in str(expected.value)
