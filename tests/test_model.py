import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliceforge import (
    CapacityAllocation,
    Flow,
    InversionError,
    LogicalEntity,
    LossDomainError,
    LossSpec,
    ModelError,
    NetworkModel,
    PhysicalEntity,
    SimConfig,
    check_feasible,
    demand_matrix,
    diagnostics,
    incidence,
    inner_gradient,
    inner_objective,
    load_model,
    loss_groups,
    no_blocking_loads,
    offered_vector,
    serialize_model,
    simulate,
    solve_fixed_point,
    supergradient,
    surrogate,
)
from sliceforge.loss import get_family
from sliceforge.model import _by_family

from conftest import fresh_python, symmetric_pair, three_potentials

MINIMAL = {
    "physical": [{"id": "p", "ctype": "rate_mbps", "capacity": 10}],
    "logical": [{"id": "l", "members": ["p"], "loss": {"kind": "erlang_b"}}],
    "flows": [{"id": "f", "offered": 2, "demands": {"l": 1}}],
}


def test_minimal_document():
    model = load_model(json.dumps(MINIMAL))
    assert (model.n, model.m, model.num_flows) == (1, 1, 1)
    assert incidence(model).tolist() == [[1.0]]
    assert model.physicals[0].capacity == 10.0
    assert model.flows[0].demands == {"l": 1}


def test_round_trip_is_identity():
    for model in (load_model(json.dumps(MINIMAL)), symmetric_pair(), three_potentials()):
        again = load_model(serialize_model(model))
        assert again == model


_IDS = st.text(min_size=1, max_size=6)
_AMOUNTS = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def _models(draw):
    """Valid models with random ids, capacity types, capacities, members,
    the shipped loss kinds and flows with integer demands."""
    ctypes = draw(st.lists(_IDS, min_size=1, max_size=3, unique=True))
    physicals = tuple(
        PhysicalEntity(pid, draw(st.sampled_from(ctypes)), draw(_AMOUNTS))
        for pid in draw(st.lists(_IDS, min_size=1, max_size=5, unique=True))
    )
    logicals = []
    for lid in draw(st.lists(_IDS, min_size=1, max_size=5, unique=True)):
        ctype = draw(st.sampled_from([p.ctype for p in physicals]))
        pool = [p.id for p in physicals if p.ctype == ctype]
        members = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        kind = draw(st.sampled_from(["erlang_b", "linear_clip", "exp_overflow"]))
        logicals.append(LogicalEntity(lid, tuple(members), LossSpec(kind)))
    lids = [lg.id for lg in logicals]
    flows = tuple(
        Flow(fid, draw(_AMOUNTS), draw(st.dictionaries(st.sampled_from(lids), st.integers(1, 50), min_size=1)))
        for fid in draw(st.lists(_IDS, max_size=4, unique=True))
    )
    return NetworkModel(physicals=physicals, logicals=tuple(logicals), flows=flows)


@given(_models())
def test_round_trip_is_identity_on_generated_models(model):
    assert load_model(serialize_model(model)) == model


def test_document_order_is_preserved():
    doc = {
        "physical": [
            {"id": "z", "ctype": "u", "capacity": 1},
            {"id": "a", "ctype": "u", "capacity": 2},
        ],
        "logical": [
            {"id": "m", "members": ["a"], "loss": {"kind": "erlang_b"}},
            {"id": "b", "members": ["z"], "loss": {"kind": "erlang_b"}},
        ],
        "flows": [{"id": "f", "offered": 1, "demands": {"b": 1}}],
    }
    model = load_model(json.dumps(doc))
    assert [p.id for p in model.physicals] == ["z", "a"]
    assert [lg.id for lg in model.logicals] == ["m", "b"]
    # indexing follows document order, not sort order
    assert incidence(model).tolist() == [[0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["physical"].append(dict(d["physical"][0])), "duplicate id"),
        (lambda d: d["logical"][0]["members"].append("ghost"), "dangling reference"),
        (lambda d: d["flows"][0]["demands"].update({"l": 1.5}), "non-integer demand"),
        (lambda d: d["physical"][0].update(capacity=-1), "negative capacity"),
        (lambda d: d["flows"][0].update(offered=-0.5), "negative offered load"),
        (lambda d: d["logical"][0].update(members=[]), "empty member set"),
        (lambda d: d["flows"][0].update(demands={}), "empty demand map"),
        (lambda d: d["logical"][0]["loss"].update(kind="pareto"), "unknown loss kind"),
    ],
)
def test_validation_errors_name_the_offender(mutate, message):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(ModelError, match=f"^model: {message}"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("kind", ["pareto", 5, None, ["erlang_b"], {"name": "erlang_b"}])
def test_unknown_or_malformed_loss_kinds_name_the_kind_and_the_logical(kind):
    doc = json.loads(json.dumps(MINIMAL))
    doc["logical"][0]["loss"]["kind"] = kind
    with pytest.raises(ModelError) as info:
        load_model(json.dumps(doc))
    assert str(info.value) == f"model: unknown loss kind '{kind}' on logical 'l'"


def test_a_family_that_fails_to_import_is_not_an_unknown_kind():
    # erlang_b's module is imported while the model is loaded; without
    # scipy that is a named import failure, not "unknown loss kind", and
    # the other kinds still read as before.
    script = (
        "import json, sys\n"
        "sys.modules['scipy.special'] = None\n"
        "from sliceforge import ModelError, load_model\n"
        "doc = json.loads(sys.argv[1])\n"
        "for kind in ('erlang_b', 'pareto', 'erlang_b'):\n"
        "    doc['logical'][0]['loss']['kind'] = kind\n"
        "    try:\n"
        "        load_model(json.dumps(doc))\n"
        "    except ModelError as exc:\n"
        "        print(exc)\n"
    )
    proc = fresh_python(None, "-c", script, json.dumps(MINIMAL))
    assert proc.returncode == 0, proc.stderr
    missing = (
        "model: loss kind 'erlang_b' on logical 'l' cannot load module 'scipy.special': "
        "import of scipy.special halted; None in sys.modules"
    )
    assert proc.stdout.splitlines() == [missing, "model: unknown loss kind 'pareto' on logical 'l'", missing]


def test_mixed_capacity_types_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["physical"].append({"id": "q", "ctype": "gbytes", "capacity": 4})
    doc["logical"][0]["members"].append("q")
    with pytest.raises(ModelError, match="mixed capacity types"):
        load_model(json.dumps(doc))


def test_unknown_keys_strict_vs_lenient():
    doc = json.loads(json.dumps(MINIMAL))
    doc["flows"][0]["priority"] = 3
    with pytest.raises(ModelError, match="unknown key"):
        load_model(json.dumps(doc))
    model = load_model(json.dumps(doc), lenient=True)
    assert model.num_flows == 1


def test_malformed_document():
    with pytest.raises(ModelError, match="malformed"):
        load_model("{not json")
    with pytest.raises(ModelError, match="missing section"):
        load_model(json.dumps({"physical": [], "logical": []}))


def test_incidence_shape_and_overlap():
    model = NetworkModel(
        physicals=(
            PhysicalEntity("p0", "u", 1.0),
            PhysicalEntity("p1", "u", 1.0),
            PhysicalEntity("p2", "u", 1.0),
        ),
        logicals=(
            LogicalEntity("a", ("p0", "p2"), LossSpec("erlang_b")),
            LogicalEntity("b", ("p0",), LossSpec("erlang_b")),
        ),
        flows=(Flow("f", 1.0, {"a": 1}),),
    )
    s = incidence(model)
    assert s.tolist() == [[1.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    assert s.sum() == sum(len(lg.members) for lg in model.logicals)


def test_demand_matrix_and_offered_vector():
    model = three_potentials(loads=(3.0, 1.0, 2.0))
    a = demand_matrix(model)
    assert a.shape == (3, 3)
    assert np.array_equal(a, np.eye(3))
    assert offered_vector(model).tolist() == [3.0, 1.0, 2.0]
    assert no_blocking_loads(model).tolist() == [3.0, 1.0, 2.0]


def test_derived_arrays_are_compiled_once_and_read_only():
    model = three_potentials()
    assert demand_matrix(model) is demand_matrix(model)
    for array in (demand_matrix(model), offered_vector(model), incidence(model), loss_groups(model)[0][1]):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_allocation_validation():
    with pytest.raises(ModelError):
        CapacityAllocation(np.array([1.0, -0.5]))
    with pytest.raises(ModelError):
        CapacityAllocation(np.array([np.nan]))
    with pytest.raises(ModelError):
        CapacityAllocation(np.ones((2, 2)))
    alloc = CapacityAllocation([1.0, 2.0])
    assert len(alloc) == 2
    assert alloc.values.dtype == np.float64


def test_check_feasible_shared_capacity():
    model = symmetric_pair(phys_cap=10.0)
    ok = check_feasible(model, CapacityAllocation([5.0, 5.0]))
    assert ok.ok
    assert ok.slack == pytest.approx([0.0])

    bad = check_feasible(model, CapacityAllocation([6.0, 5.0]))
    assert not bad.ok
    assert bad.slack == pytest.approx([-1.0])


def test_check_feasible_is_monotone():
    model = symmetric_pair(phys_cap=10.0)
    rng = np.random.default_rng(7)
    for _ in range(50):
        c = rng.uniform(0.0, 6.0, size=2)
        if check_feasible(model, CapacityAllocation(c)).ok:
            smaller = c * rng.uniform(0.0, 1.0, size=2)
            assert check_feasible(model, CapacityAllocation(smaller)).ok


def test_zero_allocation_always_feasible(small_instances):
    for model, _ in small_instances[:20]:
        assert check_feasible(model, CapacityAllocation(np.zeros(model.m))).ok


def test_dimension_mismatch():
    model = symmetric_pair()
    with pytest.raises(ModelError, match="length"):
        check_feasible(model, CapacityAllocation([1.0]))


def _solved_diagnostics(model, alloc):
    return diagnostics(model, alloc, solve_fixed_point(model, CapacityAllocation([5.0, 5.0])))


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize(
    "layer, call",
    [
        ("fixedpoint", solve_fixed_point),
        ("fixedpoint", _solved_diagnostics),
        ("inner", surrogate),
        ("inner", lambda model, alloc: inner_objective(model, alloc, np.zeros(model.m))),
        ("inner", lambda model, alloc: inner_gradient(model, alloc, np.zeros(model.m))),
        ("outer", supergradient),
        ("simulate", lambda model, alloc: simulate(model, alloc, SimConfig(seed=1, horizon=100.0))),
    ],
    ids=["solve_fixed_point", "diagnostics", "surrogate", "inner_objective", "inner_gradient", "supergradient", "simulate"],
)
def test_every_entry_point_checks_the_allocation_length(layer, call, length):
    with pytest.raises(ValueError, match=rf"^{layer}: allocation length {length} != m=2$"):
        call(symmetric_pair(), CapacityAllocation([5.0] * length))


def _direct(capacity=1.0, members=("p",), loss=LossSpec("erlang_b"), offered=1.0):
    return NetworkModel(
        physicals=(PhysicalEntity("p", "u", capacity), PhysicalEntity("q", "u", 1.0)),
        logicals=(LogicalEntity("l", members, loss),),
        flows=(Flow("f", offered, {"l": 1}),),
    )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("capacity", True, "physical 'p' capacity must be a number"),
        ("offered", True, "flow 'f' offered must be a number"),
        ("loss", "erlang_b", "logical 'l' loss must be a LossSpec"),
        ("members", "pq", "logical 'l' members must be a list of ids"),
    ],
)
def test_a_model_built_directly_is_checked_as_a_document_is(field, value, message):
    assert _direct().m == 1
    with pytest.raises(ModelError, match=f"^model: {message}$"):
        _direct(**{field: value})


def test_by_family_calls_each_family_once_and_scatters_in_entity_order(monkeypatch):
    kinds = ("erlang_b", "linear_clip", "erlang_b", "exp_overflow")
    model = NetworkModel(
        physicals=(PhysicalEntity("p", "u", 10.0),),
        logicals=tuple(LogicalEntity(f"l{i}", ("p",), LossSpec(kind)) for i, kind in enumerate(kinds)),
        flows=(Flow("f", 1.0, {f"l{i}": 1 for i in range(len(kinds))}),),
    )
    calls = []
    for tag, kind in enumerate(("erlang_b", "linear_clip", "exp_overflow"), start=1):

        def blocking(rho, cap, tag=tag):
            calls.append((tag, rho.tolist(), cap.tolist()))
            return 100.0 * tag + rho * cap

        monkeypatch.setattr(get_family(kind), "blocking", blocking)
    rho, caps = np.array([1.0, 2.0, 3.0, 4.0]), np.array([5.0, 6.0, 7.0, 8.0])
    assert _by_family(model, "blocking", rho, caps).tolist() == [105.0, 212.0, 121.0, 332.0]
    assert calls == [(1, [1.0, 3.0], [5.0, 7.0]), (2, [2.0], [6.0]), (3, [4.0], [8.0])]
    calls.clear()
    where = np.array([False, True, True, False])
    assert _by_family(model, "blocking", rho, caps, where=where).tolist() == [0.0, 212.0, 121.0, 0.0]
    assert calls == [(1, [3.0], [7.0]), (2, [2.0], [6.0])]  # no call on exp_overflow's empty group


def test_by_family_names_the_first_entity_whose_hook_fails_alone(monkeypatch):
    # A loss hook sees arrays, not ids, so its error names no entity; the
    # dispatcher re-runs the failing group one element at a time and names
    # the first entity that fails alone, keeping the error's type.
    kinds = ("erlang_b", "linear_clip", "erlang_b", "erlang_b", "exp_overflow")
    model = NetworkModel(
        physicals=(PhysicalEntity("p", "u", 10.0),),
        logicals=tuple(LogicalEntity(f"l{i}", ("p",), LossSpec(kind)) for i, kind in enumerate(kinds)),
        flows=(Flow("f", 1.0, {f"l{i}": 1 for i in range(len(kinds))}),),
    )
    y, caps = np.array([0.5, 800.0, 40.0, 60.0, 0.5]), np.ones(5)
    with pytest.raises(InversionError, match=r"^loss: erlang_b offered load above 1e\+12 at this log-loss level \(entity 'l2'\)$"):
        _by_family(model, "offered_at", y, caps)
    with pytest.raises(InversionError, match=r"^loss: linear_clip offered load overflows at this log-loss level \(entity 'l1'\)$"):
        _by_family(model, "offered_at", y, caps, where=np.arange(5) < 2)

    def blocking(rho, cap):
        if (rho > 2.0).any():
            raise LossDomainError("loss: exp_overflow load above 2")
        return rho

    monkeypatch.setattr(get_family("exp_overflow"), "blocking", blocking)
    assert _by_family(model, "blocking", y, caps, where=np.arange(5) == 4).tolist() == [0.0, 0.0, 0.0, 0.0, 0.5]
    with pytest.raises(LossDomainError, match=r"^loss: exp_overflow load above 2 \(entity 'l4'\)$"):
        _by_family(model, "blocking", y + 2.0, caps, where=np.arange(5) == 4)
