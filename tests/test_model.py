import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliceforge import (
    CapacityAllocation,
    Flow,
    LogicalEntity,
    LossSpec,
    ModelError,
    NetworkModel,
    PhysicalEntity,
    check_feasible,
    demand_matrix,
    incidence,
    load_model,
    loss_groups,
    no_blocking_loads,
    offered_vector,
    serialize_model,
)

from conftest import symmetric_pair, three_potentials

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
