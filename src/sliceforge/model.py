"""Network model: physical entities, logical entities over them, and flows.

A physical entity is any capacitated resource (link, processor, storage)
with one scalar capacity of one type.  A logical entity is a non-empty set
of same-type physical entities acting as a single virtual resource, with a
loss function attached.  A flow offers load to a set of logical entities,
demanding a positive integer number of capacity units on each.

Models are immutable after construction and validated on construction.
The interchange format is a single JSON document (see load_model).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .loss import InversionError, LossDomainError, LossSpec, get_family

__all__ = [
    "ModelError",
    "PhysicalEntity",
    "LogicalEntity",
    "Flow",
    "NetworkModel",
    "CapacityAllocation",
    "FeasibilityReport",
    "load_model",
    "serialize_model",
    "incidence",
    "demand_matrix",
    "offered_vector",
    "loss_groups",
    "no_blocking_loads",
    "check_feasible",
]


class ModelError(ValueError):
    """Malformed or invalid model document; the message names the culprit
    and starts with the layer, ``model: ``, as other layers' errors do."""

    def __init__(self, message: str):
        super().__init__(f"model: {message}")


@dataclass(frozen=True)
class PhysicalEntity:
    id: str
    ctype: str
    capacity: float


@dataclass(frozen=True)
class LogicalEntity:
    id: str
    members: tuple[str, ...]
    loss: LossSpec


@dataclass(frozen=True)
class Flow:
    id: str
    offered: float
    demands: dict[str, int]


@dataclass(frozen=True)
class NetworkModel:
    """Validated network: n physicals, m logicals, R flows, document order."""

    physicals: tuple[PhysicalEntity, ...]
    logicals: tuple[LogicalEntity, ...]
    flows: tuple[Flow, ...]

    def __post_init__(self):
        _validate(self)

    @property
    def n(self) -> int:
        return len(self.physicals)

    @property
    def m(self) -> int:
        return len(self.logicals)

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    def physical_capacities(self) -> np.ndarray:
        return np.array([p.capacity for p in self.physicals], dtype=float)


def _check_id(value, what):
    if not isinstance(value, str) or not value:
        raise ModelError(f"{what} id must be a non-empty string")
    return value


def _validate(model: NetworkModel) -> None:
    if len(model.physicals) < 1:
        raise ModelError("needs at least one physical entity")
    if len(model.logicals) < 1:
        raise ModelError("needs at least one logical entity")

    ctypes = {}
    for p in model.physicals:
        _check_id(p.id, "physical")
        if p.id in ctypes:
            raise ModelError(f"duplicate id: physical '{p.id}'")
        if not isinstance(p.ctype, str) or not p.ctype:
            raise ModelError(f"physical '{p.id}' has an empty capacity type")
        if not math.isfinite(_as_number(p.capacity, f"physical '{p.id}' capacity")):
            raise ModelError(f"physical '{p.id}' capacity must be finite")
        if p.capacity < 0:
            raise ModelError(f"negative capacity on physical '{p.id}'")
        ctypes[p.id] = p.ctype

    logical_ids = set()
    for lg in model.logicals:
        _check_id(lg.id, "logical")
        if lg.id in logical_ids:
            raise ModelError(f"duplicate id: logical '{lg.id}'")
        logical_ids.add(lg.id)
        if not isinstance(lg.loss, LossSpec):
            raise ModelError(f"logical '{lg.id}' loss must be a LossSpec")
        if isinstance(lg.members, str):
            raise ModelError(f"logical '{lg.id}' members must be a list of ids")
        if len(lg.members) == 0:
            raise ModelError(f"empty member set on logical '{lg.id}'")
        seen_members = set()
        member_types = set()
        for pid in lg.members:
            if pid not in ctypes:
                raise ModelError(f"dangling reference: logical '{lg.id}' member '{pid}'")
            if pid in seen_members:
                raise ModelError(f"duplicate member '{pid}' on logical '{lg.id}'")
            seen_members.add(pid)
            member_types.add(ctypes[pid])
        if len(member_types) > 1:
            raise ModelError(f"mixed capacity types in logical '{lg.id}'")

    flow_ids = set()
    for fl in model.flows:
        _check_id(fl.id, "flow")
        if fl.id in flow_ids:
            raise ModelError(f"duplicate id: flow '{fl.id}'")
        flow_ids.add(fl.id)
        if not math.isfinite(_as_number(fl.offered, f"flow '{fl.id}' offered")):
            raise ModelError(f"flow '{fl.id}' offered load must be finite")
        if fl.offered < 0:
            raise ModelError(f"negative offered load on flow '{fl.id}'")
        if not fl.demands:
            raise ModelError(f"empty demand map on flow '{fl.id}'")
        for lid, units in fl.demands.items():
            if lid not in logical_ids:
                raise ModelError(f"dangling reference: flow '{fl.id}' demands '{lid}'")
            if isinstance(units, bool) or not isinstance(units, int) or units < 1:
                raise ModelError(f"non-integer demand on flow '{fl.id}' for '{lid}'")


@dataclass(frozen=True, eq=False)
class CapacityAllocation:
    """Non-negative capacity vector indexed like the model's logicals."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ModelError("allocation must be a 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ModelError("allocation values must be finite")
        if np.any(arr < 0):
            raise ModelError("allocation values must be >= 0")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    slack: np.ndarray = field(repr=False)
    tol: float


# ---------------------------------------------------------------------------
# derived arrays


def _compiled(build):
    """Compile `build(model)` once per model, at its first call (load_model
    makes none): later calls return its arrays, cached read-only."""
    key = "_compiled_" + build.__name__

    @wraps(build)
    def cached(model: NetworkModel):
        if key not in model.__dict__:
            model.__dict__[key] = _read_only(build(model))
        return model.__dict__[key]

    return cached


def _read_only(out):
    if isinstance(out, np.ndarray):
        out.flags.writeable = False
    for part in out if isinstance(out, tuple) else ():
        _read_only(part)
    return out


@_compiled
def incidence(model: NetworkModel) -> np.ndarray:
    """m x n 0-1 matrix; entry (i, j) = 1 iff physical j is in logical i."""
    index = {p.id: j for j, p in enumerate(model.physicals)}
    s = np.zeros((model.m, model.n))
    for i, lg in enumerate(model.logicals):
        for pid in lg.members:
            s[i, index[pid]] = 1.0
    return s


@_compiled
def demand_matrix(model: NetworkModel) -> np.ndarray:
    """m x R integer matrix of capacity units demanded per unit flow."""
    index = {lg.id: i for i, lg in enumerate(model.logicals)}
    a = np.zeros((model.m, model.num_flows))
    for r, fl in enumerate(model.flows):
        for lid, units in fl.demands.items():
            a[index[lid], r] = units
    return a


@_compiled
def offered_vector(model: NetworkModel) -> np.ndarray:
    return np.array([fl.offered for fl in model.flows], dtype=float)


@_compiled
def loss_groups(model: NetworkModel) -> tuple[tuple[LossSpec, np.ndarray], ...]:
    """Logical entities grouped by loss family, in order of first appearance:
    (spec, indices) pairs, so each family's array kernels run once per group."""
    groups: dict[LossSpec, list[int]] = {}
    for i, lg in enumerate(model.logicals):
        groups.setdefault(lg.loss, []).append(i)
    return tuple((spec, np.array(idx)) for spec, idx in groups.items())


def _by_family(model: NetworkModel, method: str, *arrays: np.ndarray, where: np.ndarray | None = None) -> np.ndarray:
    """Each loss family's `method` on its entities' elements of `arrays` (those
    in the mask `where`, where given), in entity order with 0 elsewhere: one
    call per non-empty group, the hook looked up on the family instance.

    Where a hook raises InversionError or LossDomainError, it is re-run one
    element at a time (elements never interact), and the first element's
    own error is raised again, naming its entity."""
    out = np.zeros(model.m)
    for spec, idx in loss_groups(model):
        if where is not None:
            idx = idx[where[idx]]
        if idx.size:
            hook = getattr(get_family(spec.kind), method)
            try:
                out[idx] = hook(*(a[idx] for a in arrays))
            except (InversionError, LossDomainError):
                for j in idx:
                    try:
                        hook(*(a[j : j + 1] for a in arrays))
                    except (InversionError, LossDomainError) as exc:
                        raise type(exc)(f"{exc} (entity '{model.logicals[j].id}')") from exc
                raise
    return out


def _capacities(model: NetworkModel, alloc: CapacityAllocation, layer: str) -> np.ndarray:
    """The allocation's capacities as floats; ValueError led by `layer` if
    there is not one per logical entity."""
    caps = np.asarray(alloc.values, dtype=float)
    if caps.size != model.m:
        raise ValueError(f"{layer}: allocation length {caps.size} != m={model.m}")
    return caps


def no_blocking_loads(model: NetworkModel) -> np.ndarray:
    """Per-logical offered load if nothing anywhere were blocked."""
    return demand_matrix(model) @ offered_vector(model)


def check_feasible(model: NetworkModel, alloc: CapacityAllocation) -> FeasibilityReport:
    """Does alloc satisfy the shared-capacity constraints?

    ok iff usage_k <= C_phys_k + tol on every physical k (usage is the sum
    of member logicals' capacities) and all coordinates >= -tol, where
    tol is scale-aware: 1e-9 * (1 + max physical capacity).
    """
    values = np.asarray(alloc.values, dtype=float)
    if values.size != model.m:
        raise ModelError(f"allocation length {values.size} != m={model.m}")
    caps = model.physical_capacities()
    tol = 1e-9 * (1.0 + (caps.max() if caps.size else 0.0))
    usage = incidence(model).T @ values
    slack = caps - usage
    ok = bool(np.all(slack >= -tol) and np.all(values >= -tol))
    return FeasibilityReport(ok=ok, slack=slack, tol=tol)


# ---------------------------------------------------------------------------
# interchange format


_PHYSICAL_KEYS = {"id", "ctype", "capacity"}
_LOGICAL_KEYS = {"id", "members", "loss"}
_FLOW_KEYS = {"id", "offered", "demands"}


def _reject_unknown(obj, allowed, where, lenient):
    if lenient:
        return
    for key in obj:
        if key not in allowed:
            raise ModelError(f"unknown key '{key}' in {where}")


def _as_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{where} must be a number")
    return float(value)


def _as_demand(value, where):
    if isinstance(value, bool):
        raise ModelError(f"non-integer demand on {where}")
    if isinstance(value, int):
        number = value
    elif isinstance(value, float) and value.is_integer():
        number = int(value)
    else:
        raise ModelError(f"non-integer demand on {where}")
    if number < 1:
        raise ModelError(f"non-integer demand on {where}")
    return number


def load_model(text: str, lenient: bool = False) -> NetworkModel:
    """Parse and validate a JSON model document.

    Unknown keys are rejected unless lenient is true.  Raises ModelError
    with the offending id for all parse and validation failures.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    _reject_unknown(doc, {"physical", "logical", "flows"}, "model document", lenient)
    for section in ("physical", "logical", "flows"):
        if section not in doc:
            raise ModelError(f"missing section '{section}'")
        if not isinstance(doc[section], list):
            raise ModelError(f"section '{section}' must be a list")

    physicals = []
    for entry in doc["physical"]:
        if not isinstance(entry, dict):
            raise ModelError("physical entries must be objects")
        pid = entry.get("id")
        _check_id(pid, "physical")
        _reject_unknown(entry, _PHYSICAL_KEYS, f"physical '{pid}'", lenient)
        if "ctype" not in entry or "capacity" not in entry:
            raise ModelError(f"physical '{pid}' needs ctype and capacity")
        physicals.append(
            PhysicalEntity(
                id=pid,
                ctype=entry["ctype"] if isinstance(entry["ctype"], str) else "",
                capacity=_as_number(entry["capacity"], f"physical '{pid}' capacity"),
            )
        )

    logicals = []
    for entry in doc["logical"]:
        if not isinstance(entry, dict):
            raise ModelError("logical entries must be objects")
        lid = entry.get("id")
        _check_id(lid, "logical")
        _reject_unknown(entry, _LOGICAL_KEYS, f"logical '{lid}'", lenient)
        members = entry.get("members")
        if not isinstance(members, list) or not all(isinstance(x, str) for x in members):
            raise ModelError(f"logical '{lid}' members must be a list of ids")
        loss_obj = entry.get("loss")
        if not isinstance(loss_obj, dict) or "kind" not in loss_obj:
            raise ModelError(f"logical '{lid}' needs a loss object with a kind")
        _reject_unknown(loss_obj, {"kind"}, f"logical '{lid}' loss", lenient)
        kind = loss_obj["kind"]
        try:
            spec = LossSpec(kind=kind)
        except Exception:
            raise ModelError(f"unknown loss kind '{kind}' on logical '{lid}'") from None
        logicals.append(LogicalEntity(id=lid, members=tuple(members), loss=spec))

    flows = []
    for entry in doc["flows"]:
        if not isinstance(entry, dict):
            raise ModelError("flow entries must be objects")
        fid = entry.get("id")
        _check_id(fid, "flow")
        _reject_unknown(entry, _FLOW_KEYS, f"flow '{fid}'", lenient)
        if "offered" not in entry or "demands" not in entry:
            raise ModelError(f"flow '{fid}' needs offered and demands")
        demands_obj = entry["demands"]
        if not isinstance(demands_obj, dict):
            raise ModelError(f"flow '{fid}' demands must be an object")
        demands = {
            lid: _as_demand(units, f"flow '{fid}' for '{lid}'") for lid, units in demands_obj.items()
        }
        flows.append(
            Flow(id=fid, offered=_as_number(entry["offered"], f"flow '{fid}' offered"), demands=demands)
        )

    return NetworkModel(physicals=tuple(physicals), logicals=tuple(logicals), flows=tuple(flows))


def serialize_model(model: NetworkModel, indent: int = 2) -> str:
    """Render a model back into the interchange format (round-trips)."""
    doc = {
        "physical": [
            {"id": p.id, "ctype": p.ctype, "capacity": p.capacity} for p in model.physicals
        ],
        "logical": [
            {"id": lg.id, "members": list(lg.members), "loss": {"kind": lg.loss.kind}}
            for lg in model.logicals
        ],
        "flows": [
            {"id": fl.id, "offered": fl.offered, "demands": dict(fl.demands)} for fl in model.flows
        ],
    }
    return json.dumps(doc, indent=indent)
