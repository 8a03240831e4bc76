"""Campaign scenario ingestion, validation, and time expansion.

A scenario is a JSON document describing locations, transport arcs with
delta-v / time-of-flight / departure windows, commodities, vehicles, supply
and demand entries, and per-arc objective weights. A loaded vehicle carries
its sizing constants as one `SizingParams`, and an objective entry one cost
per commodity (a scalar `commodity_cost` applies to every commodity).
`expand_time_network` unrolls it into the flights (launch and transport
arcs) over the discrete day grid; staying at a node from one day to the next
is the formulation's holdover, not an arc.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .spacecraft import SizingParams

NODE_KINDS = ("body-surface", "orbit")
BUILTIN_COMMODITIES = ("payload", "propellant")


class ScenarioError(ValueError):
    pass


class ScenarioParseError(ScenarioError):
    """Malformed document: bad JSON, missing key, or wrong type."""


class ScenarioReferenceError(ScenarioError):
    """A demand, arc, or objective entry names an id that does not exist."""


class ScenarioDomainError(ScenarioError):
    """A value is outside its legal domain (negative dv, bad window, ...)."""


@dataclass(frozen=True)
class Node:
    id: str
    kind: str


@dataclass(frozen=True)
class Arc:
    src: str
    dst: str
    delta_v: float
    tof: int
    window: tuple[int, ...]
    is_launch: bool = False


@dataclass(frozen=True)
class Commodity:
    id: str


@dataclass(frozen=True)
class DemandEntry:
    commodity: str
    node: str
    time: int
    amount: float  # positive supply, negative demand, math.inf = unbounded


@dataclass(frozen=True)
class VehicleSpec:
    id: str
    sizing: SizingParams
    # design variable ranges keyed "m_p"/"m_f" (and optionally "m_d")
    design_bounds: tuple[tuple[str, tuple[float, float]], ...] = ()

    def bound(self, which: str) -> tuple[float, float]:
        for key, rng in self.design_bounds:
            if key == which:
                return rng
        return (0.0, 50000.0)


@dataclass(frozen=True)
class ObjectiveEntry:
    src: str
    dst: str
    commodity_cost: tuple[tuple[str, float], ...]  # (commodity id, cost), sorted by id
    vehicle_cost: float


@dataclass(frozen=True)
class Scenario:
    name: str
    horizon: int
    nodes: tuple[Node, ...]
    arcs: tuple[Arc, ...]
    commodities: tuple[Commodity, ...]
    vehicles: tuple[VehicleSpec, ...]
    demands: tuple[DemandEntry, ...]
    objective: tuple[ObjectiveEntry, ...]

    def node_ids(self):
        return [n.id for n in self.nodes]

    def vehicle(self, vid: str) -> VehicleSpec:
        for v in self.vehicles:
            if v.id == vid:
                return v
        raise KeyError(vid)


@dataclass(frozen=True)
class ExpandedArc:
    vehicle: str
    src: str
    dst: str
    depart: int
    arrive: int
    kind: str  # transport | launch
    delta_v: float
    family: int  # index into Scenario.arcs

    @property
    def key(self) -> str:
        """`<src>><dst>#<family>@<depart>`: one vehicle's arc, told apart
        from a parallel family's arc on the same leg and day."""
        return f"{self.src}>{self.dst}#{self.family}@{self.depart}"


@dataclass(frozen=True)
class TimeExpandedNetwork:
    horizon: int
    nodes: tuple[str, ...]
    arcs: tuple[ExpandedArc, ...]
    excluded: int  # departures dropped because arrival exceeds the horizon


_MISSING = object()


def _expect(obj, key, types, path, default=_MISSING):
    if not isinstance(obj, dict):
        raise ScenarioParseError(f"{path} must be an object")
    if key not in obj:
        if default is not _MISSING:
            return default
        raise ScenarioParseError(f"missing field {path}.{key}")
    val = obj[key]
    wanted = types if isinstance(types, tuple) else (types,)
    # bool is an int subclass; only accept it where bool was asked for
    if not isinstance(val, wanted) or (isinstance(val, bool) and bool not in wanted):
        raise ScenarioParseError(f"field {path}.{key} has wrong type {type(val).__name__}")
    return val


def _number(val, path, lo=-math.inf, hi=math.inf, strict=False) -> float:
    """The JSON number `val` at `path` as a finite float in [lo, hi], or in
    (lo, hi) if `strict`. An int beyond the float range counts as infinite."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioParseError(f"field {path} has wrong type {type(val).__name__}")
    try:
        x = float(val)
    except OverflowError:
        x = math.inf
    # compare `val`, not `x`: an int and a float compare exactly
    if not (math.isfinite(x) and (lo < val < hi if strict else lo <= val <= hi)):
        ends = "()" if strict else "[]"
        raise ScenarioDomainError(
            f"field {path} must be a finite number in {ends[0]}{lo}, {hi}{ends[1]}, "
            f"got {val if math.isfinite(x) else x}")
    return x


def _day(val, path, lo=0, hi=math.inf) -> int:
    """A whole number of days in [lo, hi]."""
    if _number(val, path, lo, hi) % 1:
        raise ScenarioDomainError(f"field {path} must be a whole number of days, got {val}")
    return int(val)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document (JSON text)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("document root must be an object")

    name = _expect(doc, "name", str, "$", default="scenario")
    horizon = _day(_expect(doc, "horizon_days", (int, float), "$"), "$.horizon_days", 1)

    nodes = []
    seen = set()
    for i, nd in enumerate(_expect(doc, "nodes", list, "$", default=[])):
        path = f"$.nodes[{i}]"
        nid = _expect(nd, "id", str, path)
        kind = _expect(nd, "kind", str, path)
        if kind not in NODE_KINDS:
            raise ScenarioDomainError(f"{path}.kind must be one of {NODE_KINDS}, got {kind!r}")
        if nid in seen:
            raise ScenarioDomainError(f"duplicate node id {nid!r}")
        seen.add(nid)
        nodes.append(Node(nid, kind))
    node_ids = seen

    arcs = []
    for i, ad in enumerate(_expect(doc, "arcs", list, "$", default=[])):
        path = f"$.arcs[{i}]"
        src = _expect(ad, "from", str, path)
        dst = _expect(ad, "to", str, path)
        for nid in (src, dst):
            if nid not in node_ids:
                raise ScenarioReferenceError(f"{path} references unknown node {nid!r}")
        dv = _number(_expect(ad, "delta_v_mps", (int, float), path, default=0.0),
                     f"{path}.delta_v_mps", 0)
        tof = _day(_expect(ad, "tof_days", (int, float), path), f"{path}.tof_days")
        window_raw = _expect(ad, "window", list, path, default=list(range(horizon)))
        window = tuple(sorted({_day(t, f"{path}.window[{k}]", 0, horizon - 1)
                               for k, t in enumerate(window_raw)}))
        is_launch = _expect(ad, "is_launch", bool, path, default=False)
        arcs.append(Arc(src, dst, dv, tof, window, is_launch))

    commodities = [Commodity(cid) for cid in BUILTIN_COMMODITIES]
    seen = set(BUILTIN_COMMODITIES)
    for i, cd in enumerate(_expect(doc, "commodities", list, "$", default=[])):
        path = f"$.commodities[{i}]"
        cid = _expect(cd, "id", str, path)
        kind = _expect(cd, "kind", str, path, default="continuous")
        if kind != "continuous":
            # every commodity flows as a real amount; nothing rounds it to units
            raise ScenarioDomainError(f"{path}.kind must be 'continuous', got {kind!r}")
        if cid in BUILTIN_COMMODITIES:
            continue
        if cid in seen:
            raise ScenarioDomainError(f"duplicate commodity id {cid!r}")
        seen.add(cid)
        commodities.append(Commodity(cid))
    commodity_ids = seen

    vehicles = []
    seen = set()
    for i, vd in enumerate(_expect(doc, "vehicles", list, "$", default=[])):
        path = f"$.vehicles[{i}]"
        vid = _expect(vd, "id", str, path)
        if vid in seen or vid in commodity_ids:
            raise ScenarioDomainError(f"duplicate id {vid!r} (vehicle ids share the commodity namespace)")
        seen.add(vid)
        isp, burn, m_ub, alpha = (
            _number(_expect(vd, key, (int, float), path), f"{path}.{key}", 0, hi, strict=True)
            for key, hi in (("isp_s", math.inf), ("burn_time_s", math.inf),
                            ("m_ub_kg", math.inf), ("alpha", 1)))
        sizing = SizingParams(alpha=alpha, isp=isp, burn_time=burn, m_ub=m_ub)
        db = []
        for key, rng in _expect(vd, "design_bounds", dict, path, default={}).items():
            if key not in ("m_p", "m_f", "m_d"):
                raise ScenarioParseError(f"{path}.design_bounds has unknown key {key!r}")
            if not isinstance(rng, list) or len(rng) != 2:
                raise ScenarioParseError(f"{path}.design_bounds.{key} must be [lo, hi]")
            lo = _number(rng[0], f"{path}.design_bounds.{key}[0]", 0)
            hi = _number(rng[1], f"{path}.design_bounds.{key}[1]", lo)
            db.append((key, (lo, hi)))
        vehicles.append(VehicleSpec(vid, sizing, tuple(db)))
    vehicle_ids = seen

    demands = []
    for i, dd in enumerate(_expect(doc, "demands", list, "$", default=[])):
        path = f"$.demands[{i}]"
        cid = _expect(dd, "commodity", str, path)
        if cid not in commodity_ids and cid not in vehicle_ids:
            raise ScenarioReferenceError(f"{path} references unknown commodity {cid!r}")
        nid = _expect(dd, "node", str, path)
        if nid not in node_ids:
            raise ScenarioReferenceError(f"{path} references unknown node {nid!r}")
        t = _day(_expect(dd, "time", (int, float), path), f"{path}.time", 0, horizon - 1)
        amount = _expect(dd, "amount", (int, float, str), path)
        if isinstance(amount, str):
            if amount != "inf":
                raise ScenarioParseError(f'{path}.amount string form must be "inf"')
            amount = math.inf
        else:
            amount = _number(amount, f"{path}.amount")
        demands.append(DemandEntry(cid, nid, t, amount))

    legs = {(a.src, a.dst) for a in arcs}
    objective = []
    for i, od in enumerate(_expect(doc, "objective", list, "$", default=[])):
        path = f"$.objective[{i}]"
        src = _expect(od, "from", str, path)
        dst = _expect(od, "to", str, path)
        if (src, dst) not in legs:
            raise ScenarioReferenceError(
                f"{path} weights the leg {src!r} -> {dst!r}, which no arc family flies")
        raw = _expect(od, "commodity_cost", (int, float, dict), path, default=0.0)
        if isinstance(raw, dict):
            cc = []
            for cid, cost in raw.items():
                if cid not in commodity_ids:
                    raise ScenarioReferenceError(f"{path}.commodity_cost names unknown commodity {cid!r}")
                cc.append((cid, _number(cost, f"{path}.commodity_cost.{cid}")))
        else:
            cost = _number(raw, f"{path}.commodity_cost")
            cc = [(cid, cost) for cid in commodity_ids]
        cc = tuple(sorted(cc))
        vc = _number(_expect(od, "vehicle_cost", (int, float), path, default=0.0),
                     f"{path}.vehicle_cost")
        objective.append(ObjectiveEntry(src, dst, cc, vc))

    return Scenario(name, horizon, tuple(nodes), tuple(arcs), tuple(commodities),
                    tuple(vehicles), tuple(demands), tuple(objective))


def expand_time_network(s: Scenario) -> TimeExpandedNetwork:
    """Unroll the scenario's flights over its day grid.

    One transport (or launch) arc per (vehicle, arc family, window
    departure) whose arrival stays inside the horizon. Departures that would
    arrive late are dropped silently and only counted.
    """
    arcs: list[ExpandedArc] = []
    excluded = 0
    for f, fam in enumerate(s.arcs):
        kind = "launch" if fam.is_launch else "transport"
        for veh in s.vehicles:
            for t in fam.window:
                if t + fam.tof > s.horizon - 1:
                    excluded += 1
                    continue
                arcs.append(ExpandedArc(veh.id, fam.src, fam.dst, t, t + fam.tof,
                                        kind, fam.delta_v, f))
    return TimeExpandedNetwork(s.horizon, tuple(s.node_ids()), tuple(arcs), excluded)
