"""Campaign MILP assembly on a time-expanded network.

Every vehicle-flown arc (launch or transport) carries per-commodity outflow
and inflow variables, a binary use indicator, and three auxiliaries tying
flow capacity to the vehicle's design masses. The bilinear products
design_mass * indicator are linearized exactly with big-M rows, propellant
burn is a constant-fraction transformation per arc, and the design triple
(m_d, m_p, m_f) is closed either by a linear structural ratio or by an
embedded sizing surrogate.

Constraint tags follow a fixed grammar so solutions can be audited row by
row: `eq2:<node>:<t>:<commodity>` mass balance, `eq3:<v>:<arc>:<c>`
transformation, `eq4:<v>:<arc>` / `eq5:<v>:<arc>` payload and propellant
capacity, `bigM:<z>:<1..4>` linearization, `sizing:<v>` design closure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .milp_ir import MilpModel, Solution
from .scenario import Scenario, TimeExpandedNetwork, expand_time_network
from .surrogate import (LinearSurrogate, ReluNetwork, embed_network,
                        propagate_bounds)

PROPELLANT = "propellant"
STRUCT = "structure"

# dry-mass contribution per kg of payload capacity in the sizing closure
PAYLOAD_SIZING_COEFF = 2.3931


class FormulationError(ValueError):
    pass


@dataclass(frozen=True)
class LinearEpsilon:
    """Structural-ratio closure: epsilon = m_d / (m_d + m_p)."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class FixedDesign:
    """Pin the dry mass to a known value (used for replaying oracle runs)."""

    m_d: float


@dataclass
class FlowVariables:
    """Variable ids for one assembled model, keyed by expanded-arc index.

    Powered arcs (kind launch/transport) get x_plus/x_minus per commodity,
    a binary `use`, and the three z auxiliaries. Holdover arcs get a single
    variable per label in `hold` (outflow and inflow are the same quantity,
    so the identity transformation holds by construction); labels are the
    commodity ids, the vehicle ids (integer count), and "structure".
    """

    network: TimeExpandedNetwork
    commodities: list[str]
    vehicle_ids: list[str]
    x_plus: dict = field(default_factory=dict)     # (arc_idx, commodity) -> vid
    x_minus: dict = field(default_factory=dict)    # (arc_idx, commodity) -> vid
    use: dict = field(default_factory=dict)        # arc_idx -> vid
    z_payload: dict = field(default_factory=dict)  # arc_idx -> vid
    z_propellant: dict = field(default_factory=dict)
    z_struct: dict = field(default_factory=dict)
    hold: dict = field(default_factory=dict)       # (arc_idx, label) -> vid
    design: dict = field(default_factory=dict)     # (vehicle_id, field) -> vid
    omitted_rows: set = field(default_factory=set)  # (node, t, label)

    def powered(self):
        return [(i, a) for i, a in enumerate(self.network.arcs)
                if a.kind != "holdover"]

    def holdovers(self):
        return [(i, a) for i, a in enumerate(self.network.arcs)
                if a.kind == "holdover"]


def compute_propellant_fraction(delta_v: float, isp: float, g0: float = 9.8) -> float:
    """Fraction of departing wet mass burned to achieve delta_v."""
    if delta_v < 0:
        raise ValueError(f"delta_v must be nonnegative, got {delta_v}")
    if isp <= 0 or g0 <= 0:
        raise ValueError("isp and g0 must be positive")
    return 1.0 - math.exp(-delta_v / (isp * g0))


def create_flow_variables(model: MilpModel, scenario: Scenario,
                          network: TimeExpandedNetwork) -> FlowVariables:
    commodities = [c.id for c in scenario.commodities]
    vehicle_ids = [v.id for v in scenario.vehicles]
    clash = set(commodities) & set(vehicle_ids)
    if clash:
        raise FormulationError(f"ids used as both commodity and vehicle: {sorted(clash)}")
    if STRUCT in commodities or STRUCT in vehicle_ids:
        raise FormulationError(f"{STRUCT!r} is a reserved commodity label")

    fv = FlowVariables(network, commodities, vehicle_ids)
    for veh in scenario.vehicles:
        for which in ("m_d", "m_p", "m_f"):
            lo, hi = veh.bound(which)
            fv.design[(veh.id, which)] = model.add_variable(
                f"{which}[{veh.id}]", lower=lo, upper=hi)

    fleet_ub = {}
    for veh in scenario.vehicles:
        total = 0.0
        for d in scenario.demands:
            if d.commodity == veh.id and d.amount > 0:
                total += d.amount
        fleet_ub[veh.id] = total

    for idx, arc in enumerate(network.arcs):
        key = f"{arc.src}>{arc.dst}@{arc.depart}"
        if arc.kind == "holdover":
            hkey = f"{arc.src}@{arc.depart}"
            for c in commodities:
                fv.hold[(idx, c)] = model.add_variable(f"h[{c}][{hkey}]")
            for vid in vehicle_ids:
                fv.hold[(idx, vid)] = model.add_variable(
                    f"h[{vid}][{hkey}]", "integer", upper=fleet_ub[vid])
            fv.hold[(idx, STRUCT)] = model.add_variable(f"h[{STRUCT}][{hkey}]")
            continue
        v = arc.vehicle
        for c in commodities:
            fv.x_plus[(idx, c)] = model.add_variable(f"xp[{c}][{v}][{key}]")
            fv.x_minus[(idx, c)] = model.add_variable(f"xm[{c}][{v}][{key}]")
        fv.use[idx] = model.add_variable(f"y[{v}][{key}]", "binary")
        fv.z_payload[idx] = model.add_variable(f"z_pay[{v}][{key}]")
        fv.z_propellant[idx] = model.add_variable(f"z_prop[{v}][{key}]")
        fv.z_struct[idx] = model.add_variable(f"z_str[{v}][{key}]")
    return fv


def build_mass_balance(model: MilpModel, fv: FlowVariables, demands):
    """One row per (node, time, label): outflow - inflow <= d.

    Labels are commodities, vehicle counts, and structure mass (carried by
    z_struct on powered arcs). Rows whose supply is unbounded are omitted;
    the structure row is omitted wherever a vehicle is supplied, since the
    vehicle arrives with its structure.
    """
    net = fv.network
    supply = {}
    for d in demands:
        supply[(d.node, d.time, d.commodity)] = \
            supply.get((d.node, d.time, d.commodity), 0.0) + d.amount
    vehicle_supply_points = {
        (d.node, d.time) for d in demands
        if d.commodity in set(fv.vehicle_ids) and d.amount > 0}

    out_at, in_at = {}, {}
    for idx, arc in enumerate(net.arcs):
        out_at.setdefault((arc.src, arc.depart), []).append(idx)
        in_at.setdefault((arc.dst, arc.arrive), []).append(idx)

    labels = fv.commodities + fv.vehicle_ids + [STRUCT]
    for node in net.nodes:
        for t in range(net.horizon):
            for label in labels:
                d = supply.get((node, t, label), 0.0)
                if math.isinf(d):
                    if d < 0:
                        raise FormulationError(
                            f"demand at {node},{t},{label} is -inf")
                    fv.omitted_rows.add((node, t, label))
                    continue
                if label == STRUCT and (node, t) in vehicle_supply_points:
                    fv.omitted_rows.add((node, t, label))
                    continue
                terms = []
                for idx in out_at.get((node, t), []):
                    vid = _arc_amount_var(fv, idx, label, departing=True)
                    if vid is not None:
                        terms.append((vid, 1.0))
                for idx in in_at.get((node, t), []):
                    vid = _arc_amount_var(fv, idx, label, departing=False)
                    if vid is not None:
                        terms.append((vid, -1.0))
                model.add_constraint(terms, "<=", d, tag=f"eq2:{node}:{t}:{label}")


def _arc_amount_var(fv: FlowVariables, idx: int, label: str, departing: bool):
    arc = fv.network.arcs[idx]
    if arc.kind == "holdover":
        return fv.hold[(idx, label)]
    if label in fv.commodities:
        return (fv.x_plus if departing else fv.x_minus)[(idx, label)]
    if label == STRUCT:
        return fv.z_struct[idx]
    return fv.use[idx] if label == arc.vehicle else None


def build_transformation(model: MilpModel, fv: FlowVariables, scenario: Scenario):
    """Arrival composition per powered arc.

    Transport arcs burn a constant fraction of the departing wet mass
    (commodities plus structure) out of the propellant stream; every other
    commodity arrives unchanged. Launch arcs are flown by boosters outside
    the model, so the whole composition passes through unchanged.
    """
    for idx, arc in fv.powered():
        veh = scenario.vehicle(arc.vehicle)
        key = f"{arc.src}>{arc.dst}@{arc.depart}"
        burn = arc.kind == "transport"
        phi = compute_propellant_fraction(arc.delta_v, veh.isp) if burn else 0.0
        if phi >= 1.0:
            warnings.warn(
                f"arc {key} burns its entire wet mass (phi={phi}); "
                f"model is infeasible for any positive flow", stacklevel=2)
        for c in fv.commodities:
            xm = fv.x_minus[(idx, c)]
            xp = fv.x_plus[(idx, c)]
            if c == PROPELLANT and phi > 0.0:
                terms = [(xm, 1.0), (xp, phi - 1.0)]
                terms += [(fv.x_plus[(idx, o)], phi)
                          for o in fv.commodities if o != PROPELLANT]
                terms.append((fv.z_struct[idx], phi))
            else:
                terms = [(xm, 1.0), (xp, -1.0)]
            model.add_constraint(terms, "=", 0.0,
                                 tag=f"eq3:{arc.vehicle}:{key}:{c}")


def build_concurrency(model: MilpModel, fv: FlowVariables, scenario: Scenario):
    """Capacity rows plus exact big-M linearization of z = m * y.

    Payload-like flow (every commodity except propellant) is limited by
    z_payload, propellant by z_propellant; four rows per auxiliary force
    z = m*y at integral points, with M the design upper bound of m.
    """
    for idx, arc in fv.powered():
        key = f"{arc.src}>{arc.dst}@{arc.depart}"
        v = arc.vehicle
        pay_terms = [(fv.x_plus[(idx, c)], 1.0)
                     for c in fv.commodities if c != PROPELLANT]
        model.add_constraint(pay_terms + [(fv.z_payload[idx], -1.0)], "<=", 0.0,
                             tag=f"eq4:{v}:{key}")
        if PROPELLANT in fv.commodities:
            model.add_constraint(
                [(fv.x_plus[(idx, PROPELLANT)], 1.0), (fv.z_propellant[idx], -1.0)],
                "<=", 0.0, tag=f"eq5:{v}:{key}")
        for z_id, which in ((fv.z_payload[idx], "m_p"),
                            (fv.z_propellant[idx], "m_f"),
                            (fv.z_struct[idx], "m_d")):
            m_id = fv.design[(v, which)]
            big_m = model.variables[m_id].upper
            if not math.isfinite(big_m):
                raise FormulationError(
                    f"design bound {which} of vehicle {v!r} must be finite "
                    f"to linearize {model.variables[z_id].name}")
            _link_product(model, z_id, m_id, fv.use[idx], big_m)


def _link_product(model: MilpModel, z_id: int, m_id: int, y_id: int, big_m: float):
    zname = model.variables[z_id].name
    model.add_constraint([(z_id, 1.0), (y_id, -big_m)], "<=", 0.0,
                         tag=f"bigM:{zname}:1")
    model.add_constraint([(z_id, 1.0), (m_id, -1.0)], "<=", 0.0,
                         tag=f"bigM:{zname}:2")
    model.add_constraint([(z_id, 1.0), (m_id, -1.0), (y_id, -big_m)], ">=", -big_m,
                         tag=f"bigM:{zname}:3")
    model.add_constraint([(z_id, 1.0)], ">=", 0.0, tag=f"bigM:{zname}:4")
    model.variables[z_id].upper = min(model.variables[z_id].upper, big_m)


def build_sizing(model: MilpModel, fv: FlowVariables, closure):
    """Close the design triple per vehicle, tag sizing:<v>.

    closure may be a single object applied to every vehicle or a dict keyed
    by vehicle id; accepted closures are LinearEpsilon, FixedDesign,
    LinearSurrogate (dry mass affine in m_f) and ReluNetwork (embedded).
    """
    for v in fv.vehicle_ids:
        cl = closure[v] if isinstance(closure, dict) else closure
        m_d = fv.design[(v, "m_d")]
        m_p = fv.design[(v, "m_p")]
        m_f = fv.design[(v, "m_f")]
        if isinstance(cl, LinearEpsilon):
            e = cl.epsilon
            model.add_constraint([(m_d, 1.0 - e), (m_p, -e)], "=", 0.0,
                                 tag=f"sizing:{v}")
        elif isinstance(cl, FixedDesign):
            model.add_constraint([(m_d, 1.0)], "=", cl.m_d, tag=f"sizing:{v}")
        elif isinstance(cl, LinearSurrogate):
            if cl.beta.size != 1:
                raise FormulationError("linear sizing surrogate must have a "
                                       "single regressor (fuel capacity)")
            model.add_constraint(
                [(m_d, 1.0), (m_p, -PAYLOAD_SIZING_COEFF), (m_f, -float(cl.beta[0]))],
                "=", cl.intercept, tag=f"sizing:{v}")
        elif isinstance(cl, ReluNetwork):
            bounds = propagate_bounds(cl)
            f_id = model.add_variable(f"F[{v}]", lower=-math.inf, upper=math.inf)
            fv.design[(v, "F")] = f_id
            embed_network(model, cl, bounds, [m_f], f_id, tag=f"ml[{v}]")
            model.add_constraint(
                [(m_d, 1.0), (m_p, -PAYLOAD_SIZING_COEFF), (f_id, -1.0)],
                "=", 0.0, tag=f"sizing:{v}")
        else:
            raise FormulationError(f"unknown sizing closure {cl!r}")


def build_objective(model: MilpModel, fv: FlowVariables, scenario: Scenario):
    for entry in scenario.objective:
        costs = dict(entry.commodity_cost)
        star = costs.pop("*", None)
        for idx, arc in fv.powered():
            if (arc.src, arc.dst) != (entry.src, entry.dst):
                continue
            for c in fv.commodities:
                w = costs.get(c, star if star is not None else 0.0)
                if w:
                    model.add_objective_term(fv.x_plus[(idx, c)], w)
            if entry.vehicle_cost:
                model.add_objective_term(fv.z_struct[idx], entry.vehicle_cost)


def assemble(scenario: Scenario, closure) -> tuple[MilpModel, FlowVariables]:
    """Build the full campaign MILP; returns the frozen model and its
    variable registry."""
    network = expand_time_network(scenario)
    model = MilpModel(scenario.name)
    fv = create_flow_variables(model, scenario, network)
    build_mass_balance(model, fv, scenario.demands)
    build_transformation(model, fv, scenario)
    build_concurrency(model, fv, scenario)
    build_sizing(model, fv, closure)
    build_objective(model, fv, scenario)
    model.freeze()
    return model, fv


def net_inflow(fv: FlowVariables, sol: Solution, label: str, node: str,
               t: int) -> float:
    """Delivered amount of a label at (node, t): inflow minus outflow."""
    total = 0.0
    for idx, arc in enumerate(fv.network.arcs):
        if arc.dst == node and arc.arrive == t:
            vid = _arc_amount_var(fv, idx, label, departing=False)
            if vid is not None:
                total += sol.values[vid]
        if arc.src == node and arc.depart == t:
            vid = _arc_amount_var(fv, idx, label, departing=True)
            if vid is not None:
                total -= sol.values[vid]
    return total


def solution_flows(fv: FlowVariables, sol: Solution, tol: float = 1e-6) -> list[dict]:
    """Nonzero departures on powered arcs, for reporting."""
    rows = []
    for idx, arc in fv.powered():
        for c in fv.commodities:
            amt = float(sol.values[fv.x_plus[(idx, c)]])
            if amt > tol:
                rows.append({"vehicle": arc.vehicle, "from": arc.src,
                             "to": arc.dst, "depart": arc.depart,
                             "commodity": c, "amount_kg": amt})
        amt = float(sol.values[fv.z_struct[idx]])
        if amt > tol:
            rows.append({"vehicle": arc.vehicle, "from": arc.src, "to": arc.dst,
                         "depart": arc.depart, "commodity": STRUCT,
                         "amount_kg": amt})
    rows.sort(key=lambda r: (r["depart"], r["from"], r["to"], r["commodity"]))
    return rows
