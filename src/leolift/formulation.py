"""Campaign MILP assembly on a time-expanded network.

Every flight (a launch or transport arc) carries per-commodity outflow
variables, a binary use indicator, and three auxiliaries tying flow capacity
to the vehicle's design masses; a label staying at a node for a day is a
holdover variable. The bilinear products
design_mass * indicator are linearized exactly with big-M rows, propellant
burn is a constant-fraction transformation per arc, and the design triple
(m_d, m_p, m_f) is closed either by a linear structural ratio or by an
embedded sizing surrogate. The burn fraction and the closure's payload
coefficient come from `spacecraft`, where the oracle reads them too.

Constraint tags follow a fixed grammar so solutions can be audited row by
row: `eq2:<node>:<t>:<commodity>` mass balance, `eq3:<v>:<arc>:propellant`
burn, `eq4:<v>:<arc>` / `eq5:<v>:<arc>` payload and propellant capacity,
`bigM:<z>:<1..3>` linearization, `sizing:<v>` design closure,
`cut:cover:<node>:<t>:<commodity>` demand cover and
`cut:leg:<v>:<src>><dst>:<m_p|m_f|m_d>:<lo|hi>` leg aggregation (rows the
network implies, which tighten the relaxation; see `build_network_cuts`).
`<arc>` is `ExpandedArc.key`, `<src>><dst>#<family>@<depart>`; it also
names the arc's variables, e.g. `y[<v>][<arc>]`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .milp_ir import FEAS_TOL, MilpModel, Solution
from .scenario import Scenario, TimeExpandedNetwork, expand_time_network
from .spacecraft import PAYLOAD_COEFF, compute_propellant_fraction
from .surrogate import LinearSurrogate, ReluNetwork, embed_network

PROPELLANT = "propellant"
STRUCT = "structure"


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
    """Variable ids for one assembled model.

    Each flight, keyed by its index in `network.arcs`, gets x_plus per
    commodity, a binary `use`, and the three z auxiliaries. x_minus is the
    x_plus id except for propellant on an arc in `burn`, which burns some of
    it. `hold` has a label's stay at a node from day t to t+1, made only
    where the label can reach (node, t) (`reachable_node_days`); labels are
    the commodity ids, the vehicle ids (integer count), and "structure".
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
    burn: dict = field(default_factory=dict)       # arc_idx -> burn fraction phi
    hold: dict = field(default_factory=dict)       # (node, t, label) -> vid
    design: dict = field(default_factory=dict)     # (vehicle_id, field) -> vid


def create_flow_variables(model: MilpModel, scenario: Scenario,
                          network: TimeExpandedNetwork) -> FlowVariables:
    """Add the design triples, the holdovers and each flight's variables.

    A holdover `h[<label>][<node>@<t>]`, t < horizon-1, is made only where
    the label can reach (node, t) from its supplies (`reachable_node_days`).
    Anywhere else the balance rows force it to 0: summed over the unreachable
    node-days, every term left is >= 0 and the right side <= 0. Every flight
    gets its variables whether or not anything can reach its departure.
    """
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

    fleet_ub = {vid: _fleet_supply(scenario, vid) for vid in vehicle_ids}
    reach = reachable_node_days(scenario, network)
    for node in network.nodes:
        for t in range(network.horizon - 1):
            for label in commodities + vehicle_ids + [STRUCT]:
                if (node, t) not in reach[label]:
                    continue
                name = f"h[{label}][{node}@{t}]"
                fv.hold[(node, t, label)] = (
                    model.add_variable(name, "integer", upper=fleet_ub[label])
                    if label in fleet_ub else model.add_variable(name))
    for idx, arc in enumerate(network.arcs):
        v, key = arc.vehicle, arc.key
        phi = (compute_propellant_fraction(arc.delta_v, scenario.vehicle(v).sizing.isp)
               if arc.kind == "transport" else 0.0)
        if phi > 0.0 and PROPELLANT in commodities:  # one test for xm and eq3
            fv.burn[idx] = phi
        for c in commodities:
            vid = fv.x_plus[(idx, c)] = model.add_variable(f"xp[{c}][{v}][{key}]")
            fv.x_minus[(idx, c)] = (model.add_variable(f"xm[{c}][{v}][{key}]")
                                    if c == PROPELLANT and idx in fv.burn else vid)
        fv.use[idx] = model.add_variable(f"y[{v}][{key}]", "binary")
        fv.z_payload[idx] = model.add_variable(f"z_pay[{v}][{key}]")
        fv.z_propellant[idx] = model.add_variable(f"z_prop[{v}][{key}]")
        fv.z_struct[idx] = model.add_variable(f"z_str[{v}][{key}]")
    return fv


def reachable_node_days(scenario: Scenario,
                        network: TimeExpandedNetwork) -> dict[str, set]:
    """Per label, the (node, day) pairs its flow can reach.

    A label starts from its positive supplies; structure starts from the
    vehicles'. It stays from (node, t) to (node, t+1), and it moves along the
    flights that carry it: any flight for a commodity or structure, only its
    own for a vehicle. Arcs with a time of flight of 0 are followed like any
    other, so a cycle of them within a day is handled by the search's visited
    set.
    """
    vehicle_ids = [v.id for v in scenario.vehicles]
    out_at = {}
    for arc in network.arcs:
        out_at.setdefault((arc.src, arc.depart), []).append(arc)
    starts = {}
    for d in scenario.demands:
        if d.amount > 0:
            starts.setdefault(d.commodity, set()).add((d.node, d.time))
            if d.commodity in vehicle_ids:
                starts.setdefault(STRUCT, set()).add((d.node, d.time))

    reach = {}
    for label in [c.id for c in scenario.commodities] + vehicle_ids + [STRUCT]:
        own = label in vehicle_ids
        seen = set(starts.get(label, ()))
        todo = list(seen)
        while todo:
            node, t = here = todo.pop()
            steps = [(node, t + 1)] if t + 1 < network.horizon else []
            steps += [(arc.dst, arc.arrive) for arc in out_at.get(here, ())
                      if not own or arc.vehicle == label]
            for there in steps:
                if there not in seen:
                    seen.add(there)
                    todo.append(there)
        reach[label] = seen
    return reach


def _fleet_supply(scenario: Scenario, vid: str) -> float:
    """Total supply of vehicle vid: the sum of its positive amounts."""
    return sum((d.amount for d in scenario.demands
                if d.commodity == vid and d.amount > 0), 0.0)


def build_mass_balance(model: MilpModel, fv: FlowVariables, demands):
    """One row per (node, time, label): outflow - inflow <= d.

    Labels are commodities, vehicle counts, and structure mass (carried by
    z_struct on flights). Outflow is the holdover from (node, t) and the
    departing flights, inflow the one from (node, t-1) and the arriving
    flights; a holdover `create_flow_variables` did not make is no term.
    Omitted: rows with unbounded supply, rows with no outflow and d >= 0
    (any arrivals meet them), and the structure row wherever a vehicle is
    supplied, since the vehicle arrives with its structure.
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
                if d == -math.inf:
                    raise FormulationError(f"demand at {node},{t},{label} is -inf")
                outs = [fv.hold.get((node, t, label))] + [
                    _arc_amount_var(fv, idx, label, departing=True)
                    for idx in out_at.get((node, t), [])]
                terms = [(vid, 1.0) for vid in outs if vid is not None]
                if (d == math.inf or not terms and d >= 0.0
                        or label == STRUCT and (node, t) in vehicle_supply_points):
                    continue
                ins = [fv.hold.get((node, t - 1, label))] + [
                    _arc_amount_var(fv, idx, label, departing=False)
                    for idx in in_at.get((node, t), [])]
                terms += [(vid, -1.0) for vid in ins if vid is not None]
                model.add_constraint(terms, "<=", d, tag=f"eq2:{node}:{t}:{label}")


def _arc_amount_var(fv: FlowVariables, idx: int, label: str, departing: bool):
    arc = fv.network.arcs[idx]
    if label in fv.commodities:
        return (fv.x_plus if departing else fv.x_minus)[(idx, label)]
    if label == STRUCT:
        return fv.z_struct[idx]
    return fv.use[idx] if label == arc.vehicle else None


def build_transformation(model: MilpModel, fv: FlowVariables):
    """Burn row per arc in `fv.burn`: a constant fraction phi of the departing
    wet mass (commodities plus structure) leaves the propellant stream. Every
    other commodity, and all of a launch arc's (flown by boosters outside the
    model), arrives unchanged as its own outflow variable.
    """
    for idx, phi in fv.burn.items():
        arc = fv.network.arcs[idx]
        if phi >= 1.0:
            warnings.warn(
                f"arc {arc.key} burns its entire wet mass (phi={phi}); "
                f"model is infeasible for any positive flow", stacklevel=2)
        terms = [(fv.x_minus[(idx, PROPELLANT)], 1.0),
                 (fv.x_plus[(idx, PROPELLANT)], phi - 1.0)]
        terms += [(fv.x_plus[(idx, o)], phi)
                  for o in fv.commodities if o != PROPELLANT]
        terms.append((fv.z_struct[idx], phi))
        model.add_constraint(terms, "=", 0.0,
                             tag=f"eq3:{arc.vehicle}:{arc.key}:{PROPELLANT}")


def build_concurrency(model: MilpModel, fv: FlowVariables):
    """Capacity rows plus exact big-M linearization of z = m * y.

    Payload-like flow (every commodity except propellant) is limited by
    z_payload, propellant by z_propellant; three rows and z >= 0 force
    z = m*y at integral points, with M the design upper bound of m.
    """
    for idx, arc in enumerate(fv.network.arcs):
        v, key = arc.vehicle, arc.key
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
    model.variables[z_id].upper = min(model.variables[z_id].upper, big_m)


def build_sizing(model: MilpModel, fv: FlowVariables, closure):
    """Close the design triple per vehicle, tag sizing:<v>.

    closure may be a single object applied to every vehicle or a dict keyed
    by vehicle id; accepted closures are LinearEpsilon, FixedDesign,
    LinearSurrogate (dry mass affine in m_f) and ReluNetwork, whose output
    F(m_f) is embedded over the network's input box as the piecewise-linear
    function it is (`embed_network`: a fill variable per segment between
    breakpoints, a binary per inner breakpoint) and closes
    m_d = PAYLOAD_COEFF * m_p + F.
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
            model.add_constraint(
                [(m_d, 1.0), (m_p, -PAYLOAD_COEFF), (m_f, -cl.slope)],
                "=", cl.intercept, tag=f"sizing:{v}")
        elif isinstance(cl, ReluNetwork):
            f_id = model.add_variable(f"F[{v}]", lower=-math.inf, upper=math.inf)
            fv.design[(v, "F")] = f_id
            embed_network(model, cl, m_f, f_id, f"ml[{v}]")
            model.add_constraint(
                [(m_d, 1.0), (m_p, -PAYLOAD_COEFF), (f_id, -1.0)],
                "=", 0.0, tag=f"sizing:{v}")
        else:
            raise FormulationError(f"unknown sizing closure {cl!r}")


def build_network_cuts(model: MilpModel, fv: FlowVariables, scenario: Scenario):
    """Rows the network structure implies; each holds at every integer point.

    Demand cover (a cut-set inequality): a net finite demand of D kg of a
    commodity at a node by day t must arrive on the flights into the node
    that arrive by then, and arc a carries at most cap_a·y_a of it (cap_a the
    m_f bound for propellant, the m_p bound otherwise), so those arcs' y sum
    to at least ⌈D / max cap_a⌉. Emitted on the days the node's entries for
    the commodity change D, when no entry up to then is unbounded, and only
    when it raises the count an earlier day's row already asks for.

    Leg aggregation (McCormick on m·Y): on a vehicle's static leg, Σ_t z_t =
    m·Y at integer points, with Y = Σ_t y_t. If the vehicle's legs form an
    acyclic graph, no vehicle flies a leg twice, so Y <= U, its total fleet
    supply; then (M - m)(U - Y) >= 0 and (m - L)(U - Y) >= 0, with m in
    [L, M], bound Σ z_t from below and above. The per-arc big-M rows summed
    over the leg give the same two rows with the leg's arc count for U, so
    they are emitted only when U is smaller.
    """
    in_arcs = {}
    for idx, arc in enumerate(fv.network.arcs):
        in_arcs.setdefault(arc.dst, []).append(idx)

    entries = {}
    for d in scenario.demands:
        if d.commodity in fv.commodities:
            entries.setdefault((d.node, d.commodity), []).append((d.time, d.amount))
    for (node, c), days in entries.items():
        days.sort()
        need, asked = 0.0, 0
        for i, (t, amount) in enumerate(days):
            if amount == math.inf:
                break
            need -= amount
            if (i + 1 < len(days) and days[i + 1][0] == t) or need <= 0.0:
                continue
            caps = {}
            for idx in in_arcs.get(node, []):
                arc = fv.network.arcs[idx]
                if arc.arrive <= t:
                    m_id = fv.design[(arc.vehicle, "m_f" if c == PROPELLANT else "m_p")]
                    caps[idx] = model.variables[m_id].upper
            if not caps or max(caps.values()) <= 0.0:
                continue
            k = math.ceil(need / max(caps.values()) - 1e-9)
            if k > asked:
                asked = k
                model.add_constraint([(fv.use[idx], 1.0) for idx in caps], ">=", k,
                                     tag=f"cut:cover:{node}:{t}:{c}")

    for v in fv.vehicle_ids:
        fleet = _fleet_supply(scenario, v)
        legs = {}
        for idx, arc in enumerate(fv.network.arcs):
            if arc.vehicle == v:
                legs.setdefault((arc.src, arc.dst), []).append(idx)
        if not 0.0 < fleet < math.inf or _has_cycle(legs):
            continue
        for (src, dst), arcs in legs.items():
            if fleet >= len(arcs):
                continue
            for zs, which in ((fv.z_payload, "m_p"), (fv.z_propellant, "m_f"),
                              (fv.z_struct, "m_d")):
                m_id = fv.design[(v, which)]
                tag = f"cut:leg:{v}:{src}>{dst}:{which}"
                head = [(zs[idx], 1.0) for idx in arcs] + [(m_id, -fleet)]
                for bound, sense, side in ((model.variables[m_id].upper, ">=", "lo"),
                                           (model.variables[m_id].lower, "<=", "hi")):
                    ys = [(fv.use[idx], -bound) for idx in arcs] if bound else []
                    model.add_constraint(head + ys, sense, -bound * fleet,
                                         tag=f"{tag}:{side}")


def _has_cycle(legs) -> bool:
    """Whether the directed graph with edges `legs` (src, dst) has a cycle
    (Kahn's algorithm: some node never reaches in-degree 0)."""
    indeg, succ = {}, {}
    for src, dst in legs:
        succ.setdefault(src, []).append(dst)
        indeg[dst] = indeg.get(dst, 0) + 1
        indeg.setdefault(src, 0)
    ready = [n for n, k in indeg.items() if k == 0]
    seen = 0
    while ready:
        n = ready.pop()
        seen += 1
        for m in succ.get(n, []):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    return seen < len(indeg)


def build_objective(model: MilpModel, fv: FlowVariables, scenario: Scenario):
    for entry in scenario.objective:
        costs = dict(entry.commodity_cost)
        for idx, arc in enumerate(fv.network.arcs):
            if (arc.src, arc.dst) != (entry.src, entry.dst):
                continue
            for c in fv.commodities:
                w = costs.get(c, 0.0)
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
    build_transformation(model, fv)
    build_concurrency(model, fv)
    build_sizing(model, fv, closure)
    build_network_cuts(model, fv, scenario)
    build_objective(model, fv, scenario)
    model.freeze()
    return model, fv


def solution_flows(fv: FlowVariables, sol: Solution) -> list[dict]:
    """Departures on flights above `FEAS_TOL`, for reporting."""
    rows = []
    for idx, arc in enumerate(fv.network.arcs):
        for c in fv.commodities:
            amt = float(sol.values[fv.x_plus[(idx, c)]])
            if amt > FEAS_TOL:
                rows.append({"vehicle": arc.vehicle, "from": arc.src,
                             "to": arc.dst, "depart": arc.depart,
                             "commodity": c, "amount_kg": amt})
        amt = float(sol.values[fv.z_struct[idx]])
        if amt > FEAS_TOL:
            rows.append({"vehicle": arc.vehicle, "from": arc.src, "to": arc.dst,
                         "depart": arc.depart, "commodity": STRUCT,
                         "amount_kg": amt})
    rows.sort(key=lambda r: (r["depart"], r["from"], r["to"], r["commodity"]))
    return rows
