"""Independent oracles the tests compare against, and shared model builders.

The MPS reader and the flow audit live here, not in the package: the package
writes MPS but does not read it, and the audit finds its variables without
the formulation's own lookup, so neither check shares code with what it
checks.
"""

import importlib.util
import itertools
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from leolift import formulation
from leolift.formulation import (build_concurrency, build_mass_balance,
                                 build_objective, build_sizing,
                                 build_transformation, create_flow_variables)
from leolift.milp_ir import MilpModel, ModelError
from leolift.scenario import expand_time_network, load_scenario

_GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
_spec = importlib.util.spec_from_file_location("perfbench_generate", _GEN_PATH)
_generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_generate)


def ladder_doc(horizon: int, width: int) -> dict:
    """The ROADMAP ladder rung H/W as a scenario document, built by the
    benchmark's own generator from the bundled campaign."""
    return _generate.ladder_rung(json.loads(_generate.BUNDLED.read_text()),
                                 horizon, width)


def with_parallel_leg(scenario_text: str) -> dict:
    """The scenario plus a second LEO->LLO family, faster and costlier, that
    may depart any day, so both families fly the leg on the same day."""
    doc = json.loads(scenario_text)
    doc["arcs"].append({"from": "LEO", "to": "LLO", "delta_v_mps": 4500.0,
                        "tof_days": 2})
    return doc


def campaign(horizon, width, supply, return_leg, second, unmeetable, twin):
    """Ladder rung H/W with the cases where a row's condition bites:

    - `supply` kg of payload (a number or "inf") at the delivery node;
    - `return_leg`: an LLO->LEO arc family, so the vehicle graph is cyclic;
    - `second`: a second delivery of that many kg at LLO on day 4;
    - `unmeetable`: "late", a delivery at LS on day 4, before any arrival;
      "huge", one larger than every flight to LS can carry;
    - `twin`: a second vehicle with the same sizing constants and fleet.
    """
    doc = ladder_doc(horizon, width)

    def deliver(node, t, amount):
        doc["demands"].append({"commodity": "payload", "node": node,
                               "time": t, "amount": amount})

    if supply is not None:
        deliver("LS", 0, supply)
    if return_leg:
        doc["arcs"].append({"from": "LLO", "to": "LEO", "delta_v_mps": 4040.0,
                            "tof_days": 1, "window": list(range(4, horizon - 1))})
    if second:
        deliver("LLO", 4, -second)
    if unmeetable == "late":
        deliver("LS", 4, -10.0)
    elif unmeetable == "huge":
        deliver("LS", horizon - 1, -1e7)
    if twin:
        doc["vehicles"].append(dict(doc["vehicles"][0], id="spacecraft2"))
        doc["demands"].append({"commodity": "spacecraft2", "node": "Earth",
                               "time": 0, "amount": 1})
    return load_scenario(json.dumps(doc))


def every_node_day(scenario, network):
    """A stand-in for `formulation.reachable_node_days` that reports every
    node-day for every label, so every holdover is made."""
    days = {(node, t) for node in network.nodes for t in range(network.horizon)}
    return {label: days for label in [c.id for c in scenario.commodities]
            + [v.id for v in scenario.vehicles] + [formulation.STRUCT]}


def assemble_without_cuts(scenario, closure):
    """`assemble` minus `build_network_cuts` and with a holdover for every
    label at every node-day: the campaign MILP without the rows the network
    implies and without pruning what no supply reaches. Variables shared
    with `assemble`'s model have the same names."""
    model = MilpModel(scenario.name)
    with mock.patch.object(formulation, "reachable_node_days", every_node_day):
        fv = create_flow_variables(model, scenario, expand_time_network(scenario))
    build_mass_balance(model, fv, scenario.demands)
    build_transformation(model, fv)
    build_concurrency(model, fv)
    build_sizing(model, fv, closure)
    build_objective(model, fv, scenario)
    model.freeze()
    return model, fv


def net_inflow(fv, sol, label, node, t):
    """Delivered amount of a label at (node, t): what arrives and what is held
    from day t-1, minus what departs and what is held on to day t+1.

    Reads each label's variables straight from the `FlowVariables` dicts:
    `x_minus`/`x_plus` for a commodity, `z_struct` for structure, and `use`
    on the label's own flights for a vehicle count."""
    values, arcs = sol.values, fv.network.arcs

    def held(day):
        vid = fv.hold.get((node, day, label))
        return 0.0 if vid is None else values[vid]

    if label == formulation.STRUCT:
        carried_in = carried_out = fv.z_struct
    elif label in fv.commodities:
        carried_in = {idx: vid for (idx, c), vid in fv.x_minus.items() if c == label}
        carried_out = {idx: vid for (idx, c), vid in fv.x_plus.items() if c == label}
    else:
        carried_in = carried_out = {idx: vid for idx, vid in fv.use.items()
                                    if arcs[idx].vehicle == label}
    arrived = sum(values[vid] for idx, vid in carried_in.items()
                  if (arcs[idx].dst, arcs[idx].arrive) == (node, t))
    departed = sum(values[vid] for idx, vid in carried_out.items()
                   if (arcs[idx].src, arcs[idx].depart) == (node, t))
    return float(held(t - 1) + arrived - departed - held(t))


def read_mps(path: str) -> MilpModel:
    """Minimal free MPS reader covering what `MilpModel.export_mps` emits,
    kept apart from the package so a round trip shares no code with the
    writer it checks.

    Raises ModelError, naming the line, on the first entry it would drop or
    misread: a section other than NAME, ROWS, COLUMNS, RHS, BOUNDS and
    ENDATA, a row type other than L, G and E after the one N (objective)
    row, an RHS on that row, a bound type other than UP, LO, FX, MI, PL and
    BV, a row or column ROWS or COLUMNS does not declare, or an entry with
    a token missing, left over or not a number."""
    model = MilpModel()
    section = None
    row_sense: dict[str, str] = {}
    row_terms: dict[str, list[tuple[int, float]]] = {}
    obj_row = None
    col_ids: dict[str, int] = {}
    col_kind: dict[str, str] = {}
    entries: dict[str, list[tuple[str, float]]] = {}
    rhs: dict[str, float] = {}
    bounds: dict[str, list] = {}
    integer_mode = False

    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("*"):
                continue
            try:
                if not line[0].isspace():
                    section = line.split()[0].upper()
                    if section not in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS",
                                       "ENDATA"):
                        raise ModelError(f"section {section} is not read")
                    if section == "NAME":
                        parts = line.split(None, 1)
                        model.name = parts[1].strip() if len(parts) > 1 else "model"
                    continue
                tok = line.split()
                if section == "ROWS":
                    if len(tok) != 2:
                        raise ModelError("a row needs a type and a name")
                    code, rname = tok[0].upper(), tok[1]
                    if code == "N" and obj_row is None:
                        obj_row = rname
                    elif code in ("L", "G", "E"):
                        row_sense[rname] = {"L": "<=", "G": ">=", "E": "="}[code]
                        row_terms[rname] = []
                    else:
                        raise ModelError(f"row {rname!r} of type {code!r} is not read")
                elif section == "COLUMNS":
                    if len(tok) >= 3 and tok[1] == "'MARKER'":
                        integer_mode = tok[2] == "'INTORG'"
                        continue
                    cname = tok[0]
                    if cname not in col_ids:
                        col_ids[cname] = len(col_ids)
                        col_kind[cname] = "integer" if integer_mode else "continuous"
                        entries[cname] = []
                    for rname, val in _row_values(tok):
                        _declared("row", rname, row_terms, obj_row)
                        entries[cname].append((rname, val))
                elif section == "RHS":
                    for rname, val in _row_values(tok):
                        if rname == obj_row:
                            raise ModelError(
                                f"RHS on objective row {obj_row!r} is not read")
                        _declared("row", rname, row_terms)
                        rhs[rname] = val
                elif section == "BOUNDS":
                    if len(tok) < 3:
                        raise ModelError(
                            "a bound needs a type, a set name and a column")
                    btype, cname = tok[0].upper(), tok[2]
                    if btype not in ("UP", "LO", "FX", "MI", "PL", "BV"):
                        raise ModelError(
                            f"bound {btype} on column {cname!r} is not read")
                    _declared("column", cname, col_ids)
                    valued = btype in ("UP", "LO", "FX")
                    if len(tok) != 3 + valued:
                        raise ModelError(f"bound {btype} takes "
                                         + ("a value" if valued else "no value"))
                    val = _number(tok[3]) if valued else None
                    bounds.setdefault(cname, []).append((btype, val))
                elif section == "ENDATA":
                    break
            except ModelError as exc:
                raise ModelError(
                    f"MPS line {lineno} ({line.strip()!r}): {exc}") from None

    for cname, cid in col_ids.items():
        lo, up = 0.0, math.inf
        for btype, val in bounds.get(cname, []):
            if btype == "UP":
                up = val
            elif btype == "LO":
                lo = val
            elif btype == "FX":
                lo = up = val
            elif btype == "MI":
                lo = -math.inf
            elif btype == "PL":
                up = math.inf
            elif btype == "BV":
                lo, up = 0.0, 1.0
        kind = col_kind[cname]
        if kind == "integer" and lo == 0.0 and up == 1.0:
            kind = "binary"
        vid = model.add_variable(cname, kind, lo, up)
        assert vid == cid
        for rname, coeff in entries[cname]:
            if rname == obj_row:
                if coeff != 0.0:
                    model.add_objective_term(vid, coeff)
            else:
                row_terms[rname].append((vid, coeff))

    for rname, terms in row_terms.items():
        model.add_constraint(terms, row_sense[rname], rhs.get(rname, 0.0),
                             tag=rname)
    return model


def _declared(kind: str, name: str, declared, obj_row: str | None = None):
    if name != obj_row and name not in declared:
        raise ModelError(f"undeclared {kind} {name!r}")


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ModelError(f"{text!r} is not a number") from None


def _row_values(tok: list[str]) -> list[tuple[str, float]]:
    """The (row, value) pairs of a COLUMNS or RHS entry, after its column or
    set name."""
    if len(tok) < 3 or len(tok) % 2 == 0:
        raise ModelError("an entry needs a name, then row and value pairs")
    return [(tok[j], _number(tok[j + 1])) for j in range(1, len(tok), 2)]


def highs_milp(model):
    """HiGHS (through `scipy.optimize.milp`) on the model, to a 1e-9 gap."""
    sf = model.to_standard_form()
    return milp(c=sf.c, constraints=LinearConstraint(sf.A, sf.row_lo, sf.row_hi),
                integrality=sf.is_int.astype(int), bounds=Bounds(sf.lb, sf.ub),
                options={"mip_rel_gap": 1e-9})


def random_box_lp(rng, max_vars=6, max_rows=6):
    """Random dense LP with finite variable boxes (so it is always bounded)."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    A = rng.normal(size=(m, n)).round(3)
    x0 = rng.uniform(0.0, 2.0, n)          # keep a point feasible
    b = A @ x0 + rng.uniform(0.0, 2.0, m)
    c = rng.normal(size=n).round(3)
    lb = np.zeros(n)
    ub = rng.uniform(2.0, 6.0, n).round(3)
    return A, b, c, lb, ub


def vertex_enumeration_min(A, b, c, lb, ub, tol=1e-9):
    """Exact bounded-LP minimum by enumerating basic feasible points.

    Considers every choice of n active constraints among the rows and the
    box faces; the polytope is bounded because every variable has a finite
    box, so the optimum sits at one of these points.
    """
    m, n = A.shape
    rows = [(A[i], b[i]) for i in range(m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((-e, -lb[j]))
        rows.append((e, ub[j]))
    best = math.inf
    feasible = False
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if (A @ x <= b + 1e-7).all() and (x >= lb - 1e-7).all() and (x <= ub + 1e-7).all():
            feasible = True
            best = min(best, float(c @ x))
    return best if feasible else None


def model_from_dense(A, senses, b, c, lb, ub, kinds):
    """Dense rows into a MilpModel (helper for solver comparisons)."""
    m = MilpModel("dense")
    ids = [m.add_variable(f"x{j}", kinds[j], lb[j], ub[j]) for j in range(len(c))]
    for i in range(A.shape[0]):
        terms = [(ids[j], A[i, j]) for j in range(len(c)) if A[i, j] != 0.0]
        m.add_constraint(terms, senses[i], b[i], tag=f"r{i}")
    for j in range(len(c)):
        if c[j] != 0.0:
            m.add_objective_term(ids[j], c[j])
    return m


def exhaustive_milp_min(A, b, c, lb, ub, is_int):
    """Optimal value by enumerating every integer assignment and solving the
    continuous remainder with an LP (scipy HiGHS); None when infeasible."""
    n = len(c)
    int_ids = [j for j in range(n) if is_int[j]]
    cont = [j for j in range(n) if not is_int[j]]
    choices = [range(int(math.ceil(lb[j] - 1e-9)), int(math.floor(ub[j] + 1e-9)) + 1)
               for j in int_ids]
    best = None
    for combo in itertools.product(*choices):
        fixed = dict(zip(int_ids, combo))
        resid = b - sum(A[:, j] * v for j, v in fixed.items()) if fixed else b.copy()
        if not cont:
            if (resid >= -1e-9).all():
                val = float(sum(c[j] * v for j, v in fixed.items()))
                best = val if best is None else min(best, val)
            continue
        res = linprog(c=[c[j] for j in cont],
                      A_ub=A[:, cont], b_ub=resid,
                      bounds=[(lb[j], ub[j]) for j in cont], method="highs")
        if res.status == 0:
            val = float(res.fun) + float(sum(c[j] * v for j, v in fixed.items()))
            best = val if best is None else min(best, val)
    return best
