"""Formulation tests: balance rows, burn arithmetic, linearization, assembly."""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from leolift.formulation import (FixedDesign, FormulationError, LinearEpsilon,
                                 assemble, build_concurrency,
                                 build_mass_balance, build_sizing,
                                 build_transformation, create_flow_variables,
                                 reachable_node_days, solution_flows)
from leolift.milp_ir import FEAS_TOL, MilpModel
from leolift.scenario import (Arc, Commodity, DemandEntry, Node,
                              ObjectiveEntry, Scenario, VehicleSpec,
                              expand_time_network, load_scenario)
from leolift.solver import solve_lp, solve_milp
from leolift.spacecraft import (PAYLOAD_COEFF, SizingParams,
                                compute_propellant_fraction,
                                solve_exact_oracle, surrogate_target)
from leolift.surrogate import train_relu_network

from helpers import assemble_without_cuts, highs_milp, ladder_doc, net_inflow

INF = math.inf
TUG_SIZING = SizingParams(alpha=0.1, isp=300.0, burn_time=60.0, m_ub=50000.0)


def make_scenario(**kw):
    base = dict(
        name="micro",
        horizon=2,
        nodes=(Node("A", "orbit"), Node("B", "orbit")),
        arcs=(Arc("A", "B", 0.0, 1, (0,)),),
        commodities=(Commodity("water"),),
        vehicles=(VehicleSpec("tug", TUG_SIZING,
                              design_bounds=(("m_p", (0.0, 50000.0)),
                                             ("m_f", (0.0, 50000.0)))),),
        demands=(DemandEntry("tug", "A", 0, 1.0),
                 DemandEntry("water", "A", 0, 5000.0)),
        objective=(),
    )
    base.update(kw)
    return Scenario(**base)


def constraint_by_tag(model, tag):
    for con in model.constraints:
        if con.tag == tag:
            return con
    raise AssertionError(f"no constraint tagged {tag!r}")


def redundant_rows(model):
    """Tags of rows the variable bounds alone imply (their activity range
    over the box lies inside the row's range), and of copy rows (`=` rows
    with rhs 0 and just the coefficients +1 and -1)."""
    sf = model.to_standard_form()
    implied, copies = [], []
    for i, con in enumerate(model.constraints):
        span = slice(sf.A.indptr[i], sf.A.indptr[i + 1])
        a, j = sf.A.data[span], sf.A.indices[span]
        act_lo = np.where(a > 0, a * sf.lb[j], a * sf.ub[j]).sum()
        act_hi = np.where(a > 0, a * sf.ub[j], a * sf.lb[j]).sum()
        if act_lo >= sf.row_lo[i] and act_hi <= sf.row_hi[i]:
            implied.append(con.tag)
        if (con.sense == "=" and con.rhs == 0.0
                and sorted(c for _, c in con.terms) == [-1.0, 1.0]):
            copies.append(con.tag)
    return implied, copies


@pytest.fixture(scope="module")
def net19(params, dataset51):
    """Training seed 19's raw output is positive over the whole box, so its
    clamp is an always-active ReLU written as one `=` row."""
    return train_relu_network(dataset51, 19,
                              target_fn=lambda v: surrogate_target(params, v))


class TestMassBalance:
    def test_demand_row_carries_rhs(self, lunar):
        model, _ = assemble(lunar, LinearEpsilon(0.08))
        con = constraint_by_tag(model, "eq2:LS:5:payload")
        assert con.sense == "<=" and con.rhs == -1000.0

    def test_unbounded_supply_rows_omitted(self, lunar):
        model, _ = assemble(lunar, LinearEpsilon(0.08))
        tags = {c.tag for c in model.constraints}
        assert "eq2:Earth:0:payload" not in tags
        assert "eq2:Earth:0:propellant" not in tags

    def test_structure_row_omitted_at_vehicle_supply(self, lunar):
        model, _ = assemble(lunar, LinearEpsilon(0.08))
        tags = {c.tag for c in model.constraints}
        assert "eq2:Earth:0:structure" not in tags
        # elsewhere the structure account is balanced normally
        assert "eq2:LEO:1:structure" in tags

    def test_isolated_node_has_empty_row(self):
        # the row would read 0 <= 0: it is omitted
        sc = make_scenario(horizon=1, arcs=(), vehicles=(), demands=())
        net = expand_time_network(sc)
        model = MilpModel()
        fv = create_flow_variables(model, sc, net)
        build_mass_balance(model, fv, sc.demands)
        assert not any(c.tag == "eq2:A:0:water" for c in model.constraints)

    def test_unsatisfiable_demand_infeasible(self):
        # nothing can reach B, so a strict demand there cannot be met
        sc = make_scenario(arcs=(), vehicles=(),
                           demands=(DemandEntry("water", "B", 1, -5.0),))
        model, _ = assemble(sc, {})
        assert solve_milp(model).status == "infeasible"

    def test_holdover_chain_carries_supply(self):
        sc = make_scenario(
            horizon=3, nodes=(Node("A", "orbit"),), arcs=(), vehicles=(),
            demands=(DemandEntry("water", "A", 0, 5.0),
                     DemandEntry("water", "A", 2, -5.0)))
        model, fv = assemble(sc, {})
        sol = solve_milp(model)
        assert sol.status == "optimal"
        holds = [sol.values[fv.hold[("A", t, "water")]] for t in range(2)]
        assert holds == pytest.approx([5.0, 5.0], abs=1e-9)

    def test_holdover_variable_shared_between_rows(self):
        sc = make_scenario(horizon=3, nodes=(Node("A", "orbit"),), arcs=(),
                           vehicles=(), demands=(DemandEntry("water", "A", 0, 5.0),))
        model, fv = assemble(sc, {})
        h01 = fv.hold[("A", 0, "water")]
        t0 = dict(constraint_by_tag(model, "eq2:A:0:water").terms)
        t1 = dict(constraint_by_tag(model, "eq2:A:1:water").terms)
        assert t0[h01] == 1.0      # leaves t=0
        assert t1[h01] == -1.0     # arrives at t=1

    def test_unreachable_holdover_is_absent(self, lunar):
        """No holdover where no supply of its label can be: B before the
        tug's flight lands, and anything of a vehicle nothing supplies."""
        idle = VehicleSpec("idle", TUG_SIZING, design_bounds=(("m_p", (0.0, 1.0)),
                                                        ("m_f", (0.0, 1.0))))
        sc = make_scenario(horizon=4, vehicles=make_scenario().vehicles + (idle,))
        model, fv = assemble(sc, FixedDesign(100.0))
        holds = {v.name for v in model.variables if v.name.startswith("h[")}
        for label in ("water", "tug", "structure"):
            assert {f"h[{label}][A@{t}]" for t in range(3)} <= holds
            assert f"h[{label}][B@0]" not in holds
            assert {f"h[{label}][B@1]", f"h[{label}][B@2]"} <= holds
        assert not any(name.startswith("h[idle]") for name in holds)
        assert not any(c.tag.startswith("eq2:B:0:") for c in model.constraints)
        # the bundled campaign: nothing is in LEO on day 0 or in LS at all
        model, _ = assemble(lunar, LinearEpsilon(0.08))
        names = {v.name for v in model.variables}
        assert "h[payload][Earth@0]" in names and "h[payload][LEO@1]" in names
        assert not names & {"h[payload][LEO@0]", "h[spacecraft][LLO@3]",
                            "h[structure][LS@4]", "h[propellant][LS@0]"}

    def test_holdover_chain_from_a_supply_is_kept(self):
        sc = make_scenario(
            horizon=4, nodes=(Node("A", "orbit"),), arcs=(), vehicles=(),
            demands=(DemandEntry("water", "A", 1, 5.0),
                     DemandEntry("water", "A", 3, -5.0)))
        model, fv = assemble(sc, {})
        assert [v.name for v in model.variables] == ["h[water][A@1]",
                                                     "h[water][A@2]"]
        sol = solve_milp(model)
        assert sol.status == "optimal"
        assert list(sol.values) == pytest.approx([5.0, 5.0], abs=1e-9)

    def test_delivery_at_unreachable_node_day_is_infeasible(self):
        """The flight leaves A on day 1 and lands on day 2: water asked for
        at B on day 1 cannot arrive, with or without B's holdovers."""
        sc = make_scenario(
            horizon=4, arcs=(Arc("A", "B", 0.0, 1, (1,)),),
            demands=(DemandEntry("tug", "A", 0, 1.0),
                     DemandEntry("water", "A", 0, 5000.0),
                     DemandEntry("water", "B", 1, -5.0)))
        model, fv = assemble(sc, FixedDesign(100.0))
        assert not any(v.name.startswith("h[water][B@") and v.name != "h[water][B@2]"
                       for v in model.variables)
        assert solve_milp(model).status == "infeasible"
        assert highs_milp(assemble_without_cuts(sc, FixedDesign(100.0))[0]).status == 2

    def test_zero_time_of_flight_cycle(self):
        """A->B and B->A both take no time: every day's pair is reached from
        A's supply on day 0, and C, which no arc reaches, is not."""
        sc = make_scenario(
            horizon=3, nodes=(Node("A", "orbit"), Node("B", "orbit"),
                              Node("C", "orbit")),
            arcs=(Arc("A", "B", 0.0, 0, (0, 1, 2)), Arc("B", "A", 0.0, 0, (0, 1, 2))),
            demands=(DemandEntry("tug", "A", 0, 1.0),
                     DemandEntry("water", "A", 0, 5000.0),
                     DemandEntry("water", "B", 2, -5.0)))
        reach = reachable_node_days(sc, expand_time_network(sc))
        pairs = {(n, t) for n in "AB" for t in range(3)}
        assert reach == {"water": pairs, "tug": pairs, "structure": pairs}
        model, _ = assemble(sc, FixedDesign(100.0))
        sol = solve_milp(model)
        ref = highs_milp(assemble_without_cuts(sc, FixedDesign(100.0))[0])
        assert (sol.status, ref.status) == ("optimal", 0)
        assert sol.objective == pytest.approx(ref.fun, abs=1e-9)

    def test_reference_model_keeps_every_holdover(self, lunar):
        """The differential gate's reference is the unpruned model: a
        holdover for every label at every (node, day) but the last."""
        bare, _ = assemble_without_cuts(lunar, LinearEpsilon(0.08))
        holds = [v for v in bare.variables if v.name.startswith("h[")]
        labels = len(lunar.commodities) + len(lunar.vehicles) + 1
        assert len(holds) == labels * len(lunar.nodes) * (lunar.horizon - 1)

    def test_vehicle_count_uses_integer_holdover(self, lunar):
        model, fv = assemble(lunar, LinearEpsilon(0.08))
        for (_, _, label), vid in fv.hold.items():
            kind = model.variables[vid].kind
            if label == "spacecraft":
                assert kind == "integer"
                assert model.variables[vid].upper == 1.0  # fleet size bound
            else:
                assert kind == "continuous"


class TestTransformation:
    def test_zero_delta_v_is_identity(self):
        sc = make_scenario()
        model, fv = assemble(sc, FixedDesign(100.0))
        (idx, _), = enumerate(fv.network.arcs)
        assert fv.x_minus[(idx, "water")] == fv.x_plus[(idx, "water")]
        assert not any(c.tag == "eq3:tug:A>B@0:water" for c in model.constraints)

    def test_launch_arc_is_identity_despite_delta_v(self):
        sc = make_scenario(arcs=(Arc("A", "B", 9000.0, 1, (0,), is_launch=True),))
        model, fv = assemble(sc, FixedDesign(100.0))
        (idx, _), = enumerate(fv.network.arcs)
        assert fv.x_minus[(idx, "water")] == fv.x_plus[(idx, "water")]
        assert not any(c.tag == "eq3:tug:A>B@0:water" for c in model.constraints)

    @pytest.mark.parametrize("delta_v, commodities", [
        (3000.0, ("water",)),                  # burns, but carries no propellant
        (1e-300, ("water", "propellant")),     # phi rounds to 0.0
    ])
    def test_arc_without_burn_row_keeps_no_inflow_copy(self, delta_v, commodities):
        sc = make_scenario(arcs=(Arc("A", "B", delta_v, 1, (0,)),),
                           commodities=tuple(Commodity(c) for c in commodities))
        model, fv = assemble(sc, FixedDesign(100.0))
        (idx, _), = enumerate(fv.network.arcs)
        assert fv.burn == {}
        assert not any(c.tag.startswith("eq3:") for c in model.constraints)
        for c in commodities:
            assert fv.x_minus[(idx, c)] == fv.x_plus[(idx, c)]
        assert solve_milp(model).status == "optimal"

    def test_burn_consumes_constant_fraction(self, lunar):
        orc = solve_exact_oracle(SizingParams(), 1000.0, [4040.0, 1870.0])
        model, fv = assemble(lunar, FixedDesign(orc.m_d))
        sol = solve_milp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(orc.imleo, abs=1e-3)
        for idx, arc in enumerate(fv.network.arcs):
            if (arc.src, arc.dst) != ("LEO", "LLO"):
                continue
            wet = sum(sol.values[fv.x_plus[(idx, c)]] for c in fv.commodities)
            wet += sol.values[fv.z_struct[idx]]
            burned = (sol.values[fv.x_plus[(idx, "propellant")]]
                      - sol.values[fv.x_minus[(idx, "propellant")]])
            phi = compute_propellant_fraction(4040.0, lunar.vehicle("spacecraft").sizing.isp)
            assert wet == pytest.approx(sol.objective, rel=1e-9)
            assert burned == pytest.approx(phi * wet, rel=1e-9)

    def test_total_burn_warns_and_marks_infeasible_flow(self):
        # a delta-v so large the whole wet mass burns
        sc = make_scenario(
            arcs=(Arc("A", "B", 1e9, 1, (0,)),),
            commodities=(Commodity("water"), Commodity("propellant")))
        with pytest.warns(UserWarning, match="entire wet mass"):
            assemble(sc, FixedDesign(100.0))


class TestConcurrency:
    def _capacity_model(self, pin_use, m_p=700.0):
        sc = make_scenario()
        net = expand_time_network(sc)
        model = MilpModel("cap")
        fv = create_flow_variables(model, sc, net)
        build_mass_balance(model, fv, sc.demands)
        build_transformation(model, fv)
        build_concurrency(model, fv)
        build_sizing(model, fv, FixedDesign(100.0))
        (idx, _), = enumerate(fv.network.arcs)
        model.add_constraint([(fv.use[idx], 1.0)], "=", pin_use, tag="pin:y")
        model.add_constraint([(fv.design[("tug", "m_p")], 1.0)], "=", m_p,
                             tag="pin:m_p")
        model.add_objective_term(fv.x_plus[(idx, "water")], -1.0)
        model.freeze()
        return model, fv, idx

    def test_unused_arc_carries_no_flow(self):
        model, fv, idx = self._capacity_model(pin_use=0.0)
        sol = solve_milp(model)
        assert sol.status == "optimal"
        assert sol.values[fv.x_plus[(idx, "water")]] == pytest.approx(0.0, abs=1e-8)
        assert sol.values[fv.z_payload[idx]] == pytest.approx(0.0, abs=1e-8)

    def test_used_arc_capacity_equals_design(self):
        model, fv, idx = self._capacity_model(pin_use=1.0, m_p=700.0)
        sol = solve_milp(model)
        assert sol.status == "optimal"
        assert sol.values[fv.z_payload[idx]] == pytest.approx(700.0, abs=1e-6)
        assert sol.values[fv.x_plus[(idx, "water")]] == pytest.approx(700.0, abs=1e-6)

    def test_relaxation_admits_fractional_indicator(self):
        sc = make_scenario()
        net = expand_time_network(sc)
        model = MilpModel("relax")
        fv = create_flow_variables(model, sc, net)
        build_concurrency(model, fv)
        (idx, _), = enumerate(fv.network.arcs)
        vals = {vid: 0.0 for vid in range(len(model.variables))}
        z = fv.z_payload[idx]
        zname = model.variables[z].name

        def big_m_violations(y, m, zval):
            vals[fv.use[idx]] = y
            vals[fv.design[("tug", "m_p")]] = m
            vals[z] = zval
            return [v.tag for v in model.evaluate(vals)
                    if v.tag.startswith(f"bigM:{zname}")]

        # at a fractional indicator the big-M envelope is loose: z != m*y fits
        assert big_m_violations(0.5, 1000.0, 800.0) == []
        # at an integral indicator the same gap is cut off
        assert big_m_violations(1.0, 1000.0, 800.0) == [f"bigM:{zname}:3"]
        assert big_m_violations(0.0, 1000.0, 800.0) == [f"bigM:{zname}:1"]

    def test_infinite_design_bound_rejected(self):
        sc = make_scenario(
            vehicles=(VehicleSpec("tug", TUG_SIZING,
                                  design_bounds=(("m_p", (0.0, INF)),)),))
        with pytest.raises(FormulationError, match="must be finite"):
            assemble(sc, FixedDesign(100.0))


class TestSizingClosures:
    def test_epsilon_row_coefficients(self, lunar):
        model, fv = assemble(lunar, LinearEpsilon(0.08))
        con = constraint_by_tag(model, "sizing:spacecraft")
        terms = dict(con.terms)
        assert terms[fv.design[("spacecraft", "m_d")]] == pytest.approx(0.92)
        assert terms[fv.design[("spacecraft", "m_p")]] == pytest.approx(-0.08)

    def test_linear_surrogate_row(self, lunar, linreg51):
        model, fv = assemble(lunar, linreg51)
        con = constraint_by_tag(model, "sizing:spacecraft")
        terms = dict(con.terms)
        assert terms[fv.design[("spacecraft", "m_p")]] == -PAYLOAD_COEFF
        assert terms[fv.design[("spacecraft", "m_f")]] == pytest.approx(
            -linreg51.slope)
        assert con.rhs == pytest.approx(linreg51.intercept)

    def test_relu_closure_adds_embedding(self, lunar, net0):
        model, fv = assemble(lunar, net0)
        assert ("spacecraft", "F") in fv.design
        assert any(c.tag.startswith("ml[spacecraft]") for c in model.constraints)

    def test_unknown_closure_rejected(self, lunar):
        with pytest.raises(FormulationError, match="unknown sizing closure"):
            assemble(lunar, object())

    def test_per_vehicle_closure_dict(self, lunar):
        model, _ = assemble(lunar, {"spacecraft": LinearEpsilon(0.08)})
        assert constraint_by_tag(model, "sizing:spacecraft")

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            LinearEpsilon(0.0)
        with pytest.raises(ValueError):
            LinearEpsilon(1.0)


class TestAssembledCampaigns:
    def test_structural_ratio_campaign_frozen(self, lunar):
        model, fv = assemble(lunar, LinearEpsilon(0.08))
        sol = solve_milp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(6758.762863634662, rel=1e-9)
        assert model.evaluate(sol.values, tol=1e-6) == []
        assert net_inflow(fv, sol, "payload", "LS", 5) >= 1000.0 - 1e-6

    def test_linear_surrogate_campaign_frozen(self, lunar, linreg51):
        model, _ = assemble(lunar, linreg51)
        sol = solve_milp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(42650.330332657875, rel=1e-9)

    def test_relu_campaign_frozen(self, lunar, net0):
        model, fv = assemble(lunar, net0)
        sol = solve_milp(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(43025.48995832425, rel=1e-6)
        # close to the nonlinear optimum despite the surrogate detour
        assert abs(sol.objective - 42941.920) / 42941.920 < 0.05
        assert net_inflow(fv, sol, "payload", "LS", 5) >= 1000.0 - 1e-6

    def test_departures_outside_window_have_no_variables(self, lunar):
        model, fv = assemble(lunar, LinearEpsilon(0.08))
        triples = {(a.src, a.dst, a.depart) for a in fv.network.arcs}
        assert triples == {("Earth", "LEO", 0), ("LEO", "LLO", 1),
                           ("LLO", "LS", 4)}
        names = {v.name for v in model.variables}
        assert "y[spacecraft][LEO>LLO#1@1]" in names
        assert not any(n.startswith("y[spacecraft][LEO>LLO#") and
                       not n.endswith("@1]") for n in names)

    def test_solution_flows_sorted_and_positive(self, lunar, linreg51):
        model, fv = assemble(lunar, linreg51)
        sol = solve_milp(model)
        rows = solution_flows(fv, sol)
        assert rows
        keys = [(r["depart"], r["from"], r["to"], r["commodity"]) for r in rows]
        assert keys == sorted(keys)
        assert all(r["amount_kg"] > 0 for r in rows)
        launched = {r["commodity"] for r in rows if r["from"] == "Earth"}
        assert {"payload", "propellant", "structure"} <= launched

    @pytest.mark.parametrize("closure", ["linreg51", "epsilon", "net0", "net19"])
    def test_no_row_implied_by_bounds_or_copying_a_variable(self, request,
                                                            lunar, closure):
        cl = (LinearEpsilon(0.08) if closure == "epsilon"
              else request.getfixturevalue(closure))
        model, _ = assemble(lunar, cl)
        assert redundant_rows(model) == ([], [])


class TestIdentifierRules:
    def test_commodity_vehicle_clash_rejected(self):
        sc = make_scenario(commodities=(Commodity("tug"),), demands=())
        with pytest.raises(FormulationError, match="both commodity and vehicle"):
            assemble(sc, FixedDesign(1.0))

    def test_reserved_structure_label_rejected(self):
        sc = make_scenario(commodities=(Commodity("structure"),), demands=())
        with pytest.raises(FormulationError, match="reserved"):
            assemble(sc, FixedDesign(1.0))


class TestObjective:
    def test_per_commodity_coefficients(self):
        """Each commodity costs what its entry says; one without an entry
        costs nothing."""
        sc = make_scenario(
            commodities=(Commodity("water"), Commodity("fuel"), Commodity("ice")),
            demands=(DemandEntry("tug", "A", 0, 1.0),),
            objective=(ObjectiveEntry("A", "B",
                                      (("fuel", 2.0), ("water", 5.0)), 3.0),))
        model, fv = assemble(sc, FixedDesign(100.0))
        (idx, _), = enumerate(fv.network.arcs)
        assert model.objective[fv.x_plus[(idx, "water")]] == 5.0
        assert model.objective[fv.x_plus[(idx, "fuel")]] == 2.0
        assert fv.x_plus[(idx, "ice")] not in model.objective
        assert model.objective[fv.z_struct[idx]] == 3.0

    def test_non_matching_arcs_cost_nothing(self, lunar):
        model, fv = assemble(lunar, LinearEpsilon(0.08))
        costed = set(model.objective)
        for idx, arc in enumerate(fv.network.arcs):
            if (arc.src, arc.dst) != ("Earth", "LEO"):
                assert fv.z_struct[idx] not in costed
                for c in fv.commodities:
                    assert fv.x_plus[(idx, c)] not in costed


def leg_violations_on_optimal_face(model, bare, objective):
    """Per side of each `cut:leg:` row of `model`, the largest violation
    HiGHS finds over the LP optimal face of `bare`: its rows and bounds, and
    c·x <= `objective` (+1e-9 relative). Columns are matched by name."""
    sf, bsf = model.to_standard_form(), bare.to_standard_form()
    bare_id = {v.name: v.id for v in bare.variables}
    to_bare = np.array([bare_id[v.name] for v in model.variables])
    face = [LinearConstraint(bsf.A, bsf.row_lo, bsf.row_hi),
            LinearConstraint(bsf.c, -INF,
                             objective + 1e-9 * max(1.0, abs(objective)))]
    found = []
    for i, con in enumerate(model.constraints):
        if not con.tag.startswith("cut:leg:"):
            continue
        a = np.zeros(len(bare.variables))
        span = slice(sf.A.indptr[i], sf.A.indptr[i + 1])
        np.add.at(a, to_bare[sf.A.indices[span]], sf.A.data[span])
        for side, end in ((1.0, sf.row_hi[i]), (-1.0, -sf.row_lo[i])):
            if end == INF:
                continue
            # maximize side·a·x - end, the violation of side·a·x <= end
            res = milp(c=-side * a, constraints=face, bounds=Bounds(bsf.lb, bsf.ub))
            assert res.status == 0, res.message
            found.append(-res.fun - end)
    return found


def ladder(horizon=8, width=3, demands=(), arcs=(), **vehicle_fields):
    """Ladder rung H/W with extra demand entries and arc families appended
    and fields of its vehicle replaced."""
    doc = ladder_doc(horizon, width)
    doc["demands"] += list(demands)
    doc["arcs"] += list(arcs)
    doc["vehicles"][0].update(vehicle_fields)
    return load_scenario(json.dumps(doc))


def cut_rows(model, family=""):
    return {c.tag: c for c in model.constraints
            if c.tag.startswith(f"cut:{family}")}


def payload(node, t, amount):
    return {"commodity": "payload", "node": node, "time": t, "amount": amount}


class TestNetworkCuts:
    def test_ladder_rung_gets_both_families(self, linreg51):
        model, fv = assemble(ladder(), linreg51)
        cover = cut_rows(model, "cover")
        assert list(cover) == ["cut:cover:LS:7:payload"]
        con = cover["cut:cover:LS:7:payload"]
        into_ls = {fv.use[i] for i, a in enumerate(fv.network.arcs) if a.dst == "LS"}
        assert len(into_ls) == 3
        assert (con.sense, con.rhs) == (">=", 1.0)
        assert dict(con.terms) == {y: 1.0 for y in into_ls}

        legs = cut_rows(model, "leg")
        assert len(legs) == 3 * 3 * 2  # legs x (m_p, m_f, m_d) x (lo, hi)
        lo = legs["cut:leg:spacecraft:LEO>LLO:m_f:lo"]
        hi = legs["cut:leg:spacecraft:LEO>LLO:m_f:hi"]
        flown = [i for i, a in enumerate(fv.network.arcs)
                 if (a.src, a.dst) == ("LEO", "LLO")]
        m_f = fv.design[("spacecraft", "m_f")]
        expect = {fv.z_propellant[i]: 1.0 for i in flown} | {m_f: -1.0}
        assert (lo.sense, lo.rhs) == (">=", -50000.0)
        assert dict(lo.terms) == expect | {fv.use[i]: -50000.0 for i in flown}
        # m_f's lower bound is 0, so the upper facet has no y term
        assert (hi.sense, hi.rhs) == ("<=", 0.0)
        assert dict(hi.terms) == expect
        assert redundant_rows(model) == ([], [])

    def test_positive_lower_bound_takes_the_general_facet(self, linreg51):
        sc = ladder(design_bounds={"m_p": [100, 50000], "m_f": [0, 50000]})
        model, fv = assemble(sc, linreg51)
        hi = cut_rows(model, "leg")["cut:leg:spacecraft:Earth>LEO:m_p:hi"]
        flown = [i for i, a in enumerate(fv.network.arcs) if a.src == "Earth"]
        # sum z <= U*m + L*Y - U*L with U = 1, L = 100
        assert (hi.sense, hi.rhs) == ("<=", -100.0)
        assert dict(hi.terms) == ({fv.z_payload[i]: 1.0 for i in flown}
                                  | {fv.use[i]: -100.0 for i in flown}
                                  | {fv.design[("spacecraft", "m_p")]: -1.0})

    def test_bundled_campaign_gets_the_cover_row(self, lunar, linreg51):
        """Each leg of the bundled campaign flies on one day, so with a fleet
        of one the leg rows would be its arc's `bigM:2` and `bigM:3` rows
        again; only the cover row is new."""
        model, fv = assemble(lunar, linreg51)
        idx, = [i for i, a in enumerate(fv.network.arcs) if a.dst == "LS"]
        cuts = cut_rows(model)
        assert list(cuts) == ["cut:cover:LS:5:payload"]
        con = cuts["cut:cover:LS:5:payload"]
        assert (con.terms, con.sense, con.rhs) == ([(fv.use[idx], 1.0)], ">=", 1.0)

    def test_no_leg_rows_for_a_return_leg(self, linreg51):
        back = {"from": "LLO", "to": "LEO", "delta_v_mps": 4040.0,
                "tof_days": 1, "window": [5]}
        model, _ = assemble(ladder(arcs=[back]), linreg51)
        assert cut_rows(model, "leg") == {}
        assert list(cut_rows(model, "cover")) == ["cut:cover:LS:7:payload"]

    def test_no_leg_rows_for_an_unbounded_fleet(self, linreg51):
        doc = ladder_doc(8, 3)
        for d in doc["demands"]:
            if d["commodity"] == "spacecraft":
                d["amount"] = "inf"
        model, _ = assemble(load_scenario(json.dumps(doc)), linreg51)
        assert cut_rows(model, "leg") == {}

    def test_fleet_as_large_as_a_leg_adds_no_leg_row(self, linreg51):
        # three spacecraft can fly all three departures of every leg: the
        # rows would be sums of the per-arc big-M rows
        sc = ladder(demands=[{"commodity": "spacecraft", "node": "Earth",
                              "time": 0, "amount": 2}])
        model, _ = assemble(sc, linreg51)
        assert cut_rows(model, "leg") == {}

    @pytest.mark.parametrize("supply", [1000.0, 1500.0, "inf"])
    def test_no_cover_row_for_supply_at_the_delivery_node(self, linreg51, supply):
        model, _ = assemble(ladder(demands=[payload("LS", 0, supply)]), linreg51)
        assert cut_rows(model, "cover") == {}

    def test_supply_at_the_delivery_node_lowers_the_count(self, linreg51):
        # 300 kg per flight: 1000 kg need 4 flights, 1000 - 400 kg need 2
        caps = {"m_p": [0, 300], "m_f": [0, 50000]}
        model, _ = assemble(ladder(design_bounds=caps), linreg51)
        assert cut_rows(model, "cover")["cut:cover:LS:7:payload"].rhs == 4.0
        model, _ = assemble(ladder(demands=[payload("LS", 0, 400.0)],
                                   design_bounds=caps), linreg51)
        assert cut_rows(model, "cover")["cut:cover:LS:7:payload"].rhs == 2.0

    def test_no_cover_row_where_no_arc_arrives_in_time(self, linreg51):
        # the first arrival at LS is on day 5; the balance rows alone make
        # the delivery on day 4 infeasible
        model, _ = assemble(ladder(demands=[payload("LS", 4, -10.0)]), linreg51)
        assert list(cut_rows(model, "cover")) == ["cut:cover:LS:7:payload"]
        assert solve_milp(model).status == "infeasible"

    def test_a_second_delivery_gets_a_row_when_it_needs_more_flights(self, linreg51):
        caps = {"m_p": [0, 300], "m_f": [0, 50000]}
        model, _ = assemble(ladder(demands=[payload("LS", 5, -500.0)],
                                   design_bounds=caps), linreg51)
        assert {t: c.rhs for t, c in cut_rows(model, "cover").items()} == {
            "cut:cover:LS:5:payload": 2.0, "cut:cover:LS:7:payload": 5.0}
        # at the default capacity one flight serves both: the day-7 row
        # would repeat the day-5 one over more arcs
        model, _ = assemble(ladder(demands=[payload("LS", 5, -500.0)]), linreg51)
        assert list(cut_rows(model, "cover")) == ["cut:cover:LS:5:payload"]

    @pytest.mark.parametrize("demand, count", [
        (-1000.0, 4.0), (-750.0, 3.0), (-1000.5, 5.0), (-250.0, 1.0), (-0.5, 1.0)])
    def test_cover_count_at_and_past_a_multiple(self, linreg51, demand, count):
        doc = ladder_doc(8, 3)
        doc["vehicles"][0]["design_bounds"]["m_p"] = [0, 250]
        for d in doc["demands"]:
            if d["node"] == "LS":
                d["amount"] = demand
        model, _ = assemble(load_scenario(json.dumps(doc)), linreg51)
        assert cut_rows(model, "cover")["cut:cover:LS:7:payload"].rhs == count

    @pytest.mark.parametrize("rung", [None, (8, 3)])
    @pytest.mark.parametrize("closure", ["linreg51", "epsilon"])
    def test_cuts_separate_the_root_lp_and_keep_the_optimum(self, request, lunar,
                                                            rung, closure):
        """The root LP point of the model without the rows violates the cover
        row; on the rung, some point of that LP's optimal face violates a leg
        row. HiGHS's optimum of that model meets every one of them. The bare
        model also keeps the holdovers no supply reaches; a point of it is
        read into the model by name."""
        cl = (LinearEpsilon(0.08) if closure == "epsilon"
              else request.getfixturevalue(closure))
        sc = lunar if rung is None else ladder(*rung)
        model, _ = assemble(sc, cl)
        bare, _ = assemble_without_cuts(sc, cl)
        assert {c.tag for c in model.constraints} - set(cut_rows(model)) <= \
            {c.tag for c in bare.constraints}

        def point(x):
            by_name = {v.name: x[v.id] for v in bare.variables}
            return np.array([by_name[v.name] for v in model.variables])

        root = solve_lp(bare.to_standard_form())
        assert root.status == "optimal"
        cut_viol = {v.tag for v in model.evaluate(point(root.values))}
        assert cut_viol <= set(cut_rows(model))
        assert any(t.startswith("cut:cover:") for t in cut_viol)
        if rung is not None:
            # the rung's root LP has several optimal vertices, and which one
            # the simplex returns need not violate a leg row
            assert max(leg_violations_on_optimal_face(model, bare,
                                                      root.objective)) > FEAS_TOL

        ref = highs_milp(bare)
        assert ref.status == 0, ref.message
        assert model.evaluate(point(ref.x), tol=FEAS_TOL) == []


class TestModelFingerprint:
    """The sha256 of the `export_mps` text of four models: a refactor of the
    assembly that means to change nothing must leave every digest as it is.
    The rungs use the linreg closure, the bundled campaign the seed-0 net."""

    @pytest.mark.parametrize("which, digest", [
        ("H8/W3", "4e1561f9b6b080c396f63d49a7f4cfe7fd1e3726805f90d5a50a8102d23b1130"),
        ("H10/W5", "331df2d23c439c9f655d5f1f374cdab2693ece60a740e416131bdec3bb80c9f3"),
        ("H40/W2", "87d1bd1beadb35807bb06cd1a593341a0b5d6cac49b6a0d5325276e0e1e3374a"),
        ("lunar-nn0", "869992089810b699be6c44cb4bd87dd87effd8032c786a2400f13f5f437a84c0"),
    ])
    def test_mps_text_is_pinned(self, tmp_path, which, digest, lunar, linreg51,
                                net0):
        if which == "lunar-nn0":
            model, _ = assemble(lunar, net0)
        else:
            h, w = (int(k) for k in which[1:].split("/W"))
            model, _ = assemble(load_scenario(json.dumps(ladder_doc(h, w))), linreg51)
        path = tmp_path / "model.mps"
        model.export_mps(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
