"""Formulation tests: balance rows, burn arithmetic, linearization, assembly."""

import math

import numpy as np
import pytest

from leolift.formulation import (FixedDesign, FormulationError, LinearEpsilon,
                                 PAYLOAD_SIZING_COEFF, assemble,
                                 build_concurrency, build_mass_balance,
                                 build_sizing, build_transformation,
                                 compute_propellant_fraction,
                                 create_flow_variables, net_inflow,
                                 solution_flows)
from leolift.milp_ir import MilpModel
from leolift.scenario import (Arc, Commodity, DemandEntry, Node,
                              ObjectiveEntry, Scenario, VehicleSpec,
                              expand_time_network)
from leolift.solver import solve_milp
from leolift.spacecraft import SizingParams, solve_exact_oracle, surrogate_target
from leolift.surrogate import TrainConfig, train_relu_network

INF = math.inf


def make_scenario(**kw):
    base = dict(
        name="micro",
        horizon=2,
        nodes=(Node("A", "orbit"), Node("B", "orbit")),
        arcs=(Arc("A", "B", 0.0, 1, (0,)),),
        commodities=(Commodity("water"),),
        vehicles=(VehicleSpec("tug", isp=300.0, burn_time=60.0, alpha=0.1,
                              m_ub=50000.0,
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
    return train_relu_network(dataset51, TrainConfig(seed=19),
                              target_fn=lambda v: surrogate_target(params, v))


class TestPropellantFraction:
    def test_zero_delta_v_burns_nothing(self):
        assert compute_propellant_fraction(0.0, 330.0) == 0.0

    def test_lunar_injection_fraction(self):
        assert compute_propellant_fraction(4040.0, 330.0) == pytest.approx(
            0.71327, abs=1e-5)

    def test_descent_fraction_frozen(self):
        assert compute_propellant_fraction(1870.0, 330.0) == pytest.approx(
            0.4391104607150276, rel=1e-12)

    def test_negative_delta_v_rejected(self):
        with pytest.raises(ValueError):
            compute_propellant_fraction(-1.0, 330.0)
        with pytest.raises(ValueError):
            compute_propellant_fraction(100.0, 0.0)

    def test_monotone_in_delta_v(self):
        vals = [compute_propellant_fraction(dv, 450.0)
                for dv in (0.0, 500.0, 2000.0, 9000.0)]
        assert vals == sorted(vals)
        assert all(0.0 <= v < 1.0 for v in vals)


class TestMassBalance:
    def test_demand_row_carries_rhs(self, lunar):
        model, _ = assemble(lunar, LinearEpsilon(0.08))
        con = constraint_by_tag(model, "eq2:LS:5:payload")
        assert con.sense == "<=" and con.rhs == -1000.0

    def test_unbounded_supply_rows_omitted(self, lunar):
        model, fv = assemble(lunar, LinearEpsilon(0.08))
        tags = {c.tag for c in model.constraints}
        assert "eq2:Earth:0:payload" not in tags
        assert "eq2:Earth:0:propellant" not in tags
        assert ("Earth", 0, "payload") in fv.omitted_rows

    def test_structure_row_omitted_at_vehicle_supply(self, lunar):
        model, fv = assemble(lunar, LinearEpsilon(0.08))
        assert ("Earth", 0, "structure") in fv.omitted_rows
        tags = {c.tag for c in model.constraints}
        assert "eq2:Earth:0:structure" not in tags
        # elsewhere the structure account is balanced normally
        assert "eq2:LEO:1:structure" in tags

    def test_isolated_node_has_empty_row(self):
        # the row would read 0 <= 0: it is omitted and recorded as such
        sc = make_scenario(horizon=1, arcs=(), vehicles=(), demands=())
        net = expand_time_network(sc)
        model = MilpModel()
        fv = create_flow_variables(model, sc, net)
        build_mass_balance(model, fv, sc.demands)
        assert not any(c.tag == "eq2:A:0:water" for c in model.constraints)
        assert ("A", 0, "water") in fv.omitted_rows

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
        holds = sorted((a.depart, sol.values[fv.hold[(i, "water")]])
                       for i, a in fv.holdovers())
        assert holds[0][1] == pytest.approx(5.0, abs=1e-9)
        assert holds[1][1] == pytest.approx(5.0, abs=1e-9)

    def test_holdover_variable_shared_between_rows(self):
        sc = make_scenario(horizon=3, nodes=(Node("A", "orbit"),), arcs=(),
                           vehicles=(), demands=())
        model, fv = assemble(sc, {})
        (i0, _), (i1, _) = sorted(fv.holdovers(), key=lambda p: p[1].depart)
        h01 = fv.hold[(i0, "water")]
        t0 = dict(constraint_by_tag(model, "eq2:A:0:water").terms)
        t1 = dict(constraint_by_tag(model, "eq2:A:1:water").terms)
        assert t0[h01] == 1.0      # leaves t=0
        assert t1[h01] == -1.0     # arrives at t=1

    def test_vehicle_count_uses_integer_holdover(self, lunar):
        model, fv = assemble(lunar, LinearEpsilon(0.08))
        for (idx, label), vid in fv.hold.items():
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
        (idx, _), = fv.powered()
        assert fv.x_minus[(idx, "water")] == fv.x_plus[(idx, "water")]
        assert not any(c.tag == "eq3:tug:A>B@0:water" for c in model.constraints)

    def test_launch_arc_is_identity_despite_delta_v(self):
        sc = make_scenario(arcs=(Arc("A", "B", 9000.0, 1, (0,), is_launch=True),))
        model, fv = assemble(sc, FixedDesign(100.0))
        (idx, _), = fv.powered()
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
        (idx, _), = fv.powered()
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
        for idx, arc in fv.powered():
            if (arc.src, arc.dst) != ("LEO", "LLO"):
                continue
            wet = sum(sol.values[fv.x_plus[(idx, c)]] for c in fv.commodities)
            wet += sol.values[fv.z_struct[idx]]
            burned = (sol.values[fv.x_plus[(idx, "propellant")]]
                      - sol.values[fv.x_minus[(idx, "propellant")]])
            phi = compute_propellant_fraction(4040.0, lunar.vehicle("spacecraft").isp)
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
        build_concurrency(model, fv, sc)
        build_sizing(model, fv, FixedDesign(100.0))
        (idx, _), = fv.powered()
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
        build_concurrency(model, fv, sc)
        (idx, _), = fv.powered()
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
            vehicles=(VehicleSpec("tug", isp=300.0, burn_time=60.0, alpha=0.1,
                                  m_ub=50000.0,
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
        assert terms[fv.design[("spacecraft", "m_p")]] == -PAYLOAD_SIZING_COEFF
        assert terms[fv.design[("spacecraft", "m_f")]] == pytest.approx(
            -float(linreg51.beta[0]))
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
        triples = {(a.src, a.dst, a.depart) for _, a in fv.powered()}
        assert triples == {("Earth", "LEO", 0), ("LEO", "LLO", 1),
                           ("LLO", "LS", 4)}
        names = {v.name for v in model.variables}
        assert "y[spacecraft][LEO>LLO@1]" in names
        assert not any(n.startswith("y[spacecraft][LEO>LLO@") and
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
    def test_wildcard_and_override_coefficients(self):
        sc = make_scenario(
            commodities=(Commodity("water"), Commodity("fuel")),
            demands=(DemandEntry("tug", "A", 0, 1.0),),
            objective=(ObjectiveEntry("A", "B",
                                      (("*", 2.0), ("water", 5.0)), 3.0),))
        model, fv = assemble(sc, FixedDesign(100.0))
        (idx, _), = fv.powered()
        assert model.objective[fv.x_plus[(idx, "water")]] == 5.0
        assert model.objective[fv.x_plus[(idx, "fuel")]] == 2.0
        assert model.objective[fv.z_struct[idx]] == 3.0

    def test_non_matching_arcs_cost_nothing(self, lunar):
        model, fv = assemble(lunar, LinearEpsilon(0.08))
        costed = set(model.objective)
        for idx, arc in fv.powered():
            if (arc.src, arc.dst) != ("Earth", "LEO"):
                assert fv.z_struct[idx] not in costed
                for c in fv.commodities:
                    assert fv.x_plus[(idx, c)] not in costed
