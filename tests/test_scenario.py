import functools
import json
import math
import operator
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolift.scenario import (ScenarioDomainError, ScenarioError,
                              ScenarioParseError, ScenarioReferenceError,
                              expand_time_network, load_scenario)
from leolift.spacecraft import SizingParams


def doc(**overrides) -> str:
    base = {
        "name": "micro",
        "horizon_days": 3,
        "nodes": [{"id": "A", "kind": "orbit"}, {"id": "B", "kind": "orbit"}],
        "arcs": [{"from": "A", "to": "B", "delta_v_mps": 100.0, "tof_days": 1,
                  "window": [0, 1]}],
        "commodities": [],
        "vehicles": [{"id": "tug", "isp_s": 330, "burn_time_s": 120,
                      "alpha": 0.045, "m_ub_kg": 500000}],
        "demands": [],
        "objective": [],
    }
    base.update(overrides)
    return json.dumps(base)


# JSON text that `json.loads` reads as a number but no scenario may hold;
# a 400-digit integer overflows a float
BAD_NUMBERS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
               "1e400": "1e400", "int400": "1" + "0" * 399}
# the key path of every numeric field in `every_number_doc`
NUMERIC_FIELDS = [
    ("horizon_days",), ("arcs", 0, "delta_v_mps"), ("arcs", 0, "tof_days"),
    ("arcs", 0, "window", 1), ("vehicles", 0, "isp_s"),
    ("vehicles", 0, "burn_time_s"), ("vehicles", 0, "alpha"),
    ("vehicles", 0, "m_ub_kg"), ("vehicles", 0, "design_bounds", "m_p", 0),
    ("vehicles", 0, "design_bounds", "m_p", 1), ("demands", 0, "time"),
    ("demands", 0, "amount"), ("objective", 0, "commodity_cost"),
    ("objective", 1, "commodity_cost", "payload"), ("objective", 0, "vehicle_cost"),
]


def every_number_doc() -> dict:
    """`doc()` with one valid value in every numeric field of the format."""
    return json.loads(doc(
        arcs=[{"from": "A", "to": "B", "delta_v_mps": 100.0, "tof_days": 1,
               "window": [0, 1]},
              {"from": "B", "to": "A", "tof_days": 1}],
        vehicles=[{"id": "tug", "isp_s": 330, "burn_time_s": 120, "alpha": 0.045,
                   "m_ub_kg": 500000, "design_bounds": {"m_p": [0, 50000]}}],
        demands=[{"commodity": "payload", "node": "B", "time": 2, "amount": -5}],
        objective=[{"from": "A", "to": "B", "commodity_cost": 1.0, "vehicle_cost": 2.0},
                   {"from": "B", "to": "A", "commodity_cost": {"payload": 1.5}}]))


class TestLoadScenario:
    def test_lunar_structure(self, lunar):
        assert len(lunar.nodes) == 4
        assert len(lunar.arcs) == 3
        assert lunar.horizon == 6
        assert {n.id for n in lunar.nodes} == {"Earth", "LEO", "LLO", "LS"}
        assert [v.id for v in lunar.vehicles] == ["spacecraft"]
        launch = [a for a in lunar.arcs if a.is_launch]
        assert len(launch) == 1 and launch[0].src == "Earth"

    def test_builtin_commodities_present(self, lunar):
        ids = {c.id for c in lunar.commodities}
        assert {"payload", "propellant"} <= ids

    def test_empty_scenario_is_valid(self):
        s = load_scenario(doc(arcs=[], demands=[], vehicles=[]))
        assert s.arcs == () and s.demands == ()

    def test_dangling_node_named_in_error(self):
        bad = doc(demands=[{"commodity": "payload", "node": "LMO", "time": 0,
                            "amount": 5}])
        with pytest.raises(ScenarioReferenceError, match="LMO"):
            load_scenario(bad)

    def test_dangling_arc_endpoint(self):
        bad = doc(arcs=[{"from": "A", "to": "C", "delta_v_mps": 1.0,
                         "tof_days": 1, "window": [0]}])
        with pytest.raises(ScenarioReferenceError, match="C"):
            load_scenario(bad)

    def test_negative_delta_v_rejected(self):
        bad = doc(arcs=[{"from": "A", "to": "B", "delta_v_mps": -4.0,
                         "tof_days": 1, "window": [0]}])
        with pytest.raises(ScenarioDomainError):
            load_scenario(bad)

    def test_fractional_tof_rejected(self):
        bad = doc(arcs=[{"from": "A", "to": "B", "delta_v_mps": 4.0,
                         "tof_days": 1.5, "window": [0]}])
        with pytest.raises(ScenarioDomainError):
            load_scenario(bad)

    def test_window_outside_horizon_rejected(self):
        bad = doc(arcs=[{"from": "A", "to": "B", "delta_v_mps": 4.0,
                         "tof_days": 1, "window": [7]}])
        with pytest.raises(ScenarioDomainError):
            load_scenario(bad)

    def test_repeated_window_day_counts_once(self):
        def with_window(window):
            return load_scenario(doc(arcs=[{"from": "A", "to": "B", "delta_v_mps": 4.0,
                                            "tof_days": 1, "window": window}]))
        assert with_window([1, 1]) == with_window([1])
        assert with_window([1, 0, 1.0]) == with_window([0, 1])

    @pytest.mark.parametrize("src, dst", [("B", "A"), ("A", "C")])
    def test_objective_leg_without_arc_family_named(self, src, dst):
        bad = doc(objective=[{"from": "A", "to": "B", "commodity_cost": 1.0},
                             {"from": src, "to": dst, "commodity_cost": 1.0}])
        with pytest.raises(ScenarioReferenceError, match=re.escape("$.objective[1]")):
            load_scenario(bad)

    @pytest.mark.parametrize("cid", ["crew", "payload"])
    def test_only_continuous_commodities_load(self, cid):
        load_scenario(doc(commodities=[{"id": "crew", "kind": "continuous"}]))
        bad = doc(commodities=[{"id": cid, "kind": "discrete"}])
        with pytest.raises(ScenarioDomainError,
                           match=re.escape("$.commodities[0].kind")):
            load_scenario(bad)

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ScenarioParseError):
            load_scenario("{not json")

    def test_field_path_in_type_error(self):
        bad = doc(arcs=[{"from": "A", "to": "B", "delta_v_mps": "fast",
                         "tof_days": 1, "window": [0]}])
        with pytest.raises(ScenarioError, match=r"arcs\[0\]"):
            load_scenario(bad)

    def test_unbounded_supply_parses(self):
        s = load_scenario(doc(demands=[{"commodity": "payload", "node": "A",
                                        "time": 0, "amount": "inf"}]))
        assert math.isinf(s.demands[0].amount)

    def test_unknown_demand_commodity_named(self):
        bad = doc(demands=[{"commodity": "regolith", "node": "A", "time": 0,
                            "amount": 5}])
        with pytest.raises(ScenarioReferenceError, match="regolith"):
            load_scenario(bad)

    def test_vehicle_id_usable_as_demand_commodity(self):
        s = load_scenario(doc(demands=[{"commodity": "tug", "node": "A",
                                        "time": 0, "amount": 1}]))
        assert s.demands[0].commodity == "tug"

    def test_scalar_commodity_cost_applies_to_every_commodity(self):
        s = load_scenario(doc(commodities=[{"id": "water"}], objective=[
            {"from": "A", "to": "B", "commodity_cost": 2.0}]))
        assert s.objective[0].commodity_cost == (
            ("payload", 2.0), ("propellant", 2.0), ("water", 2.0))

    def test_alpha_range_enforced(self):
        bad = doc(vehicles=[{"id": "tug", "isp_s": 330, "burn_time_s": 120,
                             "alpha": 1.5, "m_ub_kg": 500000}])
        with pytest.raises(ScenarioDomainError):
            load_scenario(bad)

    def test_every_number_reads_as_written(self):
        s = load_scenario(json.dumps(every_number_doc()))
        assert (s.horizon, s.arcs[0].delta_v, s.arcs[0].tof, s.arcs[0].window) == (
            3, 100.0, 1, (0, 1))
        v = s.vehicles[0]
        assert v.sizing == SizingParams(alpha=0.045, isp=330.0, burn_time=120.0,
                                        m_ub=500000.0)
        assert v.design_bounds == (("m_p", (0.0, 50000.0)),)
        assert (s.demands[0].time, s.demands[0].amount) == (2, -5.0)
        assert [(o.commodity_cost, o.vehicle_cost) for o in s.objective] == [
            ((("payload", 1.0), ("propellant", 1.0)), 2.0),
            ((("payload", 1.5),), 0.0)]
        assert load_scenario(doc(horizon_days=3.0)).horizon == 3

    @pytest.mark.parametrize("value", BAD_NUMBERS.values(), ids=BAD_NUMBERS)
    @pytest.mark.parametrize("field", NUMERIC_FIELDS,
                             ids=lambda f: ".".join(map(str, f)))
    def test_non_finite_number_names_its_field(self, field, value):
        d = every_number_doc()
        functools.reduce(operator.getitem, field[:-1], d)[field[-1]] = "@"
        path = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in field)
        with pytest.raises(ScenarioDomainError, match=re.escape(f"field {path} ")):
            load_scenario(json.dumps(d).replace('"@"', value))


class TestExpansion:
    def test_lunar_expansion(self, lunar):
        net = expand_time_network(lunar)
        assert [(a.src, a.dst, a.depart, a.arrive, a.kind) for a in net.arcs] == [
            ("Earth", "LEO", 0, 1, "launch"),
            ("LEO", "LLO", 1, 4, "transport"),
            ("LLO", "LS", 4, 5, "transport"),
        ]

    def test_tof_exceeding_horizon_excluded(self):
        s = load_scenario(doc(horizon_days=1, arcs=[
            {"from": "A", "to": "B", "delta_v_mps": 1.0, "tof_days": 3,
             "window": [0]}]))
        net = expand_time_network(s)
        assert net.arcs == ()
        assert net.excluded == 1

    def test_single_node_no_arcs(self):
        s = load_scenario(doc(nodes=[{"id": "A", "kind": "orbit"}], arcs=[]))
        net = expand_time_network(s)
        assert net.arcs == ()
        assert net.nodes == ("A",)

    def test_transport_arrival_matches_tof(self, lunar):
        net = expand_time_network(lunar)
        tofs = {(a.src, a.dst): a.tof for a in lunar.arcs}
        for a in net.arcs:
            assert a.arrive - a.depart == tofs[(a.src, a.dst)]

    @given(horizon=st.integers(1, 8), tof=st.integers(0, 4),
           window=st.sets(st.integers(0, 7), max_size=8), vehicles=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_expansion_count_law(self, horizon, tof, window, vehicles):
        window = sorted(w for w in window if w < horizon)
        vs = [{"id": f"tug{k}", "isp_s": 330, "burn_time_s": 120,
               "alpha": 0.045, "m_ub_kg": 500000} for k in range(vehicles)]
        s = load_scenario(doc(horizon_days=horizon, vehicles=vs, arcs=[
            {"from": "A", "to": "B", "delta_v_mps": 1.0, "tof_days": tof,
             "window": window}]))
        net = expand_time_network(s)
        feasible_departures = sum(1 for t in window if t + tof <= horizon - 1)
        assert len(net.arcs) == feasible_departures * vehicles
        assert net.excluded == (len(window) - feasible_departures) * vehicles
