import json
import math

import numpy as np
import pytest

from leolift.formulation import FixedDesign, assemble
from leolift.milp_ir import MilpModel, ModelError, read_mps
from leolift.spacecraft import solve_exact_oracle
from leolift.formulation import compute_propellant_fraction

from helpers import model_from_dense


class TestAddVariable:
    def test_first_id_is_zero(self):
        m = MilpModel()
        assert m.add_variable("m_f") == 0
        assert m.variables[0].lower == 0.0 and m.variables[0].upper == math.inf

    def test_binary_forces_unit_bounds(self):
        m = MilpModel()
        vid = m.add_variable("y_LEO_LLO_t1", "binary")
        assert (m.variables[vid].lower, m.variables[vid].upper) == (0.0, 1.0)

    def test_crossed_bounds_rejected(self):
        m = MilpModel()
        with pytest.raises(ModelError):
            m.add_variable("x", lower=5.0, upper=3.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            MilpModel().add_variable("x", "semicontinuous")

    def test_count_increments(self):
        m = MilpModel()
        for k in range(5):
            assert m.add_variable(f"v{k}") == k
        assert m.num_variables() == 5


class TestEvaluate:
    def test_feasible_point_reports_nothing(self):
        m = MilpModel()
        x = m.add_variable("x")
        y = m.add_variable("y")
        m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 3.0, tag="cap")
        assert m.evaluate([1.0, 1.0]) == []

    def test_violation_is_signed_overshoot(self):
        m = MilpModel()
        x = m.add_variable("x", lower=-10)
        m.add_constraint([(x, 1.0)], "<=", 0.0, tag="roof")
        (v,) = m.evaluate([1.0])
        assert v.tag == "roof" and v.amount == pytest.approx(1.0)

    def test_missing_variable_raises(self):
        m = MilpModel()
        m.add_variable("x")
        m.add_variable("y")
        with pytest.raises(ModelError):
            m.evaluate({0: 1.0})

    def test_equality_violated_both_ways(self):
        m = MilpModel()
        x = m.add_variable("x")
        m.add_constraint([(x, 1.0)], "=", 2.0, tag="pin")
        assert m.evaluate([2.0 + 5e-7]) == []
        assert len(m.evaluate([3.0])) == 1
        assert len(m.evaluate([1.0])) == 1

    def test_oracle_trajectory_satisfies_lunar_model(self, lunar, params):
        """Replaying the fixed-point solution through the assembled model
        (dry mass pinned to the oracle value) violates nothing beyond 1e-3."""
        orc = solve_exact_oracle(params, 1000.0, [4040.0, 1870.0])
        model, fv = assemble(lunar, FixedDesign(orc.m_d))
        values = np.zeros(model.num_variables())
        veh = lunar.vehicles[0]
        values[fv.design[(veh.id, "m_d")]] = orc.m_d
        values[fv.design[(veh.id, "m_p")]] = orc.m_p
        values[fv.design[(veh.id, "m_f")]] = orc.m_f

        arcs = {(a.src, a.dst): i for i, a in fv.powered()}
        chain = [("Earth", "LEO"), ("LEO", "LLO"), ("LLO", "LS")]
        pay, prop = orc.m_p, orc.m_f
        for src, dst in chain:
            i = arcs[(src, dst)]
            arc = fv.network.arcs[i]
            values[fv.x_plus[(i, "payload")]] = pay
            values[fv.x_plus[(i, "propellant")]] = prop
            values[fv.use[i]] = 1.0
            values[fv.z_payload[i]] = orc.m_p
            values[fv.z_propellant[i]] = orc.m_f
            values[fv.z_struct[i]] = orc.m_d
            if arc.kind == "transport":
                phi = compute_propellant_fraction(arc.delta_v, veh.isp)
                prop = max(0.0, prop - phi * (pay + prop + orc.m_d))
            values[fv.x_minus[(i, "payload")]] = pay
            values[fv.x_minus[(i, "propellant")]] = prop
        assert model.evaluate(values, tol=1e-3) == []


class TestStandardForm:
    def test_ge_row_is_open_above(self):
        m = MilpModel()
        x = m.add_variable("x")
        m.add_constraint([(x, 1.0)], ">=", 2.0)
        sf = m.to_standard_form()
        assert sf.A.toarray().tolist() == [[1.0]]
        assert (sf.row_lo[0], sf.row_hi[0]) == (2.0, math.inf)

    def test_equality_is_one_closed_row(self):
        m = MilpModel()
        x = m.add_variable("x")
        m.add_constraint([(x, 1.0)], "=", 3.0)
        sf = m.to_standard_form()
        assert sf.A.toarray().tolist() == [[1.0]]
        assert sf.row_lo.tolist() == [3.0] and sf.row_hi.tolist() == [3.0]

    def test_shapes_track_model(self):
        m = MilpModel()
        ids = [m.add_variable(f"x{k}") for k in range(4)]
        m.add_constraint([(ids[0], 1.0), (ids[1], 2.0)], "<=", 1.0)
        m.add_constraint([(ids[2], 1.0)], ">=", 0.5)
        m.add_constraint([(ids[3], 1.0), (ids[0], -1.0)], "=", 0.0)
        sf = m.to_standard_form()
        assert sf.A.shape == (3, 4)  # one row per constraint
        assert sf.row_lo.tolist() == [-math.inf, 0.5, 0.0]
        assert sf.row_hi.tolist() == [1.0, math.inf, 0.0]
        assert sf.c.shape == (4,) and sf.is_int.shape == (4,)

    def test_feasibility_agrees_with_evaluate(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            rows = int(rng.integers(1, 5))
            A = rng.normal(size=(rows, n)).round(2)
            b = rng.normal(size=rows).round(2)
            senses = [("<=", ">=", "=")[int(rng.integers(3))] for _ in range(rows)]
            m = model_from_dense(A, senses, b, rng.normal(size=n),
                                 [-5.0] * n, [5.0] * n, ["continuous"] * n)
            sf = m.to_standard_form()
            for _ in range(10):
                x = rng.uniform(-5, 5, n)
                via_model = m.evaluate(x, tol=1e-9) == []
                lhs = sf.A @ x
                via_sf = bool(((sf.row_lo - 1e-9 <= lhs)
                               & (lhs <= sf.row_hi + 1e-9)).all())
                assert via_model == via_sf


class TestMpsExport:
    def test_empty_model_sections(self, tmp_path):
        m = MilpModel("void")
        path = tmp_path / "void.mps"
        m.export_mps(str(path))
        text = path.read_text()
        for section in ("NAME", "ROWS", "COLUMNS", "RHS", "ENDATA"):
            assert section in text
        m2 = read_mps(str(path))
        assert m2.num_variables() == 0 and m2.num_constraints() == 0

    def test_binary_gets_marker_pair(self, tmp_path):
        m = MilpModel()
        y = m.add_variable("pick", "binary")
        m.add_constraint([(y, 1.0)], "<=", 1.0, tag="one")
        path = tmp_path / "b.mps"
        m.export_mps(str(path))
        text = path.read_text()
        assert text.count("'INTORG'") == 1 and text.count("'INTEND'") == 1

    def test_roundtrip_reproduces_model_exactly(self, tmp_path, lunar, linreg51):
        rng = np.random.default_rng(11)
        m = MilpModel("rt")
        kinds = ["continuous", "integer", "binary", "continuous", "integer"]
        lows = [0.0, -3.0, 0.0, -math.inf, 2.0]
        ups = [10.5, 7.0, 1.0, math.inf, 9.0]
        ids = [m.add_variable(f"var{k}", kinds[k], lows[k], ups[k])
               for k in range(5)]
        for i in range(6):
            terms = [(j, round(float(rng.normal()), 6)) for j in ids
                     if rng.random() < 0.7]
            if not terms:
                terms = [(ids[0], 1.0)]
            sense = ("<=", ">=", "=")[i % 3]
            m.add_constraint(terms, sense, round(float(rng.normal()), 6), tag=f"t{i}")
        m.add_objective_term(ids[0], 1.25)
        m.add_objective_term(ids[3], -2.5)
        campaign, _ = assemble(lunar, linreg51)

        def kind(v):  # MPS has no binary kind: a 0/1 integer reads back binary
            if v.kind == "integer" and (v.lower, v.upper) == (0.0, 1.0):
                return "binary"
            return v.kind

        for model in (m, campaign):
            path = tmp_path / f"{model.name}.mps"
            model.export_mps(str(path))
            m2 = read_mps(str(path))

            assert m2.num_variables() == model.num_variables()
            for v, v2 in zip(model.variables, m2.variables):
                assert (v.name, kind(v), v.lower, v.upper) == \
                    (v2.name, v2.kind, v2.lower, v2.upper)
            assert m2.num_constraints() == model.num_constraints()
            for c, c2 in zip(model.constraints, m2.constraints):
                assert (c.sense, c.rhs, c.tag) == (c2.sense, c2.rhs, c2.tag)
                assert dict(c.terms) == dict(c2.terms)
            assert m2.objective == model.objective

    def test_name_sidecar_restores_tags(self, tmp_path):
        m = MilpModel()
        x = m.add_variable("a_rather_long_variable_name")
        m.add_constraint([(x, 1.0)], "<=", 1.0, tag="eq2:LEO:1:payload")
        path = tmp_path / "names.mps"
        m.export_mps(str(path))
        sidecar = json.loads((tmp_path / "names.mps.names").read_text())
        assert "eq2:LEO:1:payload" in sidecar["rows"].values()
        m2 = read_mps(str(path))
        assert m2.constraints[0].tag == "eq2:LEO:1:payload"
        assert m2.variables[0].name == "a_rather_long_variable_name"


class TestFreezeAndTags:
    def test_frozen_model_rejects_mutation(self):
        m = MilpModel()
        x = m.add_variable("x")
        m.freeze()
        with pytest.raises(ModelError):
            m.add_variable("y")
        with pytest.raises(ModelError):
            m.add_constraint([(x, 1.0)], "<=", 1.0)

    def test_assembled_model_tags_partition(self, lunar, net0):
        model, _ = assemble(lunar, net0)
        families = ("eq2:", "eq3:", "eq4:", "eq5:", "bigM:", "sizing:", "ml[")
        seen = set()
        for con in model.constraints:
            assert con.tag, "every row must carry a tag"
            fam = next((f for f in families if con.tag.startswith(f)), None)
            assert fam is not None, con.tag
            seen.add(fam)
        assert seen == set(families)

    def test_tags_are_unique(self, lunar, linreg51):
        model, _ = assemble(lunar, linreg51)
        tags = [c.tag for c in model.constraints]
        assert len(tags) == len(set(tags))
