import json
import math
import re

import numpy as np
import pytest

from leolift.formulation import FixedDesign, assemble
from leolift.milp_ir import MilpModel, ModelError
from leolift.scenario import load_scenario
from leolift.spacecraft import compute_propellant_fraction, solve_exact_oracle

from helpers import (campaign, ladder_doc, model_from_dense, read_mps,
                     with_parallel_leg)


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


class TestBadNumbers:
    """A number the model cannot mean is refused where it is added, naming
    its variable or row, before it can reach a solver."""

    @pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_bound(self, lower, upper):
        with pytest.raises(ModelError, match="'x'.*NaN"):
            MilpModel().add_variable("x", lower=lower, upper=upper)

    @pytest.mark.parametrize("lower, upper", [(math.inf, math.inf), (-math.inf, -math.inf)],
                             ids=["lower-inf", "upper-minus-inf"])
    def test_bound_without_a_finite_value(self, lower, upper):
        """A variable fixed at +inf used to reach the solver, which called
        `min y` s.t. `y >= 1` optimal with objective nan."""
        with pytest.raises(ModelError, match="'x'"):
            MilpModel().add_variable("x", lower=lower, upper=upper)

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_coefficient(self, coeff):
        m = MilpModel()
        x, y = m.add_variable("x"), m.add_variable("y")
        with pytest.raises(ModelError, match="'cap'.*'y'"):
            m.add_constraint([(x, 1.0), (y, coeff)], "<=", 1.0, tag="cap")
        assert m.num_constraints() == 0

    @pytest.mark.parametrize("rhs", [math.nan, math.inf, -math.inf])
    def test_non_finite_rhs(self, rhs):
        m = MilpModel()
        x = m.add_variable("x")
        with pytest.raises(ModelError, match="'cap'"):
            m.add_constraint([(x, 1.0)], ">=", rhs, tag="cap")

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_objective_coefficient(self, coeff):
        m = MilpModel()
        x = m.add_variable("x")
        with pytest.raises(ModelError, match="objective.*'x'"):
            m.add_objective_term(x, coeff)
        assert m.objective == {}


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
        (v,) = m.evaluate([math.nan])  # NaN meets no row
        assert v.tag == "pin" and math.isnan(v.amount)

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

        arcs = {(a.src, a.dst): i for i, a in enumerate(fv.network.arcs)}
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
                phi = compute_propellant_fraction(arc.delta_v, veh.sizing.isp)
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

    @pytest.mark.parametrize("which", ["hand-built", "lunar-linreg",
                                       "lunar-nn0", "lunar-parallel-leg",
                                       "H8/W3", "H10/W5", "H40/W2",
                                       "H8/W2-twin"])
    def test_roundtrip_reproduces_model_exactly(self, tmp_path, which, lunar,
                                                lunar_text, linreg51, net0):
        """`read_mps` gives back every name, kind, bound, row, term and
        objective coefficient that `export_mps` wrote, from the one file."""
        if which == "hand-built":
            model = hand_built_model()
        elif which == "lunar-parallel-leg":
            doc = with_parallel_leg(lunar_text)
            model, _ = assemble(load_scenario(json.dumps(doc)), linreg51)
        elif which.startswith("lunar"):
            model, _ = assemble(lunar, net0 if which == "lunar-nn0" else linreg51)
        elif which == "H8/W2-twin":
            model, _ = assemble(campaign(8, 2, None, False, None, None, True),
                                linreg51)
        else:
            h, w = (int(k) for k in which[1:].split("/W"))
            model, _ = assemble(load_scenario(json.dumps(ladder_doc(h, w))), linreg51)
        if which == "lunar-nn0":
            names = {v.name for v in model.variables}
            assert {"ml[spacecraft]:d0", "ml[spacecraft]:w1"} <= names
        if which == "H8/W2-twin":
            assert "m_f[spacecraft2]" in {v.name for v in model.variables}

        def kind(v):  # MPS has no binary kind: a 0/1 integer reads back binary
            if v.kind == "integer" and (v.lower, v.upper) == (0.0, 1.0):
                return "binary"
            return v.kind

        path = tmp_path / "model.mps"
        model.export_mps(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["model.mps"]  # no sidecar
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

    def test_long_names_round_trip_whole(self, tmp_path):
        m = MilpModel()
        x = m.add_variable("a_rather_long_variable_name")
        y = m.add_variable("a_rather_long_variable_name_too")
        m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 1.0, tag="eq2:LEO:1:payload")
        m.add_constraint([(x, 1.0)], ">=", 0.5, tag="eq2:LEO:1:payload:b")
        path = tmp_path / "names.mps"
        m.export_mps(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["names.mps"]
        assert " a_rather_long_variable_name_too " in path.read_text()
        m2 = read_mps(str(path))
        assert [c.tag for c in m2.constraints] == ["eq2:LEO:1:payload",
                                                   "eq2:LEO:1:payload:b"]
        assert [v.name for v in m2.variables] == ["a_rather_long_variable_name",
                                                  "a_rather_long_variable_name_too"]

    @pytest.mark.parametrize("names, tags, offender", [
        (["x", ""], ["r"], "variable name ''"),
        (["x", "y z"], ["r"], "variable name 'y z'"),
        (["x", "y\tz"], ["r"], r"variable name 'y\tz'"),
        (["x", "x"], ["r"], "variable name 'x'"),
        (["x", "y"], [""], "row name ''"),
        (["x", "y"], ["r", "eq2:LEO 1"], "row name 'eq2:LEO 1'"),
        (["x", "y"], ["r", "r"], "row name 'r'"),
        (["x", "y"], ["r", "OBJ"], "row name 'OBJ'"),
    ], ids=["empty-var", "space-var", "tab-var", "repeated-var", "empty-row",
            "space-row", "repeated-row", "row-named-OBJ"])
    def test_unwritable_name_is_rejected(self, tmp_path, names, tags, offender):
        m = MilpModel()
        ids = [m.add_variable(name) for name in names]
        for tag in tags:
            m.add_constraint([(ids[0], 1.0)], "<=", 1.0, tag=tag)
        path = tmp_path / "bad.mps"
        with pytest.raises(ModelError, match=re.escape(offender)):
            m.export_mps(str(path))
        assert list(tmp_path.iterdir()) == []


class TestReadMps:
    ROWS = "NAME bad\nROWS\n N  OBJ\n L  r1\n"
    COLUMNS = "COLUMNS\n    x  OBJ  1.0  r1  1.0\n"
    RHS = "RHS\n    RHS  r1  4.0\n"
    BOUNDS = "BOUNDS\n UP BND  x  3.0\n"

    def read(self, tmp_path, columns="", rhs="", bounds=""):
        path = tmp_path / "hand.mps"
        path.write_text(self.ROWS + self.COLUMNS + columns + self.RHS + rhs
                        + self.BOUNDS + bounds + "ENDATA\n")
        return read_mps(str(path))

    def test_well_formed_file_reads(self, tmp_path):
        m = self.read(tmp_path)
        assert [(v.name, v.upper) for v in m.variables] == [("x", 3.0)]
        assert [(c.tag, c.terms, c.rhs) for c in m.constraints] == [("r1", [(0, 1.0)], 4.0)]
        assert m.objective == {0: 1.0}

    @pytest.mark.parametrize("columns, rhs, bounds, offender", [
        ("    x  r2  2.0\n", "    RHS  r3  5.0\n", " UP BND  y  1.0\n", "row 'r2'"),
        ("", "    RHS  r3  5.0\n", "", "row 'r3'"),
        ("", "", " UP BND  y  1.0\n", "column 'y'"),
    ], ids=["all-three", "rhs-row", "bounds-column"])
    def test_undeclared_name_is_rejected(self, tmp_path, columns, rhs, bounds,
                                         offender):
        """A COLUMNS or RHS entry in a row ROWS never declares, or a bound on
        a column COLUMNS never declares, fails on the first such name."""
        with pytest.raises(ModelError, match=re.escape(offender)):
            self.read(tmp_path, columns, rhs, bounds)

    @pytest.mark.parametrize("old, new, entry", [
        (RHS, RHS + "    RHS  OBJ  -5.0\n", "objective row 'OBJ'"),
        (BOUNDS, "RANGES\n    RNG  r1  2.0\n" + BOUNDS, "section RANGES"),
        (ROWS, ROWS.replace("ROWS", "OBJSENSE\n    MAX\nROWS"), "section OBJSENSE"),
        (ROWS, ROWS.replace("ROWS", "OBJSENSE MAX\nROWS"), "section OBJSENSE"),
        (BOUNDS, "BOUNDS\n SC BND  x  3.0\n", "bound SC on column 'x'"),
        (ROWS, ROWS + " X  r2\n", "row 'r2' of type 'X'"),
        (ROWS, ROWS + " N  free\n", "row 'free' of type 'N'"),
        (ROWS, ROWS + " L\n", "MPS line 5 ('L'): a row needs a type and a name"),
        (BOUNDS, "BOUNDS\n MI BND  x  0.0\n", "bound MI takes no value"),
    ], ids=["objective-constant", "ranges", "objsense-section", "objsense-line",
            "sc-bound", "row-type-x", "second-objective-row", "row-without-name",
            "valued-mi-bound"])
    def test_unread_entry_is_refused(self, tmp_path, old, new, entry):
        """What the reader would drop or misread is refused, naming it: the
        objective constant (the file would solve to 1.0, not 6.0), a range,
        a maximization (read as a minimization), a semicontinuous bound, an
        unknown row type, a second N row (a free row MPS ignores), a row
        without its name, and a value on a bound that takes none."""
        path = tmp_path / "hand.mps"
        text = self.ROWS + self.COLUMNS + self.RHS + self.BOUNDS + "ENDATA\n"
        path.write_text(text.replace(old, new))
        with pytest.raises(ModelError, match=re.escape(entry)):
            read_mps(str(path))

    @pytest.mark.parametrize("columns, rhs, bounds, line, entry", [
        ("    y  r1\n", "", "", 7, "y  r1"),
        ("    x  r1  1.0  OBJ\n", "", "", 7, "x  r1  1.0  OBJ"),
        ("", "    RHS  r1\n", "", 9, "RHS  r1"),
        ("", "", " UP BND\n", 11, "UP BND"),
        ("    x  r1  abc\n", "", "", 7, "x  r1  abc"),
    ], ids=["column-without-value", "column-trailing-row", "rhs-without-value",
            "bound-without-column", "value-not-a-number"])
    def test_incomplete_entry_is_refused(self, tmp_path, columns, rhs, bounds,
                                         line, entry):
        """An entry with a token missing, left over or not a number is
        refused, naming its line, rather than dropped or raised as a bare
        IndexError or ValueError."""
        with pytest.raises(ModelError, match=re.escape(f"MPS line {line} ({entry!r})")):
            self.read(tmp_path, columns, rhs, bounds)


def hand_built_model() -> MilpModel:
    """Every variable kind, infinite and negative bounds, all three senses."""
    rng = np.random.default_rng(11)
    m = MilpModel("rt")
    kinds = ["continuous", "integer", "binary", "continuous", "integer"]
    lows = [0.0, -3.0, 0.0, -math.inf, 2.0]
    ups = [10.5, 7.0, 1.0, math.inf, 9.0]
    ids = [m.add_variable(f"var{k}", kinds[k], lows[k], ups[k]) for k in range(5)]
    for i in range(6):
        terms = [(j, round(float(rng.normal()), 6)) for j in ids
                 if rng.random() < 0.7]
        if not terms:
            terms = [(ids[0], 1.0)]
        sense = ("<=", ">=", "=")[i % 3]
        m.add_constraint(terms, sense, round(float(rng.normal()), 6), tag=f"t{i}")
    m.add_objective_term(ids[0], 1.25)
    m.add_objective_term(ids[3], -2.5)
    return m


class TestFreezeAndTags:
    def test_frozen_model_rejects_mutation(self):
        m = MilpModel()
        x = m.add_variable("x")
        m.freeze()
        with pytest.raises(ModelError):
            m.add_variable("y")
        with pytest.raises(ModelError):
            m.add_constraint([(x, 1.0)], "<=", 1.0)

    def test_frozen_model_compiles_once(self, tmp_path):
        """A frozen model's form is compiled once and shared, its arrays
        read-only, so export, solve and evaluate read one compile; an open
        model compiles afresh, since rows may still be added."""
        m = hand_built_model()
        assert m.to_standard_form() is not m.to_standard_form()
        m.freeze()
        sf = m.to_standard_form()
        m.export_mps(str(tmp_path / "m.mps"))
        m.evaluate(np.zeros(m.num_variables()))
        assert m.to_standard_form() is sf
        for arr in (sf.A.data, sf.A.indices, sf.A.indptr, sf.row_lo, sf.row_hi,
                    sf.c, sf.lb, sf.ub, sf.is_int):
            assert not arr.flags.writeable

    def test_assembled_model_tags_partition(self, lunar, net0):
        model, _ = assemble(lunar, net0)
        families = ("eq2:", "eq3:", "eq4:", "eq5:", "bigM:", "sizing:", "ml[",
                    "cut:")
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
