"""Simplex and branch-and-bound checks against brute-force oracles."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import leolift
from leolift import solver
from leolift.milp_ir import MilpModel
from leolift.solver import BnbConfig, dual_bound, solve_lp, solve_milp

from helpers import (exhaustive_milp_min, model_from_dense, random_box_lp,
                     vertex_enumeration_min)

INF = math.inf


def lp_from_dense(A, senses, b, c, lb, ub):
    kinds = ["continuous"] * len(c)
    return model_from_dense(np.asarray(A, float), senses, np.asarray(b, float),
                            np.asarray(c, float), lb, ub, kinds)


class TestSimplexToy:
    def test_single_bound_row(self):
        # min -x  s.t.  x <= 4
        m = lp_from_dense([[1.0]], ["<="], [4.0], [-1.0], [0.0], [INF])
        res = solve_lp(m.to_standard_form())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-4.0, abs=1e-9)
        assert res.x[0] == pytest.approx(4.0, abs=1e-9)

    def test_two_vars_share_budget(self):
        # min -x - y  s.t.  x + y <= 1
        m = lp_from_dense([[1.0, 1.0]], ["<="], [1.0], [-1.0, -1.0],
                          [0.0, 0.0], [INF, INF])
        res = solve_lp(m.to_standard_form())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0, abs=1e-9)
        assert res.x[0] + res.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_ge_row_forces_floor(self):
        # min x  s.t.  x >= 3
        m = lp_from_dense([[1.0]], [">="], [3.0], [1.0], [0.0], [INF])
        res = solve_lp(m.to_standard_form())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-9)

    def test_equality_row(self):
        # min x + y  s.t.  x + 2y = 4, y <= 1.5
        m = lp_from_dense([[1.0, 2.0]], ["="], [4.0], [1.0, 1.0],
                          [0.0, 0.0], [INF, 1.5])
        res = solve_lp(m.to_standard_form())
        assert res.status == "optimal"
        # cheapest way to reach 4 is maximal y
        assert res.x[1] == pytest.approx(1.5, abs=1e-8)
        assert res.objective == pytest.approx(2.5, abs=1e-8)

    def test_infeasible_detected(self):
        m = lp_from_dense([[1.0], [-1.0]], ["<=", "<="], [1.0, -2.0],
                          [1.0], [0.0], [INF])
        res = solve_lp(m.to_standard_form())
        assert res.status == "infeasible"

    def test_unbounded_detected(self):
        # min -x with x free above and no row capping it
        m = lp_from_dense([[0.0, 1.0]], ["<="], [1.0], [-1.0, 0.0],
                          [0.0, 0.0], [INF, INF])
        res = solve_lp(m.to_standard_form())
        assert res.status == "unbounded"

    def test_negative_lower_bounds(self):
        # min x + y over the box [-2, 2]^2 cut by x + y >= -3
        m = lp_from_dense([[1.0, 1.0]], [">="], [-3.0], [1.0, 1.0],
                          [-2.0, -2.0], [2.0, 2.0])
        res = solve_lp(m.to_standard_form())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-3.0, abs=1e-8)

    def test_no_rows_optimum_at_bounds(self):
        m = MilpModel()
        a = m.add_variable("a", lower=-1.0, upper=4.0)
        b = m.add_variable("b", lower=0.0, upper=2.0)
        m.add_objective_term(a, 1.0)
        m.add_objective_term(b, -3.0)
        res = solve_lp(m.to_standard_form())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-7.0, abs=1e-9)

    def test_beale_cycling_example_terminates(self):
        # the classic degenerate LP that cycles under a naive pivot rule
        A = np.array([[0.25, -60.0, -1.0 / 25.0, 9.0],
                      [0.5, -90.0, -1.0 / 50.0, 3.0],
                      [0.0, 0.0, 1.0, 0.0]])
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0])
        m = lp_from_dense(A, ["<="] * 3, b, c, [0.0] * 4, [INF] * 4)
        res = solve_lp(m.to_standard_form())
        ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * 4, method="highs")
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, abs=1e-9)


class TestSimplexRandom:
    def test_agrees_with_vertex_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            A, b, c, lb, ub = random_box_lp(rng)
            m = lp_from_dense(A, ["<="] * len(b), b, c, lb, ub)
            res = solve_lp(m.to_standard_form())
            ref = vertex_enumeration_min(A, b, c, lb, ub)
            assert res.status == "optimal", f"trial {trial}"
            assert res.objective == pytest.approx(ref, abs=1e-8), f"trial {trial}"

    def test_solution_vector_is_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            A, b, c, lb, ub = random_box_lp(rng)
            m = lp_from_dense(A, ["<="] * len(b), b, c, lb, ub)
            res = solve_lp(m.to_standard_form())
            x = res.x
            assert (A @ x <= b + 1e-7).all()
            assert (x >= lb - 1e-9).all() and (x <= ub + 1e-9).all()

    def test_nonbasic_values_match_per_column_loop(self):
        rng = np.random.default_rng(5)
        n = 40
        lb = np.where(rng.random(n) < 0.2, -INF, rng.normal(size=n))
        ub = np.where(rng.random(n) < 0.2, INF, lb + rng.uniform(0.0, 3.0, n))
        state = solver._Simplex(np.zeros((3, n)), np.zeros(3), lb, ub)
        state.status = rng.choice(np.array([solver.BASIC, solver.AT_LO, solver.AT_UP,
                                            solver.NB_FREE], dtype=np.int8), n)
        loop = [0.0 if state.status[j] == solver.BASIC else state.nonbasic_value(j)
                for j in range(n)]
        np.testing.assert_array_equal(state.nonbasic_values(), loop)

    def test_dual_bound_weak_duality(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            A, b, c, lb, ub = random_box_lp(rng)
            sf = lp_from_dense(A, ["<="] * len(b), b, c, lb, ub).to_standard_form()
            res = solve_lp(sf)
            bound = dual_bound(res, sf)
            assert bound <= res.objective + 1e-7
            # at a simplex optimum the bound is tight
            assert bound == pytest.approx(res.objective, abs=1e-6)

    def test_dual_bound_mixed_senses(self):
        """Equality rows carry duals of either sign; the bound stays valid
        and tight when rows mix <=, >= and =."""
        rng = np.random.default_rng(31)
        for _ in range(30):
            A, _, c, lb, ub = random_box_lp(rng)
            x0 = rng.uniform(lb, ub)
            senses = [("<=", ">=", "=")[int(rng.integers(3))] for _ in A]
            sign = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[s] for s in senses])
            b = A @ x0 + sign * rng.uniform(0.0, 2.0, len(A))
            sf = lp_from_dense(A, senses, b, c, lb, ub).to_standard_form()
            res = solve_lp(sf)
            ineq, eq = sign != 0.0, sign == 0.0
            ref = linprog(c, A_ub=sign[ineq, None] * A[ineq], b_ub=sign[ineq] * b[ineq],
                          A_eq=A[eq], b_eq=b[eq], bounds=list(zip(lb, ub)),
                          method="highs")
            assert res.status == "optimal" and ref.status == 0
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            bound = dual_bound(res, sf)
            assert bound <= res.objective + 1e-7
            assert bound == pytest.approx(res.objective, abs=1e-6)


class TestBranchAndBound:
    def test_knapsack_toy(self):
        # max 5a + 4b + 3c  s.t. 2a + 3b + c <= 5, binary  -> take a and b
        A = np.array([[2.0, 3.0, 1.0]])
        m = model_from_dense(A, ["<="], np.array([5.0]),
                             np.array([-5.0, -4.0, -3.0]),
                             [0.0] * 3, [1.0] * 3, ["binary"] * 3)
        sol = solve_milp(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-9.0, abs=1e-9)
        assert sol.values[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.values[1] == pytest.approx(1.0, abs=1e-6)

    def test_breakdown_restart_counts_abandoned_pivots(self, monkeypatch):
        A = np.array([[2.0, 3.0, 1.0]])
        m = model_from_dense(A, ["<="], np.array([5.0]),
                             np.array([-5.0, -4.0, -3.0]),
                             [0.0] * 3, [1.0] * 3, ["binary"] * 3)
        clean = solve_milp(m)

        def broken_dual(state, cost, max_iter=50000):
            state.iterations += 1000
            raise solver.SolverBreakdown("forced")

        monkeypatch.setattr(solver._Simplex, "dual", broken_dual)
        sol = solve_milp(m)
        # every node falls back to a cold two-phase solve
        assert sol.objective == pytest.approx(clean.objective, abs=1e-9)
        assert sol.iterations >= 1000 * sol.nodes

    def test_rounding_is_not_assumed(self):
        # LP relaxation wants x = 2.5; the integer optimum moves to a
        # different vertex, not to round(2.5)
        m = MilpModel()
        x = m.add_variable("x", "integer", 0.0, 10.0)
        y = m.add_variable("y", "continuous", 0.0, 10.0)
        m.add_constraint([(x, 2.0), (y, 1.0)], "<=", 5.0)
        m.add_constraint([(x, -2.0), (y, 1.0)], "<=", -1.0)
        m.add_objective_term(x, -1.0)
        m.add_objective_term(y, -1.0)
        sol = solve_milp(m)
        assert sol.status == "optimal"
        assert float(sol.values[x]).is_integer() or abs(
            sol.values[x] - round(sol.values[x])) < 1e-6

    def test_integer_infeasible_band(self):
        # 0.4 <= x <= 0.6 has no integer point
        m = MilpModel()
        x = m.add_variable("x", "integer", 0.0, 1.0)
        m.add_constraint([(x, 1.0)], ">=", 0.4)
        m.add_constraint([(x, 1.0)], "<=", 0.6)
        m.add_objective_term(x, 1.0)
        sol = solve_milp(m)
        assert sol.status == "infeasible"

    def test_unbounded_relaxation_reported(self):
        m = MilpModel()
        x = m.add_variable("x", "integer", 0.0, INF)
        m.add_objective_term(x, -1.0)
        sol = solve_milp(m)
        assert sol.status == "unbounded"

    def test_agrees_with_exhaustive_enumeration(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            A, b, c, lb, ub = random_box_lp(rng, max_vars=5, max_rows=4)
            n = len(c)
            is_int = rng.random(n) < 0.6
            ub_i = np.where(is_int, np.floor(ub), ub)  # integral boxes
            kinds = ["integer" if f else "continuous" for f in is_int]
            m = model_from_dense(A, ["<="] * len(b), b, c, lb, ub_i, kinds)
            sol = solve_milp(m)
            ref = exhaustive_milp_min(A, b, c, lb, ub_i, is_int)
            if ref is None:
                assert sol.status == "infeasible", f"trial {trial}"
            else:
                assert sol.status == "optimal", f"trial {trial}"
                assert sol.objective == pytest.approx(ref, abs=1e-7), f"trial {trial}"

    def test_pseudo_cost_branching_same_optimum(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            A, b, c, lb, ub = random_box_lp(rng, max_vars=5, max_rows=4)
            n = len(c)
            kinds = ["integer" if j % 2 == 0 else "continuous" for j in range(n)]
            ub_i = np.array([math.floor(u) if kinds[j] == "integer" else u
                             for j, u in enumerate(ub)])
            m = model_from_dense(A, ["<="] * len(b), b, c, lb, ub_i, kinds)
            base = solve_milp(m)
            alt = solve_milp(m, BnbConfig(branching="pseudo-cost"))
            assert alt.status == base.status
            if base.status == "optimal":
                assert alt.objective == pytest.approx(base.objective, abs=1e-7)

    def test_integral_solution_values(self):
        rng = np.random.default_rng(29)
        A, b, c, lb, ub = random_box_lp(rng, max_vars=4, max_rows=3)
        kinds = ["integer"] * len(c)
        m = model_from_dense(A, ["<="] * len(b), b, c, lb, np.floor(ub), kinds)
        sol = solve_milp(m)
        if sol.status == "optimal":
            for v in sol.values:
                assert abs(v - round(v)) < 1e-6

    def test_determinism(self):
        rng = np.random.default_rng(41)
        A, b, c, lb, ub = random_box_lp(rng, max_vars=5, max_rows=4)
        kinds = ["integer"] * len(c)
        m = model_from_dense(A, ["<="] * len(b), b, c, lb, np.floor(ub), kinds)
        s1 = solve_milp(m)
        s2 = solve_milp(m)
        assert s1.objective == s2.objective
        assert s1.nodes == s2.nodes
        assert np.array_equal(s1.values, s2.values)


class TestNodeLogAndLimits:
    def _logged_model(self):
        # small knapsack with enough fractional structure to branch
        rng = np.random.default_rng(3)
        A = rng.uniform(1.0, 4.0, (2, 5)).round(2)
        b = np.array([6.0, 7.0])
        c = -rng.uniform(1.0, 5.0, 5).round(2)
        return model_from_dense(A, ["<=", "<="], b, c, [0.0] * 5, [1.0] * 5,
                                ["binary"] * 5)

    def test_log_line_has_six_fields(self):
        lines = []
        sol = solve_milp(self._logged_model(), node_log=lines.append)
        assert sol.status == "optimal"
        assert lines, "expected at least the root node to be logged"
        for line in lines:
            parts = [p.strip() for p in line.split(",")]
            assert len(parts) == 6
            int(parts[0]); int(parts[1])
            for p in parts[2:]:
                float(p)  # inf parses too

    def test_best_bound_monotone_nondecreasing(self):
        lines = []
        solve_milp(self._logged_model(), node_log=lines.append)
        bounds = [float(l.split(",")[3]) for l in lines]
        for earlier, later in zip(bounds, bounds[1:]):
            assert later >= earlier - 1e-9

    def test_incumbent_only_improves(self):
        lines = []
        solve_milp(self._logged_model(), node_log=lines.append)
        incs = [float(l.split(",")[4]) for l in lines]
        for earlier, later in zip(incs, incs[1:]):
            assert later <= earlier + 1e-9

    def test_node_limit_returns_limit_status(self):
        sol = solve_milp(self._logged_model(), BnbConfig(node_limit=1))
        assert sol.status in ("limit", "optimal")
        # with a single node no branching can have proven optimality here
        assert sol.nodes <= 1

    def test_time_limit_zeroish(self):
        sol = solve_milp(self._logged_model(), BnbConfig(time_limit=1e-9))
        assert sol.status == "limit"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BnbConfig(node_limit=0)
        with pytest.raises(ValueError):
            BnbConfig(time_limit=0.0)
        with pytest.raises(ValueError):
            BnbConfig(branching="strong")


# Runs the bundled campaign with the NN closure trained on seed 12, capturing
# the assembled model so HiGHS can solve the same one.
DUAL_CYCLING_CHILD = """
import json
from scipy.optimize import Bounds, LinearConstraint, milp
from leolift import cli

models = []
solve = cli.solve_milp
def capture(model, cfg=None, node_log=None):
    models.append(model)
    return solve(model, cfg, node_log)
cli.solve_milp = capture
rep = cli.run_pipeline(cli.build_parser().parse_args(
    ["--surrogate", "nn", "--seed", "12"]))
sf = models[0].to_standard_form()
ref = milp(c=sf.c, constraints=LinearConstraint(sf.A, sf.row_lo, sf.row_hi),
           integrality=sf.is_int.astype(int), bounds=Bounds(sf.lb, sf.ub),
           options={"mip_rel_gap": 1e-9})
sol = rep.solution
print(json.dumps({"status": sol.status, "objective": sol.objective,
                  "iterations": sol.iterations, "highs_status": int(ref.status),
                  "highs_objective": float(ref.fun)}))
"""


class TestDualCycling:
    def test_nn_seed_12_warm_dual_does_not_cycle(self):
        """NN training seed 12's B&B nodes drive the warm-started dual simplex
        into a dual-degenerate cycle of about 31 pivots. Without an
        anti-cycling rule two nodes spend 50,000 pivots each before falling
        back to a cold solve; the whole tree needs about 1,150.

        The cycle reproduces only with one BLAS thread, so the solve runs in
        a child interpreter with the thread count pinned before numpy loads.
        """
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        src = str(Path(leolift.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", DUAL_CYCLING_CHILD],
                              capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["status"] == "optimal", got
        assert got["highs_status"] == 0, got
        assert got["objective"] == pytest.approx(got["highs_objective"], rel=1e-6)
        assert got["iterations"] < 5000, got


class TestRootLp:
    def test_nn_seed_5_root_lp_matches_highs(self, monkeypatch):
        """The root relaxation of the bundled campaign with the NN closure
        trained on seed 5. The all-`<=` form that wrote each equality row
        twice drove phase 1 onto a singular basis and reported this LP
        infeasible; the ranged-row form solves it."""
        from scipy.optimize import Bounds, LinearConstraint, milp
        from leolift import cli

        models = []
        solve = cli.solve_milp

        def capture(model, cfg=None, node_log=None):
            models.append(model)
            return solve(model, cfg, node_log)

        monkeypatch.setattr(cli, "solve_milp", capture)
        cli.run_pipeline(cli.build_parser().parse_args(
            ["--surrogate", "nn", "--seed", "5"]))
        sf = models[0].to_standard_form()
        res = solve_lp(sf)
        assert res.status == "optimal", res.status
        ref = milp(c=sf.c, constraints=LinearConstraint(sf.A, sf.row_lo, sf.row_hi),
                   bounds=Bounds(sf.lb, sf.ub))
        assert ref.status == 0, ref.message
        assert res.objective == pytest.approx(ref.fun, rel=1e-9)
