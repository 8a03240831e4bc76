"""Simplex and branch-and-bound checks against brute-force oracles."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array, csr_array, eye_array, hstack
from scipy.sparse import random_array as sparse_random
from scipy.sparse.linalg import splu

import leolift
from leolift import solver
from leolift.formulation import assemble
from leolift.milp_ir import MilpModel, StandardForm
from leolift.scenario import load_scenario
from leolift.solver import BnbConfig, solve_lp, solve_milp

from helpers import (campaign, exhaustive_milp_min, highs_milp, ladder_doc,
                     model_from_dense, random_box_lp, vertex_enumeration_min)

INF = math.inf


def lp_from_dense(A, senses, b, c, lb, ub):
    kinds = ["continuous"] * len(c)
    return model_from_dense(np.asarray(A, float), senses, np.asarray(b, float),
                            np.asarray(c, float), lb, ub, kinds)


def cold_solve(sf):
    """The two-phase solve of `sf` from its slack basis, as branch-and-bound
    solves the root; returns (status, final state)."""
    state = solver._problem_from_form(sf)
    return solver._two_phase(state), state


class TestSimplexToy:
    def test_single_bound_row(self):
        # min -x  s.t.  x <= 4
        m = lp_from_dense([[1.0]], ["<="], [4.0], [-1.0], [0.0], [INF])
        res = solve_lp(m.to_standard_form())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-4.0, abs=1e-9)
        assert res.values[0] == pytest.approx(4.0, abs=1e-9)

    def test_two_vars_share_budget(self):
        # min -x - y  s.t.  x + y <= 1
        m = lp_from_dense([[1.0, 1.0]], ["<="], [1.0], [-1.0, -1.0],
                          [0.0, 0.0], [INF, INF])
        res = solve_lp(m.to_standard_form())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0, abs=1e-9)
        assert res.values[0] + res.values[1] == pytest.approx(1.0, abs=1e-9)

    def test_row_with_tiny_alpha_does_not_block(self, monkeypatch):
        """min -x + y  s.t.  1e-8·x - y <= 0, x <= 1. x enters, and the
        first row's slack, at its bound, is the nearest block, with
        alpha = 1e-8. The primal steps past it to x = 1 instead of pivoting
        on 1e-8; y = 0 leaves that row 1e-8 off, inside `FEAS_TOL`, and the
        optimum equals HiGHS's, -1 + 1e-8."""
        elements = []
        pivot = solver._Simplex._pivot

        def recorded(state, r, e, alpha, t, below):
            elements.append(abs(alpha[r]))
            return pivot(state, r, e, alpha, t, below)

        monkeypatch.setattr(solver._Simplex, "_pivot", recorded)
        A, b, c = [[1e-8, -1.0], [1.0, 0.0]], [0.0, 1.0], [-1.0, 1.0]
        m = lp_from_dense(A, ["<=", "<="], b, c, [0.0, 0.0], [INF, INF])
        res = solve_lp(m.to_standard_form())
        ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0.0, None)] * 2, method="highs")
        assert res.status == "optimal" and ref.status == 0
        assert elements and min(elements) > solver.STABLE_PIVOT, elements
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)

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
        assert res.values[1] == pytest.approx(1.5, abs=1e-8)
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

    @pytest.mark.parametrize("row_rhs", [1.0, 10.0])
    def test_iterations_count_pivots_and_bound_flips(self, row_rhs):
        # min -x s.t. x <= row_rhs (a row), 0 <= x <= 5: the row at 1 blocks
        # x, which takes one pivot; at 10 it does not, and x flips to its
        # upper bound. The pricing pass that finds the optimum is no iteration.
        m = lp_from_dense([[1.0]], ["<="], [row_rhs], [-1.0], [0.0], [5.0])
        res = solve_lp(m.to_standard_form())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-min(row_rhs, 5.0), abs=1e-9)
        assert res.iterations == 1

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
            x = res.values
            assert (A @ x <= b + 1e-7).all()
            assert (x >= lb - 1e-9).all() and (x <= ub + 1e-9).all()

    def test_nonbasic_values_match_per_column_loop(self):
        rng = np.random.default_rng(5)
        n = 40
        lb = np.where(rng.random(n) < 0.2, -INF, rng.normal(size=n))
        ub = np.where(rng.random(n) < 0.2, INF, lb + rng.uniform(0.0, 3.0, n))
        A = csc_array((3, n))
        state = solver._Simplex(A, np.zeros(3), np.zeros(n), lb, ub)
        state.status = rng.choice(np.array([solver.BASIC, solver.AT_LO, solver.AT_UP,
                                            solver.NB_FREE], dtype=np.int8), n)
        loop = [lb[j] if state.status[j] == solver.AT_LO
                else ub[j] if state.status[j] == solver.AT_UP else 0.0
                for j in range(n)]
        np.testing.assert_array_equal(state.nonbasic_values(), loop)

    def test_mixed_senses_match_linprog(self):
        """Rows mixing <=, >= and = fold to one sign convention; the optimum
        matches HiGHS."""
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


def ratio_test_loop(a, xb, lb_b, ub_b, t_best):
    """The per-row primal ratio test `_ratio_test` replaces, kept as its
    reference."""
    block = -1
    for i in range(len(a)):
        if a[i] > solver.STABLE_PIVOT:
            if lb_b[i] == -INF:
                continue
            lim = (xb[i] - lb_b[i]) / a[i]
        elif a[i] < -solver.STABLE_PIVOT:
            if ub_b[i] == INF:
                continue
            lim = (xb[i] - ub_b[i]) / a[i]
        else:
            continue
        lim = max(lim, 0.0)
        if lim < t_best - 1e-12 or (
            block >= 0
            and lim < t_best + 1e-9
            and abs(a[i]) > abs(a[block])
        ):
            t_best = lim
            block = i
    return block, t_best


def may_enter_loop(state, d):
    """Per column, whether the primal simplex may enter it, as pricing
    decided before the sign table."""
    ok = np.zeros(state.n, dtype=bool)
    for j in range(state.n):
        if not state.ub[j] > state.lb[j]:
            continue
        s = state.status[j]
        ok[j] = (s == solver.AT_LO and d[j] < -solver.DJ_TOL) or \
            (s == solver.AT_UP and d[j] > solver.DJ_TOL) or \
            (s == solver.NB_FREE and abs(d[j]) > solver.DJ_TOL)
    return ok


def entering_loop(state, d, bland):
    """The primal's entering column by a pass over the columns: the first
    that may enter under Bland's rule, else the first largest |d|; -1 when
    none may."""
    best, best_abs = -1, 0.0
    for j in np.flatnonzero(may_enter_loop(state, d)):
        if bland:
            return int(j)
        if abs(d[j]) > best_abs:
            best, best_abs = int(j), abs(d[j])
    return best


def dual_candidates_loop(state, w, below):
    """Per column, the dual's eligibility test as it stood before the sign
    table: nonbasic and movable, with |w| above PIVOT_TOL on the side that
    drives the leaving variable toward its violated bound."""
    cand = []
    for j in range(state.n):
        s = state.status[j]
        if s == solver.BASIC or not state.ub[j] > state.lb[j]:
            continue
        lo_side = s in (solver.AT_LO, solver.NB_FREE)
        up_side = s in (solver.AT_UP, solver.NB_FREE)
        neg, pos = w[j] < -solver.PIVOT_TOL, w[j] > solver.PIVOT_TOL
        if (lo_side and (neg if below else pos)) or \
                (up_side and (pos if below else neg)):
            cand.append(j)
    return np.array(cand, dtype=np.intp)


def random_statuses(rng, n):
    """A state over n columns with every status, fixed, free, one-sided and
    boxed bounds, for the pricing scans; A is never read."""
    lb = rng.choice([-INF, 0.0, 1.0], n)
    ub = np.where(rng.random(n) < 0.3, lb, rng.choice([1.0, 2.0, INF], n))
    ub = np.maximum(ub, lb)
    state = solver._Simplex(csc_array((1, n)), np.zeros(1), np.zeros(n), lb, ub)
    state.status = rng.choice(np.array([solver.BASIC, solver.AT_LO, solver.AT_UP,
                                        solver.NB_FREE], dtype=np.int8), n)
    return state


def scan_values(rng, n):
    """Few distinct values, so entries tie exactly; some NaN and infinite."""
    v = rng.choice([-2.0, -1.0, -1e-7, -1e-9, -0.0, 0.0, 1e-9, 1e-7, 1.0, 2.0], n)
    v[rng.random(n) < 0.05] = math.nan
    v[rng.random(n) < 0.03] = rng.choice([-INF, INF])
    return v


def phase_one_start_loop(state, slack_offset):
    """Per column and per row, the start `_two_phase` makes: every column on
    a bound (or free at 0), every slack basic at b - A·x_N, and each slack
    outside its bounds relaxed past the bound it violates with cost ±1.
    Returns (statuses, phase-1 costs, relaxed lb, relaxed ub)."""
    status = np.empty(state.n, dtype=np.int8)
    for j in range(state.n):
        if state.lb[j] > -INF:
            status[j] = solver.AT_LO
        elif state.ub[j] < INF:
            status[j] = solver.AT_UP
        else:
            status[j] = solver.NB_FREE
    xn = [state.lb[j] if status[j] == solver.AT_LO
          else state.ub[j] if status[j] == solver.AT_UP else 0.0
          for j in range(state.n)]
    resid = state.b - state.A @ np.array(xn)
    cost, lb, ub = np.zeros(state.n), state.lb.copy(), state.ub.copy()
    for i in range(state.m):
        slack = slack_offset + i
        status[slack] = solver.BASIC
        if resid[i] > state.ub[slack] + solver.FEAS_TOL:
            cost[slack], lb[slack], ub[slack] = 1.0, state.ub[slack], INF
        elif resid[i] < state.lb[slack] - solver.FEAS_TOL:
            cost[slack], lb[slack], ub[slack] = -1.0, -INF, state.lb[slack]
    return status, cost, lb, ub


class TestVectorizedScans:
    def test_all_slack_start_matches_loops(self, monkeypatch):
        """Phase 1 starts from B = I: its first primal run sees the slack
        basis, the statuses, costs and relaxed bounds of the loop version,
        with free and one-sided columns, fixed (equality) slacks, residuals
        on or just past a slack bound and a NaN residual. A run that stops
        there leaves the slacks' own bounds."""
        seen = []

        def first_run(state, cost):
            seen.append((state.basis.copy(), state.status.copy(), cost.copy(),
                         state.lb.copy(), state.ub.copy()))
            raise solver.SolverBreakdown("stop at the start")

        monkeypatch.setattr(solver._Simplex, "primal", first_run)
        rng = np.random.default_rng(17)
        relaxed = 0
        for trial in range(200):
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            S = np.where(rng.random((m, n)) < 0.4, rng.choice([-1.0, 1.0, 2.0], (m, n)), 0.0)
            A = csc_array(np.hstack([S, np.eye(m)]))
            lb = np.where(rng.random(n) < 0.2, -INF, rng.choice([0.0, 1.0], n))
            ub = np.where(rng.random(n) < 0.3, INF, lb + rng.choice([0.0, 2.0], n))
            ub = np.where(np.isfinite(ub), ub, np.where(rng.random(n) < 0.5, INF, 3.0))
            slack_ub = rng.choice([0.0, 1.0, 5.0, INF], m)
            b = S @ np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
            b = b + rng.choice([-1.0, -1e-7, 0.0, 1.0, 5.0 + 1e-7, 7.0], m)
            if trial % 10 == 0:
                b[0] = math.nan
            full_lb = np.concatenate([lb, np.zeros(m)])
            full_ub = np.concatenate([ub, slack_ub])
            state = solver._Simplex(A, b, np.zeros(n + m), full_lb, full_ub)
            with pytest.raises(solver.SolverBreakdown, match="stop at the start"):
                solver._two_phase(state)
            basis, status, cost, run_lb, run_ub = seen.pop()
            ref = phase_one_start_loop(
                solver._Simplex(A, b, np.zeros(n + m), full_lb, full_ub), n)
            np.testing.assert_array_equal(basis, n + np.arange(m))
            for got, want in zip((status, cost, run_lb, run_ub), ref):
                np.testing.assert_array_equal(got, want)
            relaxed += np.count_nonzero(cost)
            np.testing.assert_array_equal(state.lb, full_lb)
            np.testing.assert_array_equal(state.ub, full_ub)
        assert relaxed > 100

    def test_ratio_test_matches_row_loop(self):
        rng = np.random.default_rng(13)
        for trial in range(400):
            m = int(rng.integers(1, 30))
            # few distinct values so limits tie, some entries under STABLE_PIVOT
            a = rng.choice([-2.0, -1.0, -0.5, -1e-8, -1e-10, 0.0, 1e-10, 1e-8,
                            0.5, 1.0, 2.0], m)
            a *= rng.choice([1.0, 1.0 + 1e-10], m)
            lb_b = np.where(rng.random(m) < 0.2, -INF, rng.choice([-1.0, 0.0], m))
            ub_b = np.where(rng.random(m) < 0.2, INF, rng.choice([1.0, 2.0], m))
            # basic values on a bound (degenerate), inside, or slightly outside
            xb = np.where(rng.random(m) < 0.4, np.where(a > 0, lb_b, ub_b),
                          rng.uniform(-1.5, 2.5, m))
            xb = np.where(np.isfinite(xb), xb, 0.5)
            t0 = [INF, 0.0, 1.0, float(rng.uniform(0.0, 3.0))][trial % 4]
            got = solver._ratio_test(a, xb, lb_b, ub_b, t0)
            assert got == ratio_test_loop(a, xb, lb_b, ub_b, t0), f"trial {trial}"

    # a basic column's infinite value times its table entry 0 reads NaN,
    # which never enters
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_entering_matches_column_loop(self):
        """The sign-table pick equals the per-column reference, Dantzig and
        Bland, over basic, fixed, free and bounded columns, exact ties and
        NaN or infinite reduced costs; `improving` equals its mask."""
        rng = np.random.default_rng(41)
        picked = nan_seen = 0
        for trial in range(600):
            n = int(rng.integers(1, 25))
            state = random_statuses(rng, n)
            d = scan_values(rng, n)
            np.testing.assert_array_equal(state.improving(d),
                                          may_enter_loop(state, d))
            for bland in (False, True):
                got = state.entering(d, bland, state.held())
                assert got == entering_loop(state, d, bland), f"trial {trial}"
                picked += got >= 0
            nan_seen += np.isnan(d).any()
        assert picked > 500 and nan_seen > 100

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_dual_candidates_match_column_loop(self):
        """The dual's eligible set from the sign table equals the per-column
        reference, for a leaving variable below and above its bounds."""
        rng = np.random.default_rng(43)
        found = 0
        for trial in range(600):
            n = int(rng.integers(1, 25))
            state = random_statuses(rng, n)
            w = scan_values(rng, n)
            for below in (False, True):
                got = state.dual_candidates(w, below, state.held())
                np.testing.assert_array_equal(
                    got, dual_candidates_loop(state, w, below), f"trial {trial}")
                found += got.size
        assert found > 1000


class TestUnitFactor:
    def test_solves_equal_superlu_of_identity(self):
        """The unit factor's solves equal SuperLU's factor of I bit for bit,
        both transposes, with signed zeros, infinities and NaN among the
        entries; each returns a new array."""
        rng = np.random.default_rng(47)
        for m in [1, 2, 3, 5, 8, 13, 39, 93, 195]:
            lu = splu(eye_array(m, format="csc"))
            for _ in range(6):
                v = rng.normal(size=m) * 10.0 ** rng.integers(-300, 300, m)
                k = rng.integers(0, m, m // 3 + 1)
                v[k] = rng.choice([0.0, -0.0, INF, -INF, math.nan], k.size)
                for trans in ("N", "T"):
                    got = solver._UnitFactor.solve(v, trans=trans)
                    assert got is not v
                    assert got.tobytes() == lu.solve(v, trans=trans).tobytes()

    @pytest.mark.parametrize("basis, unit", [
        ([3, 4, 5], True), ([0, 4, 5], True), ([4, 3, 5], False),
        ([2, 4, 5], False)])
    def test_refactor_takes_it_only_for_the_identity(self, basis, unit):
        """B = I takes the unit factor, whichever unit columns make it: the
        slacks in row order, or column 0 (e_0) in row 0. The slacks out of
        order, or column 2, take an LU."""
        A = csc_array(np.hstack([[[1.0, 0.0, 2.0], [0.0, 0.0, 1.0],
                                  [0.0, 3.0, 0.0]], np.eye(3)]))
        state = solver._Simplex(A, np.zeros(3), np.zeros(6), np.zeros(6),
                                np.ones(6))
        state.basis = np.array(basis)
        state.refactor()
        assert (state._lu is solver._UnitFactor) == unit

    def test_cold_solve_makes_no_lu_at_the_slack_start(self, monkeypatch,
                                                       linreg51):
        """The cold root LP of ladder rung H8/W3 (linreg closure) refactors
        three times, at the slack start and after 50 and 100 pivots, but
        calls SuperLU only for the last two."""
        calls = {"splu": 0, "refactor": 0}
        splu_orig, refactor = solver.splu, solver._Simplex.refactor

        def counted_splu(*args, **kwargs):
            calls["splu"] += 1
            return splu_orig(*args, **kwargs)

        def counted_refactor(state):
            calls["refactor"] += 1
            refactor(state)

        monkeypatch.setattr(solver, "splu", counted_splu)
        monkeypatch.setattr(solver._Simplex, "refactor", counted_refactor)
        model = assemble(load_scenario(json.dumps(ladder_doc(8, 3))), linreg51)[0]
        res = solve_lp(model.to_standard_form())
        assert (res.status, res.iterations) == ("optimal", 105)
        assert calls == {"splu": 2, "refactor": 3}


class TestProblemFromForm:
    @pytest.mark.parametrize("which", ["rowless", "lunar-linreg", "lunar-nn0",
                                       "H8/W3", "H10/W5", "H40/W2"])
    def test_csc_equals_hstack_of_folded_rows_and_identity(
            self, which, lunar, linreg51, net0):
        """`[A_folded | I]` is written straight into CSC arrays; they equal,
        bit for bit, the stacked matrix of the rows folded to `<=` form
        beside the slacks' identity."""
        if which == "rowless":
            model = MilpModel()
            model.add_variable("x", upper=2.0)
        elif which.startswith("lunar"):
            model, _ = assemble(lunar, net0 if which == "lunar-nn0" else linreg51)
        else:
            h, w = (int(k) for k in which[1:].split("/W"))
            model, _ = assemble(load_scenario(json.dumps(ladder_doc(h, w))), linreg51)
        sf = model.to_standard_form()
        A = solver._problem_from_form(sf).A
        rows = sf.A if sf.A.shape[0] else csc_array((1, sf.A.shape[1]))
        folded = rows.tocsr(copy=True)  # the compiled form is read-only
        if sf.A.shape[0]:
            folded.data *= np.repeat(np.where(np.isfinite(sf.row_hi), 1.0, -1.0),
                                     np.diff(folded.indptr))
        ref = hstack([folded, eye_array(rows.shape[0])], format="csc")
        assert A.format == "csc" and A.shape == ref.shape
        for got, want in ((A.indptr, ref.indptr), (A.indices, ref.indices),
                          (A.data, ref.data)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestFactoredBasis:
    M, N = 30, 80

    def _state(self, seed):
        rng = np.random.default_rng(seed)
        S = sparse_random((self.M, self.N), density=0.15, rng=rng,
                          data_sampler=lambda size: rng.uniform(-2.0, 2.0, size))
        A = hstack([S, eye_array(self.M)], format="csc")
        n = A.shape[1]
        state = solver._Simplex(A, np.zeros(self.M), np.zeros(n), np.zeros(n),
                                np.ones(n))
        state.basis = np.arange(self.N, self.N + self.M)  # slacks: B = I
        state.status[state.basis] = solver.BASIC
        state.refactor()
        return state, rng

    def _pivot(self, state, rng, row=None):
        """Bring a random nonbasic column in at `row`, or at its largest
        |alpha| row."""
        while True:
            j = int(rng.choice(np.flatnonzero(state.status != solver.BASIC)))
            alpha = state.ftran(state.column(j))
            r = int(np.argmax(np.abs(alpha))) if row is None else row
            if abs(alpha[r]) > 0.1:
                break
        state._pivot(r, j, alpha, 0.0, True)

    def _check_solves(self, state, rng):
        """ftran and btran against dense solves with B."""
        B = state.A[:, state.basis].toarray()
        for _ in range(3):
            v = rng.normal(size=self.M)
            np.testing.assert_allclose(state.ftran(v), np.linalg.solve(B, v),
                                       rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(state.btran(v), np.linalg.solve(B.T, v),
                                       rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("pivots", [0, 1, solver.REFACTOR_EVERY - 1,
                                        solver.REFACTOR_EVERY])
    def test_ftran_btran_solve_with_basis(self, pivots):
        state, rng = self._state(pivots)
        for _ in range(pivots):
            self._pivot(state, rng)
        # the eta file holds every pivot since the last refactor
        assert state._n_etas == pivots % solver.REFACTOR_EVERY
        self._check_solves(state, rng)

    def test_ftran_btran_with_a_row_pivoted_twice(self):
        """Rows 4 and 9 each take several pivots between refactors, so the
        eta file's pivot rows repeat; each eta acts on the row as the etas
        before it left it."""
        state, rng = self._state(11)
        rows = [4, 9, 4, 4, 9]
        for r in rows:
            self._pivot(state, rng, row=r)
        np.testing.assert_array_equal(state._R[:state._n_etas], rows)
        self._check_solves(state, rng)

    def test_sibling_loads_the_shared_factor_with_no_etas(self):
        """Two siblings hold one start. The first to load it factors it; the
        second loads that factor after the first has pivoted past it, and
        starts with an empty eta file, so its solves are with its own B."""
        state, rng = self._state(3)
        start = solver._Start(state.basis.copy(), state.status.copy())
        state.load(start)
        assert start.lu is state._lu and state._n_etas == 0
        for _ in range(5):
            self._pivot(state, rng)
        assert state._n_etas == 5
        state.load(start)
        assert state._lu is start.lu and state._n_etas == 0
        np.testing.assert_array_equal(state.basis, start.basis)
        self._check_solves(state, rng)

    @pytest.mark.parametrize("second", [[2.0, 4.0, 0.0], [0.0, 0.0, 0.0],
                                        [INF, 1.0, 0.0]])
    def test_singular_basis_raises_breakdown(self, second):
        # column 1 is a multiple of column 0 or zero, which SuperLU rejects,
        # or infinite, which it factors with an infinite pivot on U
        A = csc_array(np.array([[1.0, second[0], 0.0],
                                [2.0, second[1], 0.0],
                                [0.0, second[2], 1.0]]))
        state = solver._Simplex(A, np.zeros(3), np.zeros(3), np.zeros(3), np.ones(3))
        state.basis = np.array([0, 1, 2])
        with pytest.raises(solver.SolverBreakdown):
            state.refactor()


class TestWarmDualState:
    """Both simplex loops update x at each pivot, and the warm dual simplex
    the reduced costs d too, instead of recomputing them; these compare them
    with fresh solves."""

    M, N = 12, 20

    def _node(self, seed):
        """A random bounded LP solved to optimality, and node bounds that
        cut every basic structural variable off its optimal value, as
        branching does: the basis stays dual feasible but turns primal
        infeasible."""
        rng = np.random.default_rng(seed)
        A = np.where(rng.random((self.M, self.N)) < 0.4,
                     rng.normal(size=(self.M, self.N)).round(3), 0.0)
        b = A @ rng.uniform(0.0, 2.0, self.N) + rng.uniform(0.0, 2.0, self.M)
        c = rng.normal(size=self.N).round(3)
        m = lp_from_dense(A, ["<="] * self.M, b, c, np.zeros(self.N),
                          rng.uniform(2.0, 6.0, self.N).round(3))
        st, root = cold_solve(m.to_standard_form())
        assert st == "optimal"
        lb, ub = root.lb.copy(), root.ub.copy()
        for j in root.basis[root.basis < self.N]:
            if rng.random() < 0.5:
                ub[j] = (lb[j] + root.x[j]) / 2
            else:
                lb[j] = (root.x[j] + ub[j]) / 2
        return root, lb, ub

    def test_x_and_d_match_fresh_solves(self, monkeypatch):
        """At every pricing, x equals B⁻¹(b - A_N x_N) and d equals c - Aᵀy
        to 1e-9 relative, and exactly when the factorization has just been
        refactored (which happens every third pivot here)."""
        monkeypatch.setattr(solver, "REFACTOR_EVERY", 3)
        nodes = [self._node(seed) for seed in range(12)]
        counts = {"pivots": 0, "refactors": 0, "exact": 0}

        def compare(state):
            x = state.nonbasic_values()
            x[state.basis] = state.ftran(state.b - state.A @ x)
            d = state.price(state.c)
            if not state._n_etas:
                counts["exact"] += 1
                np.testing.assert_array_equal(state.x, x)
                np.testing.assert_array_equal(state.d, d)
                return
            nb = state.status != solver.BASIC
            np.testing.assert_allclose(state.x, x, rtol=1e-9,
                                       atol=1e-9 * max(1.0, np.abs(x).max()))
            np.testing.assert_allclose(state.d[nb], d[nb], rtol=1e-9,
                                       atol=1e-9 * max(1.0, np.abs(state.c).max()))

        tableau_row = solver._Simplex.tableau_row
        pivot = solver._Simplex._pivot

        def checked_row(state, r):
            compare(state)
            return tableau_row(state, r)

        def counted_pivot(state, *args):
            refactored = pivot(state, *args)
            counts["pivots"] += 1
            counts["refactors"] += refactored
            return refactored

        monkeypatch.setattr(solver._Simplex, "tableau_row", checked_row)
        monkeypatch.setattr(solver._Simplex, "_pivot", counted_pivot)
        for root, lb, ub in nodes:
            state = solver._Simplex(root.A, root.b, root.c, lb, ub)
            state.basis = root.basis.copy()
            state.status = root.status.copy()
            state.refactor()
            state.dual()
            compare(state)
        assert counts["pivots"] >= 40 and counts["refactors"] >= 10, counts
        assert counts["exact"] > counts["refactors"], counts

    def test_primal_x_matches_fresh_solves(self, monkeypatch):
        """At every pricing of the two-phase primal, x equals
        B⁻¹(b - A_N x_N) to 1e-9 relative, and exactly when it has just been
        recomputed (at every refactor, every third pivot here). The columns
        have short finite ranges, so bound flips happen too."""
        monkeypatch.setattr(solver, "REFACTOR_EVERY", 3)
        counts = {"pivots": 0, "refactors": 0, "exact": 0, "iterations": 0}
        recomputed = [False]

        def compare(state):
            x = state.nonbasic_values()
            x[state.basis] = state.ftran(state.b - state.A @ x)
            if recomputed[0]:
                counts["exact"] += 1
                np.testing.assert_array_equal(state.x, x)
            else:
                np.testing.assert_allclose(state.x, x, rtol=1e-9,
                                           atol=1e-9 * max(1.0, np.abs(x).max()))
            recomputed[0] = False

        price = solver._Simplex.price
        recompute_x = solver._Simplex.recompute_x
        pivot = solver._Simplex._pivot

        def checked_price(state, cost):
            compare(state)
            return price(state, cost)

        def marked_recompute(state):
            recompute_x(state)
            recomputed[0] = True

        def counted_pivot(state, *args):
            refactored = pivot(state, *args)
            counts["pivots"] += 1
            counts["refactors"] += refactored
            return refactored

        monkeypatch.setattr(solver._Simplex, "price", checked_price)
        monkeypatch.setattr(solver._Simplex, "recompute_x", marked_recompute)
        monkeypatch.setattr(solver._Simplex, "_pivot", counted_pivot)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            A = np.where(rng.random((self.M, self.N)) < 0.4,
                         rng.normal(size=(self.M, self.N)).round(3), 0.0)
            # x = u is feasible; rows with b < 0 need phase 1
            b = A @ rng.uniform(0.0, 0.5, self.N) + rng.uniform(-0.5, 2.0, self.M)
            c = rng.normal(size=self.N).round(3)
            m = lp_from_dense(A, ["<="] * self.M, b, c, np.zeros(self.N),
                              rng.uniform(0.5, 1.5, self.N).round(3))
            st, state = cold_solve(m.to_standard_form())
            assert st == "optimal"
            counts["iterations"] += state.iterations
        flips = counts["iterations"] - counts["pivots"]
        assert counts["pivots"] >= 100 and counts["refactors"] >= 30, counts
        assert flips >= 20, counts
        assert counts["exact"] > counts["refactors"], counts

    def test_tiny_pivot_on_updated_basis_refactors_first(self, monkeypatch):
        """A pivot element below `STABLE_PIVOT` is never taken: on a basis
        with an eta file the dual refactors and prices again; on the fresh
        factorization it raises."""
        root, lb, ub = self._node(0)
        assert root._n_etas  # the root solve pivoted since its last refactor
        root.lb, root.ub = lb, ub
        basis = root.basis.copy()
        etas_at_refactor = []
        refactor = solver._Simplex.refactor

        def counted(state):
            etas_at_refactor.append(state._n_etas)
            refactor(state)

        monkeypatch.setattr(solver._Simplex, "refactor", counted)
        monkeypatch.setattr(solver, "STABLE_PIVOT", 1e9)  # every pivot is tiny
        with pytest.raises(solver.SolverBreakdown, match="unstable pivot"):
            root.dual()
        assert len(etas_at_refactor) == 1 and etas_at_refactor[0] > 0
        np.testing.assert_array_equal(root.basis, basis)


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

        def broken_dual(state):
            state.iterations += 1000
            raise solver.SolverBreakdown("forced")

        monkeypatch.setattr(solver._Simplex, "dual", broken_dual)
        sol = solve_milp(m)
        # every node but the root LP (node 0, which runs no dual) falls back
        # to a cold two-phase solve
        assert sol.objective == pytest.approx(clean.objective, abs=1e-9)
        assert sol.nodes > 1
        assert sol.iterations >= 1000 * (sol.nodes - 1)

    def test_unrecovered_breakdown_ends_numerical(self, monkeypatch):
        A = np.array([[2.0, 3.0, 1.0]])
        m = model_from_dense(A, ["<="], np.array([5.0]),
                             np.array([-5.0, -4.0, -3.0]),
                             [0.0] * 3, [1.0] * 3, ["binary"] * 3)
        two_phase = solver._two_phase
        cold = []

        def broken_dual(state):
            raise solver.SolverBreakdown("forced")

        def broken_after_root(state):
            cold.append(1)
            if len(cold) > 1:
                raise solver.SolverBreakdown("forced")
            return two_phase(state)

        monkeypatch.setattr(solver._Simplex, "dual", broken_dual)
        monkeypatch.setattr(solver, "_two_phase", broken_after_root)
        sol = solve_milp(m)  # the first child's cold restart breaks down
        assert sol.status == "numerical"
        assert len(cold) == 2
        sol = solve_milp(m)  # now the root LP breaks down too
        assert sol.status == "numerical"
        assert sol.objective == INF

    def test_rescued_node_passes_its_basis_to_children(self, monkeypatch):
        """A node whose warm dual breaks down is solved cold; its children
        warm start from that cold basis, not from the root's. Here the root
        LP starts feasible on its slack basis and the rescued node (an up
        branch) needs phase 1."""
        A = np.array([[3.0, -2.0, 2.0], [3.0, -3.0, -1.0]])
        m = model_from_dense(A, ["<=", "<="], np.array([8.0, 2.0]),
                             np.array([-2.0, -2.0, -3.0]), [0.0] * 3, [6.0] * 3,
                             ["integer"] * 3)
        clean = solve_milp(m)
        dual, two_phase, node = solver._Simplex.dual, solver._two_phase, solver._Node
        events = []

        def broken_once(state):
            events.append(("dual", None))
            # the first up branch's dual, while only the root LP was solved cold
            if np.any(state.lb[:3] > 0) and sum(e[0] == "cold" for e in events) == 1:
                raise solver.SolverBreakdown("forced")
            return dual(state)

        def cold(state):
            st = two_phase(state)
            events.append(("cold", state.basis.copy()))
            return st

        def pushed(*args):
            if args[4] is not None:  # a child: the basis of its start
                events.append(("node", args[4].basis.copy()))
            return node(*args)

        monkeypatch.setattr(solver._Simplex, "dual", broken_once)
        monkeypatch.setattr(solver, "_two_phase", cold)
        monkeypatch.setattr(solver, "_Node", pushed)
        sol = solve_milp(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(clean.objective, abs=1e-9)
        colds = [i for i, e in enumerate(events) if e[0] == "cold"]
        assert len(colds) == 2  # the root LP and the rescued node
        root_basis, rescued_basis = events[colds[0]][1], events[colds[1]][1]
        assert not np.array_equal(rescued_basis, root_basis)
        children = []
        for kind, basis in events[colds[1] + 1:]:
            if kind != "node":
                break
            children.append(basis)
        assert children
        for basis in children:
            np.testing.assert_array_equal(basis, rescued_basis)

    @staticmethod
    def _integral_root_model():
        # min -2x - y  s.t.  x + y <= 1.5, x binary, y in [0, 1]: the root LP
        # already has x = 1, y = 0.5
        m = MilpModel()
        x = m.add_variable("x", "binary")
        y = m.add_variable("y", "continuous", 0.0, 1.0)
        m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 1.5)
        m.add_objective_term(x, -2.0)
        m.add_objective_term(y, -1.0)
        return m

    def test_root_lp_is_node_zero(self, monkeypatch):
        """The root LP's basis is factored only inside its cold two-phase
        solve; node 0 branches from it without solving it again."""
        two_phase = solver._two_phase
        refactor = solver._Simplex.refactor
        in_root = [False]
        outside = []

        def root(state):
            in_root[0] = True
            try:
                return two_phase(state)
            finally:
                in_root[0] = False

        def counted(state):
            if not in_root[0]:
                outside.append(1)
            refactor(state)

        monkeypatch.setattr(solver, "_two_phase", root)
        monkeypatch.setattr(solver._Simplex, "refactor", counted)
        sol = solve_milp(self._integral_root_model())
        assert sol.status == "optimal" and sol.nodes == 1
        assert sol.objective == pytest.approx(-2.5, abs=1e-9)
        assert not outside

    def test_integral_root_needs_no_time(self):
        """Limits apply from node 1 on: the root is always solved, and an
        integral root is optimal however short the time limit."""
        sol = solve_milp(self._integral_root_model(), BnbConfig(time_limit=1e-9))
        assert sol.status == "optimal" and sol.nodes == 1
        assert sol.objective == pytest.approx(-2.5, abs=1e-9)

    def test_root_breakdown_counts_its_pivots(self, monkeypatch):
        """A root whose cold solve breaks down after pivoting reports those
        pivots, as a later node's abandoned attempts do."""
        m = self._integral_root_model()
        clean = solve_milp(m)
        assert clean.nodes == 1 and clean.iterations > 0
        two_phase = solver._two_phase

        def broken(state):
            two_phase(state)
            raise solver.SolverBreakdown("forced")

        monkeypatch.setattr(solver, "_two_phase", broken)
        sol = solve_milp(m)
        assert (sol.status, sol.nodes, sol.objective, sol.best_bound) == \
            ("numerical", 1, INF, -INF)
        assert sol.iterations == clean.iterations

    def test_corrupted_incumbent_is_not_optimal(self, monkeypatch):
        m = self._integral_root_model()
        assert solve_milp(m).status == "optimal"
        two_phase = solver._two_phase

        def corrupting(state):
            st = two_phase(state)
            state.x[1] += 1.0  # y leaves its box and breaks the row
            return st

        monkeypatch.setattr(solver, "_two_phase", corrupting)
        sol = solve_milp(m)
        assert sol.status == "numerical"
        assert sol.values[1] == pytest.approx(1.5, abs=1e-9)

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
        assert sol.objective == sol.best_bound == -INF and sol.nodes == 1

    def test_no_rows_fractional_bound_branches(self):
        # min x over the integers in [0.5, 3]: the relaxation stops at 0.5,
        # so a model without rows must branch too
        m = MilpModel()
        x = m.add_variable("x", "integer", 0.5, 3.0)
        m.add_objective_term(x, 1.0)
        sol = solve_milp(m)
        assert sol.status == "optimal"
        assert sol.values[x] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

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

    @pytest.mark.parametrize("warm", [True, False])
    def test_time_limit_stops_a_node_mid_solve(self, monkeypatch, warm):
        """From node 1 on the time limit is read at every iteration of both
        simplex loops, and nowhere else. A clock that jumps past it as node 1
        starts stops that node's LP (the warm dual, or the cold primal after
        a breakdown) before its first iteration; the node stays open, so its
        bound counts, and the search ends with `limit`. The root's LP is
        exempt: a jump as it starts still lets it finish, and node 1 is
        stopped in the same way."""
        m = self._logged_model()
        root = solve_milp(m, BnbConfig(node_limit=1))
        assert root.status == "limit" and root.iterations > 0
        if not warm:
            def broken_dual(state):
                raise solver.SolverBreakdown("forced")

            monkeypatch.setattr(solver._Simplex, "dual", broken_dual)
        now = [0.0]
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: now[0]))
        solve_node = solver._solve_node
        for jump_at in (1, 2):
            now[0], calls = 0.0, []

            def jumping(*args):
                calls.append(1)
                if len(calls) == jump_at:
                    now[0] = 100.0
                return solve_node(*args)

            monkeypatch.setattr(solver, "_solve_node", jumping)
            sol = solve_milp(m, BnbConfig(time_limit=50.0))
            assert (sol.status, sol.nodes, sol.iterations) == \
                ("limit", 2, root.iterations)
            assert sol.best_bound == root.best_bound

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BnbConfig(node_limit=0)
        with pytest.raises(ValueError):
            BnbConfig(time_limit=0.0)
        with pytest.raises(ValueError):
            BnbConfig(time_limit=math.nan)
        with pytest.raises(ValueError):
            BnbConfig(node_limit=math.nan)


class TestBoundAndGap:
    def _h8_w3_nn(self, net0):
        return assemble(load_scenario(json.dumps(ladder_doc(8, 3))), net0)[0]

    @pytest.mark.parametrize("node_limit", [1, 10, 40])
    def test_node_limited_solve_reports_a_valid_bound(self, net0, node_limit):
        # NN seed-0 twins on H8/W2 branch for hundreds of nodes
        model = assemble(campaign(8, 2, None, False, 0.0, None, twin=True), net0)[0]
        sol = solve_milp(model, BnbConfig(node_limit=node_limit))
        assert sol.status == "limit" and sol.nodes == node_limit
        ref = highs_milp(model)
        assert ref.status == 0, ref.message
        assert math.isfinite(sol.best_bound)
        assert sol.best_bound <= ref.fun + 1e-6 * abs(ref.fun)
        assert sol.best_bound <= sol.objective
        assert sol.gap == solver._rel_gap(sol.objective, sol.best_bound)

    def test_optimal_solve_closes_the_gap(self, net0):
        for model in (self._h8_w3_nn(net0), TestNodeLogAndLimits()._logged_model()):
            sol = solve_milp(model)
            assert sol.status == "optimal"
            assert sol.best_bound <= sol.objective
            assert sol.gap <= solver.GAP_TOL

    def test_infeasible_and_rootless_stops(self):
        m = MilpModel()
        x = m.add_variable("x", "integer", 0.0, 1.0)
        m.add_constraint([(x, 2.0)], "=", 1.0, tag="odd")
        sol = solve_milp(m)
        assert (sol.status, sol.best_bound, sol.gap) == ("infeasible", INF, INF)
        sol = solve_milp(m, BnbConfig(time_limit=1e-9))
        assert sol.status == "limit" and sol.gap == INF
        assert sol.best_bound == pytest.approx(0.0)


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
        """NN training seed 12's B&B nodes drove the warm-started dual
        simplex over an explicitly inverted basis into a dual-degenerate
        cycle of about 31 pivots. Without an anti-cycling rule two nodes
        spent 50,000 pivots each before falling back to a cold solve; the
        whole tree needed about 1,150. On the factored basis the tree takes
        another path that does not enter the cycle (about 720 pivots), so
        the test now guards the result and the pivot count.

        The cycle reproduced only with one BLAS thread, so the solve runs in
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

    # The LP dual of a 2-row, 4-column example after Hall & McKinnon (2004),
    # on which the primal simplex cycles under Dantzig's rule: every cost is 0,
    # so every dual ratio is 0, and from the slack basis the leaving row of
    # maximum infeasibility and the largest-|w| entering column walk a cycle
    # of six bases. HiGHS calls it infeasible.
    HM_A = np.array([[-0.4, 7.8], [-0.2, 1.4], [1.4, -7.8], [0.2, -0.4]])
    HM_B = np.array([-2.3, -2.15, 13.55, 0.4])

    def _hm_dual(self):
        m, n = self.HM_A.shape
        A = csc_array(np.hstack([self.HM_A, np.eye(m)]))
        state = solver._Simplex(A, self.HM_B, np.zeros(n + m), np.zeros(n + m),
                                np.full(n + m, INF))
        state.basis = np.arange(n, n + m)  # slacks: dual feasible at y = 0
        state.status[state.basis] = solver.BASIC
        state.refactor()
        return state.dual()

    def test_dual_bland_switch_ends_degenerate_cycle(self, monkeypatch):
        ref = linprog(np.zeros(2), A_ub=self.HM_A, b_ub=self.HM_B,
                      bounds=[(0, None)] * 2, method="highs")
        assert ref.status == 2
        assert self._hm_dual() == "infeasible"
        monkeypatch.setattr(solver, "MAX_ITER", 1000)
        monkeypatch.setattr(solver, "STALL_LIMIT", 10**9)
        with pytest.raises(solver.SolverBreakdown, match="exceeded"):
            self._hm_dual()


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


class TestPhaseOne:
    def test_redundant_row_keeps_the_problem_columns(self):
        """x + y = 1 and 2x + 2y = 2 both start with their fixed slack above
        0; the second row is redundant, so both slacks reach 0 in one pivot
        and one stays basic there. The state never leaves the 2 structural
        and 2 slack columns."""
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        m = lp_from_dense(A, ["=", "="], [1.0, 2.0], [1.0, 0.0], [0.0, 0.0],
                          [INF, INF])
        state = solver._problem_from_form(m.to_standard_form())
        A_in, AT_in = state.A, state.AT
        st = solver._two_phase(state)
        assert state.A is A_in and state.AT is AT_in
        assert state.n == A_in.shape[1] == 4
        assert state.status.size == state.x.size == state.lb.size == 4
        # the equality rows' slacks are fixed at 0, so no pivot enters one:
        # a basic slack is one phase 1 left basic on its bound
        assert np.any(state.basis >= 2)
        ref = linprog([1.0, 0.0], A_eq=A, b_eq=[1.0, 2.0], method="highs")
        assert st == "optimal"
        assert state.c @ state.x == pytest.approx(ref.fun, abs=1e-9)
        np.testing.assert_allclose(state.x[:2], ref.x, atol=1e-9)

    def test_slacks_reaching_their_bounds_together(self):
        """min -y s.t. x + y = 1, x >= 1: phase 1 raises x to 1, where both
        violated slacks reach their bounds in one pivot and one of them
        stays basic on it. Both get their own bounds back, and phase 2 keeps
        x at 1."""
        A = np.array([[1.0, 1.0], [1.0, 0.0]])
        m = lp_from_dense(A, ["=", ">="], [1.0, 1.0], [0.0, -1.0], [0.0, 0.0],
                          [INF, INF])
        st, state = cold_solve(m.to_standard_form())
        assert state.n == state.A.shape[1] == 4
        ref = linprog([0.0, -1.0], A_ub=[[-1.0, 0.0]], b_ub=[-1.0], A_eq=[[1.0, 1.0]],
                      b_eq=[1.0], method="highs")
        assert st == "optimal"
        assert state.c @ state.x == pytest.approx(ref.fun, abs=1e-9)
        np.testing.assert_allclose(state.x[:2], ref.x, atol=1e-9)

    @pytest.mark.parametrize("floors", [(1.0, 2.0), (2.0, 1.0)])
    def test_second_floor_after_the_first(self, monkeypatch, floors):
        """min x s.t. x >= 1, x >= 2 from x = 0: the x >= 1 row's slack
        reaches its bound first and would pin x at 1 if it stayed relaxed.
        It gets its own bounds back after that phase-1 run, and a second run
        raises x to 2."""
        runs = []
        primal = solver._Simplex.primal

        def counted(state, cost):
            runs.append(cost.copy())
            return primal(state, cost)

        monkeypatch.setattr(solver._Simplex, "primal", counted)
        m = lp_from_dense([[1.0], [1.0]], [">=", ">="], list(floors), [1.0],
                          [0.0], [INF])
        res = solve_lp(m.to_standard_form())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0, abs=1e-12)
        assert res.values[0] == pytest.approx(2.0, abs=1e-12)
        # two phase-1 runs (cost -1 on each relaxed slack), then phase 2
        assert [list(c) for c in runs] == [
            [0.0, -1.0, -1.0], [0.0] + [-float(f == 2.0) for f in floors],
            [1.0, 0.0, 0.0]]

    def test_two_sided_rows_match_linprog(self, monkeypatch):
        """Random forms whose rows are two-sided (row_lo < row_hi, both
        finite): a start below row_lo puts the slack above its upper bound,
        the only case besides equality rows that does. Each optimum and
        each infeasible verdict equals HiGHS's."""
        above = [0]
        primal = solver._Simplex.primal

        def counted(state, cost):
            above[0] += bool(np.any(cost[-state.m:] == 1.0))
            return primal(state, cost)

        monkeypatch.setattr(solver._Simplex, "primal", counted)
        rng = np.random.default_rng(23)
        verdicts = set()
        for trial in range(60):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            A = np.where(rng.random((m, n)) < 0.6, rng.normal(size=(m, n)).round(3), 0.0)
            lb = rng.choice([0.0, -1.0], n)
            ub = lb + rng.uniform(1.0, 4.0, n).round(3)
            ax = A @ rng.uniform(lb, ub)
            row_lo = ax - rng.uniform(0.0, 1.0, m)
            row_hi = ax + rng.uniform(0.01, 1.0, m)
            if trial % 5 == 0:  # a window past what the box can reach
                reach = np.abs(A[0]) @ np.maximum(np.abs(lb), np.abs(ub))
                row_lo[0], row_hi[0] = reach + 1.0, reach + 2.0
            c = rng.normal(size=n).round(3)
            sf = StandardForm(csr_array(A), row_lo, row_hi, c, lb, ub,
                              np.zeros(n, dtype=bool))
            res = solve_lp(sf)
            ref = linprog(c, A_ub=np.vstack([A, -A]),
                          b_ub=np.concatenate([row_hi, -row_lo]),
                          bounds=list(zip(lb, ub)), method="highs")
            verdicts.add(res.status)
            if ref.status == 2:
                assert res.status == "infeasible", f"trial {trial}"
                continue
            assert res.status == "optimal" and ref.status == 0, f"trial {trial}"
            assert res.objective == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
            assert sf.violated_rows(res.values)[0].size == 0, f"trial {trial}"
        assert verdicts == {"optimal", "infeasible"}
        assert above[0] >= 20

    @pytest.mark.parametrize("senses, rhs", [(["<=", "<="], [1.0, -2.0]),
                                             (["=", ">="], [1.0, 3.0])])
    def test_infeasible_leaves_the_bounds_as_given(self, senses, rhs):
        """x <= 1 with -x <= -2, and x = 1 with 2x >= 3 for x in [0, 1]: the
        sum of violations stops above 0 with no relaxed slack on its bound,
        and the state's bounds are exactly the ones it was given."""
        A = [[1.0], [-1.0]] if senses[0] == "<=" else [[1.0], [2.0]]
        m = lp_from_dense(A, senses, rhs, [1.0], [0.0], [1.0])
        state = solver._problem_from_form(m.to_standard_form())
        A_in, lb, ub = state.A, state.lb.copy(), state.ub.copy()
        st = solver._two_phase(state)
        assert st == "infeasible"
        assert state.A is A_in and state.n == A_in.shape[1]
        np.testing.assert_array_equal(state.lb, lb)
        np.testing.assert_array_equal(state.ub, ub)


def ladder_scenario(tmp_path, horizon: int, width: int) -> Path:
    """Write the ROADMAP ladder rung H/W (see `helpers.ladder_doc`); returns
    its path."""
    scenario = tmp_path / f"lunar_H{horizon}_W{width}.json"
    scenario.write_text(json.dumps(ladder_doc(horizon, width)))
    return scenario


def solve_captured(monkeypatch, argv):
    """Run the CLI pipeline on argv; returns its report and the model it
    solved."""
    from leolift import cli

    models = []
    solve = cli.solve_milp

    def capture(model, cfg=None, node_log=None):
        models.append(model)
        return solve(model, cfg, node_log)

    monkeypatch.setattr(cli, "solve_milp", capture)
    return cli.run_pipeline(cli.build_parser().parse_args(argv)), models[0]


# the linreg optimum of every ladder rung, as the solver found it before the
# network rows were added (rung H24/W18)
LADDER_LINREG_OPTIMUM = 42650.330332657875


class TestLadderTarget:
    def test_h14_w9_solves_to_optimal(self, tmp_path, monkeypatch):
        """Ladder rung H14/W9 (391 vars, 541 rows, linreg closure), the
        ROADMAP's solver target: optimal well inside 30 s, equal to HiGHS.
        With an explicitly inverted basis it needed about 64 s; without the
        network rows, 847 nodes and about 3 s."""
        rep, model = solve_captured(monkeypatch, [
            "--scenario", str(ladder_scenario(tmp_path, 14, 9)),
            "--surrogate", "linreg", "--time-limit", "30"])
        assert rep.solution.status == "optimal", rep.solution
        ref = highs_milp(model)
        assert ref.status == 0, ref.message
        assert rep.solution.objective == pytest.approx(ref.fun, rel=1e-6)

    @pytest.mark.parametrize("rung, surrogate", [
        ((18, 12), "linreg"), ((24, 18), "linreg"), ((14, 9), "nn"),
        ((18, 12), "nn")])
    def test_larger_rung_solves_to_optimal(self, tmp_path, monkeypatch, rung,
                                           surrogate):
        """Ladder rungs H18/W12 and H24/W18 (linreg closure), and H14/W9
        and H18/W12 with the NN closure trained on seed 0: optimal and equal
        to HiGHS on the same model; the linreg rungs also equal the optimum
        found without the network rows. Without those rows the linreg rungs
        took 1,761 and 5,183 nodes (about 8 s and 50 s). NN H18/W12 took 937
        nodes when each neuron had its own binary."""
        rep, model = solve_captured(monkeypatch, [
            "--scenario", str(ladder_scenario(tmp_path, *rung)),
            "--surrogate", surrogate, "--seed", "0", "--time-limit", "30"])
        sol = rep.solution
        assert sol.status == "optimal", sol
        ref = highs_milp(model)
        assert ref.status == 0, ref.message
        assert sol.objective == pytest.approx(ref.fun, rel=1e-6)
        if surrogate == "linreg":
            assert sol.objective == pytest.approx(LADDER_LINREG_OPTIMUM, rel=1e-9)


class TestFactorSharing:
    @pytest.mark.parametrize("rung, surrogate, nodes, iterations, objective", [
        (None, "linreg", 1, 32, "0x1.4d34a9215cb6ap+15"),
        ((8, 3), "linreg", 3, 110, "0x1.4d34a9215cb4bp+15"),
        ((8, 3), "nn", 51, 360, "0x1.5022fadbd146fp+15"),
        (None, "nn", 17, 98, "0x1.5022fadbd1460p+15"),
    ])
    def test_trees_are_pinned(self, tmp_path, rung, surrogate, nodes,
                              iterations, objective):
        """The search trees to the bit: bundled campaign and ladder rung
        H8/W3 (linreg closure), and both with the NN closure of seed 0."""
        from leolift import cli

        argv = ["--surrogate", surrogate]
        if rung is not None:
            argv += ["--scenario", str(ladder_scenario(tmp_path, *rung))]
        sol = cli.run_pipeline(cli.build_parser().parse_args(argv)).solution
        assert (sol.status, sol.nodes, sol.iterations, float.hex(sol.objective)) == \
            ("optimal", nodes, iterations, objective)

    # per training seed 0-19 of the NN study: nodes, iterations, objective
    NN_STUDY_TREES = [
        (17, 98, "0x1.5022fadbd1460p+15"), (17, 96, "0x1.5098a0638b094p+15"),
        (5, 69, "0x1.5886cd7344d76p+15"), (9, 90, "0x1.53d88db4d9c61p+15"),
        (7, 76, "0x1.5842c165e5a4cp+15"), (13, 79, "0x1.5fda009407ae7p+15"),
        (9, 63, "0x1.4ff13bf809548p+15"), (7, 72, "0x1.561cad76811d2p+15"),
        (11, 77, "0x1.568826fd66a6ep+15"), (7, 65, "0x1.4ddf34993a07ap+15"),
        (11, 89, "0x1.5226c0c3df5ffp+15"), (5, 58, "0x1.4defb41db2729p+15"),
        (7, 73, "0x1.547848073a29ap+15"), (7, 68, "0x1.5170f786b47a3p+15"),
        (11, 81, "0x1.54b7704b855f6p+15"), (9, 65, "0x1.563ca296eda8ep+15"),
        (3, 56, "0x1.5693810759524p+15"), (13, 80, "0x1.54ec580a67029p+15"),
        (9, 66, "0x1.58a0ad0b9942cp+15"), (11, 79, "0x1.5416f6ed9c8c0p+15"),
    ]

    def test_nn_study_trees_are_pinned(self, monkeypatch):
        """The paper's 20-trial NN study on the bundled campaign, tree by
        tree: 188 nodes and 1,500 iterations in all, each objective to the
        bit."""
        from leolift import cli

        sols = []
        solve = cli.solve_milp

        def capture(model, cfg=None, node_log=None):
            sols.append(solve(model, cfg, node_log))
            return sols[-1]

        monkeypatch.setattr(cli, "solve_milp", capture)
        cli.run_seed_study(cli.build_parser().parse_args(
            ["--surrogate", "nn", "--seed", "0", "--trials", "20"]))
        got = [(s.nodes, s.iterations, float.hex(s.objective)) for s in sols]
        assert all(s.status == "optimal" for s in sols)
        assert got == self.NN_STUDY_TREES
        assert sum(t[0] for t in got) == 188 and sum(t[1] for t in got) == 1500

    def test_one_state_per_solve(self, monkeypatch, net0):
        """`solve_milp` builds one simplex state, and every node of a tree
        that branches (H8/W3, NN closure of seed 0: 51 nodes) runs on it, so
        its iteration count is the solve's."""
        init = solver._Simplex.__init__
        states = []

        def counted(state, *args):
            states.append(state)
            init(state, *args)

        monkeypatch.setattr(solver._Simplex, "__init__", counted)
        model = assemble(load_scenario(json.dumps(ladder_doc(8, 3))), net0)[0]
        sol = solve_milp(model)
        assert sol.status == "optimal" and sol.nodes == 51
        assert len(states) == 1
        assert states[0].iterations == sol.iterations

    def test_siblings_share_one_factorization(self, tmp_path, monkeypatch):
        """Both children of a branched node start from its basis, factored
        once: fewer `splu` calls than nodes on a tree that branches (H8/W3,
        NN closure of seed 0: 51 nodes)."""
        from leolift import cli

        calls = []
        splu = solver.splu

        def counted(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(solver, "splu", counted)
        sol = cli.run_pipeline(cli.build_parser().parse_args(
            ["--surrogate", "nn", "--scenario",
             str(ladder_scenario(tmp_path, 8, 3))])).solution
        assert sol.status == "optimal" and sol.nodes == 51
        assert len(calls) < sol.nodes
