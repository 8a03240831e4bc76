"""Exact MILP solving at desk scale.

LP relaxations are solved by a dense revised simplex over bounded variables:
the basis inverse is kept explicitly, updated in product form each pivot and
rebuilt from an LU factorization every `REFACTOR_EVERY` pivots. Phase 1 uses
artificial columns; Dantzig pricing switches to Bland's rule when the
objective stalls. Branch-and-bound explores nodes best-bound-first and warm
starts each child from the parent basis through a bounded dual simplex, which
guards against cycling the same way: after `STALL_LIMIT` pivots in a row that
leave the dual objective flat it takes the dual Bland rule (lowest-index
infeasible basic variable leaves, lowest-index min-ratio column enters) until
a pivot makes progress.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .milp_ir import MilpModel, Solution, StandardForm

INF = math.inf

FEAS_TOL = 1e-7
DJ_TOL = 1e-7
PIVOT_TOL = 1e-9
INT_TOL = 1e-6
GAP_TOL = 1e-6
REFACTOR_EVERY = 50
STALL_LIMIT = 50

BASIC, AT_LO, AT_UP, NB_FREE = 0, 1, 2, 3


class SolverBreakdown(RuntimeError):
    """Singular basis beyond refactorization recovery."""


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray  # structural variable values
    objective: float
    iterations: int
    duals: np.ndarray | None = None
    basis: np.ndarray | None = None
    vstatus: np.ndarray | None = None


@dataclass
class BnbConfig:
    integrality_tol: float = INT_TOL
    gap_tol: float = GAP_TOL
    node_limit: int = 100000
    time_limit: float = INF
    branching: str = "most-fractional"  # or "pseudo-cost"

    def __post_init__(self):
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise ValueError("BnbConfig limits must be positive")
        if self.branching not in ("most-fractional", "pseudo-cost"):
            raise ValueError(f"unknown branching rule {self.branching!r}")


@dataclass
class _Problem:
    """Equality form A@x == b over structural + slack columns.

    Slack of row i sits at column n_struct + i. Artificial columns, when
    phase 1 needs them, are appended after the slacks.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    n_struct: int
    int_mask: np.ndarray  # over structural columns


def _problem_from_standard(sf: StandardForm) -> _Problem:
    m, n = sf.A.shape
    A = np.hstack([sf.A, np.eye(m)]) if m else np.zeros((0, n))
    c = np.concatenate([sf.c, np.zeros(m)])
    lb = np.concatenate([sf.lb, np.zeros(m)])
    ub = np.concatenate([sf.ub, np.full(m, INF)])
    return _Problem(A, sf.b.astype(float), c, lb, ub, n, sf.is_int.copy())


def _problem_from_model(model: MilpModel) -> _Problem:
    """Mixed-sense rows become equality rows with sense-shaped slack bounds."""
    n = model.num_variables()
    m = model.num_constraints()
    A = np.zeros((m, n + m))
    b = np.zeros(m)
    slack_ub = np.zeros(m)
    for i, con in enumerate(model.constraints):
        sign = -1.0 if con.sense == ">=" else 1.0  # fold >= into <=
        for v, coeff in con.terms:
            A[i, v] = sign * coeff
        b[i] = sign * con.rhs
        A[i, n + i] = 1.0
        slack_ub[i] = 0.0 if con.sense == "=" else INF
    c = np.zeros(n + m)
    for v, coeff in model.objective.items():
        c[v] = coeff
    lb = np.concatenate([np.array([v.lower for v in model.variables]), np.zeros(m)])
    ub = np.concatenate([np.array([v.upper for v in model.variables]), slack_ub])
    int_mask = np.array([v.kind != "continuous" for v in model.variables], dtype=bool)
    return _Problem(A, b, c, lb, ub, n, int_mask)


class _Simplex:
    """Revised simplex state: basis, bound statuses, explicit basis inverse.

    Bounds are per-instance so branch-and-bound nodes can tighten them while
    sharing the constraint matrix.
    """

    def __init__(self, A, b, lb, ub):
        self.A = A
        self.b = b
        self.lb = lb.copy()
        self.ub = ub.copy()
        self.m, self.n = A.shape
        self.basis = np.zeros(self.m, dtype=int)
        self.status = np.full(self.n, AT_LO, dtype=np.int8)
        self.Binv = np.eye(self.m)
        self.x = np.zeros(self.n)
        self.iterations = 0
        self._pivots_since_refactor = 0

    # -- linear algebra ----------------------------------------------------

    def refactor(self):
        if self.m == 0:
            return
        B = self.A[:, self.basis]
        try:
            lu, piv = lu_factor(B)
            self.Binv = lu_solve((lu, piv), np.eye(self.m))
        except Exception as exc:
            raise SolverBreakdown(f"singular basis: {exc}") from exc
        if not np.all(np.isfinite(self.Binv)):
            raise SolverBreakdown("singular basis (non-finite inverse)")
        self._pivots_since_refactor = 0

    def nonbasic_value(self, j: int) -> float:
        s = self.status[j]
        if s == AT_LO:
            return self.lb[j]
        if s == AT_UP:
            return self.ub[j]
        return 0.0

    def nonbasic_values(self) -> np.ndarray:
        """`nonbasic_value` of every column; basic columns read 0."""
        return np.where(self.status == AT_LO, self.lb,
                        np.where(self.status == AT_UP, self.ub, 0.0))

    def recompute_x(self):
        xn = self.nonbasic_values()
        self.x = xn
        if self.m:
            self.x[self.basis] = self.Binv @ (self.b - self.A @ xn)

    def _pivot_update(self, r: int, alpha: np.ndarray):
        pe = alpha[r]
        if abs(pe) < PIVOT_TOL:
            raise SolverBreakdown(f"pivot element {pe:.2e} below tolerance")
        row = self.Binv[r, :] / pe
        self.Binv -= np.outer(alpha, row)
        self.Binv[r, :] = row
        self._pivots_since_refactor += 1
        if self._pivots_since_refactor >= REFACTOR_EVERY:
            self.refactor()
            self.recompute_x()

    # -- primal simplex ----------------------------------------------------

    def primal(self, cost: np.ndarray, max_iter: int = 50000) -> str:
        """Iterate to optimality (or unboundedness) for the given costs."""
        bland = False
        stall = 0
        self.recompute_x()
        for _ in range(max_iter):
            self.iterations += 1
            y = cost[self.basis] @ self.Binv if self.m else np.zeros(0)
            d = cost - y @ self.A if self.m else cost.copy()
            movable = self.ub > self.lb
            elig = movable & (
                ((self.status == AT_LO) & (d < -DJ_TOL))
                | ((self.status == AT_UP) & (d > DJ_TOL))
                | ((self.status == NB_FREE) & (np.abs(d) > DJ_TOL))
            )
            idx = np.nonzero(elig)[0]
            if idx.size == 0:
                return "optimal"
            if bland:
                j = int(idx[0])
            else:
                j = int(idx[np.argmax(np.abs(d[idx]))])
            direction = 1.0
            if self.status[j] == AT_UP or (self.status[j] == NB_FREE and d[j] > 0):
                direction = -1.0

            alpha = self.Binv @ self.A[:, j] if self.m else np.zeros(0)
            # ratio test: nearest blocking basic bound, or the entering
            # variable's own opposite bound (a bound flip)
            t_best = self.ub[j] - self.lb[j]
            block = -1
            for i in range(self.m):
                a = direction * alpha[i]
                bi = self.basis[i]
                if a > PIVOT_TOL:
                    if self.lb[bi] == -INF:
                        continue
                    lim = (self.x[bi] - self.lb[bi]) / a
                elif a < -PIVOT_TOL:
                    if self.ub[bi] == INF:
                        continue
                    lim = (self.x[bi] - self.ub[bi]) / a
                else:
                    continue
                lim = max(lim, 0.0)
                if lim < t_best - 1e-12 or (
                    block >= 0
                    and lim < t_best + 1e-9
                    and abs(alpha[i]) > abs(alpha[block])
                ):
                    t_best = lim
                    block = i
            if block < 0 and t_best == INF:
                return "unbounded"

            if abs(d[j]) * t_best <= 1e-10:
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False

            if block < 0:
                self.x[self.basis] -= direction * t_best * alpha
                self.status[j] = AT_UP if direction > 0 else AT_LO
                self.x[j] = self.nonbasic_value(j)
                continue
            leave = self.basis[block]
            start = self.x[j] if self.status[j] == NB_FREE else self.nonbasic_value(j)
            self.x[self.basis] -= direction * t_best * alpha
            self.x[j] = start + direction * t_best
            self.status[leave] = AT_LO if direction * alpha[block] > 0 else AT_UP
            self.x[leave] = self.nonbasic_value(leave)
            self.basis[block] = j
            self.status[j] = BASIC
            self._pivot_update(block, alpha)
        raise SolverBreakdown(f"primal simplex exceeded {max_iter} iterations")

    # -- dual simplex ------------------------------------------------------

    def dual(self, cost: np.ndarray, max_iter: int = 50000) -> str:
        """Restore primal feasibility from a dual-feasible basis."""
        if self.m == 0:
            return "feasible"
        bland = False
        stall = 0
        for _ in range(max_iter):
            self.recompute_x()
            xb = self.x[self.basis]
            viol_lo = self.lb[self.basis] - xb
            viol_hi = xb - self.ub[self.basis]
            viol = np.maximum(viol_lo, viol_hi)
            r = int(np.argmax(viol))
            if viol[r] <= FEAS_TOL:
                return "feasible"
            if bland:  # infeasible row whose basic variable has the lowest index
                rows = np.nonzero(viol > FEAS_TOL)[0]
                r = int(rows[np.argmin(self.basis[rows])])
            self.iterations += 1
            below = viol_lo[r] >= viol_hi[r]

            y = cost[self.basis] @ self.Binv
            d = cost - y @ self.A
            w = self.Binv[r, :] @ self.A
            movable = (self.status != BASIC) & (self.ub > self.lb)
            at_lo = movable & ((self.status == AT_LO) | (self.status == NB_FREE))
            at_up = movable & ((self.status == AT_UP) | (self.status == NB_FREE))
            if below:  # basic variable must increase
                elig = (at_lo & (w < -PIVOT_TOL)) | (at_up & (w > PIVOT_TOL))
            else:
                elig = (at_lo & (w > PIVOT_TOL)) | (at_up & (w < -PIVOT_TOL))
            cand = np.nonzero(elig)[0]
            if cand.size == 0:
                return "infeasible"
            theta = np.abs(d[cand]) / np.abs(w[cand])
            near = cand[theta <= theta.min() + 1e-9]
            e = int(near[0]) if bland else int(near[np.argmax(np.abs(w[near]))])

            if theta.min() * viol[r] <= 1e-10:
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False

            alpha = self.Binv @ self.A[:, e]
            leave = self.basis[r]
            self.status[leave] = AT_LO if below else AT_UP
            self.basis[r] = e
            self.status[e] = BASIC
            self._pivot_update(r, alpha)
        raise SolverBreakdown(f"dual simplex exceeded {max_iter} iterations")


def _initial_basis(state: _Simplex, slack_offset: int) -> list[int]:
    """Slack-or-artificial starting basis; appends artificial columns for
    rows whose slack cannot sit inside its bounds at the all-nonbasic point.
    Returns the ids of the appended artificials."""
    m = state.m
    for j in range(state.n):
        if state.lb[j] > -INF:
            state.status[j] = AT_LO
        elif state.ub[j] < INF:
            state.status[j] = AT_UP
        else:
            state.status[j] = NB_FREE
    xn = state.nonbasic_values()
    resid = state.b - state.A @ xn if m else np.zeros(0)

    art_cols, art_ids = [], []
    for i in range(m):
        slack = slack_offset + i
        lo_ok = resid[i] >= state.lb[slack] - FEAS_TOL
        hi_ok = resid[i] <= state.ub[slack] + FEAS_TOL
        if lo_ok and hi_ok:
            state.basis[i] = slack
            state.status[slack] = BASIC
        else:
            col = np.zeros(m)
            col[i] = 1.0 if not hi_ok else -1.0
            art_cols.append(col)
            art_ids.append(state.n + len(art_ids))
            state.basis[i] = art_ids[-1]

    if art_cols:
        state.A = np.hstack([state.A, np.array(art_cols).T])
        state.lb = np.concatenate([state.lb, np.zeros(len(art_cols))])
        state.ub = np.concatenate([state.ub, np.full(len(art_cols), INF)])
        state.status = np.concatenate(
            [state.status, np.full(len(art_cols), BASIC, dtype=np.int8)])
        state.n = state.A.shape[1]
    state.refactor()
    return art_ids


def _drive_out_artificials(state: _Simplex, art_ids: list[int]):
    art_set = set(art_ids)
    for i in range(state.m):
        if state.basis[i] in art_set:
            row = state.Binv[i, :] @ state.A
            for j in range(state.n):
                if j in art_set or state.status[j] == BASIC:
                    continue
                if abs(row[j]) > 1e-7:
                    alpha = state.Binv @ state.A[:, j]
                    old = state.basis[i]
                    state.status[old] = AT_LO
                    state.basis[i] = j
                    state.status[j] = BASIC
                    state._pivot_update(i, alpha)
                    break
    # artificials may never move again, basic (redundant row) or not
    for a in art_ids:
        state.lb[a] = state.ub[a] = 0.0


def _two_phase(state: _Simplex, cost: np.ndarray, slack_offset: int) -> str:
    art_ids = _initial_basis(state, slack_offset)
    if art_ids:
        phase1 = np.zeros(state.n)
        for a in art_ids:
            phase1[a] = 1.0
        st = state.primal(phase1)
        if st == "unbounded":
            raise SolverBreakdown("phase 1 reported unbounded")
        state.recompute_x()
        if phase1 @ state.x > 1e-7:
            return "infeasible"
        _drive_out_artificials(state, art_ids)
    full_cost = np.concatenate([cost, np.zeros(state.n - len(cost))])
    st = state.primal(full_cost)
    state.recompute_x()
    return st


def _solve_lp_problem(prob: _Problem):
    """Two-phase solve; returns (LpResult, final state or None)."""
    n_struct = prob.n_struct
    if prob.A.shape[0] == 0:
        return _solve_unconstrained(prob), None
    state = _Simplex(prob.A, prob.b, prob.lb, prob.ub)
    status = _two_phase(state, prob.c, n_struct)
    if status == "infeasible":
        return LpResult("infeasible", np.zeros(n_struct), INF, state.iterations), state
    if status == "unbounded":
        return LpResult("unbounded", np.zeros(n_struct), -INF, state.iterations), state
    cost_full = np.concatenate([prob.c, np.zeros(state.n - len(prob.c))])
    duals = cost_full[state.basis] @ state.Binv
    result = LpResult("optimal", state.x[:n_struct].copy(),
                      float(cost_full @ state.x), state.iterations,
                      duals=duals, basis=state.basis.copy(),
                      vstatus=state.status.copy())
    return result, state


def _solve_unconstrained(prob: _Problem) -> LpResult:
    n = prob.A.shape[1]
    x = np.zeros(n)
    for j in range(n):
        if prob.c[j] > 0:
            if prob.lb[j] == -INF:
                return LpResult("unbounded", x[: prob.n_struct], -INF, 0)
            x[j] = prob.lb[j]
        elif prob.c[j] < 0:
            if prob.ub[j] == INF:
                return LpResult("unbounded", x[: prob.n_struct], -INF, 0)
            x[j] = prob.ub[j]
        else:
            x[j] = min(max(0.0, prob.lb[j]), prob.ub[j])
    return LpResult("optimal", x[: prob.n_struct].copy(), float(prob.c @ x), 0,
                    duals=np.zeros(0), basis=np.zeros(0, dtype=int),
                    vstatus=np.full(n, AT_LO, dtype=np.int8))


def solve_lp(sf: StandardForm) -> LpResult:
    """Solve min c@x s.t. A@x <= b, lb <= x <= ub exactly."""
    result, _ = _solve_lp_problem(_problem_from_standard(sf))
    return result


def dual_bound(result: LpResult, sf: StandardForm) -> float:
    """Lagrangian bound from the final duals; never exceeds the optimum."""
    m = sf.A.shape[0]
    y = result.duals[:m] if result.duals is not None else np.zeros(m)
    for i in range(m):
        if -y[i] < -DJ_TOL:  # slack reduced cost must be nonnegative
            return -INF
    d = sf.c - y @ sf.A
    bound = float(y @ sf.b)
    for j in range(len(sf.c)):
        if d[j] > DJ_TOL:
            if sf.lb[j] == -INF:
                return -INF
            bound += d[j] * sf.lb[j]
        elif d[j] < -DJ_TOL:
            if sf.ub[j] == INF:
                return -INF
            bound += d[j] * sf.ub[j]
    return bound


@dataclass(order=True)
class _Node:
    bound: float
    seq: int
    lb: np.ndarray = field(compare=False)
    ub: np.ndarray = field(compare=False)
    basis: np.ndarray = field(compare=False)
    vstatus: np.ndarray = field(compare=False)
    depth: int = field(compare=False, default=0)


def solve_milp(model: MilpModel, cfg: BnbConfig | None = None,
               node_log=None) -> Solution:
    """Best-bound branch-and-bound over the model's integer variables.

    Branches on the most fractional variable (ties to the lowest index) or,
    when configured, by pseudo-cost scores learned from bound degradations.
    """
    cfg = cfg or BnbConfig()
    t0 = time.monotonic()
    prob = _problem_from_model(model)
    n_struct = prob.n_struct

    root, root_state = _solve_lp_problem(prob)
    total_iters = root.iterations
    if root.status in ("infeasible", "unbounded"):
        obj = INF if root.status == "infeasible" else -INF
        return Solution(np.zeros(n_struct), obj, root.status, nodes=1,
                        iterations=total_iters, seconds=time.monotonic() - t0)

    # reuse the (possibly artificial-extended) arrays from the root solve
    if root_state is not None:
        A_ext, lb_ext, ub_ext = root_state.A, root_state.lb, root_state.ub
    else:
        A_ext, lb_ext, ub_ext = prob.A, prob.lb, prob.ub
    cost_full = np.concatenate([prob.c, np.zeros(A_ext.shape[1] - len(prob.c))])
    int_ids = np.nonzero(prob.int_mask)[0]

    incumbent = None
    incumbent_obj = INF
    best_bound = root.objective
    nodes_done = 0
    seq = 0
    pc_sum = np.zeros((2, n_struct))
    pc_cnt = np.zeros((2, n_struct), dtype=int)

    heap: list[_Node] = []
    if root_state is not None:
        heapq.heappush(heap, _Node(root.objective, seq, lb_ext.copy(), ub_ext.copy(),
                                   root.basis.copy(), root.vstatus.copy(), 0))
        seq += 1
    else:
        # unconstrained model: the LP solution is already integral or there
        # is nothing to branch on row-wise; fall through with the root point
        x = np.zeros(A_ext.shape[1])
        x[:n_struct] = root.x
        if _first_fractional(x, int_ids, cfg.integrality_tol) < 0:
            return Solution(root.x, root.objective, "optimal", nodes=1,
                            iterations=total_iters, seconds=time.monotonic() - t0)
        raise SolverBreakdown("cannot branch without constraint rows")

    def pick_branch(x):
        f = x[int_ids] - np.floor(x[int_ids])
        dist = np.minimum(f, 1.0 - f)
        cand = np.nonzero(dist > cfg.integrality_tol)[0]
        if cand.size == 0:
            return -1
        if cfg.branching == "pseudo-cost":
            score = np.empty(cand.size)
            for k, ci in enumerate(cand):
                j = int_ids[ci]
                dn = pc_sum[0, j] / pc_cnt[0, j] if pc_cnt[0, j] else 1.0
                up = pc_sum[1, j] / pc_cnt[1, j] if pc_cnt[1, j] else 1.0
                score[k] = max(dn * f[ci], 1e-9) * max(up * (1.0 - f[ci]), 1e-9)
            return int(int_ids[cand[np.argmax(score)]])
        return int(int_ids[cand[np.argmin(np.abs(dist[cand] - 0.5))]])

    status = "optimal"
    while heap:
        if nodes_done >= cfg.node_limit or time.monotonic() - t0 > cfg.time_limit:
            status = "limit"
            break
        node = heapq.heappop(heap)
        best_bound = max(best_bound, min(node.bound, incumbent_obj))
        if incumbent is not None and node.bound >= incumbent_obj - cfg.gap_tol * max(
                1.0, abs(incumbent_obj)):
            continue
        nodes_done += 1

        state = _Simplex(A_ext, prob.b, node.lb, node.ub)
        state.basis = node.basis.copy()
        state.status = node.vstatus.copy()
        try:
            state.refactor()
            st = state.dual(cost_full)
            if st == "feasible":
                st = state.primal(cost_full)
                state.recompute_x()
        except SolverBreakdown:
            total_iters += state.iterations  # pivots of the abandoned attempt
            state = _Simplex(A_ext, prob.b, node.lb, node.ub)
            st = _two_phase(state, prob.c, n_struct)
            state_cost = np.concatenate([cost_full,
                                         np.zeros(state.n - len(cost_full))])
        else:
            state_cost = cost_full
        total_iters += state.iterations

        lp_obj = float(state_cost[: state.n] @ state.x) if st in ("optimal", "feasible") else INF
        if node_log is not None:
            inc_str = incumbent_obj if incumbent is not None else INF
            node_log(f"{nodes_done - 1}, {node.depth}, {lp_obj:.6f}, "
                     f"{best_bound:.6f}, {inc_str:.6f}, "
                     f"{_rel_gap(incumbent_obj, best_bound):.3e}")
        if st in ("infeasible", "unbounded"):
            continue
        if incumbent is not None and lp_obj >= incumbent_obj - cfg.gap_tol * max(
                1.0, abs(incumbent_obj)):
            continue

        j = pick_branch(state.x)
        if j < 0:
            incumbent_obj = lp_obj
            incumbent = state.x[:n_struct].copy()
            continue

        # a breakdown-recovery state can carry extra artificial columns the
        # shared arrays do not have; fall back to the root basis for children
        if state.n == A_ext.shape[1]:
            child_basis, child_vstatus = state.basis, state.status
        else:
            child_basis, child_vstatus = root.basis, root.vstatus
        frac = state.x[j] - math.floor(state.x[j])
        for side, bound_val in enumerate((math.floor(state.x[j]),
                                          math.ceil(state.x[j]))):
            lb2, ub2 = node.lb.copy(), node.ub.copy()
            if side == 0:
                ub2[j] = bound_val
            else:
                lb2[j] = bound_val
            if lb2[j] > ub2[j]:
                continue
            heapq.heappush(heap, _Node(lp_obj, seq, lb2, ub2,
                                       child_basis.copy(),
                                       child_vstatus.copy(),
                                       node.depth + 1))
            seq += 1
            step = frac if side == 0 else 1.0 - frac
            pc_sum[side, j] += max(lp_obj - node.bound, 0.0) / max(step, 1e-6)
            pc_cnt[side, j] += 1

    elapsed = time.monotonic() - t0
    if incumbent is None:
        final = "infeasible" if status == "optimal" else "limit"
        return Solution(np.zeros(n_struct), INF, final, nodes=nodes_done,
                        iterations=total_iters, seconds=elapsed)
    return Solution(incumbent, float(incumbent_obj), status, nodes=nodes_done,
                    iterations=total_iters, seconds=elapsed)


def _first_fractional(x, int_ids, tol) -> int:
    for j in int_ids:
        f = x[j] - math.floor(x[j])
        if min(f, 1.0 - f) > tol:
            return int(j)
    return -1


def _rel_gap(incumbent: float, bound: float) -> float:
    if incumbent == INF:
        return INF
    return abs(incumbent - bound) / max(1.0, abs(incumbent))
