"""Exact MILP solving at desk scale.

LP relaxations are solved by a revised simplex over bounded variables on a
sparse constraint matrix. The basis is never inverted: it is held as a sparse
LU factorization (SuperLU, through `scipy.sparse.linalg.splu`) plus a
product-form eta file with one eta per pivot, and refactored from scratch
every `REFACTOR_EVERY` pivots. A basis that is the identity, as the
all-slack start is, takes a unit factor instead of an LU, so the cold root
LP's first `REFACTOR_EVERY` pivots run on the eta file alone. The eta file is
held in arrays and applied as one unit lower-triangular block, so `ftran` and
`btran` solve with B and its transpose by the LU solve plus a fixed number of
BLAS calls, however many pivots it holds. Every simplex state, phase 1
included, works on the problem's own structural and slack columns: phase 1
starts from the all-slack basis and minimizes the slacks' bound violations,
so a state never changes shape. A model without rows gets one empty equality
row, so every basis has a row.

One sign table over the bound statuses, `_SIGN`, says which columns may
enter: a reduced cost times -1 at a lower bound and +1 at an upper one (its
magnitude when free, 0 when basic or fixed) is the objective's fall per unit
move. Dantzig pricing takes the first largest, and switches to Bland's rule
(the first above `DJ_TOL`) when the objective stalls; the dual's eligible
columns along a pivot row come from the same table. The primal ratio test
lets a row block only if its pivot element exceeds `STABLE_PIVOT` in
magnitude, the threshold the dual's stability test uses. An iteration is a
pivot or a bound flip. The primal and the dual simplex make every pivot
through one routine, `_Simplex._pivot`.

Branch-and-bound explores nodes best-bound-first on one simplex state per
solve. The state holds the problem itself (A, Aᵀ, b, the costs and the
bounds); each node writes its structural bounds into it and loads its start.
The root has no start and is solved cold by the two-phase primal of
`_two_phase`; every other node warm starts a bounded dual simplex from its
`_Start`, the parent's final basis. Both children of a branched node hold one
start: whichever is solved first factors the basis into it, and the other
starts from that factor with an empty eta file. The dual keeps the basic
values x_B and the reduced costs d across pivots, updating them from the
pivot row and column, so an iteration makes one `btran` and one `ftran`; both
are recomputed at every refactor. The entering column comes from a Harris
two-pass ratio test, and a pivot whose row and column disagree, or whose
element is tiny, triggers a refactor instead; on a fresh factorization it is
a `SolverBreakdown`, and the node falls back to the root's cold solve, whose
basis its children inherit. The dual guards against cycling like the primal:
after `STALL_LIMIT` pivots in a row that leave the dual objective flat it
takes the dual Bland rule (lowest-index infeasible basic variable leaves,
lowest-index min-ratio column enters) until a pivot makes progress. A
breakdown the cold solve cannot recover, or an incumbent that fails the final
check against the model's rows, bounds and integrality, ends the solve with
the `numerical` status.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import dtrsv
from scipy.sparse import csc_array, csr_array
from scipy.sparse.linalg import splu

from .milp_ir import FEAS_TOL, INT_TOL, MilpModel, Solution, StandardForm

INF = math.inf

DJ_TOL = 1e-7
PIVOT_TOL = 1e-9
# a dual pivot needs |w_e| at least this, and its row (w_e) and column
# (alpha_r) to agree to this relative tolerance; a primal row blocks only
# with |alpha_r| above it
STABLE_PIVOT = 1e-7
GAP_TOL = 1e-6
REFACTOR_EVERY = 50
STALL_LIMIT = 50
MAX_ITER = 50000  # per primal or dual call; beyond it, SolverBreakdown

BASIC, AT_LO, AT_UP, NB_FREE = 0, 1, 2, 3
# by status: the sign that turns a reduced cost d into the objective's fall
# per unit move of a nonbasic column (-d at its lower bound, d at its upper
# one), 0 for a basic column; a free column takes |d| instead
_SIGN = np.array([0.0, -1.0, 1.0, 1.0])


class SolverBreakdown(RuntimeError):
    """Singular basis beyond refactorization recovery."""


class _TimeUp(Exception):
    """A simplex loop passed its state's deadline."""


class _UnitFactor:
    """The factor of B = I. A solve returns a float copy of its right-hand
    side, which is bit for bit what SuperLU's factor of I returns."""

    @staticmethod
    def solve(v: np.ndarray, trans: str = "N") -> np.ndarray:
        return np.array(v, dtype=float)


@dataclass
class BnbConfig:
    node_limit: int = 100000
    time_limit: float = INF

    def __post_init__(self):
        if not (self.node_limit > 0 and self.time_limit > 0):  # NaN too
            raise ValueError("BnbConfig limits must be positive")


def _problem_from_form(sf: StandardForm) -> _Simplex:
    """The simplex state of `sf`: ranged rows become equality rows over
    slacks in [0, row_hi - row_lo].

    A row with a finite upper end keeps its sign and b = row_hi; any other row
    is negated, with b = -row_lo. An equality row's slack is fixed at 0. A
    model without rows gets one empty equality row, whose slack is its basis.
    """
    if sf.A.shape[0] == 0:
        sf = replace(sf, A=csr_array((1, sf.A.shape[1])), row_lo=np.zeros(1),
                     row_hi=np.zeros(1))
    m, n = sf.A.shape
    keep = np.isfinite(sf.row_hi)
    cols = sf.A.tocsc()
    nnz = cols.indptr[-1]
    A = csc_array(
        (np.concatenate([cols.data * np.where(keep, 1.0, -1.0)[cols.indices],
                         np.ones(m)]),
         np.concatenate([cols.indices, np.arange(m, dtype=cols.indices.dtype)]),
         np.concatenate([cols.indptr, np.arange(nnz + 1, nnz + m + 1,
                                                dtype=cols.indptr.dtype)])),
        shape=(m, n + m))
    return _Simplex(A, np.where(keep, sf.row_hi, -sf.row_lo),
                    np.concatenate([sf.c, np.zeros(m)]),
                    np.concatenate([sf.lb, np.zeros(m)]),
                    np.concatenate([sf.ub, sf.row_hi - sf.row_lo]))


class _Simplex:
    """Revised simplex state: basis, bound statuses, factored basis.

    The basis matrix B = A[:, basis] is kept as a sparse LU factorization of
    the basis at the last refactor plus an eta file: each pivot since then,
    with entering column alpha = B⁻¹a in the old basis and pivot row r, is
    the elementary matrix I + (eta - e_r)e_rᵀ, and B⁻¹ is their product times
    the LU solve. The k etas are applied together: two triangular solves
    with the k×k matrix L that couples them (Gill, Murray, Saunders & Wright
    1984).

    The state is the whole problem too: A@x == b over structural and slack
    columns, the costs c and the bounds. Slack of row i sits at column
    n_struct + i, the last m columns. One state serves a whole
    branch-and-bound solve: each node writes its structural bounds into it
    and `load`s its start.
    """

    def __init__(self, A: csc_array, b, c, lb, ub):
        self.A = A
        self.AT = A.T  # CSR, for pricing
        self.b = b
        self.c = c
        self.lb = lb.copy()
        self.ub = ub.copy()
        self.m, self.n = A.shape
        self.n_struct = self.n - self.m
        self.basis = np.zeros(self.m, dtype=int)
        self.status = np.full(self.n, AT_LO, dtype=np.int8)
        self.x = np.zeros(self.n)
        self.d = np.zeros(self.n)  # reduced costs, kept by the dual simplex
        self.iterations = 0
        self.deadline = INF  # time.monotonic() past which both loops stop
        self._lu = None
        # the eta file, k = _n_etas pivots since the last refactor: pivot
        # rows R, dense rows G[j] = eta_j - e_R[j], and the unit lower
        # triangle L[j, i] = -G[i, R[j]] (i < j), Fortran-ordered for dtrsv
        self._n_etas = 0
        self._R = np.zeros(REFACTOR_EVERY, dtype=np.intp)
        self._G = np.empty((REFACTOR_EVERY, self.m))
        self._L = np.zeros((REFACTOR_EVERY, REFACTOR_EVERY), order="F")

    def load(self, start: _Start):
        """Take a node's start: its basis, statuses and factor, which this
        makes and keeps in `start` if it has none yet. The eta file starts
        empty, since the etas left from the last node act on another
        factor."""
        self.basis, self.status = start.basis.copy(), start.status.copy()
        if start.lu is None:
            self.refactor()
            start.lu = self._lu
            return
        self._lu = start.lu  # a refactor replaces the factor, never mutates it
        self._n_etas = 0

    # -- linear algebra ----------------------------------------------------

    def refactor(self):
        """Factor B = A[:, basis] afresh, its CSC arrays gathered straight
        from A's. When B is the identity, as at the all-slack start, it
        takes the `_UnitFactor` and no LU is made. SuperLU raises on an
        exactly singular B; a non-finite entry is refused before it reaches
        the factorization."""
        self._n_etas = 0
        A, cols = self.A, self.basis
        start = A.indptr[cols]
        counts = A.indptr[cols + 1] - start
        if np.all(counts == 1) and np.array_equal(A.indices[start], np.arange(self.m)) \
                and np.all(A.data[start] == 1.0):
            self._lu = _UnitFactor
            return
        indptr = np.zeros(self.m + 1, dtype=A.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        take = np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], counts)
        data = A.data[take]
        if not np.all(np.isfinite(data)):
            raise SolverBreakdown("singular basis (non-finite entry)")
        try:
            self._lu = splu(csc_array((data, A.indices[take], indptr),
                                      shape=(self.m, self.m)))
        except RuntimeError as exc:
            raise SolverBreakdown(f"singular basis: {exc}") from exc

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """B⁻¹v: the LU solve z = LU⁻¹v, then the eta file as one block.
        Eta j adds G[j]·s_j to z, where s_j is z[R[j]] as the etas before it
        left it; so L·s = z[R], and z += sᵀG."""
        z = self._lu.solve(v)
        k = self._n_etas
        if k:
            s = dtrsv(self._L[:k, :k], z[self._R[:k]], lower=1, diag=1,
                      overwrite_x=1)
            z += s @ self._G[:k]
        return z

    def btran(self, v: np.ndarray) -> np.ndarray:
        """B⁻ᵀv: the eta file as one block, then the transposed LU solve.
        Eta j, applied newest first, adds t_j = G[j]·w to w[R[j]]; so
        Lᵀ·t = G·v, and t is added into v at R, where a row may repeat."""
        k = self._n_etas
        if k:
            t = dtrsv(self._L[:k, :k], self._G[:k] @ v, lower=1, trans=1,
                      diag=1, overwrite_x=1)
            v = v.copy()
            np.add.at(v, self._R[:k], t)
        return self._lu.solve(v, trans="T")

    def tableau_row(self, r: int) -> np.ndarray:
        """Row r of B⁻¹A over every column."""
        unit = np.zeros(self.m)
        unit[r] = 1.0
        return self.AT @ self.btran(unit)

    def column(self, j: int) -> np.ndarray:
        """Column j of A, dense."""
        col = np.zeros(self.m)
        lo, hi = self.A.indptr[j], self.A.indptr[j + 1]
        col[self.A.indices[lo:hi]] = self.A.data[lo:hi]
        return col

    def nonbasic_values(self) -> np.ndarray:
        """Each nonbasic column's value: its bound, or 0 when free. Basic
        columns read 0."""
        return np.where(self.status == AT_LO, self.lb,
                        np.where(self.status == AT_UP, self.ub, 0.0))

    def price(self, cost: np.ndarray) -> np.ndarray:
        """Reduced costs cost - Aᵀy, with y = B⁻ᵀcost_B, over every column."""
        return cost - self.AT @ self.btran(cost[self.basis])

    def held(self) -> tuple[np.ndarray, bool]:
        """What holds through one simplex call, read at its start: the fixed
        columns (ub not above lb; a call never changes a bound), and whether
        any column is nonbasic free (a call takes that status away, never
        gives it)."""
        return (np.flatnonzero(~(self.ub > self.lb)),
                bool(np.any(self.status == NB_FREE)))

    def signed(self, v: np.ndarray, table: np.ndarray,
               held: tuple[np.ndarray, bool]) -> np.ndarray:
        """table[status]·v over every column, but |v| for a nonbasic free
        column and 0 for a fixed one (`held` is from `held()`). One table,
        `_SIGN`, decides which columns may enter in both loops."""
        fixed, free = held
        s = table[self.status] * v
        if free:
            np.abs(s, out=s, where=self.status == NB_FREE)
        s[fixed] = 0.0
        return s

    def improving(self, d: np.ndarray) -> np.ndarray:
        """Mask of the columns whose reduced cost d lets the objective fall
        by more than `DJ_TOL` per unit move: the ones the primal simplex may
        enter. A NaN reduced cost never enters."""
        return self.signed(d, _SIGN, self.held()) > DJ_TOL

    def entering(self, d: np.ndarray, bland: bool,
                 held: tuple[np.ndarray, bool]) -> int:
        """The primal's entering column for reduced costs d, or -1 when no
        column is `improving`: under Bland's rule the first such column,
        else the first with the largest |d|."""
        gain = self.signed(d, _SIGN, held)
        if bland:
            above = gain > DJ_TOL
            j = int(np.argmax(above))
            return j if above[j] else -1
        j = int(np.argmax(gain))  # the first NaN, if there is one
        if gain[j] > DJ_TOL:
            return j
        if not np.isnan(gain[j]):
            return -1
        idx = np.flatnonzero(gain > DJ_TOL)
        return int(idx[np.argmax(gain[idx])]) if idx.size else -1

    def dual_candidates(self, w: np.ndarray, below: bool,
                        held: tuple[np.ndarray, bool]) -> np.ndarray:
        """The columns the dual may enter along pivot row w: those whose
        move off their bound, in the direction their reduced cost allows,
        drives the leaving variable toward the bound it violates, with
        |w| above `PIVOT_TOL`. Off a lower bound that is w < 0 when it must
        rise (`below`), w > 0 when it must fall; off an upper bound the
        opposite; a free column goes either way."""
        return np.flatnonzero(self.signed(w, _SIGN if below else -_SIGN, held)
                              > PIVOT_TOL)

    def recompute_x(self):
        xn = self.nonbasic_values()
        self.x = xn
        self.x[self.basis] = self.ftran(self.b - self.A @ xn)

    def _pivot(self, r: int, e: int, alpha: np.ndarray, t: float,
               below: bool) -> bool:
        """Enter column e (B⁻¹a_e = alpha) in row r by a step of t: x_B moves
        by -t·alpha and x_e by t, and the leaving column lands on its lower
        bound if `below`, else on its upper one. Both loops pivot only here.

        The pivot is recorded as an eta, eta_r = 1/alpha[r] and
        eta_i = -alpha[i]/alpha[r]: row r of R, G and L. Every
        `REFACTOR_EVERY` pivots this refactors and recomputes x, and returns
        whether it did."""
        leave = self.basis[r]
        self.x[self.basis] -= t * alpha
        self.x[e] += t
        self.status[leave] = AT_LO if below else AT_UP
        self.x[leave] = self.lb[leave] if below else self.ub[leave]
        self.basis[r] = e
        self.status[e] = BASIC
        pe = alpha[r]
        if abs(pe) < PIVOT_TOL:
            raise SolverBreakdown(f"pivot element {pe:.2e} below tolerance")
        k = self._n_etas
        g = self._G[k]
        np.divide(alpha, -pe, out=g)
        g[r] = 1.0 / pe - 1.0
        self._L[k, :k] = -self._G[:k, r]
        self._R[k] = r
        self._n_etas = k + 1
        if self._n_etas < REFACTOR_EVERY:
            return False
        self.refactor()
        self.recompute_x()
        return True

    # -- primal simplex ----------------------------------------------------

    def primal(self, cost: np.ndarray) -> str:
        """Iterate to optimality (or unboundedness) for the given costs. x is
        recomputed from the factorization on entry and on return."""
        bland = False
        stall = 0
        held = self.held()
        self.recompute_x()
        for _ in range(MAX_ITER):
            if time.monotonic() > self.deadline:
                raise _TimeUp
            d = self.price(cost)
            j = self.entering(d, bland, held)
            if j < 0:
                self.recompute_x()
                return "optimal"
            direction = 1.0
            if self.status[j] == AT_UP or (self.status[j] == NB_FREE and d[j] > 0):
                direction = -1.0

            alpha = self.ftran(self.column(j))
            block, t_best = _ratio_test(direction * alpha, self.x[self.basis],
                                        self.lb[self.basis], self.ub[self.basis],
                                        self.ub[j] - self.lb[j])
            if block < 0 and t_best == INF:
                self.recompute_x()
                return "unbounded"
            self.iterations += 1  # a pivot or a bound flip
            stall = stall + 1 if abs(d[j]) * t_best <= 1e-10 else 0
            bland = stall >= STALL_LIMIT

            if block >= 0:
                self._pivot(block, j, alpha, direction * t_best,
                            direction * alpha[block] > 0)
                continue
            self.x[self.basis] -= direction * t_best * alpha
            self.status[j] = AT_UP if direction > 0 else AT_LO
            self.x[j] = self.ub[j] if direction > 0 else self.lb[j]
        raise SolverBreakdown(f"primal simplex exceeded {MAX_ITER} iterations")

    # -- dual simplex ------------------------------------------------------

    def dual(self) -> str:
        """Restore primal feasibility from a dual-feasible basis, for the
        state's costs c.

        Returns "feasible" or "infeasible". Both verdicts are read from an x
        freshly recomputed from the factorization. Between them the basic
        values `x` and the reduced costs `d` are updated at each pivot:
        x_B -= t·alpha along the entering column alpha = B⁻¹a_e, and
        d -= (d_e / w_e)·w along the pivot row w = e_rᵀB⁻¹A. Each iteration
        makes one `btran` (the row) and one `ftran` (the column); both x and
        d are recomputed on entry and after every refactor.

        The entering column comes from a Harris two-pass ratio test: the
        largest |w| among the columns whose ratio |d|/|w| lies within the
        widest step that keeps every d inside `DJ_TOL` of its sign. A pivot
        with |w_e| below `STABLE_PIVOT`, or whose alpha_r and w_e disagree by
        more than `STABLE_PIVOT` relative, is not taken: the basis is
        refactored and priced again. On a fresh factorization that is a
        `SolverBreakdown`.
        """
        held = self.held()
        self.recompute_x()
        self.d = self.price(self.c)
        bland = False
        stall = 0
        fresh = True  # x was just recomputed, not updated
        for _ in range(MAX_ITER):
            if time.monotonic() > self.deadline:
                raise _TimeUp
            xb = self.x[self.basis]
            viol_lo = self.lb[self.basis] - xb
            viol_hi = xb - self.ub[self.basis]
            viol = np.maximum(viol_lo, viol_hi)
            r = int(np.argmax(viol))
            if viol[r] <= FEAS_TOL:
                if fresh:
                    return "feasible"
                self.recompute_x()
                fresh = True
                continue
            if bland:  # infeasible row whose basic variable has the lowest index
                rows = np.nonzero(viol > FEAS_TOL)[0]
                r = int(rows[np.argmin(self.basis[rows])])
            below = viol_lo[r] >= viol_hi[r]

            d = self.d
            w = self.tableau_row(r)
            cand = self.dual_candidates(w, below, held)
            if cand.size == 0:
                if fresh:
                    return "infeasible"
                self.recompute_x()
                fresh = True
                continue
            abs_w = np.abs(w[cand])
            theta = np.abs(d[cand]) / abs_w
            if bland:
                e = int(cand[theta <= theta.min() + 1e-9][0])
            else:  # Harris: widest step within DJ_TOL, then the largest |w|
                near = theta <= ((np.abs(d[cand]) + DJ_TOL) / abs_w).min()
                e = int(cand[near][np.argmax(abs_w[near])])

            alpha = self.ftran(self.column(e))
            if abs(w[e]) < STABLE_PIVOT or \
                    abs(alpha[r] - w[e]) > STABLE_PIVOT * abs(w[e]):
                if not self._n_etas:
                    raise SolverBreakdown(
                        f"unstable pivot: row {w[e]:.3e}, column {alpha[r]:.3e}")
                self.refactor()
                self.recompute_x()
                self.d = self.price(self.c)
                fresh = True
                continue

            self.iterations += 1
            step = d[e] / w[e]
            stall = stall + 1 if abs(step) * viol[r] <= 1e-10 else 0
            bland = stall >= STALL_LIMIT

            leave = self.basis[r]
            target = self.lb[leave] if below else self.ub[leave]
            d -= step * w
            d[e] = 0.0
            fresh = self._pivot(r, e, alpha, (xb[r] - target) / alpha[r], below)
            if fresh:
                self.d = self.price(self.c)
        raise SolverBreakdown(f"dual simplex exceeded {MAX_ITER} iterations")


def _ratio_test(a: np.ndarray, xb: np.ndarray, lb_b: np.ndarray,
                ub_b: np.ndarray, t_best: float) -> tuple[int, float]:
    """Primal ratio test along the basic step -a per unit of entering move.

    Returns the blocking row and step: the nearest basic bound, or (-1,
    t_best) when none is nearer than the entering variable's own opposite
    bound at distance `t_best` (a bound flip, or unbounded if that is inf).
    Only a row with |a| above `STABLE_PIVOT` can block, so no pivot element
    is smaller. Rows whose limits tie within 1e-9 go to the largest |a|,
    scanning rows in index order.
    """
    up = a > STABLE_PIVOT
    down = a < -STABLE_PIVOT
    rows = np.flatnonzero((up & (lb_b != -INF)) | (down & (ub_b != INF)))
    ar = a[rows]
    bound = np.where(up[rows], lb_b[rows], ub_b[rows])
    lims = np.maximum((xb[rows] - bound) / ar, 0.0)
    block, block_abs = -1, 0.0
    for i, lim, abs_a in zip(rows.tolist(), lims.tolist(), np.abs(ar).tolist()):
        if lim < t_best - 1e-12 or (
                block >= 0 and lim < t_best + 1e-9 and abs_a > block_abs):
            t_best, block, block_abs = lim, i, abs_a
    return block, t_best


def _two_phase(state: _Simplex) -> str:
    """Two-phase primal simplex from the all-slack basis (B = I), every
    structural column on a bound or free at 0; phase 2 minimizes the state's
    costs c.

    Phase 1 minimizes the slacks' bound violations: a slack above its upper
    bound costs +1 over [that bound, +inf), one below its lower bound -1
    over (-inf, that bound]. After each primal run, a relaxed slack on the
    bound it violated gets its own bounds and cost 0 back, and phase 1 goes
    on; when none is, the convex sum of violations is at its minimum, above
    0, and the LP is infeasible. Every exit leaves the slacks' own bounds.
    """
    slacks = state.n_struct + np.arange(state.m)
    lo, hi = state.lb[slacks], state.ub[slacks]
    state.status[:] = np.where(state.lb > -INF, AT_LO,
                               np.where(state.ub < INF, AT_UP, NB_FREE))
    state.status[slacks] = BASIC
    state.basis[:] = slacks
    state.refactor()
    state.recompute_x()
    above = state.x[slacks] > hi + FEAS_TOL
    below = state.x[slacks] < lo - FEAS_TOL
    phase1 = np.zeros(state.n)
    try:
        while np.any(above | below):
            phase1[slacks] = np.where(above, 1.0, np.where(below, -1.0, 0.0))
            state.lb[slacks] = np.where(above, hi, np.where(below, -INF, lo))
            state.ub[slacks] = np.where(above, INF, np.where(below, lo, hi))
            if state.primal(phase1) == "unbounded":
                raise SolverBreakdown("phase 1 reported unbounded")
            s = state.x[slacks]
            viol = np.where(above, s - hi, np.where(below, lo - s, INF))
            back = viol <= 1e-7
            if not back.any():
                return "infeasible"
            flip = back & (state.status[slacks] != BASIC)
            state.status[slacks[flip]] = np.where(above[flip], AT_UP, AT_LO)
            above &= ~back
            below &= ~back
    finally:
        state.lb[slacks], state.ub[slacks] = lo, hi
    return state.primal(state.c)


def solve_lp(sf: StandardForm) -> Solution:
    """Solve min c@x s.t. row_lo <= A@x <= row_hi, lb <= x <= ub exactly.

    Cold, by `_two_phase` from the all-slack basis. A problem without rows
    takes the same path: its one empty row's slack, fixed at 0, is the basis,
    so the primal simplex only moves variables between their bounds. The
    status is optimal, infeasible or unbounded; `best_bound` equals the
    objective, and `gap` is 0 when optimal.
    """
    state = _problem_from_form(sf)
    n = state.n_struct
    status = _two_phase(state)
    if status == "optimal":
        obj = float(state.c @ state.x)
        return Solution(state.x[:n].copy(), obj, status,
                        iterations=state.iterations, best_bound=obj, gap=0.0)
    obj = INF if status == "infeasible" else -INF
    return Solution(np.zeros(n), obj, status, iterations=state.iterations,
                    best_bound=obj)


@dataclass
class _Start:
    """A child node's start: its parent's final basis and bound statuses, and
    their LU factor once the first sibling to be solved has made it. Both
    children of a branched node hold one record, so it is factored once."""

    basis: np.ndarray
    status: np.ndarray
    lu: object = None


def _solve_node(state: _Simplex, start: _Start | None) -> str:
    """A node's LP, on the state holding its bounds. From a start: the warm
    dual simplex, then primal pivots if its optimum still prices a column
    in. Without one (the root), or when the warm solve breaks down: cold by
    `_two_phase` from the all-slack basis, the abandoned pivots still
    counted in the state's iterations."""
    if start is not None:
        try:
            state.load(start)
            if state.dual() == "infeasible":
                return "infeasible"
            if not state.improving(state.d).any():
                return "optimal"
            return state.primal(state.c)
        except SolverBreakdown:
            pass
    return _two_phase(state)


@dataclass(order=True)
class _Node:
    """An open node, ordered by bound (its parent's LP value, -inf at the
    root), then push order. Its bounds are the structural columns' only,
    since branching never changes a slack's. Only the root has no start."""

    bound: float
    seq: int
    lb: np.ndarray = field(compare=False)
    ub: np.ndarray = field(compare=False)
    start: _Start | None = field(compare=False)
    depth: int = field(compare=False, default=0)


def solve_milp(model: MilpModel, cfg: BnbConfig | None = None,
               node_log=None) -> Solution:
    """Best-bound branch-and-bound over the model's integer variables.

    Branches on the most fractional variable, ties to the lowest index. A
    node is pruned when its bound is within `GAP_TOL` (relative) of the
    incumbent; a variable within `INT_TOL` of an integer counts as integral.
    `_solve_node` solves each node's LP. The limits apply from node 1 on,
    so the root (node 0) is always solved: the node limit between nodes,
    the time limit at every simplex iteration. A node the time limit stops
    stays open and counts in `nodes`. A `SolverBreakdown`
    the cold solve cannot recover ends the search with status `numerical`,
    as does an incumbent that fails `_certified`; the values are then the
    incumbent's, if there is one. An unbounded LP ends it as `unbounded`,
    with objective and bound -inf. Every other stop reports `best_bound`,
    the smallest of the incumbent and the bounds of the open nodes and of
    the nodes the gap test dropped, and the `gap` to it.
    """
    cfg = cfg or BnbConfig()
    t0 = time.monotonic()
    sf = model.to_standard_form()
    state = _problem_from_form(sf)
    n_struct = state.n_struct
    int_ids = np.nonzero(sf.is_int)[0]

    incumbent = None
    incumbent_obj = INF
    best_bound = -INF
    closed = INF  # smallest bound of a node the gap test dropped
    nodes_done = 0
    seq = 1

    def pick_branch(x):
        f = x[int_ids] - np.floor(x[int_ids])
        dist = np.minimum(f, 1.0 - f)
        cand = np.nonzero(dist > INT_TOL)[0]
        if cand.size == 0:
            return -1
        return int(int_ids[cand[np.argmin(np.abs(dist[cand] - 0.5))]])

    heap = [_Node(-INF, 0, sf.lb, sf.ub, None)]
    status = "optimal"
    while heap:
        if nodes_done >= cfg.node_limit:
            status = "limit"
            break
        node = heapq.heappop(heap)
        best_bound = max(best_bound, min(node.bound, incumbent_obj))
        if incumbent is not None and node.bound >= incumbent_obj - GAP_TOL * max(
                1.0, abs(incumbent_obj)):
            closed = min(closed, node.bound)
            continue
        nodes_done += 1

        state.lb[:n_struct], state.ub[:n_struct] = node.lb, node.ub
        state.deadline = t0 + cfg.time_limit if nodes_done > 1 else INF
        try:
            st = _solve_node(state, node.start)
        except (SolverBreakdown, _TimeUp) as exc:
            status = "limit" if isinstance(exc, _TimeUp) else "numerical"
            heapq.heappush(heap, node)  # still open: its bound counts
            break

        lp_obj = (float(state.c @ state.x) if st == "optimal"
                  else INF if st == "infeasible" else -INF)
        if node_log is not None:
            node_log(f"{nodes_done - 1}, {node.depth}, {lp_obj:.6f}, "
                     f"{best_bound:.6f}, {incumbent_obj:.6f}, "
                     f"{_rel_gap(incumbent_obj, best_bound):.3e}")
        if st == "infeasible":
            continue
        if st == "unbounded":
            return Solution(np.zeros(n_struct), -INF, st, nodes=nodes_done,
                            iterations=state.iterations, seconds=time.monotonic() - t0,
                            best_bound=-INF)
        if incumbent is not None and lp_obj >= incumbent_obj - GAP_TOL * max(
                1.0, abs(incumbent_obj)):
            closed = min(closed, lp_obj)
            continue

        j = pick_branch(state.x)
        if j < 0:
            incumbent_obj = lp_obj
            incumbent = state.x[:n_struct].copy()
            continue

        start = _Start(state.basis.copy(), state.status.copy())
        for side, bound_val in enumerate((math.floor(state.x[j]),
                                          math.ceil(state.x[j]))):
            lb2, ub2 = node.lb.copy(), node.ub.copy()
            if side == 0:
                ub2[j] = bound_val
            else:
                lb2[j] = bound_val
            if lb2[j] > ub2[j]:
                continue
            heapq.heappush(heap, _Node(lp_obj, seq, lb2, ub2, start,
                                       node.depth + 1))
            seq += 1

    elapsed = time.monotonic() - t0
    # every point better than the incumbent lies under an open node or under
    # one the gap test dropped
    bound = float(min([incumbent_obj, closed] + [n.bound for n in heap]))
    if incumbent is None:
        final = "infeasible" if status == "optimal" else status
        return Solution(np.zeros(n_struct), INF, final, nodes=nodes_done,
                        iterations=state.iterations, seconds=elapsed,
                        best_bound=bound)
    if status == "optimal" and not _certified(sf, incumbent):
        status = "numerical"
    return Solution(incumbent, float(incumbent_obj), status, nodes=nodes_done,
                    iterations=state.iterations, seconds=elapsed, best_bound=bound,
                    gap=_rel_gap(incumbent_obj, bound))


def _certified(sf: StandardForm, x: np.ndarray) -> bool:
    """Whether x meets the rows and bounds of `sf` to `FEAS_TOL` and its
    integrality to `INT_TOL`."""
    xi = x[sf.is_int]
    return bool(sf.violated_rows(x)[0].size == 0
                and np.all(x >= sf.lb - FEAS_TOL) and np.all(x <= sf.ub + FEAS_TOL)
                and np.all(np.abs(xi - np.round(xi)) <= INT_TOL))


def _rel_gap(incumbent: float, bound: float) -> float:
    if incumbent == INF:
        return INF
    return abs(incumbent - bound) / max(1.0, abs(incumbent))
