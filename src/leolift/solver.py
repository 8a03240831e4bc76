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
starts from the state's basis, the all-slack one when cold, and minimizes
the basic columns' bound violations. A state keeps the shape it is built
with: one function, `_problem_from_form`, folds a form's rows into slack
form, and a form with more rows gets a new state. A model without rows gets
one empty equality row, so every basis has a row.

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

Branch-and-bound explores nodes best-bound-first on the root's simplex
state, or on the cut state once the root keeps cuts. A state holds the
problem itself (A, Aᵀ, b, the costs and the bounds); each node writes its
structural bounds into it and loads its start.
The root has no start and is solved by the two-phase primal of
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

Before it branches, the root runs one round of Gomory mixed-integer cuts
read from its optimal tableau (`_gmi_cuts`). `_root_cuts` appends them to
the root's standard form as rows C@x >= lo and builds that form's state,
started from the root's basis with the cuts' slacks basic, which is dual
feasible; the warm dual re-solves from there. The cuts never enter the
model, so the final check, the values and the exported model are the
model's own; every later node, and the cold fallback, runs on the cut
state. A candidate row is built into a cut only if its lift, the bound gain
of its first dual pivot alone, exceeds `GAP_TOL`: a row that touches a
nonbasic column at zero reduced cost has lift 0, so a root whose optimum is
dual degenerate there keeps no cut and its tree is unchanged. The round is
skipped once the time limit has passed, and dropped, the search going on
with the root's state, when it ends infeasible, in a `SolverBreakdown` or
past the time limit. One round suffices here: on every instance measured,
a second round kept no cut.

A root LP is solved cold from the all-slack basis, unless the solve is
given a `RootBasis`, the record a seed study hands from trial to trial:
then it starts from the statuses the last trial's optimal root basis left,
mapped onto this model by variable name and row tag (`_map_root`), and
writes its own back before the cut round. A mapped basis is checked before
SuperLU sees it, since a failed factorization costs memory SuperLU never
gives back: m columns pass when the dense LU of the column-scaled B has no
pivot near 0; any other set is repaired (`_repair`) by a pivoted QR that
drops the dependent columns to a bound and makes the slacks of the rows
left uncovered basic (Suhl & Suhl 1990). The same repair meets a refactor
that SuperLU finds exactly singular inside `_two_phase`, once; a mapped root
that still breaks down is solved cold.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import qr
from scipy.linalg.blas import dtrsm, dtrsv
from scipy.linalg.lapack import dgetrf
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
NODE_LIMIT = 100000  # per solve; beyond it, status limit
# root cuts: a basic integer gives a cut only with its fractional part in
# [CUT_AWAY, 1 - CUT_AWAY]; a tableau entry below CUT_ZERO, or a cut
# coefficient within CUT_ZERO of the magnitude of the terms it sums, is 0;
# a kept cut's largest coefficient is at most CUT_DYNAMISM times its
# smallest
CUT_AWAY = 1e-2
CUT_ZERO = 1e-9
CUT_DYNAMISM = 1e6

BASIC, AT_LO, AT_UP, NB_FREE = 0, 1, 2, 3
# by status: the sign that turns a reduced cost d into the objective's fall
# per unit move of a nonbasic column (-d at its lower bound, d at its upper
# one), 0 for a basic column; a free column takes |d| instead
_SIGN = np.array([0.0, -1.0, 1.0, 1.0])


class SolverBreakdown(RuntimeError):
    """Singular basis beyond refactorization recovery."""


class SingularBasis(SolverBreakdown):
    """SuperLU found the basis exactly singular."""


class _TimeUp(Exception):
    """A simplex loop passed its state's deadline."""


class _UnitFactor:
    """The factor of B = I. A solve returns a float copy of its right-hand
    side, which is bit for bit what SuperLU's factor of I returns."""

    @staticmethod
    def solve(v: np.ndarray, trans: str = "N") -> np.ndarray:
        return np.array(v, dtype=float)


@dataclass
class RootBasis:
    """The bound statuses of a root LP's optimal basis, keyed by variable
    name and by row tag (the status of the row's slack). A `solve_milp`
    given one in its `BnbConfig` starts its root LP from the statuses
    recorded there and records its own in their place, so a seed study
    hands one record from trial to trial. Empty until a root is recorded."""

    columns: dict[str, int] = field(default_factory=dict)
    rows: dict[str, int] = field(default_factory=dict)


@dataclass
class BnbConfig:
    time_limit: float = INF
    root_basis: RootBasis | None = None

    def __post_init__(self):
        if not self.time_limit > 0:  # NaN too
            raise ValueError("BnbConfig time_limit must be positive")


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
    n_struct + i, the last m columns. A new state is at the cold start
    (`slack_start`), and its shape never changes. Each branch-and-bound
    node writes its structural bounds into the state it runs on and
    `load`s its start.
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
        self.status = np.empty(self.n, dtype=np.int8)
        self.slack_start()
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

    def slack_start(self):
        """Put in the cold start: the all-slack basis (B = I), every other
        column at its `_bound_status`. Makes no factor."""
        self.status[:] = _bound_status(self.lb, self.ub)
        self.basis[:] = self.n_struct + np.arange(self.m)
        self.status[self.basis] = BASIC

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
        exactly singular B, which is a `SingularBasis`; a non-finite entry
        is refused before it reaches the factorization."""
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
            raise SingularBasis(f"singular basis: {exc}") from exc

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
        """B⁻ᵀv, for a vector v or each column of a matrix v: the eta file
        as one block, then the transposed LU solve. Eta j, applied newest
        first, adds t_j = G[j]·w to w[R[j]]; so Lᵀ·t = G·v, and t is added
        into v at R, where a row may repeat."""
        k = self._n_etas
        if k:
            L, t = self._L[:k, :k], self._G[:k] @ v
            t = (dtrsv(L, t, lower=1, trans=1, diag=1, overwrite_x=1)
                 if v.ndim == 1 else dtrsm(1.0, L, t, lower=1, trans_a=1, diag=1))
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


def _bound_status(lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """The cold start's status of a nonbasic column: at its lower bound,
    else at its upper one, else free at 0."""
    return np.where(lb > -INF, AT_LO, np.where(ub < INF, AT_UP, NB_FREE))


def _two_phase(state: _Simplex) -> str:
    """Two-phase primal simplex from the state's basis and bound statuses;
    phase 2 minimizes the state's costs c. From the cold start
    (`_Simplex.slack_start`) only slacks are basic.

    Phase 1 minimizes the bound violations of the basic columns: one above
    its upper bound costs +1 over [that bound, +inf), one below its lower
    bound -1 over (-inf, that bound]. After each primal run, a relaxed
    column on the bound it violated gets its own bounds and cost 0 back, and
    phase 1 goes on; when none is, the convex sum of violations is at its
    minimum, above 0, and the LP is infeasible. Every exit leaves the
    columns' own bounds. A refactor that finds the basis exactly singular
    is met once: `_repair` mends the basis and both phases start again from
    it; a second `SingularBasis` is the caller's.
    """
    try:
        return _phases(state)
    except SingularBasis:
        _repair(state, state.basis)
    return _phases(state)


def _phases(state: _Simplex) -> str:
    """Phase 1, then phase 2, of `_two_phase`."""
    cols = state.basis.copy()
    lo, hi = state.lb[cols], state.ub[cols]
    state.refactor()
    state.recompute_x()
    above = state.x[cols] > hi + FEAS_TOL
    below = state.x[cols] < lo - FEAS_TOL
    phase1 = np.zeros(state.n)
    try:
        while np.any(above | below):
            phase1[cols] = np.where(above, 1.0, np.where(below, -1.0, 0.0))
            state.lb[cols] = np.where(above, hi, np.where(below, -INF, lo))
            state.ub[cols] = np.where(above, INF, np.where(below, lo, hi))
            if state.primal(phase1) == "unbounded":
                raise SolverBreakdown("phase 1 reported unbounded")
            s = state.x[cols]
            viol = np.where(above, s - hi, np.where(below, lo - s, INF))
            back = viol <= 1e-7
            if not back.any():
                return "infeasible"
            flip = back & (state.status[cols] != BASIC)
            state.status[cols[flip]] = np.where(above[flip], AT_UP, AT_LO)
            above &= ~back
            below &= ~back
    finally:
        state.lb[cols], state.ub[cols] = lo, hi
    return state.primal(state.c)


def _checked_basis(state: _Simplex, cols: np.ndarray):
    """Make `cols`, any number of candidate basic columns, the state's
    basis, checked before SuperLU sees it: m columns whose column-scaled
    dense LU has no pivot within `PIVOT_TOL` of 0 are taken as they are,
    anything else goes through `_repair`. Makes no factor."""
    if cols.size == state.m:
        lu, _, info = dgetrf(_scaled_columns(state, cols))
        if info == 0 and np.abs(np.diagonal(lu)).min() > PIVOT_TOL:
            state.basis = cols.copy()
            _fit_statuses(state)
            return
    _repair(state, cols)


def _scaled_columns(state: _Simplex, cols: np.ndarray) -> np.ndarray:
    """The columns `cols` of A, dense, each scaled to a largest |entry| of
    1 (an empty column stays 0)."""
    B = state.A[:, cols].toarray()
    big = np.abs(B).max(axis=0, initial=0.0)
    return B / np.where(big > 0.0, big, 1.0)


def _repair(state: _Simplex, cols: np.ndarray):
    """Replace the candidate basic columns `cols` by a basis that is not
    singular (Suhl & Suhl 1990): a pivoted QR of the column-scaled columns
    keeps the independent ones, those whose R pivot exceeds `PIVOT_TOL`;
    every other one goes to its `_bound_status`. A pivoted QR of the kept
    columns' transpose then finds rows they cover, and the slacks of the
    rows left over become basic, filling the basis to m columns. Then
    `_fit_statuses`. Makes no factor."""
    B = _scaled_columns(state, cols)
    R, order = qr(B, mode="r", pivoting=True, check_finite=False)
    rank = int(np.count_nonzero(np.abs(np.diagonal(R)) > PIVOT_TOL))
    keep = np.sort(order[:rank])
    uncovered = np.arange(state.m)
    if rank:
        uncovered = np.sort(qr(B[:, keep].T, mode="r", pivoting=True,
                               check_finite=False)[1][rank:])
    state.status[cols] = _bound_status(state.lb[cols], state.ub[cols])
    state.basis = np.concatenate([cols[keep], state.n_struct + uncovered])
    state.status[state.basis] = BASIC
    _fit_statuses(state)


def _fit_statuses(state: _Simplex):
    """Give each nonbasic column whose status its bounds do not allow (at
    an infinite bound, or free with a finite one) its `_bound_status`."""
    st, lb, ub = state.status, state.lb, state.ub
    cold = _bound_status(lb, ub)
    bad = ~((st == BASIC) | (st == cold) | ((st == AT_LO) & (lb > -INF))
            | ((st == AT_UP) & (ub < INF)))
    st[bad] = cold[bad]


def _once(names: list[str]) -> dict[str, int]:
    """The position of each name that occurs once in `names`."""
    pos: dict[str, int] = {}
    for i, name in enumerate(names):
        pos[name] = -1 if name in pos else i
    return {name: i for name, i in pos.items() if i >= 0}


def _record_root(state: _Simplex, model: MilpModel, memo: RootBasis):
    """Write the state's statuses into `memo` by variable name and row tag,
    a name that repeats left out."""
    st, ns = state.status.tolist(), state.n_struct
    memo.columns = {name: st[i] for name, i in
                    _once([v.name for v in model.variables]).items()}
    memo.rows = {tag: st[ns + i] for tag, i in
                 _once([con.tag for con in model.constraints]).items()}


def _map_root(state: _Simplex, model: MilpModel, memo: RootBasis) -> bool:
    """Put the statuses `memo` records onto the state, at its cold start,
    by variable name and row tag, and make their basic columns its basis
    by `_checked_basis`; returns whether `memo` held any. A name the model
    repeats, or `memo` lacks, keeps the cold start's status."""
    if not memo.columns and not memo.rows:
        return False
    st, ns = state.status, state.n_struct
    for name, i in _once([v.name for v in model.variables]).items():
        st[i] = memo.columns.get(name, st[i])
    for tag, i in _once([con.tag for con in model.constraints]).items():
        st[ns + i] = memo.rows.get(tag, st[ns + i])
    _checked_basis(state, np.flatnonzero(st == BASIC))
    return True


def solve_lp(sf: StandardForm) -> Solution:
    """Solve min c@x s.t. row_lo <= A@x <= row_hi, lb <= x <= ub exactly.

    Cold, by `_two_phase` from the all-slack basis. A problem without rows
    takes the same path: its one empty row's slack, fixed at 0, is the basis,
    so the primal simplex only moves variables between their bounds. The
    status is optimal, infeasible, unbounded, or numerical when the solve
    breaks down; `best_bound` equals the objective (-inf when numerical),
    and `gap` is 0 when optimal.
    """
    state = _problem_from_form(sf)
    n = state.n_struct
    try:
        status = _two_phase(state)
    except SolverBreakdown:
        return Solution(np.zeros(n), INF, "numerical",
                        iterations=state.iterations)
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


def _solve_node(state: _Simplex, start: _Start | None,
                mapped: bool = False) -> str:
    """A node's LP, on the state holding its bounds. From a start: the warm
    dual simplex, then primal pivots if its optimum still prices a column
    in. Without one (the root): `_two_phase` from the state's basis, the
    cold start unless `mapped`, when `_map_root` put a recorded root basis
    there. A warm or mapped solve that breaks down is solved cold, by
    `_two_phase` from the all-slack basis, the abandoned pivots still
    counted in the state's iterations."""
    try:
        if start is not None:
            state.load(start)
            return _warm(state)
        if mapped:
            return _two_phase(state)
    except SolverBreakdown:
        state.slack_start()
    return _two_phase(state)


def _warm(state: _Simplex) -> str:
    """Re-solve from the state's dual-feasible basis: the dual simplex, then
    primal pivots if its optimum still prices a column in."""
    if state.dual() == "infeasible":
        return "infeasible"
    if not state.improving(state.d).any():
        return "optimal"
    return state.primal(state.c)


def _gmi_cuts(state: _Simplex, is_int: np.ndarray,
              z: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Gomory mixed-integer cuts C@x >= lo over the structural columns, read
    from the optimal tableau of the state's LP (value z), or None when no
    cut is worth adding. `is_int` marks the integer structural columns.

    Each basic integer column with a fractional value gives a candidate
    row x_B + sum_j a_j x'_j = x_B's value, over the nonbasic columns moved
    to x'_j >= 0 (x_j - lb_j at a lower bound, ub_j - x_j at an upper one;
    fixed columns drop out, and a row with a free nonbasic column is
    skipped). Its GMI cut is sum_j pi_j x'_j >= 1 (Balas, Ceria, Cornuéjols
    & Natraj 1996). Every candidate's tableau row comes from one
    multi-right-hand-side `btran` and one Aᵀ product. Before a cut is built,
    its lift, the bound gain of its first dual pivot alone, min over pi_j > 0
    of d'_j / pi_j with d'_j >= 0 the reduced cost of x'_j, must exceed
    `GAP_TOL` relative to z (Wesselmann & Suhl 2012). A built cut has its
    slacks substituted out and is tidied by `_tidy_cuts`; it is kept if it
    still cuts the LP optimum off by more than `FEAS_TOL`.
    """
    ns, st = state.n_struct, state.status
    xb = state.x[state.basis]
    f0 = xb - np.floor(xb)
    rows = np.flatnonzero((state.basis < ns) & (f0 >= CUT_AWAY)
                          & (f0 <= 1.0 - CUT_AWAY))
    rows = rows[is_int[state.basis[rows]]]
    if rows.size == 0:
        return None
    unit = np.zeros((state.m, rows.size))
    unit[rows, np.arange(rows.size)] = 1.0
    T = (state.AT @ state.btran(unit)).T
    T[np.abs(T) < CUT_ZERO] = 0.0
    free = np.flatnonzero(st == NB_FREE)
    if free.size:
        keep = ~T[:, free].any(axis=1)
        rows, T = rows[keep], T[keep]
    nb = np.flatnonzero(((st == AT_LO) | (st == AT_UP)) & (state.ub > state.lb))
    sigma = np.where(st[nb] == AT_UP, -1.0, 1.0)
    bound = state.nonbasic_values()
    int_nb = np.zeros(state.n, dtype=bool)
    int_nb[:ns] = is_int
    int_nb = int_nb[nb] & (bound[nb] == np.floor(bound[nb]))
    d = np.maximum(-_SIGN[st[nb]] * state.price(state.c)[nb], 0.0)
    a = T[:, nb] * sigma
    fj = np.where(int_nb, np.maximum(a - np.floor(a + CUT_ZERO), 0.0), a)
    f = f0[rows, None]
    pi = np.where(int_nb, np.where(fj <= f, fj / f, (1.0 - fj) / (1.0 - f)),
                  np.where(a >= 0.0, a / f, -a / (1.0 - f)))
    ratio = np.full(pi.shape, INF)
    np.divide(d, pi, out=ratio, where=pi > 0.0)
    lift = ratio.min(axis=1, initial=INF)
    lift[lift == INF] = 0.0  # no column to pivot on: not a cut to add
    keep = lift > GAP_TOL * max(1.0, abs(z))
    if not keep.any():
        return None
    # sum_j pi_j x'_j >= 1 with x'_j = sigma_j (x_j - bound_j), then each
    # slack s_i = b_i - A_i x over the structural columns
    g = np.zeros((keep.sum(), state.n))
    g[:, nb] = pi[keep] * sigma
    C = g[:, :ns] - (state.AT @ g[:, ns:].T)[:ns].T
    lo = 1.0 + g @ bound - g[:, ns:] @ state.b
    C[np.abs(C) <= CUT_ZERO * (np.abs(g[:, :ns])
                               + (abs(state.AT) @ np.abs(g[:, ns:]).T)[:ns].T)] = 0.0
    C, lo = _tidy_cuts(C, lo, state.lb[:ns], state.ub[:ns])
    cut_off = lo - C @ state.x[:ns] > FEAS_TOL
    return (C[cut_off], lo[cut_off]) if cut_off.any() else None


def _tidy_cuts(C: np.ndarray, lo: np.ndarray, lb: np.ndarray,
               ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cuts C@x >= lo scaled to a largest |coefficient| of 1, each
    coefficient below 1/`CUT_DYNAMISM` dropped by lowering lo by the most
    its term can add over lb <= x <= ub. A cut that would need an infinite
    bound for that, or has no coefficient left, is dropped."""
    big = np.abs(C).max(axis=1)
    live = big > 0.0
    C, lo = C[live] / big[live, None], lo[live] / big[live]
    tiny = (C != 0.0) & (np.abs(C) < 1.0 / CUT_DYNAMISM)
    with np.errstate(invalid="ignore"):  # 0·inf off the tiny entries
        most = np.where(tiny, C * np.where(C > 0.0, ub, lb), 0.0)
    C[tiny] = 0.0
    lo = lo - most.sum(axis=1)
    ok = np.isfinite(lo)
    return C[ok], lo[ok]


def _root_cuts(state: _Simplex, sf: StandardForm) -> tuple[_Simplex, int]:
    """One round of `_gmi_cuts` on the state at the root LP optimum of `sf`;
    returns the state the search goes on with and the number of rows kept.

    The cuts C@x >= lo are appended to `sf`, and `_problem_from_form` makes
    the wider form's state, where cut i's slack is column n_struct + m + i.
    It starts from the root's basis with the new slacks basic, which the old
    duals price at 0, so it is dual feasible, and `_warm` re-solves. No round
    runs past the deadline; one that ends infeasible, in a `SolverBreakdown`
    or past the deadline returns the root's state, untouched but for the
    round's iterations, and keeps nothing."""
    if time.monotonic() > state.deadline:
        return state, 0
    cuts = _gmi_cuts(state, sf.is_int, float(state.c @ state.x))
    if cuts is None:
        return state, 0
    (C, lo), A = cuts, sf.A
    k = len(lo)
    ci, cj = np.nonzero(C)
    rows = csr_array((np.concatenate([A.data, C[ci, cj]]),
                      np.concatenate([A.indices, cj.astype(A.indices.dtype)]),
                      np.concatenate([A.indptr, A.indptr[-1] + np.cumsum(
                          np.count_nonzero(C, axis=1), dtype=A.indptr.dtype)])),
                     shape=(A.shape[0] + k, A.shape[1]))
    cut = _problem_from_form(replace(sf, A=rows, row_lo=np.concatenate([sf.row_lo, lo]),
                                     row_hi=np.concatenate([sf.row_hi, np.full(k, INF)])))
    cut.deadline, cut.iterations = state.deadline, state.iterations
    try:
        cut.load(_Start(np.concatenate([state.basis, state.n + np.arange(k)]),
                        np.concatenate([state.status, np.full(k, BASIC, np.int8)])))
        st = _warm(cut)
    except (SolverBreakdown, _TimeUp):
        st = None
    if st != "optimal":
        state.iterations = cut.iterations
        return state, 0
    return cut, k


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
    `_solve_node` solves each node's LP. Given `cfg.root_basis`, the root
    LP starts from the basis recorded there (`_map_root`), and an optimal
    root LP records its own basis there. An optimal root LP then takes
    `_root_cuts`, and its bound and values are those after the cuts; every
    later node runs on the state that returns. `Solution.cuts` counts the
    rows kept. The limits apply from node 1 on, so the root LP (node 0) is
    always solved: `NODE_LIMIT` between nodes, the time limit before the
    cut round and at every simplex iteration. A node the time limit stops
    stays open and counts in `nodes`. A `SolverBreakdown` the cold solve
    cannot recover ends the search with status `numerical`, as does an
    incumbent that fails `_certified`; the values are then the incumbent's,
    if there is one. An unbounded LP ends it as `unbounded`, with objective
    and bound -inf. Every other stop reports `best_bound`, the smallest of
    the incumbent and the bounds of the open nodes and of the nodes the gap
    test dropped, and the `gap` to it.
    """
    cfg = cfg or BnbConfig()
    t0 = time.monotonic()
    sf = model.to_standard_form()
    state = _problem_from_form(sf)
    n_struct = state.n_struct
    memo = cfg.root_basis
    mapped = memo is not None and _map_root(state, model, memo)
    int_ids = np.nonzero(sf.is_int)[0]

    incumbent = None
    incumbent_obj = INF
    best_bound = -INF
    closed = INF  # smallest bound of a node the gap test dropped
    nodes_done = 0
    cuts = 0
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
        if nodes_done >= NODE_LIMIT:
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
            st = _solve_node(state, node.start, mapped and nodes_done == 1)
        except (SolverBreakdown, _TimeUp) as exc:
            status = "limit" if isinstance(exc, _TimeUp) else "numerical"
            heapq.heappush(heap, node)  # still open: its bound counts
            break

        if st == "optimal" and nodes_done == 1:
            if memo is not None:
                _record_root(state, model, memo)
            state.deadline = t0 + cfg.time_limit
            state, cuts = _root_cuts(state, sf)
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
                            best_bound=-INF, cuts=cuts)
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
                        best_bound=bound, cuts=cuts)
    if status == "optimal" and not _certified(sf, incumbent):
        status = "numerical"
    return Solution(incumbent, float(incumbent_obj), status, nodes=nodes_done,
                    iterations=state.iterations, seconds=elapsed, best_bound=bound,
                    gap=_rel_gap(incumbent_obj, bound), cuts=cuts)


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
