"""MILP intermediate representation: variables, linear rows, objective.

All formulation and surrogate-embedding passes accumulate into a `MilpModel`.
The model compiles to one ranged-row sparse form that the solver, the row
audit and the MPS writer all read. The writer emits free-format MPS under
the model's own variable names and row tags, so exported files can be
handed to other solvers. The package writes MPS but does not read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

VAR_KINDS = ("continuous", "integer", "binary")
SENSES = ("<=", "=", ">=")

FEAS_TOL = 1e-6
INT_TOL = 1e-6

INF = math.inf


class ModelError(ValueError):
    pass


@dataclass
class Variable:
    id: int
    name: str
    kind: str
    lower: float
    upper: float


@dataclass
class LinearConstraint:
    """Sparse row: sum(coeff * var) sense rhs, tagged with its origin."""

    terms: list[tuple[int, float]]
    sense: str
    rhs: float
    tag: str


@dataclass
class Violation:
    index: int
    tag: str
    amount: float  # signed: positive means the row is violated by this much


@dataclass
class Solution:
    """Solver output: values by dense variable id plus run statistics.

    `best_bound` is a proven lower bound on the optimum (+inf when the model
    is infeasible, -inf when none is known) and `gap` the relative distance
    from the objective to it (inf without an incumbent).
    """

    values: np.ndarray
    objective: float
    status: str  # optimal | infeasible | unbounded | limit | numerical
    nodes: int = 0
    iterations: int = 0  # simplex pivots and bound flips
    seconds: float = 0.0
    best_bound: float = -INF
    gap: float = INF
    cuts: int = 0  # rows the root's cut round kept in the solver's LP


@dataclass
class StandardForm:
    """minimize c@x  s.t.  row_lo <= A@x <= row_hi,  lb <= x <= ub, integrality mask.

    Row i of the CSR matrix `A` is constraint i of the model: a `<=` row has
    row_lo = -inf, a `>=` row has row_hi = +inf and an equality row has
    row_lo == row_hi.
    """

    A: csr_array
    row_lo: np.ndarray
    row_hi: np.ndarray
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    is_int: np.ndarray

    def violated_rows(self, x: np.ndarray,
                      tol: float = FEAS_TOL) -> tuple[np.ndarray, np.ndarray]:
        """The rows whose activity A@x is NaN or more than `tol` outside
        [row_lo, row_hi], and how far outside it lies (NaN for NaN)."""
        ax = self.A @ x
        rows = np.flatnonzero(~((ax >= self.row_lo - tol) & (ax <= self.row_hi + tol)))
        ax = ax[rows]
        return rows, np.maximum(ax - self.row_hi[rows], self.row_lo[rows] - ax)


class MilpModel:
    """Variables, rows and objective, added one by one and then frozen.

    Every number is checked as it is added: a NaN bound, a lower bound of
    +inf or an upper bound of -inf, a non-finite coefficient in a row or the
    objective, or a non-finite rhs raises ModelError naming the variable or
    row.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[LinearConstraint] = []
        self.objective: dict[int, float] = {}
        self._frozen = False
        self._form: StandardForm | None = None  # compiled once frozen

    # -- construction ------------------------------------------------------

    def add_variable(self, name: str, kind: str = "continuous",
                     lower: float = 0.0, upper: float = INF) -> int:
        if self._frozen:
            raise ModelError("model is frozen")
        if kind not in VAR_KINDS:
            raise ModelError(f"unknown variable kind {kind!r}")
        if kind == "binary":
            lower, upper = 0.0, 1.0
        if math.isnan(lower) or math.isnan(upper):
            raise ModelError(f"variable {name!r}: bound is NaN")
        if lower == INF or upper == -INF:
            raise ModelError(f"variable {name!r}: bounds [{lower}, {upper}] admit no value")
        if lower > upper:
            raise ModelError(f"variable {name!r}: lower {lower} exceeds upper {upper}")
        vid = len(self.variables)
        self.variables.append(Variable(vid, name, kind, float(lower), float(upper)))
        return vid

    def add_constraint(self, terms: list[tuple[int, float]], sense: str,
                       rhs: float, tag: str = "") -> int:
        if self._frozen:
            raise ModelError("model is frozen")
        if sense not in SENSES:
            raise ModelError(f"unknown sense {sense!r}")
        if not math.isfinite(rhs):
            raise ModelError(f"constraint {tag!r} has rhs {rhs}")
        seen = set()
        for vid, coeff in terms:
            if vid < 0 or vid >= len(self.variables):
                raise ModelError(f"constraint {tag!r} references unknown variable {vid}")
            if vid in seen:
                raise ModelError(f"constraint {tag!r} repeats variable {vid}")
            if not math.isfinite(coeff):
                raise ModelError(f"constraint {tag!r} has coefficient {coeff} "
                                 f"on variable {self.variables[vid].name!r}")
            seen.add(vid)
        self.constraints.append(
            LinearConstraint([(v, float(c)) for v, c in terms], sense, float(rhs), tag))
        return len(self.constraints) - 1

    def add_objective_term(self, vid: int, coeff: float):
        if self._frozen:
            raise ModelError("model is frozen")
        if vid < 0 or vid >= len(self.variables):
            raise ModelError(f"objective references unknown variable {vid}")
        if not math.isfinite(coeff):
            raise ModelError(f"objective has coefficient {coeff} on variable "
                             f"{self.variables[vid].name!r}")
        self.objective[vid] = self.objective.get(vid, 0.0) + float(coeff)

    def freeze(self):
        self._frozen = True

    # -- queries -----------------------------------------------------------

    def num_variables(self) -> int:
        return len(self.variables)

    def num_constraints(self) -> int:
        return len(self.constraints)

    def num_integer(self) -> int:
        return sum(1 for v in self.variables if v.kind != "continuous")

    def objective_value(self, values) -> float:
        return float(sum(c * values[v] for v, c in self.objective.items()))

    def evaluate(self, assignment, tol: float = FEAS_TOL) -> list[Violation]:
        """Check every row against an assignment; return the violated ones.

        `assignment` is indexable by variable id (array or dict). A row's
        violation is how far its left side lands on the wrong side of rhs; a
        NaN left side is a violation of NaN. The list is empty exactly when
        the point is feasible at `tol`.
        """
        values = np.empty(len(self.variables))
        for v in self.variables:
            try:
                values[v.id] = assignment[v.id]
            except (KeyError, IndexError):
                raise ModelError(f"assignment misses variable {v.name!r} (id {v.id})")
        rows, amounts = self.to_standard_form().violated_rows(values, tol)
        return [Violation(int(i), self.constraints[i].tag, float(a))
                for i, a in zip(rows, amounts)]

    # -- conversions -------------------------------------------------------

    def to_standard_form(self) -> StandardForm:
        """Compile the model: one CSR row per constraint, ranged row bounds.

        A frozen model compiles once: every call returns the same form, its
        arrays read-only, so the solver, `evaluate` and `export_mps` share
        it."""
        if self._form is not None:
            return self._form
        n, m = len(self.variables), len(self.constraints)
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(np.fromiter((len(con.terms) for con in self.constraints),
                              dtype=np.intp, count=m), out=indptr[1:])
        flat = [t for con in self.constraints for t in con.terms]
        cols = np.fromiter((v for v, _ in flat), dtype=np.intp, count=len(flat))
        vals = np.fromiter((c for _, c in flat), dtype=float, count=len(flat))
        A = csr_array((vals, cols, indptr), shape=(m, n))
        row_lo = np.array([-INF if con.sense == "<=" else con.rhs
                           for con in self.constraints], dtype=float)
        row_hi = np.array([INF if con.sense == ">=" else con.rhs
                           for con in self.constraints], dtype=float)
        c = np.zeros(n)
        for v, coeff in self.objective.items():
            c[v] = coeff
        lb = np.fromiter((v.lower for v in self.variables), dtype=float, count=n)
        ub = np.fromiter((v.upper for v in self.variables), dtype=float, count=n)
        is_int = np.array([v.kind != "continuous" for v in self.variables], dtype=bool)
        sf = StandardForm(A, row_lo, row_hi, c, lb, ub, is_int)
        if self._frozen:
            for arr in (A.data, A.indices, A.indptr, row_lo, row_hi, c, lb, ub,
                        is_int):
                arr.flags.writeable = False
            self._form = sf
        return sf

    # -- export ------------------------------------------------------------

    def export_mps(self, path: str):
        """Write the model as free-format MPS.

        Each column is named by its variable's name and each row by its tag,
        and numbers are written in their shortest exact decimal form, so the
        file holds the model exactly. Raises ModelError, before the file
        is opened, when a name is empty, holds whitespace or repeats within
        its kind, or a row is named OBJ (the objective row).
        """
        row_names = [c.tag for c in self.constraints]
        _check_names("variable", [v.name for v in self.variables])
        _check_names("row", row_names)
        if "OBJ" in row_names:
            raise ModelError("row name 'OBJ' is taken by the objective row")
        sf = self.to_standard_form()
        cols = sf.A.tocsc()
        cols.sort_indices()
        # walked as Python numbers, far faster than numpy scalars
        indptr, rows, coeffs = (cols.indptr.tolist(), cols.indices.tolist(),
                                cols.data.tolist())
        costs = sf.c.tolist()

        def num(x: float) -> str:
            return repr(float(x))

        lines = [f"NAME          {self.name[:60]}", "ROWS", " N  OBJ"]
        sense_code = {"<=": "L", ">=": "G", "=": "E"}
        for con in self.constraints:
            lines.append(f" {sense_code[con.sense]}  {con.tag}")

        lines.append("COLUMNS")
        marker_n = 0
        in_int = False
        for v in self.variables:
            want_int = v.kind != "continuous"
            if want_int and not in_int:
                lines.append(f"    MARKER{marker_n:02d}  'MARKER'                 'INTORG'")
                marker_n += 1
                in_int = True
            elif not want_int and in_int:
                lines.append(f"    MARKER{marker_n:02d}  'MARKER'                 'INTEND'")
                marker_n += 1
                in_int = False
            entries = []
            if costs[v.id] != 0.0:
                entries.append(("OBJ", costs[v.id]))
            span = slice(indptr[v.id], indptr[v.id + 1])
            for i, coeff in zip(rows[span], coeffs[span]):
                if coeff != 0.0:
                    entries.append((row_names[i], coeff))
            if not entries:
                entries.append(("OBJ", 0.0))  # keep empty columns visible
            for row_name, coeff in entries:
                lines.append(f"    {v.name}  {row_name}  {coeff!r}")
        if in_int:
            lines.append(f"    MARKER{marker_n:02d}  'MARKER'                 'INTEND'")

        lines.append("RHS")
        for con in self.constraints:
            if con.rhs != 0.0:
                lines.append(f"    RHS  {con.tag}  {num(con.rhs)}")

        lines.append("BOUNDS")
        for v in self.variables:
            lo, up = v.lower, v.upper
            if lo == up:
                lines.append(f" FX BND  {v.name}  {num(lo)}")
                continue
            if lo == -INF:
                lines.append(f" MI BND  {v.name}")
            elif lo != 0.0 or v.kind != "continuous":
                lines.append(f" LO BND  {v.name}  {num(lo)}")
            if up != INF:
                lines.append(f" UP BND  {v.name}  {num(up)}")
            elif v.kind != "continuous":
                lines.append(f" PL BND  {v.name}")
        lines.append("ENDATA")

        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _check_names(kind: str, names: list[str]):
    """Raise ModelError on the first name that is empty, holds whitespace or
    repeats: free MPS splits its lines on whitespace."""
    seen = set()
    for name in names:
        if name.split() != [name]:
            raise ModelError(f"{kind} name {name!r} is empty or holds whitespace")
        if name in seen:
            raise ModelError(f"{kind} name {name!r} is not unique")
        seen.add(name)
