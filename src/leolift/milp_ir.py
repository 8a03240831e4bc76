"""MILP intermediate representation: variables, linear rows, objective.

All formulation and surrogate-embedding passes accumulate into a `MilpModel`.
The model compiles to one ranged-row sparse form that the solver, the row
audit and the MPS writer all read. The writer emits free-format MPS under
the model's own variable names and row tags, and a small reader takes such
a file back, so exported files round-trip and can be handed to other
solvers.
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
        so `read_mps` reads the model back exactly. Numbers are written in
        their shortest exact decimal form. Raises ModelError, before the file
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


def read_mps(path: str) -> MilpModel:
    """Minimal free MPS reader covering what `export_mps` emits.

    Raises ModelError, naming the line, on the first entry it would drop or
    misread: a section other than NAME, ROWS, COLUMNS, RHS, BOUNDS and
    ENDATA, a row type other than L, G and E after the one N (objective)
    row, an RHS on that row, a bound type other than UP, LO, FX, MI, PL and
    BV, a row or column ROWS or COLUMNS does not declare, or an entry with
    a token missing, left over or not a number."""
    model = MilpModel()
    section = None
    row_sense: dict[str, str] = {}
    row_terms: dict[str, list[tuple[int, float]]] = {}
    obj_row = None
    col_ids: dict[str, int] = {}
    col_kind: dict[str, str] = {}
    entries: dict[str, list[tuple[str, float]]] = {}
    rhs: dict[str, float] = {}
    bounds: dict[str, list] = {}
    integer_mode = False

    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("*"):
                continue
            try:
                if not line[0].isspace():
                    section = line.split()[0].upper()
                    if section not in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS",
                                       "ENDATA"):
                        raise ModelError(f"section {section} is not read")
                    if section == "NAME":
                        parts = line.split(None, 1)
                        model.name = parts[1].strip() if len(parts) > 1 else "model"
                    continue
                tok = line.split()
                if section == "ROWS":
                    if len(tok) != 2:
                        raise ModelError("a row needs a type and a name")
                    code, rname = tok[0].upper(), tok[1]
                    if code == "N" and obj_row is None:
                        obj_row = rname
                    elif code in ("L", "G", "E"):
                        row_sense[rname] = {"L": "<=", "G": ">=", "E": "="}[code]
                        row_terms[rname] = []
                    else:
                        raise ModelError(f"row {rname!r} of type {code!r} is not read")
                elif section == "COLUMNS":
                    if len(tok) >= 3 and tok[1] == "'MARKER'":
                        integer_mode = tok[2] == "'INTORG'"
                        continue
                    cname = tok[0]
                    if cname not in col_ids:
                        col_ids[cname] = len(col_ids)
                        col_kind[cname] = "integer" if integer_mode else "continuous"
                        entries[cname] = []
                    for rname, val in _row_values(tok):
                        _declared("row", rname, row_terms, obj_row)
                        entries[cname].append((rname, val))
                elif section == "RHS":
                    for rname, val in _row_values(tok):
                        if rname == obj_row:
                            raise ModelError(
                                f"RHS on objective row {obj_row!r} is not read")
                        _declared("row", rname, row_terms)
                        rhs[rname] = val
                elif section == "BOUNDS":
                    if len(tok) < 3:
                        raise ModelError(
                            "a bound needs a type, a set name and a column")
                    btype, cname = tok[0].upper(), tok[2]
                    if btype not in ("UP", "LO", "FX", "MI", "PL", "BV"):
                        raise ModelError(
                            f"bound {btype} on column {cname!r} is not read")
                    _declared("column", cname, col_ids)
                    valued = btype in ("UP", "LO", "FX")
                    if len(tok) != 3 + valued:
                        raise ModelError(f"bound {btype} takes "
                                         + ("a value" if valued else "no value"))
                    val = _number(tok[3]) if valued else None
                    bounds.setdefault(cname, []).append((btype, val))
                elif section == "ENDATA":
                    break
            except ModelError as exc:
                raise ModelError(
                    f"MPS line {lineno} ({line.strip()!r}): {exc}") from None

    for cname, cid in col_ids.items():
        lo, up = 0.0, INF
        for btype, val in bounds.get(cname, []):
            if btype == "UP":
                up = val
            elif btype == "LO":
                lo = val
            elif btype == "FX":
                lo = up = val
            elif btype == "MI":
                lo = -INF
            elif btype == "PL":
                up = INF
            elif btype == "BV":
                lo, up = 0.0, 1.0
        kind = col_kind[cname]
        if kind == "integer" and lo == 0.0 and up == 1.0:
            kind = "binary"
        vid = model.add_variable(cname, kind, lo, up)
        assert vid == cid
        for rname, coeff in entries[cname]:
            if rname == obj_row:
                if coeff != 0.0:
                    model.add_objective_term(vid, coeff)
            else:
                row_terms[rname].append((vid, coeff))

    for rname, terms in row_terms.items():
        model.add_constraint(terms, row_sense[rname], rhs.get(rname, 0.0),
                             tag=rname)
    return model


def _declared(kind: str, name: str, declared, obj_row: str | None = None):
    if name != obj_row and name not in declared:
        raise ModelError(f"undeclared {kind} {name!r}")


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ModelError(f"{text!r} is not a number") from None


def _row_values(tok: list[str]) -> list[tuple[str, float]]:
    """The (row, value) pairs of a COLUMNS or RHS entry, after its column or
    set name."""
    if len(tok) < 3 or len(tok) % 2 == 0:
        raise ModelError("an entry needs a name, then row and value pairs")
    return [(tok[j], _number(tok[j + 1])) for j in range(1, len(tok), 2)]
