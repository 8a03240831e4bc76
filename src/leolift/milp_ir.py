"""MILP intermediate representation: variables, linear rows, objective.

All formulation and surrogate-embedding passes accumulate into a `MilpModel`.
The model compiles to one ranged-row sparse form that the solver, the row
audit and the fixed-format MPS writer all read (plus a small reader so
exported files can be round-tripped and handed to other solvers).
"""

from __future__ import annotations

import json
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
    """Solver output: values by dense variable id plus run statistics."""

    values: np.ndarray
    objective: float
    status: str  # optimal | infeasible | unbounded | limit
    nodes: int = 0
    iterations: int = 0
    seconds: float = 0.0


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


class MilpModel:
    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[LinearConstraint] = []
        self.objective: dict[int, float] = {}
        self._frozen = False

    # -- construction ------------------------------------------------------

    def add_variable(self, name: str, kind: str = "continuous",
                     lower: float = 0.0, upper: float = INF) -> int:
        if self._frozen:
            raise ModelError("model is frozen")
        if kind not in VAR_KINDS:
            raise ModelError(f"unknown variable kind {kind!r}")
        if kind == "binary":
            lower, upper = 0.0, 1.0
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
        seen = set()
        for vid, _ in terms:
            if vid < 0 or vid >= len(self.variables):
                raise ModelError(f"constraint {tag!r} references unknown variable {vid}")
            if vid in seen:
                raise ModelError(f"constraint {tag!r} repeats variable {vid}")
            seen.add(vid)
        self.constraints.append(
            LinearConstraint([(v, float(c)) for v, c in terms], sense, float(rhs), tag))
        return len(self.constraints) - 1

    def add_objective_term(self, vid: int, coeff: float):
        if self._frozen:
            raise ModelError("model is frozen")
        if vid < 0 or vid >= len(self.variables):
            raise ModelError(f"objective references unknown variable {vid}")
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

    def binary_ids(self) -> list[int]:
        return [v.id for v in self.variables if v.kind == "binary"]

    def objective_value(self, values) -> float:
        return float(sum(c * values[v] for v, c in self.objective.items()))

    def evaluate(self, assignment, tol: float = FEAS_TOL) -> list[Violation]:
        """Check every row against an assignment; return the violated ones.

        `assignment` is indexable by variable id (array or dict). A row's
        violation is how far its left side lands on the wrong side of rhs;
        the list is empty exactly when the point is feasible at `tol`.
        """
        values = np.empty(len(self.variables))
        for v in self.variables:
            try:
                values[v.id] = assignment[v.id]
            except (KeyError, IndexError):
                raise ModelError(f"assignment misses variable {v.name!r} (id {v.id})")
        sf = self.to_standard_form()
        lhs = sf.A @ values
        viol = np.maximum(lhs - sf.row_hi, sf.row_lo - lhs)
        return [Violation(int(i), self.constraints[i].tag, float(viol[i]))
                for i in np.nonzero(viol > tol)[0]]

    # -- conversions -------------------------------------------------------

    def to_standard_form(self) -> StandardForm:
        """Compile the model: one CSR row per constraint, ranged row bounds."""
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
        return StandardForm(A, row_lo, row_hi, c, lb, ub, is_int)

    # -- export ------------------------------------------------------------

    def export_mps(self, path: str):
        """Write fixed-format MPS plus a `<path>.names` truncation map.

        Row/column names are truncated to 8 characters (with a counter suffix
        on collision) as fixed MPS requires; numeric fields use the shortest
        exact decimal form, which can overflow the classic 12-character field
        but stays whitespace-delimited for modern readers.
        """
        short_rows = _shorten([f"C{i}_{c.tag}" for i, c in enumerate(self.constraints)])
        short_cols = _shorten([v.name for v in self.variables])
        sf = self.to_standard_form()
        cols = sf.A.tocsc()
        cols.sort_indices()

        def num(x: float) -> str:
            if x == INF:
                return "1e308"
            return repr(float(x))

        lines = [f"NAME          {self.name[:60]}", "ROWS", " N  OBJ"]
        sense_code = {"<=": "L", ">=": "G", "=": "E"}
        for i, con in enumerate(self.constraints):
            lines.append(f" {sense_code[con.sense]}  {short_rows[i]}")

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
            if sf.c[v.id] != 0.0:
                entries.append(("OBJ", sf.c[v.id]))
            span = slice(cols.indptr[v.id], cols.indptr[v.id + 1])
            for i, coeff in zip(cols.indices[span], cols.data[span]):
                if coeff != 0.0:
                    entries.append((short_rows[i], coeff))
            if not entries:
                entries.append(("OBJ", 0.0))  # keep empty columns visible
            for row_name, coeff in entries:
                lines.append(f"    {short_cols[v.id]:<8}  {row_name:<8}  {num(coeff)}")
        if in_int:
            lines.append(f"    MARKER{marker_n:02d}  'MARKER'                 'INTEND'")

        lines.append("RHS")
        for i, con in enumerate(self.constraints):
            if con.rhs != 0.0:
                lines.append(f"    RHS       {short_rows[i]:<8}  {num(con.rhs)}")

        lines.append("BOUNDS")
        for v in self.variables:
            name = short_cols[v.id]
            lo, up = v.lower, v.upper
            if lo == up:
                lines.append(f" FX BND       {name:<8}  {num(lo)}")
                continue
            if lo == -INF:
                lines.append(f" MI BND       {name:<8}")
            elif lo != 0.0 or v.kind != "continuous":
                lines.append(f" LO BND       {name:<8}  {num(lo)}")
            if up != INF:
                lines.append(f" UP BND       {name:<8}  {num(up)}")
            elif v.kind != "continuous":
                lines.append(f" PL BND       {name:<8}")
        lines.append("ENDATA")

        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        name_map = {
            "rows": {short_rows[i]: self.constraints[i].tag for i in range(len(self.constraints))},
            "cols": {short_cols[v.id]: v.name for v in self.variables},
        }
        with open(str(path) + ".names", "w") as fh:
            json.dump(name_map, fh, indent=1)


def _shorten(names: list[str]) -> list[str]:
    """Truncate names to 8 chars, suffixing a counter on collision."""
    out, used = [], set()
    for name in names:
        base = "".join(ch if ch.isalnum() else "_" for ch in name)[:8] or "X"
        cand = base
        k = 0
        while cand in used:
            suffix = str(k)
            cand = base[: 8 - len(suffix)] + suffix
            k += 1
        used.add(cand)
        out.append(cand)
    return out


def read_mps(path: str) -> MilpModel:
    """Minimal fixed/free MPS reader covering what `export_mps` emits.

    Restores original long names from the `.names` sidecar when present.
    """
    name_map = {"rows": {}, "cols": {}}
    try:
        with open(str(path) + ".names") as fh:
            name_map = json.load(fh)
    except FileNotFoundError:
        pass

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
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("*"):
                continue
            if not line[0].isspace():
                section = line.split()[0].upper()
                if section == "NAME":
                    parts = line.split(None, 1)
                    model.name = parts[1].strip() if len(parts) > 1 else "model"
                continue
            tok = line.split()
            if section == "ROWS":
                code, rname = tok[0].upper(), tok[1]
                if code == "N":
                    obj_row = rname
                else:
                    row_sense[rname] = {"L": "<=", "G": ">=", "E": "="}[code]
                    row_terms[rname] = []
            elif section == "COLUMNS":
                if len(tok) >= 3 and tok[1] == "'MARKER'":
                    integer_mode = tok[2] == "'INTORG'"
                    continue
                cname = tok[0]
                if cname not in col_ids:
                    col_ids[cname] = len(col_ids)
                    col_kind[cname] = "integer" if integer_mode else "continuous"
                    entries[cname] = []
                for j in range(1, len(tok) - 1, 2):
                    entries[cname].append((tok[j], float(tok[j + 1])))
            elif section == "RHS":
                for j in range(1, len(tok) - 1, 2):
                    rhs[tok[j]] = float(tok[j + 1])
            elif section == "BOUNDS":
                btype, cname = tok[0].upper(), tok[2]
                val = float(tok[3]) if len(tok) > 3 else None
                bounds.setdefault(cname, []).append((btype, val))
            elif section == "ENDATA":
                break

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
        long_name = name_map["cols"].get(cname, cname)
        vid = model.add_variable(long_name, kind, lo, up)
        assert vid == cid
        for rname, coeff in entries[cname]:
            if rname == obj_row:
                if coeff != 0.0:
                    model.add_objective_term(vid, coeff)
            elif rname in row_terms:
                row_terms[rname].append((vid, coeff))

    for rname, terms in row_terms.items():
        model.add_constraint(terms, row_sense[rname], rhs.get(rname, 0.0),
                             tag=name_map["rows"].get(rname, rname))
    return model
