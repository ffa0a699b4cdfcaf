"""Exact binary-polyhedral handle analysis.

Transcribes the appendix generator pairs for the binary tetrahedral (T),
binary octahedral (C) and binary icosahedral (D, three coordinate cases)
handles, enumerates the groups exactly over Q(sqrt2, sqrt5), and verifies the
worked trace-constraint cases: given a handle generating G and an unknown
element A_j constrained by trace conditions, decide whether the constraints
force A_j into G, have no real solution, or produce an escape handle
(A_i, A_{g+i} A_i A_j) that is neither G nor Pin(2).

Constraint systems are solved exactly where linear (QF-field Gaussian
elimination; line/sphere intersections with exact discriminants) and by
interval scanning at resolution 1e-4 on circle fibres where a quadric
remains, matching the artifact's declared rigor level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import classify, su2
from .exact import (EXACT_IDENTITY, HALF, ONE, QFElement, R_CONST, S_CONST,
                    SQRT2, SQRT2_OVER_2, ZERO, ExactQuaternion,
                    exact_trace_form)

Q = QFElement.of

# ---------------------------------------------------------------------------
# generator pairs, transcribed from the appendix matrices
# (w,x,y,z) convention: [[w+xi, y+zi], [-y+zi, w-xi]]
# ---------------------------------------------------------------------------

GENERATORS = {
    "T": (
        ExactQuaternion(HALF, -HALF, HALF, -HALF),
        ExactQuaternion(HALF, -HALF, -HALF, HALF),
    ),
    "C": (
        ExactQuaternion(SQRT2_OVER_2, SQRT2_OVER_2, ZERO, ZERO),
        ExactQuaternion(HALF, -HALF, -HALF, -HALF),
    ),
    "D1": (
        # the appendix prints +1/2 for the x entry, but its own trace forms
        # (and the case solutions downstream) require -1/2; use the value
        # consistent with the rest of the analysis
        ExactQuaternion(-S_CONST, -HALF, ZERO, R_CONST),
        ExactQuaternion(S_CONST, ZERO, -R_CONST, HALF),
    ),
    "D2": (
        ExactQuaternion(R_CONST, -S_CONST, ZERO, -HALF),
        ExactQuaternion(-R_CONST, HALF, -S_CONST, ZERO),
    ),
    "D3": (
        ExactQuaternion(HALF, HALF, -HALF, -HALF),
        ExactQuaternion(R_CONST, S_CONST, ZERO, HALF),
    ),
}

GROUP_ORDER = {"T": 24, "C": 48, "D1": 120, "D2": 120, "D3": 120}

_GROUP_CACHE: dict = {}


def enumerate_group(case: str) -> list[ExactQuaternion]:
    """Exact closure of the handle generators; cached."""
    if case not in _GROUP_CACHE:
        gens = GENERATORS[case]
        fc = classify.finite_closure(list(gens), cap=240)
        if not fc.closed:
            raise AssertionError(f"{case} generators did not close")
        _GROUP_CACHE[case] = fc.elements
    return _GROUP_CACHE[case]


def in_group_exact(q: ExactQuaternion, case: str) -> bool:
    keys = {g.key() for g in enumerate_group(case)}
    return q.key() in keys


def in_group_float(qf: tuple, case: str, tol: float = 1e-9) -> bool:
    for g in enumerate_group(case):
        gw = g.to_float()
        if max(abs(qf[i] - gw[i]) for i in range(4)) <= tol:
            return True
        if max(abs(qf[i] + gw[i]) for i in range(4)) <= tol:
            return True
    return False


# ---------------------------------------------------------------------------
# constraint machinery
# ---------------------------------------------------------------------------
# Words in the handle generators with the unknown appearing once reduce, via
# cyclic invariance of trace, to tr(P * A_j) with P an exact prefix. Atoms of
# quadric constraints are such linear forms or exact constants.

from functools import lru_cache


@lru_cache(maxsize=None)
def _prefix(case: str, word: str) -> ExactQuaternion:
    """Product of handle generators named by word ('i' = A_i, 'g' = A_{g+i})."""
    Ai, Agi = GENERATORS[case]
    out = EXACT_IDENTITY
    for ch in word:
        out = out * (Ai if ch == "i" else Agi)
    return out


@dataclass(frozen=True)
class LinearTrace:
    """Constraint tr(prefix * A_j) = value."""
    prefix_word: str   # e.g. "i" for tr(A_i A_j), "gi" for tr(A_{g+i} A_i A_j)
    value: QFElement


@dataclass(frozen=True)
class Atom:
    """A quadric atom: either tr(prefix * A_j) (linear in A_j) or a constant."""
    prefix_word: Optional[str] = None
    const: Optional[QFElement] = None


@dataclass(frozen=True)
class Quadric:
    """sum_k coeff_k * prod(atoms[i] for i in term_k) = 0."""
    atoms: tuple[Atom, ...]
    terms: tuple[tuple[QFElement, tuple[int, ...]], ...]


def spin2_quadric(t1: Atom, t2: Atom, t3: Atom) -> Quadric:
    """t1^2 + t2^2 + t3^2 - t1 t2 t3 - 4 = 0 (the abelian-character equation)."""
    one = ONE
    return Quadric(
        atoms=(t1, t2, t3),
        terms=(
            (one, (0, 0)), (one, (1, 1)), (one, (2, 2)),
            (-one, (0, 1, 2)), (Q(-4), ()),
        ),
    )


@dataclass(frozen=True)
class AppendixCase:
    case_id: str
    group: str
    linear: tuple[LinearTrace, ...]
    quadrics: tuple[Quadric, ...]
    claimed_solutions: tuple[ExactQuaternion, ...]   # exact ones, if any
    conclusion: str   # "in_group" | "no_real_solutions" | "escape"
    claimed_escape_traces: tuple[float, ...] = ()
    note: str = ""


def _lin_form(case: str, word: str) -> tuple[QFElement, QFElement, QFElement, QFElement]:
    return exact_trace_form(_prefix(case, word))


def _atom_form(case: str, atom: Atom):
    """(linear coefficients or None, constant part) of an atom."""
    if atom.const is not None:
        return None, atom.const
    return _lin_form(case, atom.prefix_word), ZERO


# ---------------------------------------------------------------------------
# exact linear algebra over the QF field
# ---------------------------------------------------------------------------

def _rref(rows: list[list[QFElement]]):
    """Reduced row echelon form; returns (rows, pivot column indices).
    Rows are [c_w, c_x, c_y, c_z | rhs]."""
    rows = [list(r) for r in rows]
    m, n = len(rows), 5
    piv_cols = []
    r = 0
    for c in range(4):
        p = next((i for i in range(r, m) if not rows[i][c].is_zero()), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [rows[i][j] - f * rows[r][j] for j in range(n)]
        piv_cols.append(c)
        r += 1
    consistent = all(rows[i][4].is_zero() for i in range(r, m))
    return rows[:r], piv_cols, consistent


@dataclass
class SolutionSet:
    """Real solutions of a case's constraint system on the unit sphere."""
    kind: str                 # "empty" | "finite" | "curve" | "inconclusive"
    exact_points: list = field(default_factory=list)    # ExactQuaternion
    float_points: list = field(default_factory=list)    # float 4-tuples


def solve_case_system(case: str, linear: Sequence[LinearTrace],
                      quadrics: Sequence[Quadric] = (),
                      scan_resolution: float = 1e-4) -> SolutionSet:
    rows = []
    for lc in linear:
        cw, cx, cy, cz = _lin_form(case, lc.prefix_word)
        rows.append([cw, cx, cy, cz, lc.value])
    if not rows:
        return SolutionSet(kind="inconclusive")
    rref, piv, consistent = _rref(rows)
    if not consistent:
        return SolutionSet(kind="empty")
    dim = 4 - len(piv)
    # particular solution: free variables = 0
    part = [ZERO, ZERO, ZERO, ZERO]
    for rrow, c in zip(rref, piv):
        part[c] = rrow[4]
    # null-space basis
    free = [c for c in range(4) if c not in piv]
    basis = []
    for fc in free:
        v = [ZERO, ZERO, ZERO, ZERO]
        v[fc] = ONE
        for rrow, c in zip(rref, piv):
            v[c] = -rrow[fc]
        basis.append(v)

    if dim == 0:
        p = ExactQuaternion(*part)
        if not (p.norm_sq() - ONE).is_zero():
            return SolutionSet(kind="empty")
        if all(_quadric_residual_exact(case, qd, p).is_zero() for qd in quadrics):
            return SolutionSet(kind="finite", exact_points=[p],
                               float_points=[p.to_float()])
        return SolutionSet(kind="empty")

    if dim == 1:
        p, v = part, basis[0]
        a = _dot(v, v)
        bq = 2 * _dot(p, v)
        cq = _dot(p, p) - ONE
        disc = bq * bq - 4 * a * cq
        fd = float(disc)
        if disc.is_zero():
            roots = [-float(bq) / (2.0 * float(a))]
        elif fd < 0:
            return SolutionSet(kind="empty")
        else:
            sq = math.sqrt(fd)
            roots = [(-float(bq) + sq) / (2.0 * float(a)),
                     (-float(bq) - sq) / (2.0 * float(a))]
        fdata = [_quadric_float_data(case, qd) for qd in quadrics]
        pts = []
        for t in roots:
            q = tuple(float(p[i]) + t * float(v[i]) for i in range(4))
            if all(abs(_quadric_residual_float(fd, q)) <= 1e-9 for fd in fdata):
                pts.append(q)
        ss = SolutionSet(kind="finite" if pts else "empty", float_points=pts)
        _snap_solution_set(case, ss, rows, quadrics)
        return ss

    if dim == 2:
        ss = _solve_on_circle(case, part, basis, quadrics, scan_resolution)
        _snap_solution_set(case, ss, rows, quadrics)
        return ss

    return SolutionSet(kind="inconclusive")


def _dot(u, v) -> QFElement:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


#: coordinate values the finite groups actually realize; scan roots landing
#: within 2e-6 of a catalog tuple are promoted to exact points (after an
#: exact residual check), which keeps downstream membership tests exact
_SNAP_CATALOG = (ZERO, ONE, -ONE, HALF, -HALF, SQRT2_OVER_2, -SQRT2_OVER_2,
                 R_CONST, -R_CONST, S_CONST, -S_CONST)


def _snap_exact(case, pt, rows, quadrics, tol: float = 2e-6):
    comps = []
    for v in pt:
        hit = None
        for cand in _SNAP_CATALOG:
            if abs(v - float(cand)) <= tol:
                hit = cand
                break
        if hit is None:
            return None
        comps.append(hit)
    q = ExactQuaternion(*comps)
    if not (q.norm_sq() - ONE).is_zero():
        return None
    comp = (q.w, q.x, q.y, q.z)
    for row in rows:
        if not (_dot(row[:4], comp) - row[4]).is_zero():
            return None
    if not all(_quadric_residual_exact(case, qd, q).is_zero() for qd in quadrics):
        return None
    return q


def _snap_solution_set(case, ss: SolutionSet, rows, quadrics) -> None:
    """Promote float roots to exact points where possible (in place)."""
    if ss.kind != "finite" or ss.exact_points:
        return
    exact, floats = [], []
    for pt in ss.float_points:
        q = _snap_exact(case, pt, rows, quadrics)
        exact.append(q)
        floats.append(q.to_float() if q is not None else pt)
    ss.exact_points = exact
    ss.float_points = floats


#: theta values per block of the circle scan; bounds its temporary arrays
_SCAN_BLOCK = 4096


def _solve_on_circle(case, part, basis, quadrics, res) -> SolutionSet:
    """2-plane meets S^3 in a circle; scan quadric residuals along it."""
    p = np.array([float(c) for c in part])
    V = np.array([[float(c) for c in v] for v in basis]).T  # 4x2
    # orthonormal basis of the plane directions
    Qm, _ = np.linalg.qr(V)
    e1, e2 = Qm[:, 0], Qm[:, 1]
    # center: point of the affine plane closest to the origin
    c = p - e1 * (p @ e1) - e2 * (p @ e2)
    rho2 = 1.0 - c @ c
    if rho2 < -1e-12:
        return SolutionSet(kind="empty")
    rho = math.sqrt(max(rho2, 0.0))
    if not quadrics:
        return SolutionSet(kind="curve")
    fdata = [_quadric_float_data(case, qd) for qd in quadrics]

    def points(theta: np.ndarray) -> np.ndarray:
        """Points of the circle at the angles theta, shape (len(theta), 4)."""
        return c + rho * (np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2)

    def resid(theta: np.ndarray) -> np.ndarray:
        """Worst quadric residual at each angle of theta."""
        q = points(theta).T
        return np.max([np.abs(_quadric_residual_float(fd, q)) for fd in fdata], axis=0)

    def resid1(theta: float) -> float:
        return float(resid(np.array([theta]))[0])

    n = int(2.0 * math.pi / res) + 1
    thetas = 2.0 * math.pi * np.arange(n) / n
    vals = np.concatenate([resid(thetas[i:i + _SCAN_BLOCK])
                           for i in range(0, n, _SCAN_BLOCK)])
    minima = (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)) & (vals < 1e-2)
    pts = []
    for i in np.flatnonzero(minima).tolist():
        theta = _refine_min(resid1, 2.0 * math.pi * (i - 1) / n, 2.0 * math.pi * (i + 1) / n)
        if resid1(theta) <= 1e-9:
            qt = tuple(points(np.array([theta]))[0])
            if not any(max(abs(qt[j] - s[j]) for j in range(4)) < 1e-6 for s in pts):
                pts.append(qt)
    return SolutionSet(kind="finite" if pts else "empty", float_points=pts)


def _refine_min(f, lo, hi, iters: int = 80) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = f(c2)
    return (a + b) / 2.0


def _quadric_residual_exact(case: str, qd: Quadric, p: ExactQuaternion) -> QFElement:
    vals = []
    comp = (p.w, p.x, p.y, p.z)
    for atom in qd.atoms:
        form, const = _atom_form(case, atom)
        if form is None:
            vals.append(const)
        else:
            vals.append(_dot(form, comp))
    total = ZERO
    for coeff, idxs in qd.terms:
        term = coeff
        for i in idxs:
            term = term * vals[i]
        total = total + term
    return total


def _quadric_float_data(case: str, qd: Quadric):
    """The quadric's atoms as (linear form or None, constant) and its terms,
    in floats."""
    atoms = []
    for atom in qd.atoms:
        form, const = _atom_form(case, atom)
        if form is None:
            atoms.append((None, float(const)))
        else:
            atoms.append((tuple(float(c) for c in form), 0.0))
    terms = tuple((float(coeff), idxs) for coeff, idxs in qd.terms)
    return tuple(atoms), terms


def _quadric_residual_float(data, p):
    """Residual of the quadric with float data at p = (w, x, y, z), whose
    components are floats or arrays of one shape."""
    atoms, terms = data
    w, x, y, z = p
    vals = []
    for form, const in atoms:
        if form is None:
            vals.append(const)
        else:
            vals.append(form[0] * w + form[1] * x + form[2] * y + form[3] * z)
    total = 0.0
    for coeff, idxs in terms:
        term = coeff
        for i in idxs:
            term *= vals[i]
        total += term
    return total


# ---------------------------------------------------------------------------
# outcome classification
# ---------------------------------------------------------------------------

ESCAPE_PREFIX = "igi"   # escape element A_i A_{g+i} A_i A_j

#: traces available to finite subgroups of SU(2) not inside Pin(2)
_FINITE_TRACES = (0.0, 1.0, -1.0, 2.0, -2.0, math.sqrt(2.0), -math.sqrt(2.0),
                  (math.sqrt(5.0) + 1.0) / 2.0, -(math.sqrt(5.0) + 1.0) / 2.0,
                  (math.sqrt(5.0) - 1.0) / 2.0, -(math.sqrt(5.0) - 1.0) / 2.0)


def escape_trace(case: str, aj: tuple) -> float:
    pre = _prefix(case, ESCAPE_PREFIX).to_float()
    return su2.trace_mul(pre, aj)


def escape_handle_ok(case: str, aj: tuple) -> bool:
    """True if the handle (A_i, A_{g+i} A_i A_j) escapes: it is not Pin(2) and
    not inside the current group class (T for the T lemma, C for the C lemma,
    anything finite for the D lemmas — the lemmas escalate T -> C -> D)."""
    Ai = GENERATORS[case][0].to_float()
    gi = _prefix(case, "gi").to_float()
    h2 = su2.quat_mul(gi, aj)
    # cheap certificate first: no invariant axis + a trace outside the finite set
    if classify.pin2_geometric_test([Ai, h2]) is None:
        words = [Ai, h2, su2.quat_mul(Ai, h2), su2.quat_mul(h2, Ai),
                 su2.quat_mul(Ai, su2.quat_mul(Ai, h2)),
                 su2.quat_mul(su2.quat_mul(Ai, h2), h2),
                 su2.quat_mul(su2.quat_mul(Ai, h2), su2.quat_mul(Ai, h2))]
        for wq in words:
            t = su2.trace(wq)
            if min(abs(t - s) for s in _FINITE_TRACES) > 1e-6:
                return True
    verdict = classify.classify_subgroup([Ai, h2])
    if verdict.in_pin2:
        return False
    if case == "T":
        return not verdict.in_T
    if case == "C":
        return not verdict.in_C
    return verdict.is_dense


@dataclass
class CaseReport:
    case_id: str
    group: str
    solver_outcome: str       # in_group / no_real_solutions / escape / inconclusive
    claimed_conclusion: Optional[str]
    solutions: list
    escape_traces: list
    passed: Optional[bool]    # None when nothing claimed
    detail: str = ""


def decide_outcome(case: str, sols: SolutionSet) -> tuple[str, list, list]:
    if sols.kind == "empty":
        return "no_real_solutions", [], []
    if sols.kind in ("curve", "inconclusive"):
        return "inconclusive", [], []
    esc = []
    outside = []
    for idx, p in enumerate(sols.float_points):
        q = sols.exact_points[idx] if idx < len(sols.exact_points) else None
        if q is not None and in_group_exact(q, case):
            continue
        if q is None and in_group_float(p, case):
            continue
        outside.append(p)
        esc.append(escape_trace(case, p))
    if not outside:
        return "in_group", sols.float_points, []
    if all(escape_handle_ok(case, p) for p in outside):
        return "escape", sols.float_points, esc
    return "inconclusive", sols.float_points, esc


# ---------------------------------------------------------------------------
# the worked cases shipped with the artifact
# ---------------------------------------------------------------------------

def _t_atom(word: str) -> Atom:
    return Atom(prefix_word=word)


def _c_atom(v: QFElement) -> Atom:
    return Atom(const=v)


_SQM = math.sqrt(-11.0 + 8.0 * math.sqrt(2.0))

WORKED_CASES: dict[str, AppendixCase] = {}


def _add(case: AppendixCase):
    WORKED_CASES[case.case_id] = case


# --- T cropping: handle is binary tetrahedral --------------------------------
_add(AppendixCase(
    case_id="T-pin-allzero", group="T",
    linear=(LinearTrace("i", ZERO), LinearTrace("ig", ZERO), LinearTrace("g", ZERO)),
    quadrics=(),
    claimed_solutions=(
        ExactQuaternion(-SQRT2_OVER_2, SQRT2_OVER_2, ZERO, ZERO),
        ExactQuaternion(SQRT2_OVER_2, -SQRT2_OVER_2, ZERO, ZERO),
    ),
    conclusion="escape",
    claimed_escape_traces=(math.sqrt(2.0), -math.sqrt(2.0)),
    note="all three unknown traces zero; escape trace +-sqrt2",
))

_add(AppendixCase(
    case_id="T-pin-spin", group="T",
    linear=(LinearTrace("g", ZERO), LinearTrace("ig", ZERO)),
    quadrics=(spin2_quadric(_t_atom("i"), _c_atom(ONE), _t_atom("gi")),),
    claimed_solutions=(),
    conclusion="no_real_solutions",
    note="<A_i, A_{g+i}A_j> Pin(2), <A_iA_j, A_{g+i}> Spin(2): non-real",
))

_add(AppendixCase(
    case_id="T-T-spin", group="T",
    linear=(LinearTrace("g", ZERO), LinearTrace("ig", ONE)),
    quadrics=(spin2_quadric(_t_atom("i"), _c_atom(ONE), _t_atom("gi")),),
    claimed_solutions=(
        ExactQuaternion(HALF, HALF, -HALF, HALF),
    ),
    conclusion="in_group",
    note="tr(A_{g+i}A_j)=0, tr(A_iA_{g+i}A_j)=1: A_j lands in T",
))

# --- C: handle is binary octahedral ------------------------------------------
_add(AppendixCase(
    case_id="C-pin-spin", group="C",
    linear=(LinearTrace("g", ZERO), LinearTrace("ig", ZERO)),
    quadrics=(spin2_quadric(_t_atom("i"), _c_atom(ONE), _t_atom("gi")),),
    claimed_solutions=(),
    conclusion="no_real_solutions",
))

_add(AppendixCase(
    case_id="C-spin-C", group="C",
    linear=(LinearTrace("i", SQRT2), LinearTrace("gi", ZERO)),
    quadrics=(Quadric(
        atoms=(_t_atom("g"), _t_atom("ig")),
        terms=((ONE, (0, 0)), (ONE, (1, 1)), (-SQRT2, (0, 1)), (Q(-2), ())),
    ),),
    claimed_solutions=(
        ExactQuaternion(HALF, -HALF, -HALF, HALF),
    ),
    conclusion="in_group",
    note="tr(A_iA_j)=sqrt2, tr(A_iA_jA_{g+i})=0, Spin(2) condition",
))

_add(AppendixCase(
    case_id="C-pin-escape", group="C",
    linear=(LinearTrace("i", SQRT2), LinearTrace("g", ONE), LinearTrace("ig", ONE)),
    quadrics=(),
    claimed_solutions=(),
    conclusion="escape",
    claimed_escape_traces=(1.5 + _SQM / 2.0, 1.5 - _SQM / 2.0),
    note="escape trace 3/2 +- sqrt(-11+8 sqrt2)/2 (scalar outside the field; "
         "checked numerically at 1e-12)",
))

# --- D case 1: handle is binary icosahedral ----------------------------------
_add(AppendixCase(
    case_id="D1-spin-pin", group="D1",
    linear=(LinearTrace("i", ZERO), LinearTrace("gi", ZERO)),
    quadrics=(spin2_quadric(_t_atom("g"), _c_atom(-(2 * S_CONST)), _t_atom("ig")),),
    claimed_solutions=(
        ExactQuaternion(HALF, S_CONST, R_CONST, ZERO),
        ExactQuaternion(-HALF, -S_CONST, -R_CONST, ZERO),
    ),
    conclusion="in_group",
    note="solutions +-(1/2, s, r, 0); in the icosahedral group "
         "(the printed solution tuple has its components scrambled)",
))

_add(AppendixCase(
    case_id="D1-spin-D", group="D1",
    linear=(LinearTrace("i", 2 * R_CONST), LinearTrace("gi", -(2 * S_CONST))),
    quadrics=(spin2_quadric(_t_atom("g"), _t_atom("ig"), _c_atom(-(2 * S_CONST))),),
    claimed_solutions=(),
    conclusion="no_real_solutions",
    note="tr(A_iA_j)=2r, tr(A_iA_jA_{g+i})=-2s: no real solutions",
))

_add(AppendixCase(
    case_id="D1-pin-allzero", group="D1",
    linear=(LinearTrace("i", ZERO), LinearTrace("gi", ZERO), LinearTrace("g", ZERO)),
    quadrics=(),
    claimed_solutions=(
        ExactQuaternion(R_CONST, HALF, -S_CONST, ZERO),
        ExactQuaternion(-R_CONST, -HALF, S_CONST, ZERO),
    ),
    conclusion="in_group",
    note="all three unknown traces zero; solutions +-(r, 1/2, -s, 0) in D "
         "(the printed solution tuple has its components scrambled)",
))

_add(AppendixCase(
    case_id="D1-inconsistent", group="D1",
    linear=(LinearTrace("i", 2 * R_CONST), LinearTrace("g", -(2 * S_CONST)),
            LinearTrace("ig", ZERO)),
    quadrics=(),
    claimed_solutions=(),
    conclusion="no_real_solutions",
    note="three linear constraints force x=1 then w=y=z=0, violating "
         "tr(A_{g+i}A_j)=-2s",
))


def verify_appendix_case(case_id: str) -> CaseReport:
    """Solve a shipped case and confirm the claimed conclusion."""
    case = WORKED_CASES[case_id]
    # 1. claimed exact solutions satisfy the constraint system exactly
    detail = []
    ok = True
    for sol in case.claimed_solutions:
        comp = (sol.w, sol.x, sol.y, sol.z)
        if not (sol.norm_sq() - ONE).is_zero():
            ok = False
            detail.append("claimed solution off the unit sphere")
        for lc in case.linear:
            form = _lin_form(case.group, lc.prefix_word)
            if not (_dot(form, comp) - lc.value).is_zero():
                ok = False
                detail.append(f"claimed solution violates tr({lc.prefix_word}*Aj)")
        for qd in case.quadrics:
            if not _quadric_residual_exact(case.group, qd, sol).is_zero():
                ok = False
                detail.append("claimed solution violates a quadric")
    # 2. run the solver and compare outcomes
    sols = solve_case_system(case.group, case.linear, case.quadrics)
    outcome, pts, esc = decide_outcome(case.group, sols)
    if outcome != case.conclusion:
        ok = False
        detail.append(f"solver outcome {outcome} != claimed {case.conclusion}")
    # 3. claimed solutions are found by the solver
    for sol in case.claimed_solutions:
        sf = sol.to_float()
        if not any(max(abs(sf[i] - p[i]) for i in range(4)) < 1e-8 for p in pts):
            ok = False
            detail.append("solver missed a claimed solution")
    # 4. escape traces match
    for t in case.claimed_escape_traces:
        if not any(abs(t - e) <= 1e-12 for e in esc):
            ok = False
            detail.append(f"claimed escape trace {t} not reproduced")
    return CaseReport(
        case_id=case_id, group=case.group, solver_outcome=outcome,
        claimed_conclusion=case.conclusion, solutions=pts, escape_traces=esc,
        passed=ok, detail="; ".join(detail),
    )


def verify_all_worked_cases() -> list[CaseReport]:
    return [verify_appendix_case(cid) for cid in WORKED_CASES]

