"""Subgroup-image classification for SU(2) representations.

Decides whether the group generated by a set of unit quaternions is central,
inside Spin(2) (abelian rotations about one axis), inside Pin(2), binary
tetrahedral T (24), binary octahedral C (48), binary icosahedral D (120), or
dense. Soundness rests on the classification of closed subgroups of SU(2):
any finite subgroup not inside Pin(2) has order <= 120, so a breadth-first
closure capped at 240 separates finite from infinite, and (order, trace
multiset) fingerprints separate T / C / D from the binary dihedral family.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import su2
from .exact import ExactQuaternion
from .su2 import Quaternion
from .tolerances import DEFAULT, Tolerances
from .torus_one import in_special_set, k_of

Vec3 = tuple[float, float, float]


class AmbiguousClusteringError(Exception):
    """Float-path closure found two elements within 10x of the clustering
    tolerance but not merged; rerun on exact inputs."""


@dataclass
class FiniteClosure:
    elements: list          # quaternion tuples (float path) or ExactQuaternion
    generators: list
    closed: bool
    cap: int


@dataclass
class ImageClassification:
    in_spin2: bool = False
    in_pin2: bool = False
    in_T: bool = False
    in_C: bool = False
    in_D: bool = False
    is_dense: bool = False
    witness: object = None   # axis, closure order, or None

    def __post_init__(self):
        assert not self.in_spin2 or self.in_pin2
        assert not self.in_T or self.in_C
        assert self.is_dense == (not self.in_pin2 and not self.in_C and not self.in_D)


# ---------------------------------------------------------------------------
# three-holed sphere trace criteria
# ---------------------------------------------------------------------------

def spin2_criterion_3holed(a: float, b: float, c: float,
                           tol: float = DEFAULT.identity) -> bool:
    """(a, b, ab) is a Spin(2) (abelian) character iff a^2+b^2+c^2-abc-4 = 0."""
    return abs(a * a + b * b + c * c - a * b * c - 4.0) <= tol


def pin2_criterion_3holed(a: float, b: float, ab: float,
                          tol: float = DEFAULT.identity) -> bool:
    """Strictly-Pin(2) (not Spin(2)) criterion: the abelian equation fails and
    at least two of the three traces vanish."""
    if spin2_criterion_3holed(a, b, ab, tol):
        return False
    zeros = sum(1 for t in (a, b, ab) if abs(t) <= tol)
    return zeros >= 2


# ---------------------------------------------------------------------------
# finite closure
# ---------------------------------------------------------------------------

def finite_closure(generators: Sequence, cap: int = 240,
                   tol: Tolerances = DEFAULT) -> FiniteClosure:
    """Breadth-first closure of <generators> under product, up to sign-free
    group structure (inverses come for free in a finite subgroup).

    Exact path (ExactQuaternion inputs): exact equality.
    Float path: clustering at tol.cluster with an ambiguity diagnostic.
    """
    if cap < 2:
        raise ValueError("cap must be >= 2")
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    if isinstance(gens[0], ExactQuaternion):
        return _closure_exact(gens, cap)
    return _closure_float(gens, cap, tol)


def _closure_exact(gens: list, cap: int) -> FiniteClosure:
    from .exact import EXACT_IDENTITY
    seen = {EXACT_IDENTITY.key(): EXACT_IDENTITY}
    frontier = [EXACT_IDENTITY]
    while frontier:
        new = []
        for u in frontier:
            for g in gens:
                v = u * g
                k = v.key()
                if k not in seen:
                    if len(seen) >= cap:
                        return FiniteClosure(_sorted_exact(seen), gens, False, cap)
                    seen[k] = v
                    new.append(v)
        frontier = new
    return FiniteClosure(_sorted_exact(seen), gens, True, cap)


def _sorted_exact(seen: dict) -> list:
    """The elements in the lexicographic order of their rational coefficients."""
    return sorted(seen.values(), key=lambda q: tuple(
        c for e in (q.w, q.x, q.y, q.z) for c in (e.q0, e.q1, e.q2, e.q3)))


#: the 3^4 neighbour offsets of a grid cell, one axis digit each
_NEIGHBOURS = tuple(itertools.product((-1, 0, 1), repeat=4))


def _closure_float(gens: list, cap: int, tol: Tolerances) -> FiniteClosure:
    eps = tol.cluster
    # sup-norm grid of side 10 eps: every element within 10 eps of q lies
    # in q's cell or one of its 3^4 - 1 neighbours (up to the rounding of
    # q / side at a cell wall, which can only move a point at distance
    # 10 eps out of reach)
    side = 10.0 * eps
    if not side > 0.0:
        raise ValueError("the clustering tolerance must be positive")
    # a cell is coded as one integer with its axis indices as digits in
    # base m > 2 / side, so a neighbour's code is the cell's code plus a
    # fixed offset; two cells share a code only off the unit sphere, which
    # adds candidates but never hides one
    m = 2 * int(1.0 / side) + 5
    offsets = [((a * m + b) * m + c) * m + d for a, b, c, d in _NEIGHBOURS]
    cells: dict = {}     # cell code -> indices of the elements in it

    def cell(q):
        floor = math.floor
        return (((floor(q[0] / side) * m + floor(q[1] / side)) * m
                 + floor(q[2] / side)) * m + floor(q[3] / side))

    def find(q, code):
        """Index of the nearest element within eps of q, or -1; raises on
        ambiguous proximity.  Elements lie more than 10 eps apart, so a
        match is unique and the order of the cells does not matter."""
        best, best_d = -1, math.inf
        for off in offsets:
            for i in cells.get(code + off, ()):
                e = elements[i]
                d = max(abs(q[0] - e[0]), abs(q[1] - e[1]), abs(q[2] - e[2]), abs(q[3] - e[3]))
                if d < best_d:
                    best, best_d = i, d
        if best_d <= eps:
            return best
        if best_d <= 10.0 * eps:
            raise AmbiguousClusteringError(
                f"element within {best_d:.2e} of an existing one (tolerance {eps:.0e});"
                " use the exact path")
        return -1

    def add(q, code):
        cells.setdefault(code, []).append(len(elements))
        elements.append(q)

    elements: list = []
    add(su2.IDENTITY, cell(su2.IDENTITY))
    frontier = [su2.IDENTITY]
    while frontier:
        new = []
        for u in frontier:
            for g in gens:
                v = su2.normalize(su2.quat_mul(u, g))
                code = cell(v)
                if find(v, code) == -1:
                    if len(elements) >= cap:
                        return FiniteClosure(sorted(elements), gens, False, cap)
                    add(v, code)
                    new.append(v)
        frontier = new
    return FiniteClosure(sorted(elements), gens, True, cap)


# fingerprints: (order, sorted multiset of rounded |traces|) for T, C, D.
# Traces come in algebraic values; 6 decimals separate them safely at the
# 1e-9 clustering tolerance.
def _trace_fingerprint(elements, exact: bool) -> tuple:
    ts = []
    for e in elements:
        t = float(e.trace()) if exact else 2.0 * e[0]
        ts.append(round(abs(t), 6))
    return tuple(sorted(ts))


_SQ2 = round(math.sqrt(2.0), 6)
_GOLD_R = round((math.sqrt(5.0) + 1.0) / 2.0, 6)   # 2r
_GOLD_S = round((math.sqrt(5.0) - 1.0) / 2.0, 6)   # 2s

#: |trace| multisets of the binary polyhedral groups
FINGERPRINT_T = tuple(sorted([2.0] * 2 + [0.0] * 6 + [1.0] * 16))
FINGERPRINT_C = tuple(sorted([2.0] * 2 + [0.0] * 18 + [1.0] * 16 + [_SQ2] * 12))
FINGERPRINT_D = tuple(sorted([2.0] * 2 + [0.0] * 30 + [1.0] * 40
                             + [_GOLD_R] * 24 + [_GOLD_S] * 24))


# ---------------------------------------------------------------------------
# geometric Pin(2) test
# ---------------------------------------------------------------------------

def _cross(u: Vec3, v: Vec3) -> Vec3:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _nrm(u: Vec3) -> float:
    return math.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2)


def pin2_geometric_test(generators: Sequence[Quaternion],
                        tol: float = 1e-9) -> Optional[Vec3]:
    """Common invariant axis L such that every generator's SO(3) image is a
    rotation about L or a pi-rotation about an axis perpendicular to L.

    Candidate axes: generator rotation axes and their pairwise cross products
    (a Pin(2) image must have its distinguished axis among these unless all
    generators are central). Returns the axis, or None.
    """
    axes = []
    for g in generators:
        ax = su2.axis(g)
        if ax is not None:
            axes.append(ax)
    if not axes:
        return (0.0, 0.0, 1.0)  # all central: any axis works
    candidates = list(axes)
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            c = _cross(axes[i], axes[j])
            n = _nrm(c)
            if n > 1e-9:
                candidates.append((c[0] / n, c[1] / n, c[2] / n))
    for L in candidates:
        if all(_respects_axis(g, L, tol) for g in generators):
            return L
    return None


def _respects_axis(g: Quaternion, L: Vec3, tol: float) -> bool:
    ax = su2.axis(g)
    if ax is None:
        return True
    dot = ax[0] * L[0] + ax[1] * L[1] + ax[2] * L[2]
    if abs(abs(dot) - 1.0) <= tol:
        return True  # rotation about L
    # pi-rotation (trace 0) about an axis perpendicular to L
    return abs(dot) <= tol and abs(2.0 * g[0]) <= math.sqrt(tol)


# ---------------------------------------------------------------------------
# full classification
# ---------------------------------------------------------------------------

def classify_subgroup(generators: Sequence, cap: int = 240,
                      tol: Tolerances = DEFAULT) -> ImageClassification:
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    exact = isinstance(gens[0], ExactQuaternion)
    fg = [g.to_float() if exact else g for g in gens]

    closure = finite_closure(gens, cap, tol)
    if closure.closed:
        axis = pin2_geometric_test(fg)
        if axis is not None:
            spin = _all_same_axis(fg)
            return ImageClassification(in_spin2=spin, in_pin2=True, witness=axis)
        fp = _trace_fingerprint(closure.elements, exact)
        n = len(closure.elements)
        if n == 24 and fp == FINGERPRINT_T:
            return ImageClassification(in_T=True, in_C=True, witness=n)
        if n == 48 and fp == FINGERPRINT_C:
            return ImageClassification(in_C=True, witness=n)
        if n == 120 and fp == FINGERPRINT_D:
            return ImageClassification(in_D=True, witness=n)
        # a finite subgroup of SU(2) outside Pin(2) embeds in T, C or D;
        # match the fingerprint of the closure of the closure elements
        # against subgroup possibilities by order
        if n <= 24 and _embeds(fp, FINGERPRINT_T):
            return ImageClassification(in_T=True, in_C=True, witness=n)
        if n <= 48 and _embeds(fp, FINGERPRINT_C):
            return ImageClassification(in_C=True, witness=n)
        if n <= 120 and _embeds(fp, FINGERPRINT_D):
            return ImageClassification(in_D=True, witness=n)
        # unreachable for genuine SU(2) subgroups
        raise AmbiguousClusteringError(f"finite closure of order {n} matches no fingerprint")
    axis = pin2_geometric_test(fg)
    if axis is not None:
        spin = _all_same_axis(fg)
        return ImageClassification(in_spin2=spin, in_pin2=True, witness=axis)
    return ImageClassification(is_dense=True)


def _embeds(fp: tuple, big: tuple) -> bool:
    """Trace-multiset containment (necessary condition for subgroup)."""
    from collections import Counter
    cs, cb = Counter(fp), Counter(big)
    return all(cb[k] >= v for k, v in cs.items())


def _all_same_axis(fgens: Sequence[Quaternion], tol: float = 1e-9) -> bool:
    axes = [su2.axis(g) for g in fgens]
    axes = [a for a in axes if a is not None]
    if not axes:
        return True
    a0 = axes[0]
    for a in axes[1:]:
        dot = a0[0] * a[0] + a0[1] * a[1] + a0[2] * a[2]
        if abs(abs(dot) - 1.0) > tol:
            return False
    return True


def one_holed_genericity_shortcut(x: float, y: float, z: float,
                                  tol: float = DEFAULT.identity) -> bool:
    """Cheap genericity test for a one-holed torus character: true iff
    k = x^2+y^2+z^2-xyz-2 avoids the special set (and +-2) and the point is
    not on the Pin(2) locus (a coordinate-axis point with k = c^2 - 2)."""
    k = k_of((x, y, z))
    if in_special_set(k, tol) or abs(k - 2.0) <= tol or abs(k + 2.0) <= tol:
        return False
    # Pin(2) locus: two coordinates zero (then k = c^2-2 automatically on E_k)
    zeros = sum(1 for t in (x, y, z) if abs(t) <= tol)
    if zeros >= 2:
        return False
    return True
