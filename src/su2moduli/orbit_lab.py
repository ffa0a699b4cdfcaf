"""Surface-level experiments.

Pants-decomposition trace coordinates and the per-pants inequalities,
generic-handle search over the standard candidate list, orbit sampling
under twist sets at matrix level, and empirical epsilon-density
measurement in the box metric.
"""
from __future__ import annotations

import bisect
import csv
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import sphere_four, torus_family, torus_one
from .classify import classify_subgroup, one_holed_genericity_shortcut
from .exact import arithmetic_of
from .sphere_four import coords_of_rep4, e_kappa_residual, kappa_of_rep4
from .su2 import (
    Quaternion,
    SurfacePresentation,
    SurfaceRep,
    apply_word,
    evaluate_word,
    from_axis_angle,
    normalize,
    quat_inv,
    quat_mul,
    random_su2,
    run_word,
    trace,
    trace_mul,
    word,
)


# ---------------------------------------------------------------------------
# pants decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PantsDecomposition:
    """Decomposition curves B_1..B_{3g-3+m} as free words, plus the triple
    of curve indices bounding each pants.

    Triple entries < len(curves) index decomposition curves; entries >=
    len(curves) index the boundary-trace vector passed alongside beta to
    check_pants_inequalities (boundary curve j is index len(curves)+j).
    """

    genus: int
    boundary: int
    curves: tuple
    pants: tuple

    def __post_init__(self):
        expect = 3 * self.genus - 3 + self.boundary
        if len(self.curves) != expect:
            raise ValueError(
                f"need 3g-3+m = {expect} decomposition curves, got {len(self.curves)}")
        limit = len(self.curves) + self.boundary
        for triple in self.pants:
            if len(triple) != 3 or not all(0 <= i < limit for i in triple):
                raise ValueError(f"bad pants triple {triple}")


def genus2_pants() -> PantsDecomposition:
    """The standard genus-2 decomposition: a separating curve B1 = [A1, A3]
    and one handle curve per side (B2 = A1, B3 = A2); pants (B2,B2,B1) and
    (B3,B3,B1)."""
    b1 = word((0, 1), (2, 1), (0, -1), (2, -1))
    b2 = word((0, 1))
    b3 = word((1, 1))
    return PantsDecomposition(genus=2, boundary=0, curves=(b1, b2, b3),
                              pants=((1, 1, 0), (2, 2, 0)))


def pants_coords(rep: SurfaceRep, P: PantsDecomposition) -> np.ndarray:
    """beta = (b_1, ..., b_{3g-3+m}), the traces along the decomposition."""
    return np.array([trace(evaluate_word(rep.images, w)) for w in P.curves])


def check_pants_inequalities(beta, P: PantsDecomposition, boundary=(),
                             *, exceptional=frozenset()) -> list:
    """Residuals 4 - (b_i^2 + b_j^2 + b_k^2 - c b_i b_j b_k) per pants,
    c = -1 on exceptional spheres (relation closing to -I), else +1.
    All residuals are >= 0 (up to roundoff) for genuine characters."""
    full = list(beta) + list(boundary)
    if len(full) != len(P.curves) + P.boundary:
        raise ValueError("beta/boundary dimensions do not match the decomposition")
    out = []
    for n, (i, j, k) in enumerate(P.pants):
        bi, bj, bk = full[i], full[j], full[k]
        c = -1.0 if n in exceptional else 1.0
        out.append(4.0 - (bi * bi + bj * bj + bk * bk - c * bi * bj * bk))
    return out


def fibre_rotation_angles(beta) -> np.ndarray:
    """Rotation angle theta_j = arccos(b_j / 2) of the twist on each fibre."""
    b = np.asarray(beta, dtype=float)
    if np.any(np.abs(b) > 2.0 + 1e-12):
        raise ValueError("pants coordinates must lie in [-2, 2]")
    return np.arccos(np.clip(b / 2.0, -1.0, 1.0))


# ---------------------------------------------------------------------------
# generic-handle search
# ---------------------------------------------------------------------------

class HandleSearchFailure(Exception):
    """All handle candidates rejected (non-generic input, or a rep outside
    the candidate list's guarantee)."""


@dataclass
class HandleSearch:
    words: tuple           # (FreeWord, FreeWord) for the accepted handle
    images: tuple          # their quaternion images
    trail: list            # (word pair, rejection label) for each reject


def _verdict_label(v) -> str:
    for name in ("in_spin2", "in_pin2", "in_T", "in_C", "in_D"):
        if getattr(v, name):
            return name[3:]
    return "dense"


def _handle_candidates(pres: SurfacePresentation):
    g, total = pres.genus, pres.num_generators
    for i in range(g):
        yield (word((i, 1)), word((g + i, 1)))
    for i in range(g):
        for j in range(total):
            if j in (i, g + i):
                continue
            yield (word((i, 1)), word((g + i, 1), (j, 1)))
            yield (word((i, 1), (j, 1)), word((g + i, 1)))
            yield (word((i, 1)), word((j, 1), (g + i, 1)))
            yield (word((j, 1), (i, 1)), word((g + i, 1)))
    # twisted escape pair for handles stuck on a binary polyhedral image
    for i in range(g):
        for j in range(total):
            if j in (i, g + i):
                continue
            yield (word((i, 1)), word((g + i, 1), (i, 1), (j, 1)))


def find_generic_handle(rep: SurfaceRep) -> HandleSearch:
    """First handle candidate (pairs of short words in the generators, in
    the standard order) whose image pair generates a dense subgroup.

    Tries the cheap trace-level shortcut before the full subgroup
    classification.  Raises HandleSearchFailure when every candidate is
    rejected, with the rejection trail attached.
    """
    if rep.presentation.genus < 1:
        raise ValueError("handle search needs genus >= 1")
    trail: list = []
    for w1, w2 in _handle_candidates(rep.presentation):
        P = normalize(evaluate_word(rep.images, w1))
        Q = normalize(evaluate_word(rep.images, w2))
        if one_holed_genericity_shortcut(trace(P), trace(Q),
                                         trace_mul(P, Q)):
            return HandleSearch(words=(w1, w2), images=(P, Q), trail=trail)
        verdict = classify_subgroup([P, Q])
        if verdict.is_dense:
            return HandleSearch(words=(w1, w2), images=(P, Q), trail=trail)
        trail.append(((w1, w2), _verdict_label(verdict)))
    err = HandleSearchFailure(
        f"no generic handle among {len(trail)} candidates")
    err.trail = trail
    raise err


# ---------------------------------------------------------------------------
# random genus-2 representations (closed surface, relation [A1,A3][A2,A4]=1)
# ---------------------------------------------------------------------------

def _commutator(a: Quaternion, b: Quaternion) -> Quaternion:
    return quat_mul(quat_mul(a, b), quat_mul(quat_inv(a), quat_inv(b)))


def _perp_basis(n) -> tuple:
    """Two unit vectors orthogonal to the unit vector n."""
    pick = (1.0, 0.0, 0.0) if abs(n[0]) < 0.9 else (0.0, 1.0, 0.0)
    u = np.cross(n, pick)
    u /= np.linalg.norm(u)
    return u, np.cross(n, u)


def _conjugating_rotation(Q: Quaternion, P: Quaternion, rng) -> Quaternion:
    """Unit quaternion R with R Q R^-1 = P, for Q, P with equal scalar part
    (hence equal rotation angle); randomized over the stabilizer circle."""
    qv = np.array(Q[1:])
    pv = np.array(P[1:])
    qn = np.linalg.norm(qv)
    if qn < 1e-12:  # Q ~ +-identity: anything conjugates it to itself
        return random_su2(rng)
    qh, ph = qv / qn, pv / np.linalg.norm(pv)
    n = np.cross(qh, ph)
    s, c = np.linalg.norm(n), float(np.dot(qh, ph))
    if s < 1e-12:
        if c > 0.0:
            base = (1.0, 0.0, 0.0, 0.0)
        else:  # antiparallel: half-turn about any perpendicular axis
            u, _ = _perp_basis(qh)
            base = from_axis_angle(u, math.pi / 2.0)
    else:
        base = from_axis_angle(n, math.atan2(s, c) / 2.0)
    # stabilizer of Q is the circle of rotations about qh
    spin = from_axis_angle(qh, rng.uniform(0.0, math.pi))
    return normalize(quat_mul(base, spin))


def random_genus2_rep(rng, max_tries: int = 1000) -> SurfaceRep:
    """Random closed genus-2 representation: A1, A3 Haar, then (A2, A4)
    solving [A2, A4] = [A1, A3]^-1.

    tr(A2^-1) = tr(A2^-1 T) is necessary and sufficient for a conjugator
    A4 to exist, so A2 is drawn Haar-like subject to that linear condition
    on its vector part and A4 aligns the two rotation axes.
    """
    pres = SurfacePresentation(2, 0)
    for _ in range(max_tries):
        A1, A3 = random_su2(rng), random_su2(rng)
        T = quat_inv(_commutator(A1, A3))
        tv = np.array(T[1:])
        tn = np.linalg.norm(tv)
        if tn < 1e-9:  # commutator ~ +-I: degenerate handle, redraw
            continue
        that = tv / tn
        q0 = random_su2(rng)[0]
        c = q0 * (T[0] - 1.0) / tn
        rem = 1.0 - q0 * q0 - c * c
        if rem <= 1e-12:
            continue
        u, v = _perp_basis(that)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        qv = c * that + math.sqrt(rem) * (math.cos(phi) * u + math.sin(phi) * v)
        Q = (q0, float(qv[0]), float(qv[1]), float(qv[2]))   # A2^-1
        A4 = _conjugating_rotation(Q, quat_mul(Q, T), rng)
        try:
            return SurfaceRep(pres, [A1, quat_inv(Q), A3, A4])
        except ValueError:
            continue
    raise RuntimeError("random_genus2_rep: no admissible draw")


# ---------------------------------------------------------------------------
# charts for orbit sampling
# ---------------------------------------------------------------------------

def _leading_images(n: int):
    """rep -> the first n images of a SurfaceRep or of a tuple of images."""
    def lead(rep):
        images = tuple((rep.images if isinstance(rep, SurfaceRep) else rep)[:n])
        if len(images) < n:
            raise ValueError(f"need {n} generator images, got {len(images)}")
        return images
    return lead


def _t2_state(rep):
    if isinstance(rep, torus_family.T2Rep):
        return rep
    if isinstance(rep, SurfaceRep):
        # relation [A1,A2] A3 A4 = 1 gives A3 A4 = A2 A1 A2^-1 A1^-1 = K
        return torus_family.T2Rep(*rep.images[:4]).validate()
    raise TypeError("t2 chart needs a T2Rep or a (1,2) SurfaceRep")


def _t2_coords(rep, q):
    p = torus_family.coords_of_rep_t2(rep, q)
    return (p.a, p.b, p.x, p.y, p.k, p.w, p.wp)


@dataclass(frozen=True)
class _Chart:
    moves: dict        # letter -> move (state, arithmetic) -> state
    names: tuple
    init: object       # rep -> state, a tuple of quaternions
    coords: object     # (state, arithmetic) -> chart point
    meta: object       # (rep, arithmetic) -> dict of orbit invariants
    residual: object   # (chart point, meta) -> chart-equation residual


_handle = _leading_images(2)
_sphere = _leading_images(4)

_CHARTS = {
    "t1": _Chart(
        moves=torus_one.MOVES,
        names=("x", "y", "z"),
        init=_handle,
        coords=lambda s, q: torus_one.coords_of_matrices(s[0], s[1], q),
        meta=lambda rep, q: {"k": torus_one.k_of(
            torus_one.coords_of_matrices(*_handle(rep), q))},
        residual=lambda p, m: abs(torus_one.k_of(p) - m["k"]),
    ),
    "s4": _Chart(
        moves=sphere_four.MOVES,
        names=("x", "y", "z"),
        # the walk carries (A, B, C); d = tr D enters through kappa only
        init=_leading_images(3),
        coords=coords_of_rep4,
        meta=lambda rep, q: {"kappa": kappa_of_rep4(_sphere(rep), q)},
        residual=lambda p, m: abs(e_kappa_residual(m["kappa"], p)),
    ),
    "t2": _Chart(
        moves=torus_family.MOVES,
        names=("a", "b", "x", "y", "k", "w", "wp"),
        init=_t2_state,
        coords=_t2_coords,
        meta=lambda rep, q: {},
        residual=lambda p, m: abs(torus_family.t2_residual(
            torus_family.T2Point(*p))),
    ),
}


# ---------------------------------------------------------------------------
# orbit samples
# ---------------------------------------------------------------------------

def _compact_word(letters) -> str:
    """Run-length form of a twist word: ["X","X","Y'","X"] -> "X2 Y-1 X1"."""
    out = []
    for base, run in itertools.groupby(letters, key=lambda s: s.rstrip("'")):
        e = sum(-1 if s.endswith("'") else 1 for s in run)
        if e != 0:
            out.append(f"{base}{e}")
    return " ".join(out)


@dataclass
class OrbitSample:
    """Chart coordinates recorded along a twist walk.

    Random walk: shard j records rows from shard_rows[j] on, the start
    point and then the point after each of its letters; `steps` holds the
    shards' letters in shard order.  bfs: points[i] is the chart tuple after
    the word steps[i].
    """

    chart: str
    points: np.ndarray
    steps: list
    strategy: str
    seed: int
    meta: dict = field(default_factory=dict)
    shard_rows: tuple = (0,)

    def __len__(self) -> int:
        return len(self.points)

    def word_for(self, i: int) -> str:
        if self.strategy == "bfs":
            return _compact_word(self.steps[i])
        # shard j has one letter fewer than rows, so its letters start at
        # step shard_rows[j] - j
        j = bisect.bisect_right(self.shard_rows, i) - 1
        return _compact_word(self.steps[self.shard_rows[j] - j:i - j])

    def word_stats(self) -> dict:
        flat = (itertools.chain.from_iterable(self.steps)
                if self.strategy == "bfs" else self.steps)
        counts = Counter(flat)
        return {"letters": counts, "total": sum(counts.values())}

    def to_csv(self, path) -> None:
        """Coordinates plus the generating word per row.  Words are written
        in full, so this is meant for modest samples, not 10^6 walks."""
        names = _CHARTS[self.chart].names
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(list(names) + ["word"])
            for i, p in enumerate(self.points):
                wr.writerow([repr(float(c)) for c in p] + [self.word_for(i)])


def _merge_seed(seed: int, shard: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(shard + 1)[shard])


def orbit_sample(rep, chart: str, twists=None, strategy: str = "random",
                 budget: int = 1000, seed: int = 0, shards: int = 1) -> OrbitSample:
    """Sample an orbit at matrix level: record `budget` chart points, the
    first being the starting character.

    strategy "random": seeded uniform walk over the twist letters;
    "bfs": all words in breadth-first order until the budget is reached.
    Deterministic per (seed, shards); shards split the walk into budget/shards
    independent sub-walks from the same start, merged in shard order.
    Exact (ExactQuaternion) states are walked exactly on every chart: moves,
    chart points and orbit invariants run in the arithmetic of the images.
    An s4 rep gives its four images (A, B, C, D); the walk carries (A, B, C),
    and D enters only through kappa.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not 1 <= shards <= budget:
        raise ValueError("shards must lie between 1 and the budget")
    try:
        ch = _CHARTS[chart]
    except KeyError:
        raise ValueError(f"unknown chart {chart!r}") from None
    letters = tuple(twists if twists is not None else ch.moves)
    for s in letters:
        if s not in ch.moves:
            raise ValueError(f"twist {s!r} invalid for chart {chart!r}")
    start = ch.init(rep)
    q = arithmetic_of(start[0])
    meta = ch.meta(rep, q)

    if strategy == "bfs":
        # every node is renormalized: it is one letter past its parent
        points, words = [ch.coords(start, q)], [()]
        frontier = [((), start)]
        while len(points) < budget:
            nxt = []
            for w, st in frontier:
                for s in letters:
                    if len(points) >= budget:
                        break
                    st2 = apply_word(st, (s,), ch.moves, q)
                    nxt.append((w + (s,), st2))
                    points.append(ch.coords(st2, q))
                    words.append(w + (s,))
            frontier = nxt
        return OrbitSample(chart, np.array(points), words, "bfs", seed, meta)

    if strategy != "random":
        raise ValueError(f"unknown strategy {strategy!r}")

    per = [budget // shards] * shards
    per[0] += budget - sum(per)
    shard_rows = tuple(itertools.accumulate(per[:-1], initial=0))
    walks = [_merge_seed(seed, shard).integers(0, len(letters), size=quota - 1).tolist()
             for shard, quota in enumerate(per)]
    steps = [letters[i] for picks in walks for i in picks]
    if q.key is not None:
        points = _exact_walk_points(start, walks, letters, ch, q)
    else:
        points = np.empty((budget, len(ch.names)))
        p0 = ch.coords(start, q)
        for r0, picks in zip(shard_rows, walks):
            points[r0] = p0
            walk = (letters[i] for i in picks)
            for r, state in enumerate(run_word(start, walk, ch.moves, q), r0 + 1):
                points[r] = ch.coords(state, q)
    return OrbitSample(chart, points, steps, "random", seed, meta, shard_rows)


def _exact_walk_points(start, walks, letters, ch: _Chart, q) -> np.ndarray:
    """Chart points of exact walks from start, one walk of letter indices
    per shard, each row the start and then the state after each letter.

    Exact states revisit themselves on finite orbits, so the distinct states
    are numbered as they appear, with their coordinates computed once, and
    table[sid][i] (filled on first use) is the state after letter i from
    state sid; the walk itself records one state id per row.
    """
    states, coords = [start], [ch.coords(start, q)]
    ids = {tuple(map(q.key, start)): 0}
    table: list = [[None] * len(letters)]
    rows: list = []
    for picks in walks:
        sid = 0
        rows.append(sid)
        for i in picks:
            nxt = table[sid][i]
            if nxt is None:
                state, = run_word(states[sid], (letters[i],), ch.moves, q)
                nxt = ids.setdefault(tuple(map(q.key, state)), len(states))
                if nxt == len(states):
                    states.append(state)
                    coords.append(ch.coords(state, q))
                    table.append([None] * len(letters))
                table[sid][i] = nxt
            sid = nxt
            rows.append(sid)
    return np.array(coords)[rows]


# ---------------------------------------------------------------------------
# density measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    region: tuple
    eps: float
    pitch: tuple
    hit_cells: int
    total_cells: int
    coverage: float
    sample_count: int
    word_stats: dict

    def as_dict(self) -> dict:
        return {
            "region": [list(b) for b in self.region],
            "eps": self.eps,
            "pitch": list(self.pitch),
            "hit_cells": self.hit_cells,
            "total_cells": self.total_cells,
            "coverage": self.coverage,
            "sample_count": self.sample_count,
            "word_stats": self.word_stats,
        }


def _default_surface(sample: OrbitSample):
    """The chart polynomial of the sample's level set, on arrays (..., 3)."""
    if sample.chart == "t1":
        k0 = sample.meta["k"]
        return lambda p: torus_one.k_of(np.moveaxis(p, -1, 0)) - k0
    if sample.chart == "s4":
        kappa = sample.meta["kappa"]
        return lambda p: e_kappa_residual(kappa, np.moveaxis(p, -1, 0))
    return None


def density_report(sample: OrbitSample, region, eps: float,
                   surface="auto") -> DensityReport:
    """Fraction of on-surface grid cells (pitch <= eps) within box-metric
    distance eps of a sample point.

    A cell is on-surface when the defining polynomial changes sign over
    its corners and center; surface=None counts every cell.  A cell counts
    as covered when its center lies within eps of a sample (the
    epsilon-density definition tested at the grid of cell centers), not
    only when it contains a sample: corner-grazing cells carry almost no
    visiting measure but are still epsilon-witnessed from neighbours.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    region = tuple((float(lo), float(hi)) for lo, hi in region)
    if not region or any(hi <= lo for lo, hi in region):
        raise ValueError("empty region")
    pts = np.asarray(sample.points, dtype=float)
    if pts.shape[1] != len(region):
        raise ValueError("region dimension does not match the chart")
    if surface == "auto":
        surface = _default_surface(sample)

    dim = len(region)
    nb = [max(1, math.ceil((hi - lo) / eps)) for lo, hi in region]
    pitch = tuple((hi - lo) / n for (lo, hi), n in zip(region, nb))
    # each sample's eps-box is coded below as one int64, (n+1)^2 values per axis
    if math.prod((n + 1) ** 2 for n in nb) >= 2 ** 63:
        raise ValueError(f"eps {eps} is too fine for this region "
                         f"({math.prod(nb)} cells)")

    if surface is None:
        on = np.ones(nb, dtype=bool)
    else:
        axes = [np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(region, nb)]
        corners = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        fc = surface(corners)
        centers = np.stack(np.meshgrid(
            *[0.5 * (ax[:-1] + ax[1:]) for ax in axes], indexing="ij"), axis=-1)
        vals = [surface(centers)]
        for sl in itertools.product((slice(None, -1), slice(1, None)), repeat=dim):
            vals.append(fc[sl])
        stack = np.stack(vals)
        on = (stack.min(axis=0) <= 0.0) & (stack.max(axis=0) >= 0.0)

    total = int(on.sum())
    if total == 0:
        raise ValueError("no on-surface cells in the region")

    # cells whose center is inside the eps-box around some sample: the cell
    # index ranges ilo..ihi per axis, clipped to the grid, and empty
    # (ilo > ihi) on an axis where the sample lies more than eps outside
    lo = np.array([b[0] for b in region])
    ph = np.array(pitch)
    top = np.array(nb)

    def box(p, d=slice(None)):
        ilo = np.ceil((p - eps - lo[d]) / ph[d] - 0.5).astype(np.int64)
        ihi = np.floor((p + eps - lo[d]) / ph[d] - 0.5).astype(np.int64)
        return np.clip(ilo, 0, top[d]), np.clip(ihi, -1, top[d] - 1)

    # many samples share a box: code each box as one integer, one axis at a
    # time, and mark the cells of one representative per distinct box
    code = np.zeros(len(pts), dtype=np.int64)
    for d, n in enumerate(nb):
        ilo, ihi = box(pts[:, d], d)
        code = code * (n + 1) ** 2 + (ilo * (n + 1) + ihi + 1)
    ilo, ihi = box(pts[np.unique(code, return_index=True)[1]])
    covered = np.zeros(nb, dtype=bool)
    span = (ihi - ilo).max(axis=0)
    for off in itertools.product(*[range(int(s) + 1) for s in span]):
        cand = ilo + np.array(off)
        ok = np.all(cand <= ihi, axis=1)
        covered[tuple(cand[ok].T)] = True
    hit_cells = int((covered & on).sum())

    return DensityReport(region=region, eps=eps, pitch=pitch,
                         hit_cells=hit_cells, total_cells=total,
                         coverage=hit_cells / total,
                         sample_count=len(sample),
                         word_stats=sample.word_stats())
