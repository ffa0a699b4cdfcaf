"""Pants decompositions, handle search, orbit sampling, density reports."""
import csv
import math

import numpy as np
import pytest

from su2moduli import su2
from su2moduli.orbit_lab import (
    HandleSearchFailure,
    OrbitSample,
    PantsDecomposition,
    _compact_word,
    check_pants_inequalities,
    density_report,
    fibre_rotation_angles,
    find_generic_handle,
    genus2_pants,
    orbit_sample,
    pants_coords,
    random_genus2_rep,
)
from su2moduli.su2 import (
    IDENTITY,
    SurfacePresentation,
    SurfaceRep,
    from_axis_angle,
    quat_inv,
    quat_mul,
    random_su2,
    word,
)

RNG = np.random.default_rng(11)


# ---------------------------------------------------------------------------
# pants decompositions
# ---------------------------------------------------------------------------

def test_genus2_pants_shape():
    P = genus2_pants()
    assert P.genus == 2 and P.boundary == 0
    assert len(P.curves) == 3 and len(P.pants) == 2


def test_pants_decomposition_validates():
    with pytest.raises(ValueError):
        PantsDecomposition(genus=2, boundary=0, curves=(word((0, 1)),),
                           pants=())
    with pytest.raises(ValueError):
        PantsDecomposition(genus=2, boundary=0,
                           curves=(word((0, 1)),) * 3,
                           pants=((0, 1, 99),))


def test_pants_residual_extremes():
    P = genus2_pants()
    # all traces 2 (identity images): 4 - (4+4+4-8) = 0
    assert check_pants_inequalities([2.0, 2.0, 2.0], P) == [0.0, 0.0]
    # all traces 0: residual 4 on each pants
    assert check_pants_inequalities([0.0, 0.0, 0.0], P) == [4.0, 4.0]


def test_pants_exceptional_sign():
    P = genus2_pants()
    normal = check_pants_inequalities([1.0, 1.0, 1.0], P)
    excep = check_pants_inequalities([1.0, 1.0, 1.0], P,
                                     exceptional=frozenset({0}))
    assert normal[0] == pytest.approx(4.0 - 2.0)   # c = +1
    assert excep[0] == pytest.approx(4.0 - 4.0)    # c = -1
    assert excep[1] == normal[1]


def test_fibre_rotation_angles():
    ang = fibre_rotation_angles([2.0, -2.0, 0.0, 1.0])
    assert ang == pytest.approx([0.0, math.pi, math.pi / 2.0, math.pi / 3.0])
    with pytest.raises(ValueError):
        fibre_rotation_angles([2.5])


def test_random_genus2_reps_satisfy_pants_inequalities():
    P = genus2_pants()
    rng = np.random.default_rng(42)
    for _ in range(50):
        rep = random_genus2_rep(rng)
        beta = pants_coords(rep, P)
        assert all(r >= -1e-8 for r in check_pants_inequalities(beta, P))


# ---------------------------------------------------------------------------
# handle search
# ---------------------------------------------------------------------------

def test_find_generic_handle_on_random_rep():
    rng = np.random.default_rng(7)
    rep = random_genus2_rep(rng)
    hs = find_generic_handle(rep)
    # a Haar-random rep is generic on its first handle already
    assert hs.words == (word((0, 1)), word((2, 1)))
    assert hs.trail == []


def test_find_generic_handle_escapes_abelian_handle():
    # genus 1 with 2 boundary components: A1, A2 commuting z-rotations,
    # A3 oblique, A4 = A3^-1 closes the relation [A1,A2] A3 A4 = 1
    pres = SurfacePresentation(genus=1, boundary=2)
    A1 = from_axis_angle((0.0, 0.0, 1.0), 0.8)
    A2 = from_axis_angle((0.0, 0.0, 1.0), 0.3)
    A3 = from_axis_angle((1.0, 1.0, 0.5), 0.9)
    A4 = quat_inv(A3)
    rep = SurfaceRep(pres, (A1, A2, A3, A4))
    hs = find_generic_handle(rep)
    assert len(hs.trail) >= 1          # the bare handle (A1, A2) is rejected
    assert len(hs.words[0]) + len(hs.words[1]) >= 3


def test_find_generic_handle_fails_on_abelian_rep():
    pres = SurfacePresentation(genus=2, boundary=0)
    A = from_axis_angle((0.0, 0.0, 1.0), 0.4)
    B = from_axis_angle((0.0, 0.0, 1.0), 1.3)
    rep = SurfaceRep(pres, (A, B, A, B))
    with pytest.raises(HandleSearchFailure):
        find_generic_handle(rep)


# ---------------------------------------------------------------------------
# orbit sampling
# ---------------------------------------------------------------------------

def t1_rep(rng):
    return (random_su2(rng), random_su2(rng))


def test_orbit_budget_one_is_start_point():
    s = orbit_sample(t1_rep(np.random.default_rng(0)), "t1", budget=1)
    assert len(s) == 1 and s.steps == []


def test_orbit_t1_preserves_k():
    rng = np.random.default_rng(3)
    s = orbit_sample(t1_rep(rng), "t1", budget=10 ** 4, seed=5)
    from su2moduli.torus_one import k_of
    ks = [k_of(tuple(p)) for p in s.points]
    assert max(abs(k - s.meta["k"]) for k in ks) < 1e-8


def test_orbit_t2_chart_residual():
    from su2moduli.torus_family import t2_residual, T2Point, T2Rep

    rng = np.random.default_rng(9)
    X, Y, A = random_su2(rng), random_su2(rng), random_su2(rng)
    K = quat_mul(quat_mul(Y, X), quat_mul(quat_inv(Y), quat_inv(X)))
    B = quat_mul(quat_inv(A), K)
    s = orbit_sample(T2Rep(X=X, Y=Y, A=A, B=B), "t2", budget=500, seed=1)
    worst = max(abs(t2_residual(T2Point(*p))) for p in s.points)
    assert worst < 1e-6


def test_orbit_t2_exact_walk_matches_float_walk():
    from su2moduli.appendix import GENERATORS
    from su2moduli.torus_family import T2Rep

    X, Y = GENERATORS["T"]
    K = (Y * X) * (Y.inverse() * X.inverse())
    exact = T2Rep(X=X, Y=Y, A=X, B=X.inverse() * K)
    flt = T2Rep(*(g.to_float() for g in exact))
    se = orbit_sample(exact, "t2", budget=300, seed=4)
    sf = orbit_sample(flt, "t2", budget=300, seed=4)
    # every image lies in the binary tetrahedral group
    values = np.array([0.0, 1.0, -1.0, 2.0, -2.0])
    assert np.abs(se.points[..., None] - values).min(axis=-1).max() < 1e-12
    assert np.abs(se.points[:20] - sf.points[:20]).max() < 1e-12


def test_orbit_determinism_and_seed_sensitivity():
    rep = t1_rep(np.random.default_rng(4))
    a = orbit_sample(rep, "t1", budget=300, seed=12)
    b = orbit_sample(rep, "t1", budget=300, seed=12)
    c = orbit_sample(rep, "t1", budget=300, seed=13)
    assert np.array_equal(a.points, b.points) and a.steps == b.steps
    assert not np.array_equal(a.points, c.points)


def test_orbit_rejects_bad_input():
    rep = t1_rep(np.random.default_rng(4))
    with pytest.raises(ValueError):
        orbit_sample(rep, "t1", budget=0)
    with pytest.raises(ValueError):
        orbit_sample(rep, "nope", budget=10)
    with pytest.raises(ValueError):
        orbit_sample(rep, "t1", twists=["Z"], budget=10)
    for shards in (0, 4):
        with pytest.raises(ValueError):
            orbit_sample(rep, "t1", budget=3, shards=shards)


def test_bfs_strategy_enumerates_words():
    rep = t1_rep(np.random.default_rng(4))
    s = orbit_sample(rep, "t1", strategy="bfs", budget=9)
    assert s.steps[0] == ()
    assert [len(w) for w in s.steps[1:5]] == [1, 1, 1, 1]
    assert len(s) == 9


def test_compact_word():
    assert _compact_word(["X", "X", "Y'", "X"]) == "X2 Y-1 X1"
    assert _compact_word(["X", "X'"]) == ""
    assert _compact_word([]) == ""


def _letters(compact: str) -> list:
    """Expand a run-length word such as "X2 Y-1" into its letters."""
    out = []
    for tok in compact.split():
        base, e = tok[0], int(tok[1:])
        out += [base if e > 0 else base + "'"] * abs(e)
    return out


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_sharded_rows_replay_their_words(shards, tmp_path):
    from su2moduli.torus_one import apply_twist_word_coords, coords_of_matrices

    X, Y = t1_rep(np.random.default_rng(21))
    s = orbit_sample((X, Y), "t1", budget=20, seed=1, shards=shards)
    s.to_csv(tmp_path / "orbit.csv")
    words = [row[-1] for row in csv.reader(open(tmp_path / "orbit.csv"))][1:]
    start = coords_of_matrices(X, Y)
    for i, p in enumerate(s.points):
        assert words[i] == s.word_for(i)
        replay = apply_twist_word_coords(start, _letters(words[i]))
        assert max(abs(a - b) for a, b in zip(replay, p)) < 1e-9, i


def test_to_csv(tmp_path):
    rep = t1_rep(np.random.default_rng(4))
    s = orbit_sample(rep, "t1", budget=5, seed=2)
    path = tmp_path / "orbit.csv"
    s.to_csv(path)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["x", "y", "z", "word"]
    assert len(rows) == 6
    assert float(rows[1][0]) == pytest.approx(s.points[0][0])


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_full_grid_with_surface_none():
    # a sample filling the cube: every cell center is within eps
    pts = np.stack(np.meshgrid(*[np.linspace(-1, 1, 21)] * 3,
                               indexing="ij"), axis=-1).reshape(-1, 3)
    s = OrbitSample(chart="t1", points=pts, steps=[], strategy="random",
                    seed=0, meta={"k": 0.0})
    r = density_report(s, [(-1, 1)] * 3, eps=0.2, surface=None)
    assert r.coverage == 1.0
    assert r.total_cells == r.hit_cells


def test_density_single_point_low_coverage():
    s = OrbitSample(chart="t1", points=np.array([[0.0, 0.0, 0.0]]),
                    steps=[], strategy="random", seed=0, meta={"k": 0.0})
    r = density_report(s, [(-2, 2)] * 3, eps=0.25, surface=None)
    assert 0.0 < r.coverage < 0.05


def test_density_monotone_in_eps_cover():
    rng = np.random.default_rng(8)
    s = orbit_sample(t1_rep(rng), "t1", budget=2000, seed=0)
    r1 = density_report(s, [(-2, 2)] * 3, eps=0.4)
    r2 = density_report(s, [(-2, 2)] * 3, eps=0.8)
    assert r2.coverage >= r1.coverage - 0.05


def test_density_validates_input():
    s = OrbitSample(chart="t1", points=np.array([[0.0, 0.0, 0.0]]),
                    steps=[], strategy="random", seed=0, meta={"k": 0.0})
    with pytest.raises(ValueError):
        density_report(s, [(-1, 1)] * 3, eps=0.0, surface=None)
    with pytest.raises(ValueError):
        density_report(s, [(1, -1)] * 3, eps=0.1, surface=None)
    with pytest.raises(ValueError):
        density_report(s, [(-1, 1)] * 2, eps=0.1, surface=None)


def test_density_report_as_dict_round_trips_json():
    import json

    s = OrbitSample(chart="t1", points=np.zeros((1, 3)),
                    steps=[], strategy="random", seed=0, meta={"k": 0.0})
    r = density_report(s, [(-1, 1)] * 3, eps=0.5, surface=None)
    assert json.loads(json.dumps(r.as_dict()))["total_cells"] == r.total_cells


def _sample(pts) -> OrbitSample:
    return OrbitSample(chart="t1", points=np.asarray(pts, dtype=float),
                       steps=[], strategy="random", seed=0, meta={"k": 0.0})


def _hit_cells_reference(pts, region, eps) -> int:
    """Cells (all of them: surface=None) whose center lies within eps of
    some point in the box metric, point by point and cell by cell."""
    nb = [max(1, math.ceil((hi - lo) / eps)) for lo, hi in region]
    centers = np.stack(np.meshgrid(*[
        lo + (np.arange(n) + 0.5) * ((hi - lo) / n)
        for (lo, hi), n in zip(region, nb)], indexing="ij"), axis=-1)
    covered = np.zeros(nb, dtype=bool)
    for p in pts:
        covered |= np.all(np.abs(centers - p) <= eps, axis=-1)
    return int(covered.sum())


@pytest.mark.parametrize("seed", range(4))
def test_density_matches_brute_force_reference(seed):
    # eps 0.3 does not divide [-2, 2]; some points lie outside the region,
    # some more than eps outside.  Random points avoid eps-ties, where the
    # rounding of non-dyadic values may decide either way.
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.6, 2.6, size=(300, 3))
    pts[:100] = pts[100:200] + rng.uniform(-1e-3, 1e-3, size=(100, 3))
    pts[:20] = pts[200:220]             # repeated boxes
    region = [(-2.0, 2.0)] * 3
    r = density_report(_sample(pts), region, eps=0.3, surface=None)
    assert r.hit_cells == _hit_cells_reference(pts, region, 0.3)


def test_density_eps_ties_match_brute_force_reference():
    # eps 0.25 on [-2, 2]: cell centers -1.875 + 0.25 i, and points on the
    # dyadic grid of step 1/8 sit exactly eps from centers
    rng = np.random.default_rng(7)
    pts = rng.integers(-20, 21, size=(200, 3)) / 8.0
    region = [(-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.5)]
    for eps in (0.25, 0.125, 0.5):
        r = density_report(_sample(pts), region, eps=eps, surface=None)
        assert r.hit_cells == _hit_cells_reference(pts, region, eps), eps


def test_density_point_beyond_upper_edge_marks_nothing():
    # more than eps outside on either side: no cell is within eps
    region = [(-1.0, 1.0)] * 3
    for p in ((1.9, 1.9, 1.9), (-1.9, -1.9, -1.9), (0.0, 1.2, 0.0)):
        r = density_report(_sample([p]), region, eps=0.1, surface=None)
        assert (r.hit_cells, r.total_cells) == (0, 8000), p
    r = density_report(_sample([(0.0, 1.05, 0.0)]), region, eps=0.1,
                       surface=None)
    assert r.hit_cells == _hit_cells_reference([(0.0, 1.05, 0.0)], region, 0.1) > 0


def test_density_rejects_a_grid_too_fine_to_code():
    with pytest.raises(ValueError, match="too fine"):
        density_report(OrbitSample(chart="t2", points=np.zeros((1, 7)),
                                   steps=[], strategy="random", seed=0),
                       [(-2.0, 2.0)] * 7, eps=0.01, surface=None)


def test_word_stats_is_a_counter_in_first_seen_order():
    from collections import Counter

    s = orbit_sample(t1_rep(np.random.default_rng(4)), "t1", budget=50, seed=3)
    stats = s.word_stats()
    assert isinstance(stats["letters"], Counter)
    first_seen = list(dict.fromkeys(s.steps))
    assert list(stats["letters"]) == first_seen
    assert stats["total"] == 49 == sum(stats["letters"].values())


def _exact_walk_reference(start, letters, budget, seed, shards):
    """orbit_sample's exact random walk, one exact step per letter."""
    from su2moduli.exact import EXACT_ARITHMETIC as q
    from su2moduli.orbit_lab import _merge_seed
    from su2moduli.torus_one import MOVES, coords_of_matrices

    per = [budget // shards] * shards
    per[0] += budget - sum(per)
    points, steps = [], []
    for shard, quota in enumerate(per):
        picks = _merge_seed(seed, shard).integers(0, len(letters), size=quota - 1)
        state = start
        points.append(coords_of_matrices(*state, q))
        for i in picks:
            state = MOVES[letters[i]](state, q)
            points.append(coords_of_matrices(*state, q))
            steps.append(letters[i])
    return np.array(points), steps


@pytest.mark.parametrize("handle", ["T", "D1"])
@pytest.mark.parametrize("shards", [1, 2, 3])
def test_exact_walk_matches_step_by_step_reference(handle, shards):
    from su2moduli.appendix import GENERATORS

    start = tuple(GENERATORS[handle])
    for twists in (None, ("Y", "X'")):
        s = orbit_sample(start, "t1", twists=twists, budget=301, seed=5,
                         shards=shards)
        letters = twists or ("X", "X'", "Y", "Y'")
        ref, steps = _exact_walk_reference(start, letters, 301, 5, shards)
        assert np.array_equal(s.points, ref)
        assert s.steps == steps
