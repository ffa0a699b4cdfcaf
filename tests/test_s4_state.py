"""The s4 walk state (A, B, C) against the four-image walk it replaces.

A four-holed sphere walk once carried D as well, conjugating it with each
twist.  The reference below keeps those four-image formulas, so these tests
pin that dropping D changes no recorded point and that D = (ABC)^-1 is
what the old rule would have carried.  The exact walks check that the
chart runs in the walk's arithmetic.
"""
import numpy as np
import pytest

from su2moduli import appendix, sphere_four
from su2moduli.exact import EXACT_ARITHMETIC, EXACT_IDENTITY
from su2moduli.orbit_lab import orbit_sample
from su2moduli.su2 import (
    IDENTITY,
    float_arithmetic,
    quat_inv,
    quat_mul,
    random_su2,
    trace_mul,
)
from su2moduli.tolerances import RENORM_EVERY

Q = float_arithmetic()


def _old_x4(s, q, e):
    A, B, C, D = s
    X = q.pivot(q.mul(A, B), e)
    return (A, B, q.conj(X, C), q.conj(X, D))


def _old_y4(s, q, e):
    A, B, C, D = s
    Y = q.pivot(q.mul(B, C), e)
    return (q.conj(Y, A), B, C, q.conj(Y, D))


def _old_z4(s, q, e):
    A, B, C, D = s
    return (A, q.conj(q.pivot(q.mul(C, A), e), B), C,
            q.conj(q.pivot(q.mul(A, C), e), D))


#: the four-image move table, D conjugated along with A, B and C
OLD_MOVES = {
    "X": lambda s, q: _old_x4(s, q, 1), "X'": lambda s, q: _old_x4(s, q, -1),
    "Y": lambda s, q: _old_y4(s, q, 1), "Y'": lambda s, q: _old_y4(s, q, -1),
    "Z": lambda s, q: _old_z4(s, q, 1), "Z'": lambda s, q: _old_z4(s, q, -1),
}


def haar_rep4(rng):
    A, B, C = random_su2(rng), random_su2(rng), random_su2(rng)
    return (A, B, C, quat_inv(quat_mul(quat_mul(A, B), C)))


def reference_points(rep, sample):
    """The sample's walk replayed letter by letter on all four images,
    renormalized after every RENORM_EVERY letters of each shard."""
    rows = []
    bounds = sample.shard_rows + (len(sample),)
    for j, (r0, r1) in enumerate(zip(bounds, bounds[1:])):
        state = rep
        A, B, C, _ = state
        rows.append((trace_mul(A, B), trace_mul(B, C), trace_mul(C, A)))
        for n, letter in enumerate(sample.steps[r0 - j:r1 - j - 1], 1):
            state = OLD_MOVES[letter](state, Q)
            if n % RENORM_EVERY == 0:
                state = tuple(map(Q.unit, state))
            A, B, C, _ = state
            rows.append((trace_mul(A, B), trace_mul(B, C), trace_mul(C, A)))
        # the carried D is still (ABC)^-1 at the end of the shard
        closing = quat_mul(quat_mul(quat_mul(state[0], state[1]), state[2]), state[3])
        assert max(abs(u - v) for u, v in zip(closing, IDENTITY)) < 1e-10
    return np.array(rows)


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_s4_walk_equals_four_image_walk_bit_for_bit(shards):
    rng = np.random.default_rng(808)
    for n in range(3):
        rep = haar_rep4(rng)
        sample = orbit_sample(rep, "s4", budget=5000, seed=n, shards=shards)
        want = reference_points(rep, sample)
        assert want.shape == sample.points.shape
        assert np.array_equal(sample.points.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("letter", list(sphere_four.MOVES))
def test_dropped_fourth_image_is_the_conjugated_one(letter):
    rng = np.random.default_rng(809)
    for _ in range(40):
        rep = haar_rep4(rng)
        A, B, C = sphere_four.MOVES[letter](rep[:3], Q)
        old = OLD_MOVES[letter](rep, Q)
        assert (A, B, C) == old[:3]
        implied = quat_inv(quat_mul(quat_mul(A, B), C))
        assert max(abs(u - v) for u, v in zip(implied, old[3])) < 1e-13


def test_s4_state_is_three_images():
    rep = haar_rep4(np.random.default_rng(810))
    sample = orbit_sample(rep, "s4", budget=3)
    assert sample.meta["kappa"] == sphere_four.kappa_of_rep4(rep)
    for letter, move in sphere_four.MOVES.items():
        assert len(move(rep[:3], Q)) == 3, letter
    with pytest.raises(ValueError, match="need 4 generator images"):
        orbit_sample(rep[:3], "s4", budget=3)


# ---------------------------------------------------------------------------
# exact walks
# ---------------------------------------------------------------------------

def exact_t_reps():
    """Four-holed spheres on the binary tetrahedral handle (A, B), with
    ABCD = I exactly: C = (AB)^-1 and D = I, whose chart point every twist
    fixes (it is (tr C, tr A, tr B)), and C = A, whose orbit moves."""
    A, B = appendix.GENERATORS["T"]
    return {"D=I": (A, B, (A * B).inverse(), EXACT_IDENTITY),
            "C=A": (A, B, A, (A * B * A).inverse())}


@pytest.mark.parametrize("name", ["D=I", "C=A"])
def test_exact_s4_coordinates_and_kappa_match_float(name):
    rep = exact_t_reps()[name]
    flt = tuple(g.to_float() for g in rep)
    assert sphere_four.kappa_of_rep4(rep, EXACT_ARITHMETIC) == sphere_four.kappa_of_rep4(flt)
    assert (sphere_four.coords_of_rep4(rep[:3], EXACT_ARITHMETIC)
            == sphere_four.coords_of_rep4(flt[:3]))


@pytest.mark.parametrize("name", ["D=I", "C=A"])
def test_exact_t_handle_s4_walk_stays_on_its_trace_set(name):
    rep = exact_t_reps()[name]
    exact = orbit_sample(rep, "s4", budget=400, seed=2)
    flt = orbit_sample(tuple(g.to_float() for g in rep), "s4", budget=400, seed=2)
    assert exact.steps == flt.steps
    values = np.array([0.0, 1.0, -1.0, 2.0, -2.0])
    gaps = np.abs(exact.points[..., None] - values).min(axis=-1)
    assert gaps.max() < 1e-12
    assert np.abs(exact.points[:20] - flt.points[:20]).max() < 1e-12
    moved = len(np.unique(exact.points, axis=0)) > 1
    assert moved == (name == "C=A")
