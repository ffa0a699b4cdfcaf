"""One-holed torus chart: k, twists, level ellipses, steering."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su2moduli import su2, torus_one
from su2moduli.torus_one import (
    MOVES,
    SPECIAL_SET,
    SteerFailure,
    apply_twist_word_coords,
    apply_twist_word_matrices,
    coords_of_matrices,
    in_special_set,
    k_of,
    level_ellipse_x,
    pin2_locus_points,
    steer_t1,
    tau_x,
    tau_x_inv,
    tau_y,
    tau_y_inv,
)

RNG = np.random.default_rng(31)

coord = st.floats(-2.0, 2.0, allow_nan=False)


def test_k_values():
    assert k_of((0.0, 0.0, 0.0)) == -2.0        # the origin character
    assert k_of((2.0, 2.0, 2.0)) == 2.0         # E_2 is a singular sphere
    assert k_of((1.0, 1.0, 1.0)) == 0.0         # the T character


@given(coord, coord, coord)
@settings(max_examples=200, deadline=None)
def test_tau_preserves_k(x, y, z):
    p = (x, y, z)
    k = k_of(p)
    assert k_of(tau_x(p)) == pytest.approx(k, abs=1e-10)
    assert k_of(tau_y(p)) == pytest.approx(k, abs=1e-10)


@given(coord, coord, coord)
@settings(max_examples=200, deadline=None)
def test_tau_inverses(x, y, z):
    p = (x, y, z)
    for f, g in [(tau_x, tau_x_inv), (tau_y, tau_y_inv)]:
        q = g(f(p))
        assert max(abs(a - b) for a, b in zip(p, q)) < 1e-9


def test_coordinate_maps_match_matrix_twists():
    q = su2.float_arithmetic()
    for _ in range(300):
        X, Y = su2.random_su2(RNG), su2.random_su2(RNG)
        p = coords_of_matrices(X, Y)
        px = coords_of_matrices(*MOVES["X"]((X, Y), q))
        py = coords_of_matrices(*MOVES["Y"]((X, Y), q))
        assert max(abs(a - b) for a, b in zip(px, tau_x(p))) < 1e-12
        assert max(abs(a - b) for a, b in zip(py, tau_y(p))) < 1e-12


def test_twist_word_coords_vs_matrices():
    # agreement degrades exponentially (positive-entropy dynamics amplify
    # rounding), so the honest window is a couple hundred letters
    X, Y = su2.random_su2(RNG), su2.random_su2(RNG)
    word = list(np.random.default_rng(0).choice(["X", "Y", "X'", "Y'"], size=200))
    X2, Y2 = apply_twist_word_matrices(X, Y, word)
    p2 = apply_twist_word_coords(coords_of_matrices(X, Y), word)
    assert max(abs(a - b) for a, b in zip(coords_of_matrices(X2, Y2), p2)) < 1e-8


def test_special_set():
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert set(round(s, 12) for s in SPECIAL_SET) == \
        {0.0, 1.0, round(golden, 12), round(1.0 - golden, 12)}
    for s in SPECIAL_SET:
        assert in_special_set(s)
    assert not in_special_set(0.37)


def test_pin2_locus_six_points():
    for k in np.linspace(-1.9, 1.9, 20):
        pts = pin2_locus_points(float(k))
        assert len(pts) == 6
        for p in pts:
            assert k_of(p) == pytest.approx(k, abs=1e-12)
            assert sum(1 for c in p if c == 0.0) == 2
    with pytest.raises(ValueError):
        pin2_locus_points(2.0)


def test_level_ellipse_rotation():
    # tau_X acts on the fibre x = const as a rigid rotation by arccos(x/2)
    k, x = -1.125, 0.5
    e = level_ellipse_x(k, x)
    assert e.angle == pytest.approx(math.acos(x / 2.0))
    assert e.radius_sq == pytest.approx(2.0 + k - x * x)
    # quadratic form value is twist-invariant on the fibre
    y, z = 0.3, 0.41421
    q = e.coeff_plus * (y + z) ** 2 + e.coeff_minus * (y - z) ** 2
    _, y2, z2 = tau_x((x, y, z))
    q2 = e.coeff_plus * (y2 + z2) ** 2 + e.coeff_minus * (y2 - z2) ** 2
    assert q2 == pytest.approx(q, abs=1e-12)


def test_steer_t1_reaches_targets():
    rng = np.random.default_rng(4)
    X, Y = su2.random_su2(rng), su2.random_su2(rng)
    p = coords_of_matrices(X, Y)
    word, final = steer_t1(p, (0.25, -0.4), 0.05, 10 ** 6)
    assert abs(final[0] - 0.25) < 0.05 and abs(final[1] + 0.4) < 0.05
    # the word reproduces the final point from the start
    replayed = apply_twist_word_coords(p, word)
    assert max(abs(a - b) for a, b in zip(replayed, final)) < 1e-9


def test_steer_t1_budget_failure():
    with pytest.raises(SteerFailure):
        steer_t1((0.9, 1.2, 0.3), (-1.5, 1.5), 0.01, 10)
