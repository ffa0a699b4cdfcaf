"""Four-holed sphere chart: E_kappa, twists, ellipses, filtration, delta."""
import math

import numpy as np
import pytest

from su2moduli import su2
from su2moduli.sphere_four import (
    MOVES,
    Kappa4,
    coords_of_rep4,
    delta_inband,
    e_kappa_residual,
    filtration_member,
    kappa_of_rep4,
    n_of_eps,
    tau_x4,
    tau_x4_inv,
    tau_y4,
    tau_y4_inv,
    tau_z4,
    tau_z4_inv,
    trace_interval,
    x_fibre,
    x_level_ellipse,
    y_level_extent_x,
)
from su2moduli.su2 import quat_inv, quat_mul, random_su2

RNG = np.random.default_rng(77)


def random_rep4():
    A, B, C = random_su2(RNG), random_su2(RNG), random_su2(RNG)
    D = quat_inv(quat_mul(quat_mul(A, B), C))
    return (A, B, C, D)


def test_trace_interval_diagonal():
    # I_{x,x} = [x^2 - 2, 2]
    for x in (-1.7, -0.4, 0.0, 1.2, 2.0):
        lo, hi = trace_interval(x, x)
        assert lo == pytest.approx(x * x - 2.0, abs=1e-12)
        assert hi == 2.0


def test_on_surface_points_have_zero_residual():
    for _ in range(200):
        rep = random_rep4()
        kappa = kappa_of_rep4(rep)
        assert abs(e_kappa_residual(kappa, coords_of_rep4(rep[:3]))) < 1e-12


def test_coordinate_twists_preserve_residual():
    for _ in range(300):
        rep = random_rep4()
        kappa = kappa_of_rep4(rep)
        p = coords_of_rep4(rep[:3])
        for tau in (tau_x4, tau_y4, tau_z4):
            assert abs(e_kappa_residual(kappa, tau(kappa, p))) < 1e-10


def test_coordinate_twists_match_matrix_twists():
    q = su2.float_arithmetic()
    for _ in range(200):
        rep = random_rep4()
        kappa, s = kappa_of_rep4(rep), rep[:3]
        p = coords_of_rep4(s)
        for tau, letter in ((tau_x4, "X"), (tau_y4, "Y"), (tau_z4, "Z")):
            got = coords_of_rep4(MOVES[letter](s, q))
            want = tau(kappa, p)
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10


def test_twist_inverses_round_trip():
    for _ in range(100):
        rep = random_rep4()
        kappa = kappa_of_rep4(rep)
        p = coords_of_rep4(rep[:3])
        for tau, tau_inv in ((tau_x4, tau_x4_inv), (tau_y4, tau_y4_inv),
                             (tau_z4, tau_z4_inv)):
            q = tau_inv(kappa, tau(kappa, p))
            assert max(abs(a - b) for a, b in zip(p, q)) < 1e-12


def test_center_formula_two_zero_boundaries():
    # kappa = (a, b, 0, 0): every x-fibre is centered at the origin
    for a, b in ((0.7, -0.3), (1.5, 1.5), (-1.0, 0.2)):
        kappa = Kappa4(a, b, 0.0, 0.0)
        for x in (-1.0, -0.25, 0.6, 1.4):
            e = x_level_ellipse(kappa, x)
            assert abs(e.center[0]) < 1e-14 and abs(e.center[1]) < 1e-14


def test_level_ellipse_consistency():
    # points parametrized on the fibre satisfy the surface equation
    kappa = Kappa4(0.5, -1.0, -0.2, 1.2)
    e = x_level_ellipse(kappa, 0.3)
    assert e.angle == pytest.approx(2.0 * math.acos(0.15))
    for t in np.linspace(0.0, 2.0 * math.pi, 17):
        y, z = e.parametrize(float(t))
        assert abs(e_kappa_residual(kappa, (0.3, y, z))) < 1e-10


def test_filtration_sets():
    sqrt2 = math.sqrt(2.0)
    # Y_2 = {0}; Y_3 = {0, +-1}; Y_4 = {0, +-1, +-sqrt2}
    assert filtration_member(0.0, 2)
    for t in (1.0, -1.0, sqrt2, 0.5):
        assert not filtration_member(t, 2)
    for t in (0.0, 1.0, -1.0):
        assert filtration_member(t, 3)
    for t in (sqrt2, -sqrt2, 0.7):
        assert not filtration_member(t, 3)
    for t in (0.0, 1.0, -1.0, sqrt2, -sqrt2):
        assert filtration_member(t, 4)
    golden = 2.0 * math.cos(math.pi / 5.0)
    assert filtration_member(golden, 5)
    assert not filtration_member(golden, 4)


def test_n_of_eps():
    assert n_of_eps(0.1) == math.ceil(2.0 * 16.0 / 0.1) + 1
    assert n_of_eps(1.0) < n_of_eps(0.01)


def test_delta_inband():
    d = delta_inband(0.5, -0.3, 0.05)
    assert 0.0 < d <= 0.05


def test_y_level_extent_contains_surface_points():
    # the box extent must contain the x-coordinate of on-surface points
    kappa = Kappa4(0.5, -1.0, -0.2, 1.2)
    e = x_level_ellipse(kappa, 0.3)
    y, z = e.parametrize(1.0)
    lo, hi = y_level_extent_x(kappa, y)
    assert lo - 1e-9 <= 0.3 <= hi + 1e-9


def _fibre_extents(rhs, yc, zc, half):
    """Box extents from x_fibre's output, as LevelEllipse4.extents reads them."""
    if rhs <= 1e-15:
        return ((yc, yc), (zc, zc))
    return ((yc - half, yc + half), (zc - half, zc + half))


def test_x_fibre_float_and_array_forms_agree():
    """x_fibre on a float and on an array gives x_level_ellipse's and
    y_level_extent_x's extents bit for bit, degenerate fibres and x within
    1e-9 of +-2 included."""
    degenerate = 0
    for a, b, c, d in ((0.5, -1.0, -0.2, 1.2),
                       (2.0, 1.0, 0.5, 0.3),   # rhs has the factor (x - 1)^2
                       (1.9999, 1.9999, 0.0, 0.0),
                       (0.0, 0.0, 0.0, 0.0)):
        kappa = Kappa4(a, b, c, d)
        ends = trace_interval(a, b) + trace_interval(c, d)
        xs = [x for x in (*ends, 1.0, -1.0, 0.0, 2.0 - 1e-9, -2.0 + 1e-9,
                          2.0 - 5e-10, -2.0 + 5e-10,
                          *(float(t) for t in np.linspace(-1.99, 1.99, 41)))
              if abs(4.0 - x * x) >= 1e-14]
        arr = x_fibre(a, b, c, d, np.array(xs))
        for i, x in enumerate(xs):
            one = x_fibre(a, b, c, d, x)
            want = x_level_ellipse(kappa, x).extents()
            assert _fibre_extents(*one) == want
            assert _fibre_extents(*(v[i] for v in arr)) == want
            degenerate += one[0] <= 1e-15
        # the fibre y = const is the x-fibre of the cycled kappa (b, c, a, d)
        arr = x_fibre(b, c, a, d, np.array(xs))
        for i, y in enumerate(xs):
            want = y_level_extent_x(kappa, y)
            assert _fibre_extents(*x_fibre(b, c, a, d, y))[1] == want
            assert _fibre_extents(*(v[i] for v in arr))[1] == want
    assert degenerate >= 3
