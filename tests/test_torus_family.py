"""Two-holed torus chart: residual invariance, twist agreement, steering."""
import math

import numpy as np
import pytest

from su2moduli import su2
from su2moduli.su2 import quat_inv, quat_mul, random_su2, trace
from su2moduli.torus_family import (
    MOVES,
    T2Point,
    T2Rep,
    apply_twist_word_t2,
    coords_of_rep_t2,
    exceptional_report_t2,
    exceptional_report_t3,
    fixed_point_system_w,
    steer_t2,
    t2_residual,
    tau_k,
    tau_k_inv,
    tau_w,
    tau_w_inv,
    tau_wp,
    tau_wp_inv,
)

RNG = np.random.default_rng(2024)
Q = su2.float_arithmetic()


def random_t2rep(rng=RNG) -> T2Rep:
    X, Y, A = random_su2(rng), random_su2(rng), random_su2(rng)
    K = quat_mul(quat_mul(Y, X), quat_mul(quat_inv(Y), quat_inv(X)))
    B = quat_mul(quat_inv(A), K)
    return T2Rep(X=X, Y=Y, A=A, B=B).validate()


def test_characters_have_zero_residual():
    for _ in range(200):
        p = coords_of_rep_t2(random_t2rep())
        assert abs(t2_residual(p)) < 1e-10


def test_coordinate_twists_preserve_residual():
    for _ in range(200):
        p = coords_of_rep_t2(random_t2rep())
        for tau in (tau_k, tau_w, tau_wp):
            assert abs(t2_residual(tau(p))) < 1e-9


def test_coordinate_twist_inverses():
    for _ in range(100):
        p = coords_of_rep_t2(random_t2rep())
        for tau, tau_inv in ((tau_k, tau_k_inv), (tau_w, tau_w_inv),
                             (tau_wp, tau_wp_inv)):
            q = tau_inv(tau(p))
            for f in ("a", "b", "x", "y", "k", "w", "wp"):
                assert getattr(q, f) == pytest.approx(getattr(p, f), abs=1e-12)


def test_matrix_twists_match_coordinate_twists():
    pairs = (("K", tau_k), ("W", tau_w), ("V", tau_wp))
    for _ in range(100):
        rep = random_t2rep()
        p = coords_of_rep_t2(rep)
        for letter, tau in pairs:
            got = coords_of_rep_t2(MOVES[letter](rep, Q))
            want = tau(p)
            for f in ("a", "b", "x", "k", "w", "wp"):
                assert getattr(got, f) == pytest.approx(
                    getattr(want, f), abs=1e-9), f


def test_matrix_twist_inverses():
    for _ in range(50):
        rep = random_t2rep()
        p = coords_of_rep_t2(rep)
        for letter in ("K", "W", "V"):
            q = coords_of_rep_t2(MOVES[letter + "'"](MOVES[letter](rep, Q), Q))
            for f in ("a", "b", "x", "y", "k", "w", "wp"):
                assert getattr(q, f) == pytest.approx(getattr(p, f), abs=1e-10)


def test_twist_word_preserves_relation():
    rep = random_t2rep()
    word = ["K", "W", "X", "Y'", "W'", "K'", "V"]
    out = apply_twist_word_t2(rep, word)
    assert out.relation_residual() < 1e-8


def test_fixed_point_system_w():
    # build a common fixed point: pick a, b, x; then k, w, wp from the
    # consequence equations w = wp = x(a+b)/(k+2) with
    # 2k = ab + x^2 - w^2; solve by iteration
    a, b, x = 0.6, -0.4, 0.9
    k = 0.5 * (a * b + x * x)
    for _ in range(200):
        w = x * (a + b) / (k + 2.0)
        k = 0.5 * (a * b + x * x - w * w)
    p = T2Point(a=a, b=b, x=x, y=0.0, k=k, w=w, wp=w)
    assert fixed_point_system_w(p, tol=1e-9)
    generic = coords_of_rep_t2(random_t2rep())
    assert not fixed_point_system_w(generic)


def test_exceptional_reports_generic_points_clean():
    for _ in range(50):
        p = coords_of_rep_t2(random_t2rep())
        rep2 = exceptional_report_t2(p)
        assert not rep2.flags["fixed_w"]
        coords = (p.b, p.x, p.w, 0.3, -0.8)
        rep3 = exceptional_report_t3(coords)
        assert isinstance(rep3.flags, dict) and "c2" in rep3.flags


def test_exceptional_report_t2_flags_e1():
    p = T2Point(a=0.5, b=0.5, x=1.0, y=0.0,
                k=0.5 * (0.25 + 1.0), w=0.0, wp=0.0)
    assert exceptional_report_t2(p).flags["e1"]


def test_steer_t2_one_seed():
    rng = np.random.default_rng(1000)
    rep = random_t2rep(rng)
    # target drawn from a twisted copy so it is reachable
    word = list(rng.choice(["X", "Y", "K", "W", "V"], size=40))
    tgt = coords_of_rep_t2(apply_twist_word_t2(rep, word))
    twists, out = steer_t2(rep, (tgt.x, tgt.k), eps=0.1, budget=10 ** 7)
    final = coords_of_rep_t2(out)
    assert abs(final.x - tgt.x) < 0.1 and abs(final.k - tgt.k) < 0.1
    # the returned word replays from the start to the returned rep exactly
    assert apply_twist_word_t2(rep, twists) == out


def test_steer_t2_rejects_non_generic_handle():
    rng = np.random.default_rng(5)
    # X, Y both rotations about the z-axis: abelian handle, never dense
    X = su2.from_axis_angle((0.0, 0.0, 1.0), 0.7)
    Y = su2.from_axis_angle((0.0, 0.0, 1.0), 1.1)
    A = random_su2(rng)
    K = quat_mul(quat_mul(Y, X), quat_mul(quat_inv(Y), quat_inv(X)))
    B = quat_mul(quat_inv(A), K)
    with pytest.raises(ValueError):
        steer_t2(T2Rep(X=X, Y=Y, A=A, B=B), (0.5, 0.5), eps=0.1, budget=1000)
