"""Quaternion/SU(2) core: products, traces, words, surface reps."""
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su2moduli import su2
from su2moduli.su2 import (
    IDENTITY,
    SurfacePresentation,
    SurfaceRep,
    evaluate_word,
    from_axis_angle,
    from_matrix,
    norm,
    normalize,
    quat_inv,
    quat_mul,
    random_su2,
    to_matrix,
    trace,
    word,
    word_inverse,
)

RNG = np.random.default_rng(20260826)


def rand_q():
    return random_su2(RNG)


def test_identity_is_neutral():
    q = rand_q()
    assert quat_mul(IDENTITY, q) == q
    assert quat_mul(q, IDENTITY) == q


def test_quat_mul_matches_matrix_product():
    # oracle: the 2x2 complex embedding is an algebra homomorphism
    for _ in range(200):
        a, b = rand_q(), rand_q()
        lhs = to_matrix(quat_mul(a, b))
        rhs = to_matrix(a) @ to_matrix(b)
        assert np.abs(lhs - rhs).max() < 1e-14


def test_matrix_round_trip():
    for _ in range(50):
        q = rand_q()
        assert max(abs(u - v) for u, v in zip(from_matrix(to_matrix(q)), q)) < 1e-15


def test_trace_is_matrix_trace():
    q = rand_q()
    assert abs(trace(q) - np.trace(to_matrix(q)).real) < 1e-14
    assert abs(np.trace(to_matrix(q)).imag) < 1e-14


def test_inverse_and_conjugation():
    for _ in range(50):
        g, h = rand_q(), rand_q()
        assert norm(quat_mul(g, quat_inv(g))) == pytest.approx(1.0, abs=1e-12)
        assert max(abs(c) for c in quat_mul(g, quat_inv(g))[1:]) < 1e-15
        # conjugation preserves trace
        conj = su2.float_arithmetic().conj(g, h)
        assert trace(conj) == pytest.approx(trace(h), abs=1e-12)


def test_trace_product_identity():
    # tr(AB) + tr(AB^-1) = tr(A) tr(B), the basic SU(2) trace relation
    for _ in range(100):
        a, b = rand_q(), rand_q()
        lhs = trace(quat_mul(a, b)) + trace(quat_mul(a, quat_inv(b)))
        assert lhs == pytest.approx(trace(a) * trace(b), abs=1e-12)


def test_from_axis_angle_trace():
    q = from_axis_angle((0.0, 0.0, 1.0), 0.4)
    assert trace(q) == pytest.approx(2.0 * math.cos(0.4), abs=1e-15)
    assert norm(q) == pytest.approx(1.0, abs=1e-15)


def test_random_su2_unit_norm():
    for _ in range(100):
        assert norm(rand_q()) == pytest.approx(1.0, abs=1e-12)


def test_random_su2_components_are_python_floats():
    for seed in (RNG, 3, np.int64(4)):
        assert all(type(c) is float for c in random_su2(seed))


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_presentation_generator_count(g, n):
    if g == 0 and n == 0:
        pres = SurfacePresentation(0, 0)
        assert pres.num_generators == 0
        return
    pres = SurfacePresentation(g, n)
    assert pres.num_generators == 2 * g + n
    assert len(pres.relation_word()) == 4 * g + n


def test_word_inverse_round_trip():
    w = word((0, 1), (1, -1), (0, 1))
    images = [rand_q(), rand_q()]
    v = quat_mul(evaluate_word(images, w), evaluate_word(images, word_inverse(w)))
    assert norm((v[0] - 1, v[1], v[2], v[3])) < 1e-14


def test_surface_rep_relation_enforced():
    pres = SurfacePresentation(1, 1)
    A1, A2 = rand_q(), rand_q()
    comm = quat_mul(quat_mul(A1, A2), quat_mul(quat_inv(A1), quat_inv(A2)))
    rep = SurfaceRep(pres, [A1, A2, quat_inv(comm)])
    assert rep.relation_residual() < 1e-12
    with pytest.raises(ValueError):
        SurfaceRep(pres, [A1, A2, rand_q()])


def test_surface_rep_rejects_non_unit_generators():
    # the relation closes (residual 0), but no image lies in SU(2)
    pres = SurfacePresentation(1, 1)
    images = [(2.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.25, 0.0, 0.0, 0.0)]
    with pytest.raises(ValueError, match="generator 1 .*norm 2"):
        SurfaceRep(pres, images)
    unit = normalize((1.0, 2.0, 3.0, 4.0))
    scaled = tuple(c * (1.0 + 1e-9) for c in unit)
    with pytest.raises(ValueError, match="generator 2 "):
        SurfaceRep(SurfacePresentation(0, 2), [unit, scaled])


def test_surface_rep_allows_minus_identity_closure():
    pres = SurfacePresentation(1, 1)
    A1, A2 = rand_q(), rand_q()
    comm = quat_mul(quat_mul(A1, A2), quat_mul(quat_inv(A1), quat_inv(A2)))
    A3 = tuple(-c for c in quat_inv(comm))
    assert SurfaceRep(pres, [A1, A2, A3]).relation_residual() < 1e-12


def test_evaluate_relation_word_is_identity():
    pres = SurfacePresentation(2, 0)
    from su2moduli.orbit_lab import random_genus2_rep
    rep = random_genus2_rep(np.random.default_rng(1))
    v = evaluate_word(rep.images, pres.relation_word())
    assert min(abs(v[0] - 1.0), abs(v[0] + 1.0)) < 1e-9


def test_normalize():
    q = tuple(3.0 * c for c in rand_q())
    assert norm(normalize(q)) == pytest.approx(1.0, abs=1e-15)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
QUATS = st.tuples(FINITE, FINITE, FINITE, FINITE)


@given(QUATS, QUATS)
@settings(max_examples=300, deadline=None)
def test_trace_mul_is_trace_of_product_bit_for_bit(a, b):
    # overflow may give inf or nan; both sides must give the same bits
    assert struct.pack("<d", su2.trace_mul(a, b)) == \
        struct.pack("<d", trace(quat_mul(a, b)))
    assert su2.float_arithmetic().trace_mul is su2.trace_mul
