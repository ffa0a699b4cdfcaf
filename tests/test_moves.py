"""The letter -> move tables of the t1, s4 and t2 charts, letter by letter.

Each matrix-level move is checked against its coordinate map (the tau_*
functions are the reference), each letter followed by its inverse must
return the start, and on the finite handles the exact t1 moves must agree
with the float ones.
"""
import numpy as np
import pytest

from su2moduli import appendix, sphere_four, torus_family, torus_one
from su2moduli.exact import EXACT_ARITHMETIC
from su2moduli.su2 import float_arithmetic, quat_inv, quat_mul, random_su2, trace

Q = float_arithmetic()
N_REPS = 40


def inverse(letter: str) -> str:
    return letter[:-1] if letter.endswith("'") else letter + "'"


def gap(a, b) -> float:
    return max(abs(u - v) for g, h in zip(a, b) for u, v in zip(g, h))


def t1_reps(seed):
    rng = np.random.default_rng(seed)
    return [(random_su2(rng), random_su2(rng)) for _ in range(N_REPS)]


def s4_reps(seed):
    """(A, B, C, D) with ABCD = I; a walk state is the leading (A, B, C)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(N_REPS):
        A, B, C = random_su2(rng), random_su2(rng), random_su2(rng)
        out.append((A, B, C, quat_inv(quat_mul(quat_mul(A, B), C))))
    return out


def t2_reps(seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(N_REPS):
        X, Y, A = random_su2(rng), random_su2(rng), random_su2(rng)
        K = quat_mul(quat_mul(Y, X), quat_mul(quat_inv(Y), quat_inv(X)))
        out.append(torus_family.T2Rep(X, Y, A, quat_mul(quat_inv(A), K)))
    return out


T1_TAU = {"X": torus_one.tau_x, "X'": torus_one.tau_x_inv,
          "Y": torus_one.tau_y, "Y'": torus_one.tau_y_inv}
S4_TAU = {"X": sphere_four.tau_x4, "X'": sphere_four.tau_x4_inv,
          "Y": sphere_four.tau_y4, "Y'": sphere_four.tau_y4_inv,
          "Z": sphere_four.tau_z4, "Z'": sphere_four.tau_z4_inv}
T2_TAU = {"K": torus_family.tau_k, "K'": torus_family.tau_k_inv,
          "W": torus_family.tau_w, "W'": torus_family.tau_w_inv,
          "V": torus_family.tau_wp, "V'": torus_family.tau_wp_inv}


def test_tables_cover_their_alphabets():
    assert tuple(torus_one.MOVES) == tuple(T1_TAU)
    assert tuple(sphere_four.MOVES) == tuple(S4_TAU)
    assert torus_family.TWIST_LETTERS_T2 == tuple(T1_TAU) + tuple(T2_TAU)


# -- t1 ------------------------------------------------------------------------

@pytest.mark.parametrize("letter", list(torus_one.MOVES))
def test_t1_move_matches_coordinate_map(letter):
    for s in t1_reps(1):
        got = torus_one.coords_of_matrices(*torus_one.MOVES[letter](s, Q))
        want = T1_TAU[letter](torus_one.coords_of_matrices(*s))
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


@pytest.mark.parametrize("letter", list(torus_one.MOVES))
def test_t1_move_then_inverse_is_identity(letter):
    moves = torus_one.MOVES
    for s in t1_reps(2):
        assert gap(moves[inverse(letter)](moves[letter](s, Q), Q), s) < 1e-14


@pytest.mark.parametrize("letter", list(torus_one.MOVES))
@pytest.mark.parametrize("handle", ["T", "C", "D1"])
def test_t1_exact_move_matches_float_move(handle, letter):
    start = tuple(appendix.GENERATORS[handle])
    exact, flt = start, tuple(g.to_float() for g in start)
    moves = torus_one.MOVES
    for _ in range(4):  # a few steps, so products of products are covered
        exact = moves[letter](exact, EXACT_ARITHMETIC)
        flt = moves[letter](flt, Q)
        assert gap([g.to_float() for g in exact], flt) < 1e-12
    once = moves[letter](start, EXACT_ARITHMETIC)
    assert moves[inverse(letter)](once, EXACT_ARITHMETIC) == start


# -- s4 ------------------------------------------------------------------------

@pytest.mark.parametrize("letter", list(sphere_four.MOVES))
def test_s4_move_matches_coordinate_map(letter):
    for rep in s4_reps(3):
        kappa, s = sphere_four.kappa_of_rep4(rep), rep[:3]
        got = sphere_four.coords_of_rep4(sphere_four.MOVES[letter](s, Q))
        want = S4_TAU[letter](kappa, sphere_four.coords_of_rep4(s))
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10


@pytest.mark.parametrize("letter", list(sphere_four.MOVES))
def test_s4_move_then_inverse_is_identity(letter):
    moves = sphere_four.MOVES
    for rep in s4_reps(4):
        s = rep[:3]
        assert gap(moves[inverse(letter)](moves[letter](s, Q), Q), s) < 1e-13


# -- t2 ------------------------------------------------------------------------

@pytest.mark.parametrize("letter", list(torus_family.MOVES))
def test_t2_move_matches_coordinate_map(letter):
    for s in t2_reps(5):
        p = torus_family.coords_of_rep_t2(s)
        moved = torus_family.MOVES[letter](s, Q)
        got = torus_family.coords_of_rep_t2(moved)
        if letter in T2_TAU:
            want = T2_TAU[letter](p)
            for f in ("a", "b", "x", "k", "w", "wp"):
                assert abs(getattr(got, f) - getattr(want, f)) < 1e-10, f
            continue
        # handle letters act on (x, y, tr XY) as the one-holed torus twists
        # and fix k, a and b
        X, Y = s[:2]
        want = T1_TAU[letter]((p.x, p.y, trace(quat_mul(X, Y))))
        got_t1 = (got.x, got.y, trace(quat_mul(moved[0], moved[1])))
        assert max(abs(a - b) for a, b in zip(got_t1, want)) < 1e-12
        for f in ("k", "a", "b"):
            assert abs(getattr(got, f) - getattr(p, f)) < 1e-12, f


@pytest.mark.parametrize("letter", list(torus_family.MOVES))
def test_t2_move_then_inverse_is_identity(letter):
    moves = torus_family.MOVES
    for s in t2_reps(6):
        assert gap(moves[inverse(letter)](moves[letter](s, Q), Q), s) < 1e-13
