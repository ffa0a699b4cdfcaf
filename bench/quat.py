"""The benchmark's own quaternion and trace-coordinate arithmetic.

Written apart from ``su2moduli`` so that the correctness checks do not reuse
the code they check.  Quaternions are (w, x, y, z) tuples with the same
matrix convention as the package ([[w+xi, y+zi], [-y+zi, w-xi]]), so the
Hamilton product is matrix multiplication and tr(q) = 2w.
"""
from __future__ import annotations

import math

import numpy as np


def mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def inv(a):
    return (a[0], -a[1], -a[2], -a[3])


def unit(a):
    n = math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3])
    return (a[0] / n, a[1] / n, a[2] / n, a[3] / n)


def conj(g, h):
    """g h g^-1."""
    return mul(mul(g, h), inv(g))


def tr(a) -> float:
    return 2.0 * a[0]


def haar(rng):
    """Haar-uniform unit quaternion from a numpy Generator."""
    v = rng.standard_normal(4)
    return unit(tuple(float(c) for c in v))


def commutator_inverse(x, y):
    """Y X Y^-1 X^-1, the boundary element closing [X, Y] * C = 1."""
    return mul(mul(y, x), mul(inv(y), inv(x)))


# ---------------------------------------------------------------------------
# one-holed torus: (x, y, z) = (tr X, tr Y, tr XY)
# ---------------------------------------------------------------------------

def t1_coords(X, Y):
    return (tr(X), tr(Y), tr(mul(X, Y)))


def t1_k(p) -> float:
    x, y, z = p
    return x * x + y * y + z * z - x * y * z - 2.0


# letter -> coordinate action of the matrix move
# X: Y -> YX,  X': Y -> YX^-1,  Y: X -> XY,  Y': X -> XY^-1
# (from tr(UV^-1) = tr U tr V - tr UV)
T1_COORD_MOVES = {
    "X": lambda x, y, z: (x, z, x * z - y),
    "X'": lambda x, y, z: (x, x * y - z, y),
    "Y": lambda x, y, z: (z, y, y * z - x),
    "Y'": lambda x, y, z: (x * y - z, y, x),
}


# ---------------------------------------------------------------------------
# four-holed sphere: (A, B, C, D), ABCD = 1, (x, y, z) = (tr AB, tr BC, tr CA)
# ---------------------------------------------------------------------------

def s4_coords(rep):
    A, B, C, _ = rep
    return (tr(mul(A, B)), tr(mul(B, C)), tr(mul(C, A)))


def s4_kappa(rep):
    return tuple(tr(g) for g in rep)


def e_kappa(kappa, p) -> float:
    a, b, c, d = kappa
    x, y, z = p
    return (x * x + y * y + z * z + x * y * z
            - (a * b + c * d) * x - (a * d + b * c) * y - (a * c + b * d) * z
            + a * a + b * b + c * c + d * d + a * b * c * d - 4.0)


def s4_coord_move(letter, kappa, p):
    """Coordinate action of the sphere twists (each fixes its own axis and
    is a two-step affine map on the other two coordinates)."""
    a, b, c, d = kappa
    x, y, z = p
    sx, sy, sz = a * b + c * d, a * d + b * c, a * c + b * d
    if letter == "X":
        z2 = sz - x * y - z
        return (x, sy - x * z2 - y, z2)
    if letter == "X'":
        y2 = sy - x * z - y
        return (x, y2, sz - x * y2 - z)
    if letter == "Y":
        x2 = sx - y * z - x
        return (x2, y, sz - y * x2 - z)
    if letter == "Y'":
        z2 = sz - y * x - z
        return (sx - y * z2 - x, y, z2)
    if letter == "Z":
        y2 = sy - z * x - y
        return (sx - z * y2 - x, y2, z)
    if letter == "Z'":
        x2 = sx - z * y - x
        return (x2, sy - z * x2 - y, z)
    raise ValueError(letter)


def s4_matrix_move(letter, rep):
    """Matrix-level sphere twists (conjugators renormalised)."""
    A, B, C, D = rep
    if letter in ("X", "X'"):
        g = unit(mul(A, B))
        g = g if letter == "X" else inv(g)
        return (A, B, conj(g, C), conj(g, D))
    if letter in ("Y", "Y'"):
        g = unit(mul(B, C))
        g = g if letter == "Y" else inv(g)
        return (conj(g, A), B, C, conj(g, D))
    if letter in ("Z", "Z'"):
        g, h = unit(mul(C, A)), unit(mul(A, C))
        if letter == "Z'":
            g, h = inv(g), inv(h)
        return (A, conj(g, B), C, conj(h, D))
    raise ValueError(letter)


# ---------------------------------------------------------------------------
# two-holed torus: (X, Y, A, B), AB = YXY^-1X^-1; x = tr X, k = tr AB
# ---------------------------------------------------------------------------

def t2_matrix_move(letter, rep):
    X, Y, A, B = rep
    if letter == "X":
        return (X, mul(Y, X), A, B)
    if letter == "Y":
        return (mul(X, Y), Y, A, B)
    if letter == "K":
        K = unit(mul(A, B))
        return (X, Y, conj(K, A), conj(K, B))
    if letter == "W":
        XA, AX = unit(mul(X, A)), unit(mul(A, X))
        return (X, mul(inv(AX), Y), A, conj(inv(XA), B))
    if letter == "V":
        BX = unit(mul(B, X))
        return (X, mul(inv(BX), Y), conj(inv(BX), A), B)
    raise ValueError(letter)


def t2_apply(rep, word, renorm_every: int = 8):
    for n, letter in enumerate(word, start=1):
        rep = t2_matrix_move(letter, rep)
        if n % renorm_every == 0:
            rep = tuple(unit(g) for g in rep)
    return tuple(unit(g) for g in rep)


def t2_xk(rep):
    X, _, A, B = rep
    return tr(X), tr(mul(A, B))


def t2_relation_residual(rep) -> float:
    X, Y, A, B = rep
    K, AB = commutator_inverse(X, Y), mul(A, B)
    return min(max(abs(AB[i] - K[i]) for i in range(4)),
               max(abs(AB[i] + K[i]) for i in range(4)))


# ---------------------------------------------------------------------------
# vectorised helpers (input generation)
# ---------------------------------------------------------------------------

def haar_array(rng, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def mul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw], axis=1)


def inv_array(a: np.ndarray) -> np.ndarray:
    return a * np.array([1.0, -1.0, -1.0, -1.0])
