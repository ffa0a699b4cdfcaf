"""Unit-quaternion SU(2) arithmetic, twist-word walks, free words, surface
presentations.

Convention: q = (w, x, y, z) corresponds to the 2x2 matrix

    [[w + x*i,  y + z*i],
     [-y + z*i, w - x*i]]

so the appendix-style matrices transcribe literally and trace(q) = 2w.
The Hamilton product realizes matrix multiplication under this map.

Quaternions are plain 4-tuples of floats: profiling showed tuples beat
numpy arrays by ~5x for the 4-dimensional products that dominate twist
application, and immutability comes for free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .tolerances import DEFAULT, RENORM_EVERY, Tolerances

Quaternion = tuple[float, float, float, float]

IDENTITY: Quaternion = (1.0, 0.0, 0.0, 0.0)


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_inv(a: Quaternion) -> Quaternion:
    """Inverse of a unit quaternion (= conjugate)."""
    return (a[0], -a[1], -a[2], -a[3])


def norm(a: Quaternion) -> float:
    return math.sqrt(a[0] ** 2 + a[1] ** 2 + a[2] ** 2 + a[3] ** 2)


def normalize(a: Quaternion) -> Quaternion:
    n = norm(a)
    return (a[0] / n, a[1] / n, a[2] / n, a[3] / n)


def trace(a: Quaternion) -> float:
    return 2.0 * a[0]


def trace_mul(a: Quaternion, b: Quaternion) -> float:
    """trace(quat_mul(a, b)), bit for bit, without the vector part."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return 2.0 * (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2)


def to_matrix(a: Quaternion) -> np.ndarray:
    w, x, y, z = a
    return np.array([[w + x * 1j, y + z * 1j], [-y + z * 1j, w - x * 1j]])


def from_matrix(m: np.ndarray) -> Quaternion:
    return (m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag)


def axis(a: Quaternion) -> tuple[float, float, float] | None:
    """Rotation axis of the SO(3) image, or None for +-identity."""
    v = math.sqrt(a[1] ** 2 + a[2] ** 2 + a[3] ** 2)
    if v < 1e-12:
        return None
    return (a[1] / v, a[2] / v, a[3] / v)


def from_axis_angle(n: Sequence[float], theta: float) -> Quaternion:
    """Rotation by angle 2*theta about axis n (i.e. trace = 2 cos theta)."""
    nn = math.sqrt(n[0] ** 2 + n[1] ** 2 + n[2] ** 2)
    s = math.sin(theta) / nn
    return (math.cos(theta), s * n[0], s * n[1], s * n[2])


def random_su2(rng) -> Quaternion:
    """Haar-uniform SU(2) element with Python float components (walks on
    numpy scalars run slower).  `rng` is a numpy Generator or an int seed."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    v = rng.normal(size=4)
    n = float(np.linalg.norm(v))
    while n < 1e-12:  # pragma: no cover - probability zero
        v = rng.normal(size=4)
        n = float(np.linalg.norm(v))
    w, x, y, z = v.tolist()
    return (w / n, x / n, y / n, z / n)


# ---------------------------------------------------------------------------
# twist-word walks
# ---------------------------------------------------------------------------

class Arithmetic(NamedTuple):
    """The quaternion operations of one walk, chosen once per walk.

    `unit` renormalizes (the identity on exact quaternions), `trace` returns
    a float, `trace_mul(g, h)` returns the float trace of g h without
    forming the product, and `key` maps an exact quaternion to a hashable
    key for memoized walks; it is None for floats, whose walks are not
    memoized.
    """

    mul: Callable
    inv: Callable
    unit: Callable
    trace: Callable
    trace_mul: Callable
    key: Optional[Callable]

    def conj(self, g, h):
        """g h g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))

    def pivot(self, g, e: int):
        """g normalized, and inverted when e < 0.  Conjugators are
        normalized because `inv` assumes unit norm; otherwise rounding
        drift compounds geometrically along long walks."""
        g = self.unit(g)
        return g if e > 0 else self.inv(g)


def float_arithmetic() -> Arithmetic:
    """Float arithmetic, built from this module's functions at call time,
    so that wrappers installed on them (as by a tracer) are called."""
    return Arithmetic(quat_mul, quat_inv, normalize, trace, trace_mul, None)


def run_word(state: tuple, word, moves: dict, q: Arithmetic, start: int = 0):
    """Yield the state after each letter of a twist word.

    `moves` maps a letter to a move (state, q) -> state on a tuple of
    quaternions.  Every quaternion of the state is renormalized after letter
    n when n % RENORM_EVERY == 0, counting the `start` letters applied
    before, so a word walked in pieces gives the states of the whole word.
    """
    for n, letter in enumerate(word, start + 1):
        try:
            move = moves[letter]
        except KeyError:
            raise ValueError(f"unknown twist letter {letter}") from None
        state = move(state, q)
        if n % RENORM_EVERY == 0:
            state = tuple(map(q.unit, state))
        yield state


def apply_word(state: tuple, word, moves: dict, q: Arithmetic) -> tuple:
    """The state after a whole twist word (run_word), renormalized."""
    for state in run_word(state, word, moves, q):
        pass
    return tuple(map(q.unit, state))


# ---------------------------------------------------------------------------
# free words and surface presentations
# ---------------------------------------------------------------------------

# A free word is a sequence of (generator_index, exponent) with exponent +-1.
FreeWord = tuple[tuple[int, int], ...]


def word(*letters: tuple[int, int]) -> FreeWord:
    return tuple(letters)


def word_inverse(w: FreeWord) -> FreeWord:
    return tuple((i, -e) for i, e in reversed(w))


@dataclass(frozen=True)
class SurfacePresentation:
    """Surface group of genus g with n boundary components.

    Generators A_1..A_{2g+n}; the relation word is
    (prod_{i=1}^{g} [A_i, A_{g+i}]) * (prod of the n boundary generators).
    """

    genus: int
    boundary: int

    def __post_init__(self):
        if self.genus < 0 or self.boundary < 0:
            raise ValueError("genus and boundary count must be nonnegative")

    @property
    def num_generators(self) -> int:
        return 2 * self.genus + self.boundary

    def relation_word(self) -> FreeWord:
        w: list[tuple[int, int]] = []
        g = self.genus
        for i in range(g):
            w += [(i, 1), (g + i, 1), (i, -1), (g + i, -1)]
        for j in range(2 * g, 2 * g + self.boundary):
            w.append((j, 1))
        return tuple(w)


@dataclass
class SurfaceRep:
    """Generator images for a surface presentation.

    The relation word must evaluate to +-identity within the relation
    tolerance: characters only see SU(2)/{+-1}, and the boundary product of a
    relative representation may close up to sign.
    """

    presentation: SurfacePresentation
    images: list[Quaternion]
    tol: Tolerances = field(default=DEFAULT, repr=False)

    def __post_init__(self):
        if len(self.images) != self.presentation.num_generators:
            raise ValueError("wrong number of generator images")
        for i, g in enumerate(self.images, start=1):
            n = norm(g)
            if abs(n - 1.0) > self.tol.norm:
                raise ValueError(f"generator {i} is not a unit quaternion: "
                                 f"norm {n:.12g}")
        r = self.relation_residual()
        if r > self.tol.relation:
            raise ValueError(f"surface relation violated: residual {r:.3g}")

    def relation_residual(self) -> float:
        v = evaluate_word(self.images, self.presentation.relation_word())
        return min(
            max(abs(v[0] - 1), abs(v[1]), abs(v[2]), abs(v[3])),
            max(abs(v[0] + 1), abs(v[1]), abs(v[2]), abs(v[3])),
        )


def evaluate_word(images: Sequence[Quaternion], w: FreeWord) -> Quaternion:
    """Product of generator images along a free word (inverse = conjugate)."""
    out = IDENTITY
    for idx, exp in w:
        if not 0 <= idx < len(images):
            raise IndexError(f"generator index {idx} out of range")
        g = images[idx]
        out = quat_mul(out, g if exp > 0 else quat_inv(g))
    return out
