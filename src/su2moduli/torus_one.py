"""One-holed torus character variety.

Coordinates (x, y, z) = (tr X, tr Y, tr XY); boundary invariant
k = tr(XYX^-1Y^-1) = x^2 + y^2 + z^2 - xyz - 2.

Twist coordinate maps: tau_X(x,y,z) = (x, z, xz-y), tau_Y(x,y,z) = (z, y, yz-x).
Matrix-level convention (pins the coordinate maps in the forward direction):
tau_X: (X, Y) -> (X, YX); tau_Y: (X, Y) -> (XY, Y), the table MOVES.

On a nondegenerate fibre x = const of E_k, tau_X acts as a rigid rotation by
arccos(x/2) in the coordinates (u, v) = (sqrt((2-x)/R)(y+z), sqrt((2+x)/R)(y-z))
with R = 2 + k - x^2: the fibre equation y^2 + z^2 - xyz = R diagonalizes as
(2-x)/4 (y+z)^2 + (2+x)/4 (y-z)^2 = R.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import su2
from .exact import arithmetic_of
from .su2 import Quaternion
from .tolerances import DEFAULT

T1Point = tuple[float, float, float]

#: special boundary-trace values 𝒮 = {0, 1, (1±√5)/2} where the genericity
#: shortcut does not apply
SPECIAL_SET = (0.0, 1.0, (1.0 + math.sqrt(5.0)) / 2.0, (1.0 - math.sqrt(5.0)) / 2.0)


def k_of(p: T1Point) -> float:
    x, y, z = p
    return x * x + y * y + z * z - x * y * z - 2.0


def tau_x(p: T1Point) -> T1Point:
    x, y, z = p
    return (x, z, x * z - y)


def tau_x_inv(p: T1Point) -> T1Point:
    x, y, z = p
    return (x, x * y - z, y)


def tau_y(p: T1Point) -> T1Point:
    x, y, z = p
    return (z, y, y * z - x)


def tau_y_inv(p: T1Point) -> T1Point:
    x, y, z = p
    return (x * y - z, y, x)


#: matrix-level twists of a handle (X, Y) in the walk's arithmetic q
MOVES = {
    "X": lambda s, q: (s[0], q.mul(s[1], s[0])),
    "X'": lambda s, q: (s[0], q.mul(s[1], q.inv(s[0]))),
    "Y": lambda s, q: (q.mul(s[0], s[1]), s[1]),
    "Y'": lambda s, q: (q.mul(s[0], q.inv(s[1])), s[1]),
}


def coords_of_matrices(X: Quaternion, Y: Quaternion,
                       q: su2.Arithmetic | None = None) -> T1Point:
    """(tr X, tr Y, tr XY) as floats; q is the arithmetic of X and Y
    (float when omitted)."""
    q = q or su2.float_arithmetic()
    return (q.trace(X), q.trace(Y), q.trace_mul(X, Y))


def in_special_set(k: float, tol: float = DEFAULT.identity) -> bool:
    return any(abs(k - s) <= tol for s in SPECIAL_SET)


@dataclass(frozen=True)
class LevelEllipse:
    """Fibre x = const of E_k in the (y, z) plane.

    coeff_plus (y+z)^2 + coeff_minus (y-z)^2 = radius_sq, center (0,0);
    the twist tau_X rotates it rigidly by `angle`.
    """

    fixed_name: str
    fixed_value: float
    coeff_plus: float   # (2-x)/4, multiplies (y+z)^2
    coeff_minus: float  # (2+x)/4, multiplies (y-z)^2
    radius_sq: float    # 2 + k - x^2
    center: tuple[float, float]
    angle: float        # arccos(x/2)
    degenerate: bool

    def extent_y(self) -> float:
        """Half-extent of y over the ellipse (box-metric bound)."""
        if self.degenerate:
            return 0.0
        # y = (u+v)/2 with u,v on the axis-aligned ellipse; maximize
        return 0.5 * math.sqrt(self.radius_sq / self.coeff_plus) \
            + 0.5 * math.sqrt(self.radius_sq / self.coeff_minus) if self.radius_sq > 0 else 0.0


def level_ellipse_x(k: float, x: float) -> LevelEllipse:
    if not -2.0 < x < 2.0:
        raise ValueError("x must lie in (-2, 2)")
    r2 = 2.0 + k - x * x
    return LevelEllipse(
        fixed_name="x",
        fixed_value=x,
        coeff_plus=(2.0 - x) / 4.0,
        coeff_minus=(2.0 + x) / 4.0,
        radius_sq=r2,
        center=(0.0, 0.0),
        angle=math.acos(x / 2.0),
        degenerate=r2 <= 0.0,
    )


def pin2_locus_points(k: float) -> list[T1Point]:
    """The six coordinate-axis points of E_k fixed by the Pin(2) analysis."""
    if not -2.0 < k < 2.0:
        raise ValueError("k must lie in (-2, 2)")
    c = math.sqrt(k + 2.0)
    return [
        (c, 0.0, 0.0), (-c, 0.0, 0.0),
        (0.0, c, 0.0), (0.0, -c, 0.0),
        (0.0, 0.0, c), (0.0, 0.0, -c),
    ]


# ---------------------------------------------------------------------------
# steering
# ---------------------------------------------------------------------------

_COORD_MOVES = {
    "X": tau_x, "X'": tau_x_inv, "Y": tau_y, "Y'": tau_y_inv,
}


def _coord_walk(p: T1Point, word, n: int = 0):
    """Coordinate points after each letter (the walk of steer_t1; the
    coordinate maps need no renormalization, so n is unused)."""
    for w in word:
        p = _COORD_MOVES[w](p)
        yield p


def apply_twist_word_coords(p: T1Point, word: list[str]) -> T1Point:
    for p in _coord_walk(p, word):
        pass
    return p


def apply_twist_word_matrices(X, Y, word: list[str]):
    """(X, Y) after a twist word, in float or exact arithmetic."""
    return su2.apply_word((X, Y), word, MOVES, arithmetic_of(X))


class SteerFailure(Exception):
    """Raised when a steering search exhausts its budget."""

    def __init__(self, msg: str, budget: int):
        super().__init__(msg)
        self.budget = budget


def greedy_search(state, letters, objective, goal: float, budget: int, walk,
                  *, cycle_cap: int, stall_limit: int, kicks: tuple):
    """Greedy best-of-cycle search until objective(state) < goal.

    Takes the letters in turn; each walks up to `cycle_cap` steps of one
    rotation cycle, and the best prefix is kept when it lowers the
    objective by more than 1e-12.  After `stall_limit` cycles in a row
    without gain the deterministic `kicks` are applied.  `walk(state, word,
    n)` yields the state after each letter of `word` when this search has
    found n letters before it.  Returns (word, state, twists spent); raises
    SteerFailure when the budget of twist applications runs out.
    """
    word: list[str] = []
    spent = stall = li = 0
    val = objective(state)
    while val >= goal:
        if spent >= budget:
            raise SteerFailure("steering budget exhausted", budget)
        steps = min(cycle_cap, budget - spent)
        letter = letters[li % len(letters)]
        best_n, best_val, best = 0, val, state
        cycle = walk(state, itertools.repeat(letter, steps), len(word))
        for n, s in enumerate(cycle, start=1):
            v = objective(s)
            if v < best_val - 1e-15:
                best_n, best_val, best = n, v, s
        spent += steps
        if best_val < val - 1e-12:
            word += [letter] * best_n
            state, val = best, best_val
            stall = 0
        else:
            stall += 1
        li += 1
        if stall >= stall_limit:
            # deterministic kick off the stalled fibre; callers restrict
            # the kick alphabet to letters that fix already-settled coords
            for state in walk(state, kicks, len(word)):
                pass
            word += kicks
            spent += len(kicks)
            val = objective(state)
            stall = 0
    return word, state, spent


def steer_t1(p: T1Point, target: tuple[float, float], eps: float, budget: int,
             *, cycle_cap: int = 600) -> tuple[list[str], T1Point]:
    """Greedy alternating rotation search on E_k.

    Uses tau_Y cycles (the handle rotation moving x) and tau_X cycles (moving
    y) to bring |x - x0| < eps and |y - y0| < eps, preserving k by
    construction. Returns (twist word, final point); raises SteerFailure if
    the budget of twist applications is exhausted first.

    Either target component may be None to steer that coordinate freely.
    """
    x0, y0 = target

    def obj(q: T1Point) -> float:
        dx = abs(q[0] - x0) if x0 is not None else 0.0
        dy = abs(q[1] - y0) if y0 is not None else 0.0
        return max(dx, dy)

    moves = ("Y", "X", "Y'", "X'")
    word, final, _ = greedy_search(p, moves, obj, eps, budget, _coord_walk,
                                   cycle_cap=cycle_cap, stall_limit=len(moves),
                                   kicks=("Y", "X"))
    return word, final
