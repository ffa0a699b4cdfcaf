"""Four-holed sphere relative character variety E_kappa.

Boundary traces kappa = (a, b, c, d) with ABCD = I; coordinates
x = tr(AB), y = tr(BC), z = tr(CA). Defining equation:

    x^2+y^2+z^2+xyz = (ab+cd)x + (ad+bc)y + (ac+bd)z
                      - (a^2+b^2+c^2+d^2+abcd-4).

Fibres x = const are ellipses in (y, z); in the completed-square variables
u = y+z, v = y-z they read

    (2+x)/4 (u - u0)^2 + (2-x)/4 (v - v0)^2 = RHS(x),
    u0 = (a+b)(c+d)/(2+x),  v0 = (a-b)(d-c)/(2-x),
    RHS = (x^2-abx+a^2+b^2-4)(x^2-cdx+c^2+d^2-4)/(4-x^2).

(The printed display's v-offset denominator and the printed center formula
disagree with this by a typo'd denominator and a factor 2 respectively; the
forms above vanish identically on matrix-generated characters.)

The twist tau_X rotates each fibre rigidly by 2*arccos(x/2); matrix-level
conventions are in the move table MOVES below.

The twists fix the boundary, so a walk carries the state (A, B, C) only:
D = (ABC)^-1 is determined by the relation, no twist of A, B or C reads
it, and its class enters only through d = tr D in kappa, which is read
once from the four input images (kappa_of_rep4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import su2
from .su2 import Quaternion

#: crude box-metric bound on the circumference of any fibre ellipse in [-2,2]^3
L_MAX = 16.0


@dataclass(frozen=True)
class Kappa4:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for t in (self.a, self.b, self.c, self.d):
            if not -2.0 <= t <= 2.0:
                raise ValueError("boundary traces must lie in [-2, 2]")
        lo1, hi1 = trace_interval(self.a, self.b)
        lo2, hi2 = trace_interval(self.c, self.d)
        if max(lo1, lo2) > min(hi1, hi2) + 1e-12:
            raise ValueError("I_{a,b} and I_{c,d} do not intersect: E_kappa empty")

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)


T4Point = tuple[float, float, float]


def trace_interval(a: float, b: float) -> tuple[float, float]:
    """I_{a,b}: the possible values of tr(AB) given tr A = a, tr B = b."""
    s = math.sqrt(max((a * a - 4.0) * (b * b - 4.0), 0.0))
    return ((a * b - s) / 2.0, (a * b + s) / 2.0)


def e_kappa_residual(kappa: Kappa4, p: T4Point) -> float:
    a, b, c, d = kappa.as_tuple()
    x, y, z = p
    return (x * x + y * y + z * z + x * y * z
            - (a * b + c * d) * x - (a * d + b * c) * y - (a * c + b * d) * z
            + (a * a + b * b + c * c + d * d + a * b * c * d - 4.0))


# ---------------------------------------------------------------------------
# coordinate twist maps (forward direction matches the matrix convention)
# ---------------------------------------------------------------------------

def tau_x4(kappa: Kappa4, p: T4Point) -> T4Point:
    a, b, c, d = kappa.as_tuple()
    x, y, z = p
    z2 = a * c + b * d - x * y - z
    y2 = a * d + b * c - x * z2 - y
    return (x, y2, z2)


def tau_x4_inv(kappa: Kappa4, p: T4Point) -> T4Point:
    a, b, c, d = kappa.as_tuple()
    x, y, z = p
    y2 = a * d + b * c - x * z - y
    z2 = a * c + b * d - x * y2 - z
    return (x, y2, z2)


def tau_y4(kappa: Kappa4, p: T4Point) -> T4Point:
    a, b, c, d = kappa.as_tuple()
    x, y, z = p
    x2 = b * a + c * d - y * z - x
    z2 = b * d + c * a - y * x2 - z
    return (x2, y, z2)


def tau_y4_inv(kappa: Kappa4, p: T4Point) -> T4Point:
    a, b, c, d = kappa.as_tuple()
    x, y, z = p
    z2 = b * d + c * a - y * x - z
    x2 = b * a + c * d - y * z2 - x
    return (x2, y, z2)


def tau_z4(kappa: Kappa4, p: T4Point) -> T4Point:
    a, b, c, d = kappa.as_tuple()
    x, y, z = p
    y2 = c * b + a * d - z * x - y
    x2 = c * d + a * b - z * y2 - x
    return (x2, y2, z)


def tau_z4_inv(kappa: Kappa4, p: T4Point) -> T4Point:
    a, b, c, d = kappa.as_tuple()
    x, y, z = p
    x2 = c * d + a * b - z * y - x
    y2 = c * b + a * d - z * x2 - y
    return (x2, y2, z)


# ---------------------------------------------------------------------------
# matrix-level twists of the state (A, B, C); D = (ABC)^-1 is not carried
# ---------------------------------------------------------------------------

#: images (A, B, C, D) with ABCD = I, as read from a representation
Rep4 = tuple[Quaternion, Quaternion, Quaternion, Quaternion]
#: the walk state (A, B, C); the twists move D = (ABC)^-1 only within its
#: conjugacy class, so d = tr D stays the one of the input
State4 = tuple[Quaternion, Quaternion, Quaternion]


def _twist_x4(s: State4, q, e: int) -> State4:
    A, B, C = s
    return (A, B, q.conj(q.pivot(q.mul(A, B), e), C))


def _twist_y4(s: State4, q, e: int) -> State4:
    A, B, C = s
    return (q.conj(q.pivot(q.mul(B, C), e), A), B, C)


def _twist_z4(s: State4, q, e: int) -> State4:
    A, B, C = s
    return (A, q.conj(q.pivot(q.mul(C, A), e), B), C)


#: matrix-level twists of (A, B, C) in the walk's arithmetic q; a primed
#: letter is the inverse twist
MOVES = {
    "X": lambda s, q: _twist_x4(s, q, 1), "X'": lambda s, q: _twist_x4(s, q, -1),
    "Y": lambda s, q: _twist_y4(s, q, 1), "Y'": lambda s, q: _twist_y4(s, q, -1),
    "Z": lambda s, q: _twist_z4(s, q, 1), "Z'": lambda s, q: _twist_z4(s, q, -1),
}


def coords_of_rep4(s: State4, q: su2.Arithmetic | None = None) -> T4Point:
    """(tr AB, tr BC, tr CA) of the state (A, B, C) as floats; q is the
    arithmetic of the images (float when omitted)."""
    q = q or su2.float_arithmetic()
    A, B, C = s
    return (q.trace_mul(A, B), q.trace_mul(B, C), q.trace_mul(C, A))


def kappa_of_rep4(rep: Rep4, q: su2.Arithmetic | None = None) -> Kappa4:
    """The boundary traces of the four images (A, B, C, D); q is their
    arithmetic (float when omitted)."""
    q = q or su2.float_arithmetic()
    A, B, C, D = rep
    return Kappa4(q.trace(A), q.trace(B), q.trace(C), q.trace(D))


# ---------------------------------------------------------------------------
# level ellipses
# ---------------------------------------------------------------------------

def x_fibre(a: float, b: float, c: float, d: float, x):
    """(rhs, y_c, z_c, half) of the fibre x = const of E_(a,b,c,d).

    x is a float or an array.  The fibre's box extents are the centre
    (y_c, z_c) plus or minus half, or the centre alone when the fibre is
    degenerate (rhs <= 1e-15); half is nan where rhs < 0.
    """
    den = 4.0 - x * x
    rhs = ((x * x - a * b * x + a * a + b * b - 4.0)
           * (x * x - c * d * x + c * c + d * d - 4.0) / den)
    yc = (2.0 * (a * d + b * c) - x * (a * c + b * d)) / den
    zc = (2.0 * (a * c + b * d) - x * (a * d + b * c)) / den
    with np.errstate(invalid="ignore"):
        half = 0.5 * (np.sqrt(rhs / ((2.0 + x) / 4.0))
                      + np.sqrt(rhs / ((2.0 - x) / 4.0)))
    return rhs, yc, zc, half


@dataclass(frozen=True)
class LevelEllipse4:
    """Fibre x = const of E_kappa in the (y, z) plane."""

    kappa: Kappa4
    x: float
    coeff_plus: float     # (2+x)/4, multiplies (u-u0)^2, u = y+z
    coeff_minus: float    # (2-x)/4, multiplies (v-v0)^2, v = y-z
    u0: float
    v0: float
    rhs: float
    center: tuple[float, float]   # (y_c, z_c)
    angle: float                  # 2*arccos(x/2)
    degenerate: bool
    half: float                   # half-width of the box extents

    def extents(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """((y_lo, y_hi), (z_lo, z_hi)) box extents of the fibre."""
        yc, zc = self.center
        if self.degenerate:
            return ((yc, yc), (zc, zc))
        return ((yc - self.half, yc + self.half), (zc - self.half, zc + self.half))

    def parametrize(self, t: float) -> tuple[float, float]:
        """Point (y, z) at parameter t in [0, 2pi); identity map if degenerate."""
        if self.degenerate:
            return self.center
        u = self.u0 + math.sqrt(self.rhs / self.coeff_plus) * math.cos(t)
        v = self.v0 + math.sqrt(self.rhs / self.coeff_minus) * math.sin(t)
        return ((u + v) / 2.0, (u - v) / 2.0)


def x_level_ellipse(kappa: Kappa4, x: float) -> LevelEllipse4:
    if abs(4.0 - x * x) < 1e-14:
        raise ValueError("singular parameter: x = +-2")
    a, b, c, d = kappa.as_tuple()
    rhs, yc, zc, half = x_fibre(a, b, c, d, x)
    return LevelEllipse4(
        kappa=kappa, x=x,
        coeff_plus=(2.0 + x) / 4.0, coeff_minus=(2.0 - x) / 4.0,
        u0=(a + b) * (c + d) / (2.0 + x), v0=(a - b) * (d - c) / (2.0 - x),
        rhs=max(rhs, 0.0) if rhs > -1e-12 else rhs,
        center=(yc, zc), angle=2.0 * math.acos(max(-1.0, min(1.0, x / 2.0))),
        degenerate=rhs <= 1e-15, half=float(half),
    )


def y_level_extent_x(kappa: Kappa4, y: float) -> tuple[float, float]:
    """Box extent of the x-coordinate over the fibre y = const.

    By symmetry of the defining equation under (a,b,c,d;x,y,z) ->
    (b,c,a,d;y,z,x), the fibre Y_kappa(y) is the x-ellipse of the cycled
    kappa; its x-extent follows from the same completed square.
    """
    a, b, c, d = kappa.as_tuple()
    cycled = Kappa4(b, c, a, d)
    e = x_level_ellipse(cycled, y)
    # in the cycled chart, coordinates are (y, z, x); the extent of the second
    # slot pair covers (z, x); x is slot "z" there -> second extent
    return e.extents()[1]


# ---------------------------------------------------------------------------
# rotation filtration and quantitative lemmas
# ---------------------------------------------------------------------------

def filtration_member(t: float, n: int, tol: float = 1e-12) -> bool:
    """t in Y_n: the twist rotation by 2*arccos(t/2) is periodic with period
    <= n, i.e. t = 2 cos(pi k/m) for some gcd(k,m)=1, 2 <= m <= n."""
    if n < 2:
        raise ValueError("n >= 2 required")
    for m in range(2, n + 1):
        for k in range(1, m):
            if math.gcd(k, m) != 1:
                continue
            if abs(t - 2.0 * math.cos(math.pi * k / m)) <= tol:
                return True
    return False


def n_of_eps(eps: float) -> int:
    """N(eps): rotations with angle not 2*pi*k/m (m <= N) are eps-dense on
    every fibre ellipse. Sufficient bound from the L_MAX circumference."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return math.ceil(2.0 * L_MAX / eps) + 1


@lru_cache(maxsize=None)
def delta_inband(a: float, b: float, eps: float, *, delta_min: float = 1e-6) -> float:
    """A delta > 0 such that for all |c|,|d|,|y| <= delta the fibre structure
    of E_{(a,b,c,d)} is controlled:

    - every fibre y = const with |y| <= delta realizes x-values eps-dense in
      the full x-range of E_kappa (checked via the x-extent of Y_kappa(y)),
    - every fibre x = const either realizes all (y, z) in [-delta/2, delta/2]
      or stays inside [-delta, delta].

    Found by halving from eps and verifying on a grid of pitch delta/8; the
    sampled predicate is the artifact's stand-in for the purely existential
    continuity argument of the source.
    """
    delta = min(eps, 0.5)
    while delta >= delta_min:
        if _inband_predicate(a, b, delta, eps):
            return delta
        delta /= 2.0
    raise ArithmeticError("delta_inband: no verified delta above delta_min")


def _box(a: float, b: float, c: float, d: float, x: np.ndarray):
    """Box extents (y_lo, y_hi, z_lo, z_hi) of the x-fibres over the array x,
    as LevelEllipse4.extents gives them one fibre at a time."""
    rhs, yc, zc, half = x_fibre(a, b, c, d, x)
    half = np.where(rhs <= 1e-15, 0.0, half)
    return yc - half, yc + half, zc - half, zc + half


def _inband_predicate(a: float, b: float, delta: float, eps: float) -> bool:
    pitch = delta / 8.0
    grid = [-delta + i * pitch for i in range(int(2 * delta / pitch) + 1)]
    ys = np.array(grid)
    lo_ab, hi_ab = trace_interval(a, b)
    for c in grid:
        for d in grid:
            try:
                Kappa4(a, b, c, d)
                # the fibre y = const is the x-fibre of the cycled kappa,
                # with x in the z slot (see y_level_extent_x)
                Kappa4(b, c, a, d)
            except ValueError:
                return False
            lo_cd, hi_cd = trace_interval(c, d)
            xlo, xhi = max(lo_ab, lo_cd), min(hi_ab, hi_cd)
            if xlo > xhi:
                return False
            # x-range realized over each fibre y = const
            _, _, ex_lo, ex_hi = _box(b, c, a, d, ys)
            if np.any(ex_lo > xlo + eps) or np.any(ex_hi < xhi - eps):
                return False
            # fibre x = const: all-of-[-delta/2,delta/2] or inside [-delta,delta]
            nx = max(3, int((xhi - xlo) / max(pitch, 1e-9)) + 1)
            xs = xlo + (xhi - xlo) * np.arange(nx) / (nx - 1)
            xs = xs[np.abs(xs) < 2.0 - 1e-9]
            ylo, yhi, zlo, zhi = _box(a, b, c, d, xs)
            # the dichotomy only matters for fibres meeting the band
            # [-delta, delta]^2; pinch fibres at the ends of the
            # x-interval sit far from the origin and never arise as
            # small-coordinate candidates
            meets_band = (ylo <= delta) & (yhi >= -delta) \
                & (zlo <= delta) & (zhi >= -delta)
            covers = (ylo <= -delta / 2) & (yhi >= delta / 2) \
                & (zlo <= -delta / 2) & (zhi >= delta / 2)
            inside = (ylo >= -delta) & (yhi <= delta) \
                & (zlo >= -delta) & (zhi <= delta)
            if np.any(meets_band & ~(covers | inside)):
                return False
    return True
