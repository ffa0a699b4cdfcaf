"""Two-holed (and m-holed) torus structure.

Chart conventions, pinned by matrix verification (see tests):
the surface group relation is realized on images (X, Y, A, B) with

    K = Y X Y^-1 X^-1,   A B = K,

and coordinates x = tr X, y = tr Y, k = tr K, w = tr(AX), w' = tr(XB),
boundary traces a = tr A, b = tr B.  Cutting along X exhibits the cut
surface as a four-holed sphere on (A, B, X, Y X^-1 Y^-1) with
kappa = (a, b, x, x) and sphere coordinates (k, w', w); the three twists
tau_K / tau_W / tau_W' below are the sphere twists tau_x4 / tau_y4 / tau_z4
in that chart.  The matrix-level twists, handle letters included, form
the move table MOVES.

The module also exposes the exceptional-locus predicates of the two- and
three-holed torus analyses (eq0/e1/e2 and c1..c6.5) and the steering
procedure steer_t2 that realizes the density argument at desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from . import su2, torus_one
from .su2 import Quaternion, quat_inv, quat_mul, trace, trace_mul
from .classify import classify_subgroup, one_holed_genericity_shortcut
from .sphere_four import delta_inband, trace_interval
from .tolerances import DEFAULT, Tolerances
from .torus_one import SteerFailure, greedy_search, in_special_set


@dataclass(frozen=True)
class T2Point:
    """Trace coordinates of a two-holed torus character."""
    a: float
    b: float
    x: float
    y: float
    k: float
    w: float
    wp: float


def t2_residual(p: T2Point) -> float:
    """Defining-equation residual of the fibre E_{(a,b,x,x)}; zero on
    characters."""
    s = p.x * (p.a + p.b)
    return (p.w * p.w + p.wp * p.wp + p.k * p.k + p.k * p.w * p.wp
            - p.k * (p.a * p.b + p.x * p.x) - p.w * s - p.wp * s
            + p.a * p.a + p.b * p.b + 2.0 * p.x * p.x
            + p.a * p.b * p.x * p.x - 4.0)


# ---------------------------------------------------------------------------
# coordinate-level twists (two-step affine maps; order matters)
# ---------------------------------------------------------------------------

def tau_k(p: T2Point) -> T2Point:
    s = p.x * (p.a + p.b)
    wp2 = s - p.k * p.w - p.wp
    w2 = s - p.k * wp2 - p.w
    return replace(p, w=w2, wp=wp2)


def tau_k_inv(p: T2Point) -> T2Point:
    s = p.x * (p.a + p.b)
    w2 = s - p.k * p.wp - p.w
    wp2 = s - p.k * w2 - p.wp
    return replace(p, w=w2, wp=wp2)


def tau_w(p: T2Point) -> T2Point:
    s = p.x * (p.a + p.b)
    k2 = p.x * p.x + p.a * p.b - p.w * p.wp - p.k
    wp2 = s - p.w * k2 - p.wp
    return replace(p, k=k2, wp=wp2)


def tau_w_inv(p: T2Point) -> T2Point:
    s = p.x * (p.a + p.b)
    wp2 = s - p.w * p.k - p.wp
    k2 = p.x * p.x + p.a * p.b - p.w * wp2 - p.k
    return replace(p, k=k2, wp=wp2)


def tau_wp(p: T2Point) -> T2Point:
    s = p.x * (p.a + p.b)
    w2 = s - p.wp * p.k - p.w
    k2 = p.a * p.b + p.x * p.x - p.wp * w2 - p.k
    return replace(p, k=k2, w=w2)


def tau_wp_inv(p: T2Point) -> T2Point:
    s = p.x * (p.a + p.b)
    k2 = p.a * p.b + p.x * p.x - p.wp * p.w - p.k
    w2 = s - p.wp * k2 - p.w
    return replace(p, k=k2, w=w2)


# ---------------------------------------------------------------------------
# matrix-level representation and twists
# ---------------------------------------------------------------------------

class T2Rep(NamedTuple):
    """Images (X, Y, A, B) with A B = Y X Y^-1 X^-1 (up to sign)."""
    X: Quaternion
    Y: Quaternion
    A: Quaternion
    B: Quaternion

    def relation_residual(self) -> float:
        K = quat_mul(quat_mul(self.Y, self.X),
                     quat_mul(quat_inv(self.Y), quat_inv(self.X)))
        AB = quat_mul(self.A, self.B)
        return min(max(abs(AB[i] - K[i]) for i in range(4)),
                   max(abs(AB[i] + K[i]) for i in range(4)))

    def validate(self, tol: Tolerances = DEFAULT) -> "T2Rep":
        if self.relation_residual() > tol.relation:
            raise ValueError("two-holed torus relation violated")
        return self


def coords_of_rep_t2(rep, q: su2.Arithmetic | None = None) -> T2Point:
    """Chart point of a T2Rep or of any tuple (X, Y, A, B), as floats; q is
    the arithmetic of the images (float when omitted)."""
    X, Y, A, B = rep
    # floats skip building an Arithmetic: steer_t2 calls this per scanned twist
    tr, tr_mul = (trace, trace_mul) if q is None else (q.trace, q.trace_mul)
    return T2Point(
        a=tr(A), b=tr(B),
        x=tr(X), y=tr(Y), k=tr_mul(A, B),
        w=tr_mul(A, X), wp=tr_mul(X, B),
    )


def _twist_k(s, q, e: int):
    """Twist along K = AB: moves (w, w'), fixes x, y, k, a, b."""
    X, Y, A, B = s
    K = q.pivot(q.mul(A, B), e)
    return (X, Y, q.conj(K, A), q.conj(K, B))


def _twist_w(s, q, e: int):
    """Twist along W = AX: moves (w', k), fixes x, w, a, b."""
    X, Y, A, B = s
    return (X, q.mul(q.pivot(q.mul(A, X), -e), Y), A,
            q.conj(q.pivot(q.mul(X, A), -e), B))


def _twist_wp(s, q, e: int):
    """Twist along W' = XB: moves (k, w), fixes x, w', a, b."""
    X, Y, A, B = s
    BX = q.pivot(q.mul(B, X), -e)
    return (X, q.mul(BX, Y), q.conj(BX, A), B)


def _on_handle(move):
    """A handle twist of torus_one acting on (X, Y); fixes x or y, k, a, b."""
    return lambda s, q: move(s[:2], q) + s[2:]


#: matrix-level twists of (X, Y, A, B) in the walk's arithmetic q: the
#: handle twists X/Y, and K/W/V for tau_K/tau_W/tau_W' (the letter W'
#: would collide with the inverse marker)
MOVES = {
    **{letter: _on_handle(move) for letter, move in torus_one.MOVES.items()},
    "K": lambda s, q: _twist_k(s, q, 1), "K'": lambda s, q: _twist_k(s, q, -1),
    "W": lambda s, q: _twist_w(s, q, 1), "W'": lambda s, q: _twist_w(s, q, -1),
    "V": lambda s, q: _twist_wp(s, q, 1), "V'": lambda s, q: _twist_wp(s, q, -1),
}

TWIST_LETTERS_T2 = tuple(MOVES)


def apply_twist_word_t2(rep: T2Rep, word: Sequence[str]) -> T2Rep:
    return T2Rep(*su2.apply_word(rep, word, MOVES, su2.float_arithmetic()))


# ---------------------------------------------------------------------------
# exceptional loci
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceptionalReport:
    """Residuals of the exceptional-subvariety predicates; a flag is set
    when the corresponding residual vanishes within tol. A residual of
    None means the predicate's guard (a division) failed."""
    residuals: dict
    tol: float = 1e-9

    @property
    def flags(self) -> dict:
        return {name: (r is not None and abs(r) <= self.tol)
                for name, r in self.residuals.items()}

    def any_flag(self) -> bool:
        return any(self.flags.values())


def fixed_point_system_w(p: T2Point, tol: float = 1e-9) -> bool:
    """True iff (k,w,w') is a common fixed point of tau_W and tau_W':

        2k = ab + x^2 - ww',  2w' = x(a+b) - wk,  2w = x(a+b) - w'k.
    """
    s = p.x * (p.a + p.b)
    r1 = 2.0 * p.k - (p.a * p.b + p.x * p.x - p.w * p.wp)
    r2 = 2.0 * p.wp - (s - p.w * p.k)
    r3 = 2.0 * p.w - (s - p.wp * p.k)
    fixed = max(abs(r1), abs(r2), abs(r3)) <= tol
    if fixed and abs(abs(p.k) - 2.0) > tol:
        # consequences stated in the analysis
        common = s / (p.k + 2.0)
        assert abs(p.w - common) <= 1e-6 and abs(p.wp - common) <= 1e-6
        if abs((p.a + p.b) ** 2 - (p.k + 2.0) ** 2) > tol:
            ratio = (p.a + p.b) / (p.k + 2.0)
            assert abs(p.x * p.x * (1.0 - ratio * ratio)
                       - (2.0 * p.k - p.a * p.b)) <= 1e-6
    return fixed


def exceptional_report_t2(p: T2Point, tol: float = 1e-9) -> ExceptionalReport:
    """Residuals of the two-holed torus exceptional equations eq0/e1/e2
    plus the common-fixed-point system."""
    res = {}
    res["eq0"] = (p.k * p.k + p.k * p.a * p.a + 2.0 * p.a * p.a - 4.0
                  - p.x * p.x * (p.k - 2.0 + p.a * p.a))
    res["e1"] = 2.0 * p.k - (p.a * p.b + p.x * p.x)
    denom = 1.0 - ((p.a + p.b) / (p.k + 2.0)) ** 2 \
        if abs(p.k + 2.0) > tol else 0.0
    if abs(denom) <= tol:
        res["e2"] = None
    else:
        res["e2"] = p.x * p.x - (2.0 * p.k - p.a * p.b) / denom
    s = p.x * (p.a + p.b)
    res["fixed_w"] = max(
        abs(2.0 * p.k - (p.a * p.b + p.x * p.x - p.w * p.wp)),
        abs(2.0 * p.wp - (s - p.w * p.k)),
        abs(2.0 * p.w - (s - p.wp * p.k)))
    return ExceptionalReport(residuals=res, tol=tol)


def exceptional_report_t3(coords, tol: float = 1e-9) -> ExceptionalReport:
    """Residuals of the three-holed torus case equations c1..c6.5.

    `coords` is the tuple (b, x, w, c, d) of the cut four-holed sphere
    E_{(x,w,c,d)} appearing in that analysis.
    """
    b, x, w, c, d = coords
    res = {}
    res["c1"] = w * d + x * c
    res["c1.5"] = x * d + w * c
    res["c2"] = b * b - (x * w * b - x * x - w * w + 4.0)
    res["c3"] = 2.0 * b - (x * w + c * d)
    bracket = (((d * w + x * c) - 0.5 * b * (x * d + w * c))
               * ((x * d + w * c) - 0.5 * b * (d * w + x * c)))
    denom = (2.0 - b * b / 2.0) ** 2
    if denom <= tol:
        res["c4"] = None
        res["c5"] = None
    else:
        res["c4"] = (2.0 * b - c * d) - (w * x - bracket / denom)
        res["c5"] = x * w - bracket / denom
    res["c6"] = w - c * d * x / 4.0
    res["c6.5"] = x - c * d * w / 4.0
    return ExceptionalReport(residuals=res, tol=tol)


# ---------------------------------------------------------------------------
# steering
# ---------------------------------------------------------------------------

def steer_t2(rep: T2Rep, targets: tuple, eps: float, budget: int,
             *, tol: Tolerances = DEFAULT) -> tuple[list[str], T2Rep]:
    """Move (x, k) of a generic two-holed torus rep within eps of targets.

    Schedule (mirrors the density proof): (i) handle twists bring |x|
    under the delta of the cut sphere E_{(a,b,x,x)} while k is fixed;
    (ii) tau_K brings w near zero (fixing k, x); (iii) tau_W (with tau_W'
    as fallback past its fixed loci) brings k within eps/2 of k0;
    (iv) handle twists (which fix k) bring x within eps of x0, keeping
    the handle generic (k outside the special set and k != x^2 - 2).

    Returns (twist word, final rep), with |x - x0| < eps and |k - k0| < eps
    verified on the final rep, which apply_twist_word_t2(rep, word)
    reproduces exactly; raises SteerFailure when the budget runs out and
    ValueError on a non-generic input.
    """
    x0, k0 = targets
    p = coords_of_rep_t2(rep)
    if abs(abs(p.a) - 2.0) < 1e-9 or abs(abs(p.b) - 2.0) < 1e-9:
        raise ValueError("boundary traces must avoid +-2")
    # the trace-level shortcut can only confirm density; the full
    # classification decides the rest
    if not (one_holed_genericity_shortcut(p.x, p.y, trace_mul(rep.X, rep.Y))
            or classify_subgroup([rep.X, rep.Y]).is_dense):
        raise ValueError("handle <X, Y> is not generic")
    lo, hi = trace_interval(p.a, p.b)
    if not (lo - 1e-9 <= k0 <= hi + 1e-9):
        raise ValueError("target k outside the boundary trace interval")

    if abs(p.x - x0) < eps and abs(p.k - k0) < eps \
            and not in_special_set(p.k) and abs(p.k - (p.x ** 2 - 2.0)) > 1e-9:
        return [], apply_twist_word_t2(rep, [])

    delta = delta_inband(p.a, p.b, eps / 2.0)

    def handle_obj(q: T2Point) -> float:
        penalty = 0.0
        if in_special_set(q.k, 10.0 * tol.identity):
            penalty = 1.0
        if abs(q.k - (q.x ** 2 - 2.0)) < 1e-6:
            penalty = 1.0
        return abs(q.x - x0) + penalty

    handle = ("Y", "X", "Y'", "X'")
    phases = (
        # (i) |x| <= delta/2, k fixed by the handle twists
        (handle, lambda q: abs(q.x), delta / 2.0, ("Y", "X")),
        # (ii) w near zero so the k-range of the w-fibre is maximal
        (("K", "K'"), lambda q: abs(q.w), delta, ("W",)),
        # (iii) k within eps/2 of k0; tau_W moves k on the w-fibre, tau_W'
        # is the proof's fallback when tau_W stalls at a fixed point
        (("W", "W'", "V", "V'", "K"), lambda q: abs(q.k - k0), eps / 2.0, ("K",)),
        # (iv) x within eps of x0 via the handle (k frozen), avoiding the
        # one-holed degeneracies of the final point
        (handle, handle_obj, eps, ("Y", "X")),
    )
    # every phase continues the renormalization cadence of the whole word,
    # so apply_twist_word_t2 replays the returned word to the returned rep
    arith = su2.float_arithmetic()
    word: list[str] = []
    spent = 0
    state = rep
    for letters, objective, goal, kicks in phases:
        done = len(word)
        w, state, s = greedy_search(
            state, letters, lambda st: objective(coords_of_rep_t2(st)), goal,
            budget - spent,
            lambda st, ws, n: su2.run_word(st, ws, MOVES, arith, done + n),
            cycle_cap=400, stall_limit=2 * len(letters), kicks=kicks)
        word += w
        spent += s

    rep = T2Rep(*map(arith.unit, state))
    final = coords_of_rep_t2(rep)
    if abs(final.x - x0) >= eps or abs(final.k - k0) >= eps:
        raise SteerFailure("steer_t2 post-verification failed", budget)
    if not one_holed_genericity_shortcut(final.x, final.y,
                                         trace_mul(rep.X, rep.Y)):
        raise SteerFailure("steer_t2 final handle not verifiably generic",
                           budget)
    return word, rep
