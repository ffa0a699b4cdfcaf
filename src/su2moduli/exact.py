"""Exact arithmetic over Q(sqrt2, sqrt5) and exact unit quaternions.

QFElement represents (n0 + n1*sqrt2 + n2*sqrt5 + n3*sqrt10) / d with
integer numerators over one positive denominator, in lowest terms
(gcd(n0, n1, n2, n3, d) = 1), so equal elements have equal codes.  Each
operation is integer arithmetic reduced by one gcd.  The multiplication
table closes the ring: sqrt2*sqrt5 = sqrt10, sqrt2*sqrt10 = 2*sqrt5,
sqrt5*sqrt10 = 5*sqrt2.  The rational coefficients q0..q3 are available as
Fraction views.

All appendix matrix entries live here: the constants r = (sqrt5+1)/4 and
s = (sqrt5-1)/4, halves, and sqrt2/2. The one scalar outside the field,
sqrt(-11+8*sqrt2), is checked numerically (see the design notes).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import su2

_SQRT2 = math.sqrt(2.0)
_SQRT5 = math.sqrt(5.0)
_SQRT10 = math.sqrt(10.0)

Rational = Union[int, Fraction]

_gcd = math.gcd
_new = object.__new__


def _qf(n0: int, n1: int, n2: int, n3: int, d: int) -> "QFElement":
    """The element (n0 + n1*sqrt2 + n2*sqrt5 + n3*sqrt10) / d, for d > 0."""
    g = _gcd(n0, n1, n2, n3, d)
    e = _new(QFElement)
    e._code = (n0, n1, n2, n3, d) if g == 1 else (n0 // g, n1 // g, n2 // g, n3 // g, d // g)
    return e


class QFElement:
    """q0 + q1*sqrt2 + q2*sqrt5 + q3*sqrt10, exact."""

    __slots__ = ("_code",)

    def __init__(self, q0: Rational = 0, q1: Rational = 0, q2: Rational = 0, q3: Rational = 0):
        qs = (q0, q1, q2, q3)
        for c in qs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"QFElement coefficients must be int or Fraction, not {type(c).__name__}")
        d = math.lcm(*(c.denominator for c in qs))
        self._code = _qf(*(c.numerator * (d // c.denominator) for c in qs), d)._code

    @staticmethod
    def of(q0: Rational = 0, q1: Rational = 0, q2: Rational = 0, q3: Rational = 0) -> "QFElement":
        return QFElement(q0, q1, q2, q3)

    q0 = property(lambda self: Fraction(self._code[0], self._code[4]))
    q1 = property(lambda self: Fraction(self._code[1], self._code[4]))
    q2 = property(lambda self: Fraction(self._code[2], self._code[4]))
    q3 = property(lambda self: Fraction(self._code[3], self._code[4]))

    def __eq__(self, other):
        if not isinstance(other, QFElement):
            return NotImplemented
        return self._code == other._code

    def __hash__(self) -> int:
        return hash(self._code)

    def __add__(self, other) -> "QFElement":
        a0, a1, a2, a3, ad = self._code
        b0, b1, b2, b3, bd = (other if isinstance(other, QFElement) else _coerce(other))._code
        if ad == bd:
            return _qf(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
        return _qf(a0 * bd + b0 * ad, a1 * bd + b1 * ad, a2 * bd + b2 * ad,
                   a3 * bd + b3 * ad, ad * bd)

    __radd__ = __add__

    def __neg__(self) -> "QFElement":
        a0, a1, a2, a3, ad = self._code
        return _qf(-a0, -a1, -a2, -a3, ad)

    def __sub__(self, other) -> "QFElement":
        a0, a1, a2, a3, ad = self._code
        b0, b1, b2, b3, bd = (other if isinstance(other, QFElement) else _coerce(other))._code
        if ad == bd:
            return _qf(a0 - b0, a1 - b1, a2 - b2, a3 - b3, ad)
        return _qf(a0 * bd - b0 * ad, a1 * bd - b1 * ad, a2 * bd - b2 * ad,
                   a3 * bd - b3 * ad, ad * bd)

    def __rsub__(self, other) -> "QFElement":
        return _coerce(other) - self

    def __mul__(self, other) -> "QFElement":
        a0, a1, a2, a3, ad = self._code
        b0, b1, b2, b3, bd = (other if isinstance(other, QFElement) else _coerce(other))._code
        # basis products: 1, sqrt2, sqrt5, sqrt10
        return _qf(
            a0 * b0 + 2 * a1 * b1 + 5 * a2 * b2 + 10 * a3 * b3,
            a0 * b1 + a1 * b0 + 5 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
            ad * bd,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        n0, n1, n2, n3, _ = self._code
        return not (n0 or n1 or n2 or n3)

    def inverse(self) -> "QFElement":
        """Multiplicative inverse via the norm down the field tower."""
        if self.is_zero():
            raise ZeroDivisionError("QFElement inverse of zero")
        a0, a1, a2, a3, ad = self._code
        # conjugate over sqrt2: flip signs of sqrt2 and sqrt10 parts
        c2 = _qf(a0, -a1, a2, -a3, ad)
        m0, m1, m2, m3, md = (self * c2)._code  # lands in Q(sqrt5): m1 = m3 = 0
        assert m1 == 0 and m3 == 0
        # conjugate over sqrt5
        c5 = _qf(m0, 0, -m2, 0, md)
        r0, r1, r2, r3, rd = (c5 * _qf(m0, 0, m2, 0, md))._code  # rational
        assert r1 == 0 and r2 == 0 and r3 == 0
        # 1/(r0/rd) = rd/r0, with the sign moved to the numerator
        return c2 * c5 * _qf(rd if r0 > 0 else -rd, 0, 0, 0, abs(r0))

    def __truediv__(self, other) -> "QFElement":
        return self * _coerce(other).inverse()

    def __float__(self) -> float:
        # int / int is correctly rounded, as float(Fraction(n, d)) is
        n0, n1, n2, n3, d = self._code
        return n0 / d + n1 / d * _SQRT2 + n2 / d * _SQRT5 + n3 / d * _SQRT10

    def __repr__(self) -> str:
        parts = []
        for c, sym in ((self.q0, ""), (self.q1, "*sqrt2"), (self.q2, "*sqrt5"), (self.q3, "*sqrt10")):
            if c:
                parts.append(f"{c}{sym}")
        return " + ".join(parts) if parts else "0"


def _coerce(v) -> QFElement:
    if isinstance(v, QFElement):
        return v
    if isinstance(v, (int, Fraction)):
        return QFElement(v)
    raise TypeError(f"cannot coerce {type(v)} to QFElement")


ZERO = QFElement.of(0)
ONE = QFElement.of(1)
HALF = QFElement.of(Fraction(1, 2))
SQRT2 = QFElement.of(0, 1)
SQRT5 = QFElement.of(0, 0, 1)
SQRT2_OVER_2 = QFElement.of(0, Fraction(1, 2))
R_CONST = QFElement.of(Fraction(1, 4), 0, Fraction(1, 4))   # (sqrt5+1)/4
S_CONST = QFElement.of(Fraction(-1, 4), 0, Fraction(1, 4))  # (sqrt5-1)/4


@dataclass(frozen=True)
class ExactQuaternion:
    """Quaternion with QFElement entries; same (w,x,y,z) convention as su2."""

    w: QFElement
    x: QFElement
    y: QFElement
    z: QFElement

    @staticmethod
    def of(w, x, y, z) -> "ExactQuaternion":
        return ExactQuaternion(_coerce(w), _coerce(x), _coerce(y), _coerce(z))

    def __mul__(self, o: "ExactQuaternion") -> "ExactQuaternion":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = o.w, o.x, o.y, o.z
        return ExactQuaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def inverse(self) -> "ExactQuaternion":
        if not self.norm_sq() == ONE:
            raise ValueError("inverse defined for unit exact quaternions only")
        return ExactQuaternion(self.w, -self.x, -self.y, -self.z)

    def __neg__(self) -> "ExactQuaternion":
        return ExactQuaternion(-self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> QFElement:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def trace(self) -> QFElement:
        return self.w + self.w

    def to_float(self) -> tuple[float, float, float, float]:
        return (float(self.w), float(self.x), float(self.y), float(self.z))

    def key(self) -> tuple:
        """Canonical hashable key: the integer codes of the four entries."""
        return (self.w._code, self.x._code, self.y._code, self.z._code)


EXACT_IDENTITY = ExactQuaternion.of(1, 0, 0, 0)


def _trace_mul(g: ExactQuaternion, h: ExactQuaternion) -> float:
    """float((g * h).trace()) from the scalar part of g h alone."""
    w = g.w * h.w - g.x * h.x - g.y * h.y - g.z * h.z
    return float(w + w)


#: exact walks never drift off unit norm, so renormalization is the identity
EXACT_ARITHMETIC = su2.Arithmetic(operator.mul, ExactQuaternion.inverse,
                                  lambda g: g, lambda g: float(g.trace()),
                                  _trace_mul, ExactQuaternion.key)


def arithmetic_of(g) -> su2.Arithmetic:
    """The arithmetic of walks on quaternions like g: exact for an
    ExactQuaternion, float otherwise."""
    return EXACT_ARITHMETIC if isinstance(g, ExactQuaternion) else su2.float_arithmetic()


def exact_trace_form(prefix: ExactQuaternion) -> tuple[QFElement, QFElement, QFElement, QFElement]:
    """Coefficients (cw, cx, cy, cz) of tr(prefix * Q) as a linear form in
    the components of an unknown quaternion Q = (w,x,y,z).

    tr(p q) = 2 (p_w q_w - p_x q_x - p_y q_y - p_z q_z).
    """
    two = QFElement.of(2)
    return (two * prefix.w, -(two * prefix.x), -(two * prefix.y), -(two * prefix.z))
