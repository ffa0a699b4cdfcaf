"""Exact arithmetic over Q(sqrt2, sqrt5) and exact unit quaternions.

QFElement represents q0 + q1*sqrt2 + q2*sqrt5 + q3*sqrt10 with Fraction
coefficients. The multiplication table closes the ring:
sqrt2*sqrt5 = sqrt10, sqrt2*sqrt10 = 2*sqrt5, sqrt5*sqrt10 = 5*sqrt2.

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


@dataclass(frozen=True)
class QFElement:
    """q0 + q1*sqrt2 + q2*sqrt5 + q3*sqrt10, exact."""

    q0: Fraction = Fraction(0)
    q1: Fraction = Fraction(0)
    q2: Fraction = Fraction(0)
    q3: Fraction = Fraction(0)

    @staticmethod
    def of(q0: Rational = 0, q1: Rational = 0, q2: Rational = 0, q3: Rational = 0) -> "QFElement":
        return QFElement(Fraction(q0), Fraction(q1), Fraction(q2), Fraction(q3))

    def __add__(self, other: "QFElement") -> "QFElement":
        other = _coerce(other)
        return QFElement(self.q0 + other.q0, self.q1 + other.q1,
                         self.q2 + other.q2, self.q3 + other.q3)

    __radd__ = __add__

    def __neg__(self) -> "QFElement":
        return QFElement(-self.q0, -self.q1, -self.q2, -self.q3)

    def __sub__(self, other) -> "QFElement":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "QFElement":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "QFElement":
        o = _coerce(other)
        a0, a1, a2, a3 = self.q0, self.q1, self.q2, self.q3
        b0, b1, b2, b3 = o.q0, o.q1, o.q2, o.q3
        # basis products: 1, sqrt2, sqrt5, sqrt10
        return QFElement(
            a0 * b0 + 2 * a1 * b1 + 5 * a2 * b2 + 10 * a3 * b3,
            a0 * b1 + a1 * b0 + 5 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not (self.q0 or self.q1 or self.q2 or self.q3)

    def inverse(self) -> "QFElement":
        """Multiplicative inverse via the norm down the field tower."""
        if self.is_zero():
            raise ZeroDivisionError("QFElement inverse of zero")
        # conjugate over sqrt2: flip signs of sqrt2 and sqrt10 parts
        c2 = QFElement(self.q0, -self.q1, self.q2, -self.q3)
        n2 = self * c2  # lands in Q(sqrt5): q1 = q3 = 0
        assert n2.q1 == 0 and n2.q3 == 0
        # conjugate over sqrt5
        c5 = QFElement(n2.q0, 0, -n2.q2, 0)
        n5 = n2 * c5  # rational
        assert n5.q1 == 0 and n5.q2 == 0 and n5.q3 == 0
        inv_rat = QFElement.of(Fraction(1, 1) / n5.q0)
        return c2 * c5 * inv_rat

    def __truediv__(self, other) -> "QFElement":
        return self * _coerce(other).inverse()

    def __float__(self) -> float:
        return (float(self.q0) + float(self.q1) * _SQRT2
                + float(self.q2) * _SQRT5 + float(self.q3) * _SQRT10)

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
        return QFElement.of(v)
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

    def key(self):
        """Canonical hashable key (coefficient tuple), for deterministic sets."""
        return tuple((c.q0, c.q1, c.q2, c.q3) for c in (self.w, self.x, self.y, self.z))


EXACT_IDENTITY = ExactQuaternion.of(1, 0, 0, 0)

#: exact walks never drift off unit norm, so renormalization is the identity
EXACT_ARITHMETIC = su2.Arithmetic(operator.mul, ExactQuaternion.inverse,
                                  lambda g: g, lambda g: float(g.trace()),
                                  ExactQuaternion.key)


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
