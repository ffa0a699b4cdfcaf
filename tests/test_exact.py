"""Exact quadratic-field arithmetic and exact quaternions."""
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from su2moduli import su2
from su2moduli.exact import (
    EXACT_ARITHMETIC,
    EXACT_IDENTITY,
    HALF,
    ONE,
    R_CONST,
    S_CONST,
    SQRT2,
    SQRT2_OVER_2,
    ZERO,
    ExactQuaternion,
    QFElement,
    exact_trace_form,
)

SQRT5 = math.sqrt(5.0)


def test_constants_float_values():
    assert float(ONE) == 1.0
    assert float(HALF) == 0.5
    assert float(SQRT2) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert float(R_CONST) == pytest.approx((SQRT5 + 1.0) / 4.0, abs=1e-15)
    assert float(S_CONST) == pytest.approx((SQRT5 - 1.0) / 4.0, abs=1e-15)


def test_golden_identities():
    # 4rs = 1 and r - s = 1/2, the golden-ratio relations used throughout
    four = QFElement.of(4)
    assert four * R_CONST * S_CONST == ONE
    assert R_CONST - S_CONST == HALF
    # r and s satisfy 4t^2 = 2t + ... : r^2 = r/2 + 1/4 - r s? direct checks:
    assert R_CONST * R_CONST == HALF * R_CONST + QFElement.of(Fraction(1, 4))
    assert S_CONST * S_CONST == QFElement.of(Fraction(1, 4)) - HALF * S_CONST


def test_field_arithmetic_vs_float_oracle():
    a = QFElement.of(Fraction(1, 3), Fraction(2, 7), Fraction(-1, 2), Fraction(1, 5))
    b = QFElement.of(Fraction(-2, 5), Fraction(1, 4), Fraction(1, 6), Fraction(-3, 7))
    assert float(a * b) == pytest.approx(float(a) * float(b), abs=1e-12)
    assert float(a + b) == pytest.approx(float(a) + float(b), abs=1e-12)
    assert float(a - b) == pytest.approx(float(a) - float(b), abs=1e-12)
    # sqrt2 * sqrt5 = sqrt10 lives in the q3 slot
    s5 = QFElement.of(0, 0, 1)
    assert float(SQRT2 * s5) == pytest.approx(math.sqrt(10.0), abs=1e-12)


def test_exact_quaternion_mul_matches_float():
    p = ExactQuaternion(HALF, -HALF, HALF, -HALF)
    q = ExactQuaternion(SQRT2_OVER_2, SQRT2_OVER_2, ZERO, ZERO)
    exact = (p * q).to_float()
    oracle = su2.quat_mul(p.to_float(), q.to_float())
    assert max(abs(u - v) for u, v in zip(exact, oracle)) < 1e-15


def test_exact_inverse_and_norm():
    q = ExactQuaternion(S_CONST, ZERO, -R_CONST, HALF)
    assert q.norm_sq() == ONE
    prod = q * q.inverse()
    assert prod.key() == EXACT_IDENTITY.key()
    bad = ExactQuaternion(ONE, ONE, ZERO, ZERO)
    with pytest.raises(ValueError):
        bad.inverse()


def test_trace_and_key():
    q = ExactQuaternion(HALF, HALF, HALF, -HALF)
    assert float(q.trace()) == 1.0
    assert q.key() == ExactQuaternion(HALF, HALF, HALF, -HALF).key()
    assert q.key() != (-q).key()


def test_exact_trace_form_is_trace_of_product():
    # oracle: dot the form with a random exact quaternion, compare floats
    p = ExactQuaternion(S_CONST, -HALF, ZERO, R_CONST)
    q = ExactQuaternion(HALF, -HALF, -HALF, HALF)
    cw, cx, cy, cz = exact_trace_form(p)
    lin = cw * q.w + cx * q.x + cy * q.y + cz * q.z
    assert float(lin) == pytest.approx(
        su2.trace(su2.quat_mul(p.to_float(), q.to_float())), abs=1e-14)


def test_of_rejects_floats():
    # Fraction(0.1) would be exact but not 1/10: floats stop at the boundary
    with pytest.raises(TypeError):
        QFElement.of(0.1)
    with pytest.raises(TypeError):
        QFElement.of(0, 0.5)
    with pytest.raises(TypeError):
        ExactQuaternion.of(0.5, 0.5, 0.5, 0.5)
    assert QFElement.of(1, Fraction(1, 2)) == QFElement.of(Fraction(2, 2), Fraction(2, 4))


# ---------------------------------------------------------------------------
# the integer code against the four-Fraction formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefQF:
    """q0 + q1*sqrt2 + q2*sqrt5 + q3*sqrt10 with four Fraction coefficients."""

    q0: Fraction
    q1: Fraction
    q2: Fraction
    q3: Fraction

    def __add__(self, o):
        return RefQF(self.q0 + o.q0, self.q1 + o.q1, self.q2 + o.q2, self.q3 + o.q3)

    def __neg__(self):
        return RefQF(-self.q0, -self.q1, -self.q2, -self.q3)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        a0, a1, a2, a3 = self.q0, self.q1, self.q2, self.q3
        b0, b1, b2, b3 = o.q0, o.q1, o.q2, o.q3
        return RefQF(
            a0 * b0 + 2 * a1 * b1 + 5 * a2 * b2 + 10 * a3 * b3,
            a0 * b1 + a1 * b0 + 5 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        )

    def inverse(self):
        c2 = RefQF(self.q0, -self.q1, self.q2, -self.q3)
        n2 = self * c2
        c5 = RefQF(n2.q0, Fraction(0), -n2.q2, Fraction(0))
        n5 = n2 * c5
        return c2 * c5 * RefQF(1 / n5.q0, Fraction(0), Fraction(0), Fraction(0))

    def __float__(self):
        return (float(self.q0) + float(self.q1) * math.sqrt(2.0)
                + float(self.q2) * math.sqrt(5.0) + float(self.q3) * math.sqrt(10.0))

    def __repr__(self):
        parts = [f"{c}{sym}" for c, sym in ((self.q0, ""), (self.q1, "*sqrt2"),
                                            (self.q2, "*sqrt5"), (self.q3, "*sqrt10")) if c]
        return " + ".join(parts) if parts else "0"


RATIONALS = st.one_of(
    st.fractions(max_denominator=10 ** 6, min_value=-10 ** 6, max_value=10 ** 6),
    st.integers(-10 ** 30, 10 ** 30).map(Fraction),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 4)]),
)
ELEMENTS = st.tuples(RATIONALS, RATIONALS, RATIONALS, RATIONALS)


def _agree(x: QFElement, ref: RefQF) -> None:
    """x equals ref coefficient by coefficient, in repr and in float (bit for
    bit), and its code is in lowest terms."""
    assert (x.q0, x.q1, x.q2, x.q3) == (ref.q0, ref.q1, ref.q2, ref.q3)
    assert repr(x) == repr(ref)
    assert float(x).hex() == float(ref).hex()
    *nums, d = x._code
    assert d > 0 and math.gcd(*nums, d) == 1


@given(ELEMENTS, ELEMENTS)
@settings(max_examples=300, deadline=None)
def test_field_operations_match_fraction_formulas(a, b):
    x, y = QFElement.of(*a), QFElement.of(*b)
    ra, rb = RefQF(*a), RefQF(*b)
    _agree(x, ra)
    _agree(x + y, ra + rb)
    _agree(x - y, ra - rb)
    _agree(-x, -ra)
    _agree(x * y, ra * rb)
    if any(a):
        _agree(x.inverse(), ra.inverse())
        assert x * x.inverse() == ONE
    assert (x == y) == (ra == rb)
    assert x == QFElement.of(*a) and hash(x) == hash(QFElement.of(*a))


@given(ELEMENTS, st.integers(-50, 50))
@settings(max_examples=100, deadline=None)
def test_field_operations_with_integers(a, n):
    x, ra, rn = QFElement.of(*a), RefQF(*a), RefQF(*map(Fraction, (n, 0, 0, 0)))
    _agree(n * x, rn * ra)
    _agree(x + n, ra + rn)
    _agree(n - x, rn - ra)
    _agree(x - n, ra - rn)


@pytest.mark.parametrize("handle", ["T", "C", "D1"])
def test_exact_trace_mul_is_float_of_exact_trace(handle):
    from su2moduli.appendix import GENERATORS
    from su2moduli.classify import finite_closure

    elems = finite_closure(list(GENERATORS[handle])).elements
    for g in elems:
        for h in elems:
            assert EXACT_ARITHMETIC.trace_mul(g, h) == float((g * h).trace())
