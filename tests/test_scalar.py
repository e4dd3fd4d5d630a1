"""Backend arithmetic: exact quadratic field, rationals, precision floats."""

from __future__ import annotations

import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratlap.scalar import (
    ApproxBackend,
    ApproxReal,
    EQ,
    GT,
    LT,
    MIN_PRECISION,
    ExactnessError,
    QuadraticBackend,
    QuadraticNumber,
    RationalBackend,
    compare,
    embed_real,
    parse_backend,
)

Q5 = QuadraticBackend(5)
PHI = Q5.make((Fraction(1, 2), Fraction(1, 2)))
SQRT5 = Q5.make((0, 1))


def test_sqrt5_squared():
    assert SQRT5 * SQRT5 == Q5.make(5)


def test_golden_ratio_identity():
    assert PHI * PHI == Q5.make((Fraction(3, 2), Fraction(1, 2)))
    assert PHI * PHI == PHI + 1


def test_hand_expanded_product():
    x = Q5.make((1, 2))
    y = Q5.make((3, -1))
    prod = x * y
    assert prod == Q5.make((-7, 5))
    # cross-check against a 100-bit embedding
    with mpmath.workprec(100):
        lhs = embed_real(x, 100).value * embed_real(y, 100).value
        rhs = embed_real(prod, 100).value
        assert abs(lhs - rhs) < mpmath.mpf(2) ** -90


def test_mismatched_discriminants_rejected():
    x = Q5.make((1, 1))
    y = QuadraticBackend(2).make((1, 1))
    with pytest.raises(ValueError):
        x * y


def test_embed_phi_53_bits():
    e = embed_real(PHI, 53)
    assert float(e) == pytest.approx(1.618033988749895, abs=4e-16)


def test_embed_exact_cases():
    assert float(embed_real(Q5.make(0), 53)) == 0.0
    assert float(embed_real(Q5.make(2), 53)) == 2.0


def test_compare_examples():
    assert compare(PHI, Q5.make(1)) == GT
    assert compare(Q5.make((1, -1)), Q5.make(0)) == LT
    # phi^3 = 2*phi + 1 exactly in the field
    assert compare(2 * PHI + 1, PHI ** 3) == EQ


def test_compare_rejects_mixed_backends():
    with pytest.raises(ValueError):
        compare(PHI, ApproxReal.make(1.618, 53))
    with pytest.raises(ValueError):
        compare(Fraction(1), ApproxReal.make(1, 53))


def test_quadratic_sign_cases():
    assert Q5.make((3, -1)).sign() == 1      # 3 > sqrt5
    assert Q5.make((2, -1)).sign() == -1     # 2 < sqrt5
    assert Q5.make((-2, 1)).sign() == 1
    assert Q5.make((-3, 1)).sign() == -1
    assert Q5.make(0).sign() == 0


def test_quadratic_division_and_powers():
    x = Q5.make((3, 2))
    assert x / x == Q5.one
    assert (PHI ** -1) * PHI == Q5.one
    assert PHI ** 5 == 5 * PHI + 3


def test_exact_sqrt_in_field():
    theta = PHI * PHI   # (3 + sqrt5)/2
    root = Q5.sqrt(theta)
    assert root == PHI
    assert Q5.sqrt(Q5.make(4)) == Q5.make(2)
    assert Q5.sqrt(Q5.make(5)) == SQRT5
    with pytest.raises(ExactnessError):
        Q5.sqrt(Q5.make(2))


def test_rational_backend_roundtrip():
    r = RationalBackend()
    assert r.make(3) == Fraction(3)
    assert r.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    with pytest.raises(ExactnessError):
        r.sqrt(Fraction(2))
    assert r.pow_fraction(Fraction(2), Fraction(-2)) == Fraction(1, 4)


def test_approx_backend_power():
    a = ApproxBackend(100)
    x = a.pow_fraction(a.make(2), Fraction(1, 2))
    assert float(x * x) == pytest.approx(2.0, rel=1e-25)
    assert x.precision == 100


def test_parse_backend():
    assert parse_backend("rational").kind == "rational"
    assert parse_backend("quadratic:5").disc == 5
    assert parse_backend("approx:200").precision == 200
    with pytest.raises(ValueError):
        parse_backend("decimal")
    with pytest.raises(ValueError):
        parse_backend("approx:16")


def test_format_exact_phi_basis():
    # -(2*phi + 1) = -2 - sqrt5  ->  (-1) + (-2)*phi
    x = -(2 * PHI + 1)
    assert Q5.format_exact(x) == "(-1) + (-2)*phi"
    assert "phi" in Q5.header()


small_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(small_fracs, small_fracs, small_fracs, small_fracs, small_fracs, small_fracs)
@settings(max_examples=150, deadline=None)
def test_field_axioms_quadratic(a1, b1, a2, b2, a3, b3):
    x = Q5.make((a1, b1))
    y = Q5.make((a2, b2))
    z = Q5.make((a3, b3))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    if not y.is_zero():
        assert (x / y) * y == x
    # results skip the constructor's checks, so they must come out as the
    # constructor would have made them
    for r in (x + y, x - y, -x, x * y, x * 2, 1 - x, x ** 3, x.conjugate()):
        assert type(r.a) is Fraction and type(r.b) is Fraction and r.disc == 5
        assert hash(r) == hash(QuadraticNumber(r.a, r.b, 5))


@given(small_fracs, small_fracs, small_fracs, small_fracs)
@settings(max_examples=100, deadline=None)
def test_embed_is_ring_homomorphism(a1, b1, a2, b2):
    prec = 80
    x = Q5.make((a1, b1))
    y = Q5.make((a2, b2))
    lhs = embed_real(x * y, prec)
    rhs = embed_real(x, prec) * embed_real(y, prec)
    scale = max(abs(float(lhs)), abs(float(rhs)), 1.0)
    assert abs(float(lhs) - float(rhs)) <= 4 * scale * 2.0 ** (1 - prec)


@given(small_fracs, small_fracs, small_fracs, small_fracs)
@settings(max_examples=100, deadline=None)
def test_compare_agrees_with_embedding(a1, b1, a2, b2):
    prec = 80
    x = Q5.make((a1, b1))
    y = Q5.make((a2, b2))
    ex, ey = embed_real(x, prec), embed_real(y, prec)
    if abs(float(ex - ey)) > 2.0 ** (3 - prec):
        assert compare(x, y) == (ex - ey).sign()


def test_approx_precision_tracking():
    x = ApproxReal.make(Fraction(1, 3), 140)
    y = ApproxReal.make(Fraction(1, 7), 90)
    assert (x * y).precision == 90
    with pytest.raises(ValueError):
        ApproxReal.make(1.0, 20)


plain_numbers = st.one_of(
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10 ** 12),
)
precisions = st.integers(min_value=MIN_PRECISION, max_value=400)
ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


def _under_workprec(op, lhs, rhs, prec):
    """op evaluated on mpmath.mpf values inside mpmath.workprec(prec), with
    plain operands converted as mpmath.mpf does (a Fraction as numerator /
    denominator): the reference the libmp-level operators must match."""
    with mpmath.workprec(prec):
        def conv(v):
            if isinstance(v, ApproxReal):
                return v.value
            if isinstance(v, Fraction):
                return mpmath.mpf(v.numerator) / v.denominator
            return mpmath.mpf(v)
        return op(conv(lhs), conv(rhs))._mpf_


def _is_zero_operand(v):
    return v.is_zero() if isinstance(v, ApproxReal) else v == 0


@given(plain_numbers, precisions, st.one_of(plain_numbers, st.tuples(plain_numbers, precisions)),
       st.sampled_from(ARITHMETIC), st.integers(min_value=-3, max_value=3))
@settings(max_examples=400, deadline=None)
def test_approx_operators_bit_identical_to_workprec(a, prec_a, other, op, k):
    x = ApproxReal.make(a, prec_a)
    if isinstance(other, tuple):
        y = ApproxReal.make(*other)
        prec = min(prec_a, other[1])
    else:
        y = other
        prec = prec_a
    # forward, then reflected (for a plain number y, y op x is x's __r*__)
    for lhs, rhs in ((x, y), (y, x)):
        if op is operator.truediv and _is_zero_operand(rhs):
            continue
        got = op(lhs, rhs)
        assert got.precision == prec
        assert got.value._mpf_ == _under_workprec(op, lhs, rhs, prec)
    with mpmath.workprec(prec_a):
        assert (-x).value._mpf_ == (-x.value)._mpf_
        if k >= 0 or not x.is_zero():
            assert (x ** k).value._mpf_ == (x.value ** k)._mpf_
