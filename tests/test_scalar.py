"""Backend arithmetic: exact quadratic field, rationals, precision floats."""

from __future__ import annotations

import copy
import math
import operator
import pickle
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratlap.measure import _power
from bratlap.scalar import (
    ApproxBackend,
    ApproxReal,
    EQ,
    FieldArray,
    GT,
    LT,
    MIN_PRECISION,
    QuadraticBackend,
    QuadraticNumber,
    RationalBackend,
    compare,
    exact_power,
    is_square_free,
    parse_backend,
    scalar_sign,
    square_free_part,
)
from oracles import PairQuadratic

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
        lhs = ApproxReal.make(x, 100).value * ApproxReal.make(y, 100).value
        rhs = ApproxReal.make(prod, 100).value
        assert abs(lhs - rhs) < mpmath.mpf(2) ** -90


def test_mismatched_discriminants_rejected():
    x = Q5.make((1, 1))
    y = QuadraticBackend(2).make((1, 1))
    with pytest.raises(ValueError):
        x * y


def test_embed_phi_53_bits():
    e = ApproxReal.make(PHI, 53)
    assert float(e) == pytest.approx(1.618033988749895, abs=4e-16)


def _assert_float_accurate(x):
    ref = float(ApproxReal.make(x, 400))
    assert abs(float(x) - ref) <= 4e-16 * abs(ref), x


def test_float_of_cancelling_parts_is_accurate():
    # phi^-n = a + b*sqrt5 with a and b of opposite signs and |a| ~ phi^n / 2:
    # adding the two parts in floats loses about n*log10(phi) digits
    for n in range(41):
        _assert_float_accurate(PHI ** -n)
    root2 = QuadraticBackend(2).make((1, 1))
    for n in range(1, 41):
        _assert_float_accurate(root2 ** -n)
        _assert_float_accurate(Fraction(3, 7) * root2 ** -n - Fraction(1, 10 ** 9))
    # a norm beyond the float range falls back to adding the parts
    assert float(Q5.make((10 ** 200, -10 ** 200))) == 1e200 - 1e200 * math.sqrt(5)


def test_embed_exact_cases():
    assert float(ApproxReal.make(Q5.make(0), 53)) == 0.0
    assert float(ApproxReal.make(Q5.make(2), 53)) == 2.0


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


HALF = Fraction(1, 2)


def test_exact_sqrt_in_field():
    theta = PHI * PHI   # (3 + sqrt5)/2
    root = _power(Q5, theta, HALF, 212)
    assert root == PHI
    assert _power(Q5, Q5.make(4), HALF, 212) == Q5.make(2)
    assert _power(Q5, Q5.make(5), HALF, 212) == SQRT5
    # sqrt2 is not in Q(sqrt5): the power falls back to an approximate scalar
    assert isinstance(_power(Q5, Q5.make(2), HALF, 212), ApproxReal)


def test_rational_backend_roundtrip():
    r = RationalBackend()
    assert r.make(3) == Fraction(3)
    assert _power(r, Fraction(9, 4), HALF, 212) == Fraction(3, 2)
    assert isinstance(_power(r, Fraction(2), HALF, 212), ApproxReal)
    assert _power(r, Fraction(2), Fraction(-2), 212) == Fraction(1, 4)


def test_approx_backend_power():
    a = ApproxBackend(100)
    x = _power(a, a.make(2), HALF, 212)
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
    lhs = ApproxReal.make(x * y, prec)
    rhs = ApproxReal.make(x, prec) * ApproxReal.make(y, prec)
    scale = max(abs(float(lhs)), abs(float(rhs)), 1.0)
    assert abs(float(lhs) - float(rhs)) <= 4 * scale * 2.0 ** (1 - prec)


@given(small_fracs, small_fracs, small_fracs, small_fracs)
@settings(max_examples=100, deadline=None)
def test_compare_agrees_with_embedding(a1, b1, a2, b2):
    prec = 80
    x = Q5.make((a1, b1))
    y = Q5.make((a2, b2))
    ex, ey = ApproxReal.make(x, prec), ApproxReal.make(y, prec)
    if abs(float(ex - ey)) > 2.0 ** (3 - prec):
        assert compare(x, y) == (ex - ey).sign()


exact_scalars = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=50),
    st.builds(lambda a, b: Q5.make((a, b)), small_fracs, small_fracs),
).filter(lambda x: scalar_sign(x) != 0)


@given(exact_scalars, st.integers(min_value=-3, max_value=3),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=200, deadline=None)
def test_exact_power_is_the_one_rule(x, k, e):
    backend = RationalBackend() if isinstance(x, Fraction) else Q5
    magnitude = x if scalar_sign(x) > 0 else -x
    assert exact_power(x * x, HALF) == magnitude
    assert exact_power(x, Fraction(k)) == x ** k
    # the power falls back to an approximate scalar exactly where the rule
    # finds no exact value
    assert isinstance(_power(backend, magnitude, e, 80), ApproxReal) == \
        (exact_power(magnitude, e) is None)


def test_backends_are_frozen_values():
    assert QuadraticBackend(5) == parse_backend("quadratic") != QuadraticBackend(2)
    assert hash(QuadraticBackend(5)) == hash(Q5)
    assert ApproxBackend() == ApproxBackend(MIN_PRECISION) != ApproxBackend(200)
    assert RationalBackend() == parse_backend("rational")
    assert [b.kind for b in (RationalBackend(), Q5, ApproxBackend(64))] == \
        ["rational", "quadratic:5", "approx:64"]
    for bad in (4, 1):
        with pytest.raises(ValueError):
            QuadraticBackend(bad)
    with pytest.raises(ValueError):
        ApproxBackend(MIN_PRECISION - 1)
    with pytest.raises(AttributeError):
        Q5.disc = 2


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
quadratic_numbers = st.builds(
    QuadraticNumber,
    st.fractions(max_denominator=10 ** 12),
    st.fractions(max_denominator=10 ** 12),
    st.sampled_from([2, 5]),
)
precisions = st.integers(min_value=MIN_PRECISION, max_value=400)
ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


def _under_workprec(op, lhs, rhs, prec):
    """op evaluated on mpmath.mpf values inside mpmath.workprec(prec), with
    plain operands converted as mpmath.mpf does (a Fraction as numerator /
    denominator) and a QuadraticNumber as ApproxReal.make converts it: the
    reference the libmp-level operators must match."""
    with mpmath.workprec(prec):
        def conv(v):
            if isinstance(v, ApproxReal):
                return v.value
            if isinstance(v, QuadraticNumber):
                return ApproxReal.make(v, prec).value
            if isinstance(v, Fraction):
                return mpmath.mpf(v.numerator) / v.denominator
            return mpmath.mpf(v)
        return op(conv(lhs), conv(rhs))._mpf_


def _is_zero_operand(v):
    return v.is_zero() if isinstance(v, (ApproxReal, QuadraticNumber)) else v == 0


@given(plain_numbers, precisions,
       st.one_of(plain_numbers, quadratic_numbers, st.tuples(plain_numbers, precisions)),
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
    if isinstance(y, QuadraticNumber):
        # the conversion the reference uses: a + b*sqrt(D) under workprec
        with mpmath.workprec(prec):
            direct = (mpmath.mpf(y.a.numerator) / y.a.denominator
                      + mpmath.mpf(y.b.numerator) / y.b.denominator * mpmath.sqrt(y.disc))
        assert ApproxReal.make(y, prec).value._mpf_ == direct._mpf_
    # forward, then reflected (for a plain number or a QuadraticNumber y,
    # y op x is x's __r*__)
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


def _square_free_by_trial_division(n: int) -> int:
    """The square-free part by dividing out f^2 for every f up to sqrt(n)."""
    f = 2
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
        f += 1
    return n


@given(st.integers(1, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_square_free_part_matches_trial_division(n):
    assert square_free_part(n) == _square_free_by_trial_division(n)
    assert is_square_free(n) == (_square_free_by_trial_division(n) == n)


@given(st.integers(2, 10 ** 6), st.integers(1, 10 ** 4))
@settings(max_examples=200, deadline=None)
def test_square_free_part_drops_a_large_square(p, m):
    # with p prime above the cube root, p^2 is the cofactor the isqrt test ends
    assert square_free_part(p * p * m) == _square_free_by_trial_division(m)


def test_square_free_part_examples():
    assert [square_free_part(n) for n in (1, 4, 12, 18, 20, 45, 999_983 ** 2 * 6)] == \
        [1, 1, 3, 2, 5, 5, 6]
    assert not is_square_free(0) and not is_square_free(-5)


big_fracs = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
operands = st.one_of(st.integers(-10 ** 30, 10 ** 30), big_fracs)
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def _agrees(got, want) -> bool:
    """An integer QuadraticNumber against its Fraction-pair reference: the
    same coordinates, as Fractions, the same text and the same float bits;
    anything else by ==."""
    if not isinstance(want, PairQuadratic):
        return type(got) is type(want) and got == want
    return (isinstance(got, QuadraticNumber) and type(got.a) is type(got.b) is Fraction
            and (got.a, got.b, got.disc) == (want.a, want.b, want.disc)
            and got.r > 0 and math.gcd(got.p, got.q, got.r) == 1
            and repr(got) == repr(want) and float(got).hex() == float(want).hex())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        return exc.__class__


@given(big_fracs, big_fracs, big_fracs, big_fracs, operands, st.sampled_from([2, 5, 13]),
       st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_integer_quadratic_matches_fraction_pairs(a, b, c, d, k, disc, e):
    """Every operation of the integer QuadraticNumber against the
    Fraction-pair form it replaced, in Q(sqrt2), Q(sqrt5) and Q(sqrt13),
    with parts up to 10^30: the ten arithmetic operators forward and
    reflected, against each other and against ints and Fractions, and
    inverse, powers, norm, sign, roots, conjugate, repr, both format_exact
    bases and the float bits."""
    x, y = QuadraticNumber(a, b, disc), QuadraticNumber(c, d, disc)
    rx, ry = PairQuadratic(a, b, disc), PairQuadratic(c, d, disc)
    assert _agrees(x, rx) and _agrees(-x, -rx)
    for op in ARITHMETIC:
        for lhs, rhs, ref_lhs, ref_rhs in ((x, y, rx, ry), (x, k, rx, k), (k, x, k, rx)):
            assert _agrees(_outcome(op, lhs, rhs), _outcome(op, ref_lhs, ref_rhs)), (op, lhs, rhs)
    assert _agrees(_outcome(QuadraticNumber.inverse, x), _outcome(PairQuadratic.inverse, rx))
    assert _agrees(_outcome(operator.pow, x, e), _outcome(operator.pow, rx, e))
    assert _agrees(x.norm(), rx.norm()) and x.sign() == rx.sign()
    assert _agrees(x.conjugate(), rx.conjugate())
    for z, rz in ((x, rx), (x * x, rx * rx), (x * x * 4 * disc, rx * rx * 4 * disc)):
        root, want = z.sqrt(), rz.sqrt()
        assert (root is None) == (want is None) and (root is None or _agrees(root, want))
    backend = QuadraticBackend(disc)
    want = f"({rx.a - rx.b}) + ({2 * rx.b})*phi" if disc == 5 else \
        f"({rx.a}) + ({rx.b})*sqrt({disc})"
    assert backend.format_exact(x) == want
    # equal values, however formed, have equal fields and equal hashes
    same = (x + y) - y
    assert same == x and hash(same) == hash(x) and (same.p, same.q, same.r) == (x.p, x.q, x.r)


def test_integer_quadratic_is_a_closed_value_type():
    x = QuadraticNumber(Fraction(3, 4), Fraction(-1, 6), 5)
    assert (x.p, x.q, x.r, x.disc) == (9, -2, 12, 5)
    assert QuadraticNumber(Fraction(6, 8), 0, 5) == Q5.make(Fraction(3, 4)) != Fraction(3, 4)
    assert Fraction(3, 4) != Q5.make(Fraction(3, 4)) and Q5.make(2) != 2
    for name in ("p", "q", "r", "disc", "a", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(ValueError):
        x + QuadraticNumber(1, 1, 2)
    with pytest.raises(ValueError):
        QuadraticNumber(1, 1, 4)
    for zero in (Q5.zero, QuadraticNumber(0, 0, 13)):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            1 / zero
    with pytest.raises(TypeError):
        QuadraticNumber(0.5, 0, 5)
    # the tracer counts the arithmetic by wrapping the class's own operators
    assert all(name in QuadraticNumber.__dict__ for name in DUNDERS)
    assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x


def _field_values(parts, disc):
    """Scalars of Q (disc None) or Q(sqrt disc) from pairs of Fractions."""
    return [a if disc is None else QuadraticNumber(a, b, disc) for a, b in parts]


FIELDS = st.sampled_from([None, 2, 5, 13])
frac_pairs = st.lists(st.tuples(big_fracs, big_fracs), min_size=1, max_size=8)


@given(frac_pairs, FIELDS)
@settings(max_examples=200, deadline=None)
def test_field_array_reads_and_writes_scalars_exactly(pairs, disc):
    """Scalars read into a FieldArray and read back by pairs() are the same
    scalars, of the same type and in lowest terms, with the bits of their
    own float, on Q, Q(sqrt2), Q(sqrt5) and Q(sqrt13); equal rows share one
    pair, and the coordinates are over the lcm of the denominators."""
    values = _field_values(pairs, disc)
    values.append(values[0])
    arr = FieldArray.of(values)
    assert arr.num.shape == (len(values), 1 if disc is None else 2)
    assert arr.den == math.lcm(*(x.denominator if disc is None else x.r for x in values))
    got = arr.pairs()
    for x, (y, y_float) in zip(values, got):
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
        assert y_float.hex() == float(x).hex()
    assert got[-1] is got[0]


@given(frac_pairs, frac_pairs, FIELDS)
@settings(max_examples=200, deadline=None)
def test_field_array_row_product_is_the_scalar_product(xs, ys, disc):
    """times() through the companion matrix against the Fraction and
    QuadraticNumber products, row by row, and the sum against +."""
    n = min(len(xs), len(ys))
    x, y = _field_values(xs[:n], disc), _field_values(ys[:n], disc)
    fx, fy = FieldArray.of(x), FieldArray.of(y)
    assert [p for p, _ in fx.times(fy).pairs()] == [a * b for a, b in zip(x, y)]
    assert [p for p, _ in (fx + fy).pairs()] == [a + b for a, b in zip(x, y)]
    # a Fraction in a quadratic array takes the field's coordinates
    if disc is not None:
        mixed = FieldArray.of([Fraction(3, 4), *x])
        assert mixed.gen == ((0, disc), (1, 0))
        assert [p for p, _ in mixed.pairs()] == [QuadraticNumber(Fraction(3, 4), 0, disc), *x]


def test_field_array_multiplies_by_a_matrix_and_adds_terms_by_key():
    """mul() applies one value's integer multiplication matrix to every row,
    and plus() adds keyed terms, rescaled to the new denominator, with None
    adding nothing."""
    x = [Q5.make((Fraction(1, 3), 2)), Q5.make((-1, Fraction(1, 2)))]
    arr = FieldArray.of(x)
    # multiplication by sqrt5 is the companion matrix itself
    assert [p for p, _ in arr.mul(arr.gen).pairs()] == [v * SQRT5 for v in x]
    terms = {(0,): PHI, (1,): None, (2,): Q5.make(Fraction(1, 7))}
    at = (np.array([2, 1, 0]),)
    got = arr.plus(terms, (3,), at, np.array([1, 0, 1]))
    assert got.den == math.lcm(arr.den, 2, 7)
    assert [p for p, _ in got.pairs()] == [x[1] + Fraction(1, 7), x[0], x[1] + PHI]
