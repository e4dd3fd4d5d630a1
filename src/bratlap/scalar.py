"""Pluggable number backends: exact rationals, exact real quadratic fields
Q(sqrt(D)), and precision-tracked floats.

The golden-mean families all live in Q(sqrt(5)), so the quadratic backend lets
every reference constant be checked with zero rounding error.  Generic
matrices whose dominant eigenvalue has algebraic degree above two run on the
approximate backend instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import (
    from_float,
    from_int,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_pow_int,
    mpf_sign,
    mpf_sub,
    round_nearest,
)
from mpmath.libmp import to_float as mpf_to_float

LT, EQ, GT = -1, 0, 1

MIN_PRECISION = 53


class ExactnessError(ArithmeticError):
    """Requested value is not representable on an exact backend."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def is_square_free(n: int) -> bool:
    if n <= 0:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class QuadraticNumber:
    """Element a + b*sqrt(disc) of the real quadratic field Q(sqrt(disc)).

    The embedding always uses the positive root sqrt(disc) > 0; two values are
    equal iff they agree componentwise.
    """

    a: Fraction
    b: Fraction
    disc: int

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        if self.disc < 2 or not is_square_free(self.disc):
            raise ValueError(f"discriminant must be square-free and >= 2, got {self.disc}")

    def _coerce(self, other) -> "QuadraticNumber | None":
        if isinstance(other, QuadraticNumber):
            if other.disc != self.disc:
                raise ValueError(f"mismatched discriminants {self.disc} and {other.disc}")
            return other
        if isinstance(other, (int, Fraction)):
            return _quad(_as_fraction(other), Fraction(0), self.disc)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(self.a + o.a, self.b + o.b, self.disc)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.a, -self.b, self.disc)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(self.a - o.a, self.b - o.b, self.disc)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quad(
            self.a * o.a + self.b * o.b * self.disc,
            self.a * o.b + self.b * o.a,
            self.disc,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return _quad(self.a / n, -self.b / n, self.disc)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = _quad(Fraction(1), Fraction(0), self.disc)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "QuadraticNumber":
        return _quad(self.a, -self.b, self.disc)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.disc

    def sign(self) -> int:
        """Exact sign of the real embedding, by case analysis on a and a^2 - b^2 D."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        n = self.norm()
        s = (n > 0) - (n < 0)
        return s if a > 0 else -s

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sqrt(self) -> "QuadraticNumber | None":
        """Exact non-negative square root inside the same field, or None.

        Solves (c + e*sqrt(D))^2 = a + b*sqrt(D), which requires the norm
        a^2 - D b^2 to be a rational square.
        """
        if self.sign() < 0:
            return None
        if self.is_zero():
            return QuadraticNumber(Fraction(0), Fraction(0), self.disc)
        a, b, d = self.a, self.b, self.disc
        if b == 0:
            r = rational_sqrt(a)
            if r is not None:
                return QuadraticNumber(r, Fraction(0), d)
            r = rational_sqrt(a / d)
            if r is not None:
                return QuadraticNumber(Fraction(0), r, d)
            return None
        n = rational_sqrt(a * a - b * b * d)
        if n is None:
            return None
        for e2 in ((a + n) / (2 * d), (a - n) / (2 * d)):
            e = rational_sqrt(e2)
            if e is None or e == 0:
                continue
            c = b / (2 * e)
            cand = QuadraticNumber(c, e, d)
            if (cand * cand).a == a and (cand * cand).b == b and cand.sign() >= 0:
                return cand
            cand = -cand
            if (cand * cand).a == a and (cand * cand).b == b and cand.sign() >= 0:
                return cand
        return None

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.disc)

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.a}, {self.b}, sqrt{self.disc})"


class ApproxReal:
    """A real value carried at a declared binary precision (>= 53 bits).

    The value is held as a raw ``mpmath.libmp`` tuple, and arithmetic calls
    the libmp kernels directly with round-to-nearest at the lower precision of
    the two operands.  These are the calls ``mpmath.mpf`` makes under
    ``mpmath.workprec``, so the bits are the same, without the cost of
    switching the global context on every operation.  Instances are
    immutable: memo tables share them between records.
    """

    __slots__ = ("_mpf", "precision")

    def __init__(self, value: mpmath.mpf, precision: int):
        if precision < MIN_PRECISION:
            raise ValueError(f"precision must be >= {MIN_PRECISION} bits")
        _setattr(self, "_mpf", value._mpf_)
        _setattr(self, "precision", precision)

    def __setattr__(self, name, value):
        raise AttributeError("ApproxReal is immutable")

    @property
    def value(self) -> mpmath.mpf:
        return mpmath.mp.make_mpf(self._mpf)

    @staticmethod
    def make(x, precision: int) -> "ApproxReal":
        if precision < MIN_PRECISION:
            raise ValueError(f"precision must be >= {MIN_PRECISION} bits")
        if isinstance(x, ApproxReal):
            return _approx(mpf_pos(x._mpf, precision, _ROUND), precision)
        raw = _operand(x, precision)
        if raw is not None:
            return _approx(raw, precision)
        with mpmath.workprec(precision):
            if isinstance(x, QuadraticNumber):
                v = (mpmath.mpf(x.a.numerator) / x.a.denominator
                     + (mpmath.mpf(x.b.numerator) / x.b.denominator) * mpmath.sqrt(x.disc))
            else:
                v = mpmath.mpf(x)
        return ApproxReal(v, precision)

    def _bin(self, other, op, reflected: bool = False):
        """op(self, other), or op(other, self) when reflected, for a libmp
        kernel op(x, y, prec, rounding)."""
        if isinstance(other, ApproxReal):
            prec = min(self.precision, other.precision)
            y = other._mpf
        else:
            prec = self.precision
            y = _operand(other, prec)
            if y is None:
                return NotImplemented
        if reflected:
            return _approx(op(y, self._mpf, prec, _ROUND), prec)
        return _approx(op(self._mpf, y, prec, _ROUND), prec)

    def __add__(self, other):
        return self._bin(other, mpf_add)

    def __radd__(self, other):
        return self._bin(other, mpf_add, reflected=True)

    def __sub__(self, other):
        return self._bin(other, mpf_sub)

    def __rsub__(self, other):
        return self._bin(other, mpf_sub, reflected=True)

    def __mul__(self, other):
        return self._bin(other, mpf_mul)

    def __rmul__(self, other):
        return self._bin(other, mpf_mul, reflected=True)

    def __truediv__(self, other):
        return self._bin(other, mpf_div)

    def __rtruediv__(self, other):
        return self._bin(other, mpf_div, reflected=True)

    def __neg__(self):
        return _approx(mpf_neg(self._mpf), self.precision)     # exact: no rounding

    def __pow__(self, k):
        if isinstance(k, int):
            return _approx(mpf_pow_int(self._mpf, k, self.precision, _ROUND), self.precision)
        return NotImplemented

    def __eq__(self, other):
        if other.__class__ is not ApproxReal:
            return NotImplemented
        return self._mpf == other._mpf and self.precision == other.precision

    def __hash__(self):
        return hash((self._mpf, self.precision))

    def __reduce__(self):
        return _approx, (self._mpf, self.precision)

    def sign(self) -> int:
        return mpf_sign(self._mpf)

    def is_zero(self) -> bool:
        return self._mpf == fzero

    def __float__(self) -> float:
        return mpf_to_float(self._mpf, False, _ROUND)

    def __repr__(self) -> str:
        return f"ApproxReal({mpmath.nstr(self.value, 20)}, prec={self.precision})"


_ROUND = round_nearest      # the rounding mpmath.workprec leaves in force
_setattr = object.__setattr__
_new = object.__new__


def _approx(raw: tuple, precision: int) -> ApproxReal:
    """An ApproxReal from a libmp result, skipping the constructor's check:
    the precision comes from operands that already passed it."""
    out = _new(ApproxReal)
    _setattr(out, "_mpf", raw)
    _setattr(out, "precision", precision)
    return out


def _quad(a: Fraction, b: Fraction, disc: int) -> QuadraticNumber:
    """A QuadraticNumber from arithmetic on validated operands, skipping
    __post_init__: the parts are already Fractions and disc already passed
    the square-free check."""
    out = _new(QuadraticNumber)
    _setattr(out, "a", a)
    _setattr(out, "b", b)
    _setattr(out, "disc", disc)
    return out


def _operand(x, precision: int) -> tuple | None:
    """x as a libmp value rounded to precision bits, as mpmath.mpf(x) gives it
    under workprec(precision) (a Fraction as numerator / denominator); None
    unless x is an int, float or Fraction."""
    if isinstance(x, int):
        return from_int(x, precision, _ROUND)
    if isinstance(x, float):
        return from_float(x, precision, _ROUND)
    if isinstance(x, Fraction):
        return mpf_div(from_int(x.numerator, precision, _ROUND), from_int(x.denominator),
                       precision, _ROUND)
    return None


Scalar = Fraction | QuadraticNumber | ApproxReal


def embed_real(x, precision: int = MIN_PRECISION) -> ApproxReal:
    """Embed an exact scalar into a float at the given binary precision.

    The result differs from the true real by at most a few ulps, i.e. within
    2^(1-precision) relative error.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION}")
    return ApproxReal.make(x, precision)


def to_float(x) -> float:
    """Float value of any scalar, regardless of backend."""
    if isinstance(x, (Fraction, QuadraticNumber, ApproxReal)):
        return float(x)
    if isinstance(x, (int, float)):
        return float(x)
    raise TypeError(f"not a scalar: {type(x).__name__}")


def scalar_sign(x) -> int:
    if isinstance(x, Fraction):
        return (x > 0) - (x < 0)
    if isinstance(x, (QuadraticNumber, ApproxReal)):
        return x.sign()
    if isinstance(x, int):
        return (x > 0) - (x < 0)
    raise TypeError(f"not a scalar: {type(x).__name__}")


def compare(x, y) -> int:
    """Exact three-way comparison of two scalars from the same backend."""
    kinds = {type(x), type(y)} - {int}
    if QuadraticNumber in kinds and ApproxReal in kinds:
        raise ValueError("cannot compare scalars from different backends")
    if Fraction in kinds and ApproxReal in kinds:
        raise ValueError("cannot compare scalars from different backends")
    return scalar_sign(x - y)


class RationalBackend:
    kind = "rational"
    is_exact = True

    def make(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, QuadraticNumber) and x.b == 0:
            return x.a
        raise TypeError(f"rational backend cannot hold {x!r}")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def compare(self, x, y) -> int:
        return (x > y) - (x < y)

    def to_float(self, x) -> float:
        return float(x)

    def embed(self, x, precision: int) -> ApproxReal:
        return embed_real(x, precision)

    def sqrt(self, x):
        r = rational_sqrt(self.make(x))
        if r is None:
            raise ExactnessError(f"{x} has no exact rational square root")
        return r

    def pow_fraction(self, x, e: Fraction):
        x = self.make(x)
        if e.denominator == 1:
            return x ** e.numerator
        if e.denominator == 2:
            return self.sqrt(x ** e.numerator)
        raise ExactnessError(f"exponent {e} not supported exactly on rationals")

    def format_exact(self, x) -> str:
        return str(self.make(x))

    def header(self) -> str:
        return "field=Q"

    def __repr__(self):
        return "RationalBackend()"

    def __eq__(self, other):
        return isinstance(other, RationalBackend)

    def __hash__(self):
        return hash("rational")


class QuadraticBackend:
    is_exact = True

    def __init__(self, disc: int):
        if disc < 2 or not is_square_free(disc):
            raise ValueError(f"discriminant must be square-free and >= 2, got {disc}")
        self.disc = disc
        self.kind = f"quadratic:{disc}"

    def make(self, x) -> QuadraticNumber:
        if isinstance(x, QuadraticNumber):
            if x.disc != self.disc:
                raise ValueError(f"mismatched discriminants {x.disc} and {self.disc}")
            return x
        if isinstance(x, (int, Fraction)):
            return QuadraticNumber(_as_fraction(x), Fraction(0), self.disc)
        if isinstance(x, tuple) and len(x) == 2:
            return QuadraticNumber(_as_fraction(x[0]), _as_fraction(x[1]), self.disc)
        raise TypeError(f"quadratic backend cannot hold {x!r}")

    @property
    def zero(self):
        return self.make(0)

    @property
    def one(self):
        return self.make(1)

    def compare(self, x, y) -> int:
        return (self.make(x) - self.make(y)).sign()

    def to_float(self, x) -> float:
        return float(self.make(x))

    def embed(self, x, precision: int) -> ApproxReal:
        return embed_real(self.make(x), precision)

    def sqrt(self, x):
        r = self.make(x).sqrt()
        if r is None:
            raise ExactnessError(f"{x!r} has no exact square root in Q(sqrt{self.disc})")
        return r

    def pow_fraction(self, x, e: Fraction):
        x = self.make(x)
        if e.denominator == 1:
            return x ** e.numerator
        if e.denominator == 2:
            return self.sqrt(x ** e.numerator)
        raise ExactnessError(f"exponent {e} not supported exactly in Q(sqrt{self.disc})")

    def format_exact(self, x) -> str:
        x = self.make(x)
        if self.disc == 5:
            # print in the (1, phi) basis, phi = (1 + sqrt5)/2:  a + b*sqrt5 = (a-b) + (2b)*phi
            return f"({x.a - x.b}) + ({2 * x.b})*phi"
        return f"({x.a}) + ({x.b})*sqrt({self.disc})"

    def header(self) -> str:
        if self.disc == 5:
            return "field=Q(sqrt5) basis=1,phi phi=(1+sqrt5)/2"
        return f"field=Q(sqrt{self.disc}) basis=1,sqrt{self.disc}"

    def __repr__(self):
        return f"QuadraticBackend({self.disc})"

    def __eq__(self, other):
        return isinstance(other, QuadraticBackend) and other.disc == self.disc

    def __hash__(self):
        return hash(("quadratic", self.disc))


class ApproxBackend:
    is_exact = False

    def __init__(self, precision: int = MIN_PRECISION):
        if precision < MIN_PRECISION:
            raise ValueError(f"precision must be >= {MIN_PRECISION} bits")
        self.precision = precision
        self.kind = f"approx:{precision}"

    def make(self, x) -> ApproxReal:
        return ApproxReal.make(x, self.precision)

    @property
    def zero(self):
        return self.make(0)

    @property
    def one(self):
        return self.make(1)

    def compare(self, x, y) -> int:
        return (self.make(x) - self.make(y)).sign()

    def to_float(self, x) -> float:
        return float(self.make(x))

    def embed(self, x, precision: int) -> ApproxReal:
        return ApproxReal.make(x, precision)

    def sqrt(self, x):
        x = self.make(x)
        with mpmath.workprec(self.precision):
            return ApproxReal(mpmath.sqrt(x.value), self.precision)

    def pow_fraction(self, x, e: Fraction):
        x = self.make(x)
        with mpmath.workprec(self.precision):
            ev = mpmath.mpf(e.numerator) / e.denominator
            return ApproxReal(mpmath.power(x.value, ev), self.precision)

    def format_exact(self, x) -> str:
        x = self.make(x)
        digits = max(17, int(self.precision * 0.302) + 2)
        return mpmath.nstr(x.value, digits)

    def header(self) -> str:
        return f"field=R precision={self.precision}bits"

    def __repr__(self):
        return f"ApproxBackend({self.precision})"

    def __eq__(self, other):
        return isinstance(other, ApproxBackend) and other.precision == self.precision

    def __hash__(self):
        return hash(("approx", self.precision))


Backend = RationalBackend | QuadraticBackend | ApproxBackend


def parse_backend(spec: str) -> Backend:
    """Parse a --backend flag value: rational | quadratic:D | approx:BITS."""
    spec = spec.strip().lower()
    if spec == "rational":
        return RationalBackend()
    if spec.startswith("quadratic:"):
        return QuadraticBackend(int(spec.split(":", 1)[1]))
    if spec == "quadratic":
        return QuadraticBackend(5)
    if spec.startswith("approx:"):
        return ApproxBackend(int(spec.split(":", 1)[1]))
    if spec == "approx":
        return ApproxBackend(MIN_PRECISION)
    raise ValueError(f"unknown backend spec {spec!r}")
