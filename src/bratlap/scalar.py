"""Scalars and the backends that name their fields: exact rationals, exact
real quadratic fields Q(sqrt(D)), and precision-tracked floats.

The golden-mean families all live in Q(sqrt(5)), so the quadratic backend lets
every reference constant be checked with zero rounding error.  Its scalars
hold ints, (p + q*sqrt(D)) / r in lowest terms, so exact arithmetic is int
arithmetic; float(x) divides those ints, so it keeps the bits float gives on
the Fraction coordinates.  `FieldArray` is their vectorised form.  Generic
matrices whose dominant eigenvalue has algebraic degree above two run on the
approximate backend instead.  A backend only names and builds its field; the
arithmetic decisions live on the scalars: `exact_power` is the one rule for
which powers stay in a field, `scalar_sign` and `compare` the one
comparison, and float(x) the one conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

LT, EQ, GT = -1, 0, 1

MIN_PRECISION = 53
ROW_BLOCK = 256      # rows a prefix sum, or a dense block, gathers at a time


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


def square_free_part(n: int) -> int:
    """The square-free s with n = s * k^2, for a positive integer n.  Trial
    division stops at the cube root of what is left: a cofactor below the
    cube of its smallest possible prime has at most two prime factors, so it
    is square-free unless it is the square of one prime."""
    part, rest, f = 1, n, 2
    while f * f * f <= rest:
        odd = False
        while rest % f == 0:
            rest //= f
            odd = not odd
        if odd:
            part *= f
        f += 1
    root = math.isqrt(rest)
    return part if root * root == rest else part * rest


def is_square_free(n: int) -> bool:
    return n > 0 and square_free_part(n) == n


class QuadraticNumber:
    """Element (p + q*sqrt(disc)) / r of the real quadratic field
    Q(sqrt(disc)), held as ints with r > 0 and gcd(p, q, r) = 1: a unique
    form, so two values are equal iff their fields are, and each operation
    is int arithmetic with one gcd.  a = p/r and b = q/r are Fraction
    properties.  The embedding uses the root sqrt(disc) > 0; float(x)
    divides ints, which rounds correctly, so it has the bits float gives on
    a and b.  Immutable: memo tables share the values."""

    __slots__ = ("p", "q", "r", "disc")

    def __new__(cls, a, b, disc: int):
        a, b = _as_fraction(a), _as_fraction(b)
        if disc < 2 or not is_square_free(disc):
            raise ValueError(f"discriminant must be square-free and >= 2, got {disc}")
        return _quad(a.numerator * b.denominator, b.numerator * a.denominator,
                     a.denominator * b.denominator, disc)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticNumber is immutable")

    def __reduce__(self):
        return _quad, (self.p, self.q, self.r, self.disc)

    def __eq__(self, other):
        if other.__class__ is not QuadraticNumber:
            return NotImplemented
        return (self.p, self.q, self.r, self.disc) == (other.p, other.q, other.r, other.disc)

    def __hash__(self):
        return hash((self.p, self.q, self.r, self.disc))

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.r)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.r)

    def _coerce(self, other) -> tuple[int, int, int] | None:
        """other as (p, q, r), or None unless it is an int, a Fraction or a
        QuadraticNumber of the same field."""
        if isinstance(other, QuadraticNumber):
            if other.disc != self.disc:
                raise ValueError(f"mismatched discriminants {self.disc} and {other.disc}")
            return other.p, other.q, other.r
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        return _quad(self.p * r + p * self.r, self.q * r + q * self.r, self.r * r, self.disc)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.p, -self.q, self.r, self.disc)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        return _quad(self.p * r - p * self.r, self.q * r - q * self.r, self.r * r, self.disc)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        return _quad(p * self.r - self.p * r, q * self.r - self.q * r, self.r * r, self.disc)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        return _quad(self.p * p + self.q * q * self.disc, self.p * q + self.q * p,
                     self.r * r, self.disc)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        return _quotient((1, 0, 1), (self.p, self.q, self.r), self.disc)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quotient((self.p, self.q, self.r), o, self.disc)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quotient(o, (self.p, self.q, self.r), self.disc)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = _quad(1, 0, 1, self.disc)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "QuadraticNumber":
        return _quad(self.p, -self.q, self.r, self.disc)

    def norm(self) -> Fraction:
        return Fraction(self.p * self.p - self.q * self.q * self.disc, self.r * self.r)

    def sign(self) -> int:
        """Exact sign of the real embedding: that of p + q when p and q do
        not have opposite signs, else that of p times p^2 - q^2 D."""
        p, q = self.p, self.q
        if (p >= 0) == (q >= 0) or not p or not q:
            return (p + q > 0) - (p + q < 0)
        n = p * p - q * q * self.disc
        return (n > 0) - (n < 0) if p > 0 else (n < 0) - (n > 0)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def sqrt(self) -> "QuadraticNumber | None":
        """Exact non-negative square root inside the same field, or None.

        (c + e*sqrt(D))^2 = a + b*sqrt(D) means c^2 + D e^2 = a and 2ce = b,
        so e^2 = (a + n) / 2D or (a - n) / 2D, with n^2 = a^2 - D b^2 the
        norm, a rational square; e = 0 leaves b = 0 and c^2 = a.
        """
        if self.sign() < 0:
            return None
        a, b, d = self.a, self.b, self.disc
        n = rational_sqrt(a * a - b * b * d)
        for e in () if n is None else (rational_sqrt((a + n) / (2 * d)),
                                       rational_sqrt((a - n) / (2 * d))):
            if e:
                root = QuadraticNumber(b / (2 * e), e, d)
                return root if root.sign() >= 0 else -root
            if e == 0 and (c := rational_sqrt(a)) is not None:
                return QuadraticNumber(c, 0, d)
        return None

    def __float__(self) -> float:
        x = self.p / self.r
        y = self.q / self.r * math.sqrt(self.disc)
        if x > 0 > y or y > 0 > x:
            # x + y cancels; norm / (a - b*sqrt(D)), the same number, does not
            try:
                norm = (self.p * self.p - self.q * self.q * self.disc) / (self.r * self.r)
                return norm / (x - y)
            except OverflowError:       # the norm is beyond the float range
                pass
        return x + y

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
        _bind_libmp()
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
        _bind_libmp()
        raw = _operand(x, precision)
        if raw is not None:
            return _approx(raw, precision)
        with mpmath.workprec(precision):
            return ApproxReal(mpmath.mpf(x), precision)

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

    def sign(self) -> int:
        return mpf_sign(self._mpf)

    def is_zero(self) -> bool:
        return self._mpf == fzero

    def __float__(self) -> float:
        return mpf_to_float(self._mpf, False, _ROUND)

    def __repr__(self) -> str:
        return f"ApproxReal({mpmath.nstr(self.value, 20)}, prec={self.precision})"


_ROUND = None       # libmp's round-to-nearest, once _bind_libmp has run
_setattr = object.__setattr__
_new = object.__new__


def _bind_libmp() -> None:
    """Import mpmath and bind, as module globals, the libmp kernels that
    ApproxReal's arithmetic reads, with _ROUND the rounding mpmath.workprec
    leaves in force.  It runs when the first ApproxBackend, or ApproxReal
    from a value that is not one, is made: exact work never imports mpmath,
    and an operation on an ApproxReal, which exists only after this ran,
    makes no check."""
    global mpmath, from_float, from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_neg, \
        mpf_pos, mpf_pow_int, mpf_sign, mpf_sqrt, mpf_sub, mpf_to_float, _ROUND
    if _ROUND is not None:
        return
    import mpmath
    from mpmath.libmp import (from_float, from_int, fzero, mpf_add, mpf_div, mpf_mul,
                              mpf_neg, mpf_pos, mpf_pow_int, mpf_sign, mpf_sqrt, mpf_sub)
    from mpmath.libmp import round_nearest as _ROUND
    from mpmath.libmp import to_float as mpf_to_float


def _approx(raw: tuple, precision: int) -> ApproxReal:
    """An ApproxReal from a libmp result, skipping the constructor's check:
    the precision comes from operands that already passed it."""
    out = _new(ApproxReal)
    _setattr(out, "_mpf", raw)
    _setattr(out, "precision", precision)
    return out


def _quad(p: int, q: int, r: int, disc: int) -> QuadraticNumber:
    """(p + q*sqrt(disc)) / r in lowest terms with r > 0, for r != 0 and a
    disc that already passed the constructor's check."""
    g = math.gcd(p, q, r)
    if r < 0:
        g = -g
    out = _new(QuadraticNumber)
    _setattr(out, "p", p // g)
    _setattr(out, "q", q // g)
    _setattr(out, "r", r // g)
    _setattr(out, "disc", disc)
    return out


def _quotient(x: tuple, y: tuple, disc: int) -> QuadraticNumber:
    """x / y for (p, q, r) triples: x times y's conjugate over y's norm."""
    (p, q, r), (u, v, w) = x, y
    n = u * u - v * v * disc
    if n == 0:
        raise ZeroDivisionError("division by zero in quadratic field")
    return _quad(w * (p * u - q * v * disc), w * (q * u - p * v), r * n, disc)


def _operand(x, precision: int) -> tuple | None:
    """x as a libmp value rounded to precision bits, as mpmath.mpf(x) gives it
    under workprec(precision) (a Fraction as numerator / denominator, and
    a + b*sqrt(D) as a + b * mpmath.sqrt(D)); None unless x is an int, float,
    Fraction or QuadraticNumber."""
    if isinstance(x, int):
        return from_int(x, precision, _ROUND)
    if isinstance(x, float):
        return from_float(x, precision, _ROUND)
    if isinstance(x, Fraction):
        return mpf_div(from_int(x.numerator, precision, _ROUND), from_int(x.denominator),
                       precision, _ROUND)
    if isinstance(x, QuadraticNumber):
        root = mpf_sqrt(from_int(x.disc), precision, _ROUND)
        return mpf_add(_operand(x.a, precision),
                       mpf_mul(_operand(x.b, precision), root, precision, _ROUND),
                       precision, _ROUND)
    return None


def _coordinates(x) -> tuple[tuple[int, ...], int, tuple]:
    """An exact scalar as (numerators, denominator, companion matrix of its
    field's generator w): x = sum_j numerators[j] w^j / denominator."""
    if isinstance(x, QuadraticNumber):
        return (x.p, x.q), x.r, ((0, x.disc), (1, 0))
    x = _as_fraction(x)
    return (x.numerator,), x.denominator, ((1,),)


def _apply(matrix, rows: np.ndarray) -> np.ndarray:
    """rows @ matrix.T for an integer matrix without a zero row, with no
    product by 0 or 1."""
    terms = [[rows[:, j] if c == 1 else c * rows[:, j] for j, c in enumerate(row) if c]
             for row in matrix]
    return np.stack([sum(t[1:], t[0]) for t in terms], axis=1)


class FieldArray:
    """Exact values of one field, or of one ring Q[x]/(p), as integer
    coordinates: row k of the (N, m) object array `num` of Python ints, over
    the int `den`, is value k in the power basis (1, w, ..., w^(m-1)) of the
    generator w, whose integer companion matrix `gen` maps the coordinates
    of y to those of w y.  On Q, m = 1 and w = 1; on Q(sqrt D), m = 2,
    w = sqrt D and gen = [[0, D], [1, 0]]."""

    __slots__ = ("num", "den", "gen")

    def __init__(self, num: np.ndarray, den: int, gen: tuple):
        self.num, self.den, self.gen = num, den, gen

    @classmethod
    def of(cls, scalars) -> "FieldArray":
        """Exact scalars of one field, over the lcm of their denominators."""
        parts = [_coordinates(x) for x in scalars]
        gen = next((g for *_, g in parts if len(g) > 1), ((1,),))
        den = math.lcm(*(r for _, r, _ in parts))
        cols = [[nums[j] * (den // r) if j < len(nums) else 0 for nums, r, _ in parts]
                for j in range(len(gen))]
        return cls(np.array(cols, object).T, den, gen)

    def take(self, rows) -> "FieldArray":
        return FieldArray(self.num[rows], self.den, self.gen)

    def _over(self, den: int) -> np.ndarray:
        """The numerators over den, a multiple of self.den."""
        return self.num if den == self.den else self.num * (den // self.den)

    def __add__(self, other: "FieldArray") -> "FieldArray":
        den = math.lcm(self.den, other.den)
        return FieldArray(self._over(den) + other._over(den), den, self.gen)

    def mul(self, matrix) -> "FieldArray":
        """Every row times the value whose multiplication matrix is `matrix`."""
        return FieldArray(self.num @ np.array(matrix, object).T, self.den, self.gen)

    def times(self, other: "FieldArray") -> "FieldArray":
        """Row-wise products, sum_i x[k, i] gen^i y[k], over den * other.den."""
        power, out = other.num, self.num[:, :1] * other.num
        for i in range(1, len(self.gen)):
            power = _apply(self.gen, power)
            out = out + self.num[:, i:i + 1] * power
        return FieldArray(out, self.den * other.den, self.gen)

    def plus(self, terms: dict, shape: tuple, at: tuple, take) -> "FieldArray":
        """Rows `take` plus, row by row, table[at]: the table of the given
        shape holds each exact terms[key] at its key and 0 elsewhere (None
        adds nothing), each term rescaled once to the new denominator."""
        parts = {key: _coordinates(x) for key, x in terms.items() if x is not None}
        den = math.lcm(self.den, *(r for _, r, _ in parts.values()))
        table = np.zeros((*shape, len(self.gen)), object)
        for key, (nums, r, _) in parts.items():
            table[key][:len(nums)] = [n * (den // r) for n in nums]
        return FieldArray(self.take(take)._over(den) + table[at], den, self.gen)

    def pairs(self) -> list[tuple]:
        """(scalar in lowest terms, float) per row, made int by int once per
        distinct row and shared: on Q a Fraction and its numerator over den,
        which rounds as float(Fraction) does."""
        rational = len(self.gen) == 1
        keys = self.num[:, 0].tolist() if rational else list(zip(*self.num.T.tolist()))
        made = {key: (Fraction(key, self.den), key / self.den) if rational else
                (x := _quad(*key, self.den, self.gen[0][1]), float(x)) for key in set(keys)}
        return list(map(made.__getitem__, keys))

    def prefix_sums(self, ids: np.ndarray) -> np.ndarray:
        """Prefix sums of num[ids] along the rows of the 2-D ids, after a 0
        column, shaped (rows, width + 1, m): int64 while max |numerator| *
        width, which bounds them, is below 2^63, else Python ints.  Rows are
        gathered ROW_BLOCK at a time."""
        height, width = ids.shape
        top = max(map(abs, self.num.ravel().tolist()), default=0)
        num = self.num.astype(np.int64 if top * width < 2 ** 63 else object)
        prefix = np.zeros((height, width + 1, len(self.gen)), num.dtype)
        for lo in range(0, height, ROW_BLOCK):
            np.cumsum(num[ids[lo:lo + ROW_BLOCK]], axis=1, out=prefix[lo:lo + ROW_BLOCK, 1:])
        return prefix

    def range_sums(self, prefix: np.ndarray, row, lo, hi) -> "FieldArray":
        """Sums over the columns lo:hi of the given rows, from `prefix_sums`."""
        return FieldArray((prefix[row, hi] - prefix[row, lo]).astype(object), self.den, self.gen)


def exact_power(x, e: Fraction):
    """x^e in x's own field, Q for a Fraction and Q(sqrt(D)) for a
    QuadraticNumber, or None when x^e leaves it.  Only an integer power,
    or the exact square root of one, stays in the field."""
    if e.denominator > 2:
        return None
    p = x ** e.numerator
    if e.denominator == 1:
        return p
    return rational_sqrt(p) if isinstance(p, Fraction) else p.sqrt()


def scalar_sign(x) -> int:
    if isinstance(x, (Fraction, int)):
        return (x > 0) - (x < 0)
    if isinstance(x, (QuadraticNumber, ApproxReal)):
        return x.sign()
    raise TypeError(f"not a scalar: {type(x).__name__}")


def compare(x, y) -> int:
    """Exact three-way comparison of two scalars from the same backend."""
    kinds = {type(x), type(y)} - {int}
    if ApproxReal in kinds and kinds & {QuadraticNumber, Fraction}:
        raise ValueError("cannot compare scalars from different backends")
    return scalar_sign(x - y)


class _Field:
    """What every backend derives from its `make`."""

    @property
    def zero(self):
        return self.make(0)

    @property
    def one(self):
        return self.make(1)


@dataclass(frozen=True)
class RationalBackend(_Field):
    kind = "rational"
    is_exact = True

    def make(self, x) -> Fraction:
        if isinstance(x, (int, Fraction)):
            return _as_fraction(x)
        if isinstance(x, QuadraticNumber) and x.q == 0:
            return x.a
        raise TypeError(f"rational backend cannot hold {x!r}")

    def format_exact(self, x) -> str:
        return str(self.make(x))

    def header(self) -> str:
        return "field=Q"


@dataclass(frozen=True)
class QuadraticBackend(_Field):
    disc: int
    is_exact = True

    def __post_init__(self):
        if self.disc < 2 or not is_square_free(self.disc):
            raise ValueError(f"discriminant must be square-free and >= 2, got {self.disc}")

    @property
    def kind(self) -> str:
        return f"quadratic:{self.disc}"

    def make(self, x) -> QuadraticNumber:
        if isinstance(x, QuadraticNumber):
            if x.disc != self.disc:
                raise ValueError(f"mismatched discriminants {x.disc} and {self.disc}")
            return x
        if isinstance(x, (int, Fraction)):
            return QuadraticNumber(x, 0, self.disc)
        if isinstance(x, tuple) and len(x) == 2:
            return QuadraticNumber(*x, self.disc)
        raise TypeError(f"quadratic backend cannot hold {x!r}")

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


@dataclass(frozen=True)
class ApproxBackend(_Field):
    precision: int = MIN_PRECISION
    is_exact = False

    def __post_init__(self):
        if self.precision < MIN_PRECISION:
            raise ValueError(f"precision must be >= {MIN_PRECISION} bits")
        _bind_libmp()

    @property
    def kind(self) -> str:
        return f"approx:{self.precision}"

    def make(self, x) -> ApproxReal:
        return ApproxReal.make(x, self.precision)

    def header(self) -> str:
        return f"field=R precision={self.precision}bits"


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
