"""Perron-Frobenius data, cylinder measures, weights, the ultrametric, and
zeta-function partial sums.

The cylinder measure uses the closed form mu[gamma] = v_(r(gamma)) * theta^(1-n)
with the right eigenvector normalized so the root-edge cylinders sum to one;
the Dixmier-trace limit it came from is never evaluated as a limit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from . import _linalg
from .diagram import BratteliDiagram, Path, _check_matrix, is_primitive
from .scalar import (
    ApproxBackend,
    ApproxReal,
    Backend,
    ExactnessError,
    QuadraticBackend,
    RationalBackend,
)

DEFAULT_APPROX_BITS = 212


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class PerronData:
    """Spectral data of a primitive matrix: eigenvalue theta, normalized right
    eigenvector driving the cylinder measures, left eigenvector for diagnostics,
    and the inflation factor theta^(1/d)."""

    backend: Backend
    matrix: tuple[tuple[int, ...], ...]
    theta: object
    v_right: tuple
    v_left: tuple
    dimension: int
    symmetry_order: int
    inflation: object
    inflation_exact: bool
    _theta_pows: dict = field(default_factory=dict, repr=False, compare=False)
    _inflation_pows: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def theta_float(self) -> float:
        return float(self.theta)

    def theta_power(self, k: int):
        if k not in self._theta_pows:
            if k >= 0:
                self._theta_pows[k] = self.theta ** k
            else:
                self._theta_pows[k] = (self.backend.one / self.theta) ** (-k)
        return self._theta_pows[k]

    def inflation_power(self, k: int):
        if k not in self._inflation_pows:
            if k >= 0:
                self._inflation_pows[k] = self.inflation ** k
            else:
                self._inflation_pows[k] = (1 / self.inflation) ** (-k)
        return self._inflation_pows[k]


def _quadratic_factor_near(coeffs: list[int], theta_float: float) -> tuple[int, int] | None:
    """Search for a monic integer quadratic factor x^2 + p x + q of `coeffs`
    whose positive root is near theta_float."""
    span = int(math.ceil(2 * abs(theta_float))) + 3
    for p in range(-span, span + 1):
        q = round(-theta_float * theta_float - p * theta_float)
        if _poly_divisible_by_quadratic(coeffs, p, q):
            disc = p * p - 4 * q
            if disc > 0:
                root = (-p + math.sqrt(disc)) / 2
                if abs(root - theta_float) < 1e-6 * max(1.0, abs(theta_float)):
                    return p, q
    return None


def _poly_divisible_by_quadratic(coeffs: list[int], p: int, q: int) -> bool:
    rem = list(coeffs)
    n = len(rem) - 1
    if n < 2:
        return False
    for k in range(n, 1, -1):
        lead = rem[k]
        rem[k] = 0
        rem[k - 1] -= p * lead
        rem[k - 2] -= q * lead
    return rem[0] == 0 and rem[1] == 0


def theta_min_poly(matrix) -> tuple[tuple[int, ...] | None, float]:
    """Minimal polynomial of the Perron eigenvalue theta of a primitive integer
    matrix, in ascending coefficients, with theta as a float: (-theta, 1) for
    an integer theta, (q, p, 1) for a root of x^2 + p x + q, and None for a
    theta of higher degree."""
    coeffs = _linalg.char_poly([list(r) for r in matrix])
    theta_float = float(max(abs(v) for v in np.linalg.eigvals(np.array(matrix, dtype=float))))
    # a monic integer polynomial has only integer rational roots, and an
    # irrational quadratic factor is prime to them, so it divides the residual
    int_roots, residual = _linalg.deflate_integer_roots(coeffs)
    for r in int_roots:
        if abs(r - theta_float) < 1e-6 * max(1.0, theta_float):
            return (-r, 1), theta_float
    factor = _quadratic_factor_near(residual, theta_float)
    if factor is None:
        return None, theta_float
    p, q = factor
    return (q, p, 1), theta_float


def theta_field(matrix) -> Backend:
    """The smallest exact backend that holds the Perron eigenvalue: rational
    for an integer theta, else quadratic:D with D the square-free part of the
    discriminant p^2 - 4q of its minimal polynomial."""
    poly, _ = theta_min_poly(matrix)
    if poly is None:
        raise MeasureError("Perron eigenvalue has algebraic degree > 2, so no rational "
                           "or quadratic field holds it")
    if len(poly) == 2:
        return RationalBackend()
    disc = poly[1] ** 2 - 4 * poly[0]
    f = 2
    while f * f <= disc:
        while disc % (f * f) == 0:
            disc //= f * f
        f += 1
    return QuadraticBackend(disc)


def _exact_theta(matrix, backend) -> object:
    poly, theta_float = theta_min_poly(matrix)
    if poly is None:
        raise MeasureError("Perron eigenvalue has algebraic degree > 2; use an approx backend")
    if len(poly) == 2:
        return backend.make(-poly[0])
    q, p, _ = poly
    disc = p * p - 4 * q
    if isinstance(backend, RationalBackend):
        raise MeasureError(
            f"Perron eigenvalue is irrational (x^2{p:+d}x{q:+d} = 0); "
            f"use a quadratic backend")
    if disc % backend.disc != 0:
        raise MeasureError(
            f"Perron eigenvalue lives in Q(sqrt{disc}); backend has sqrt{backend.disc}")
    k2 = disc // backend.disc
    k = math.isqrt(k2)
    if k * k != k2:
        raise MeasureError(
            f"Perron eigenvalue lives in Q(sqrt{disc}), not Q(sqrt{backend.disc})")
    theta = backend.make((Fraction(-p, 2), Fraction(k, 2)))
    if abs(float(theta) - theta_float) > 1e-6 * max(1.0, theta_float):
        raise AssertionError("exact theta does not match the numeric spectral radius")
    return theta


def _exact_eigenvector(matrix, theta, backend) -> list:
    r = len(matrix)
    rows = [[backend.make(matrix[i][j]) - (theta if i == j else backend.zero)
             for j in range(r)] for i in range(r)]
    vec = _linalg.kernel_vector(rows, backend)
    signs = {backend.compare(x, backend.zero) for x in vec}
    if 0 in signs or len(signs) != 1:
        raise MeasureError("kernel vector is not strictly one-signed; matrix primitive?")
    if signs == {-1}:
        vec = [-x for x in vec]
    return vec


def _approx_eigen(matrix, backend: ApproxBackend, transpose: bool = False):
    r = len(matrix)
    rows = matrix if not transpose else [[matrix[j][i] for j in range(r)] for i in range(r)]
    prec = backend.precision
    tol = mpmath.mpf(2) ** (8 - prec)
    bound = mpmath.mpf(2) ** (16 - prec)
    with mpmath.workprec(prec):
        def residual():
            return max(abs(sum(mpmath.mpf(rows[i][j]) * v[j] for j in range(r))
                           - theta * v[i]) for i in range(r))

        v = [mpmath.mpf(1) / r] * r
        theta = mpmath.mpf(0)
        # two equal successive estimates can be a coincidence far from the
        # eigenvector (4/3, 5/4, 7/5, 9/7, 4/3, 4/3 on the plastic matrix), so
        # a stalled theta ends the loop only once the residual test passes
        for _ in range(64 * prec):
            w = [sum(mpmath.mpf(rows[i][j]) * v[j] for j in range(r)) for i in range(r)]
            total = sum(w)
            new_theta = total / sum(v)
            v = [x / total for x in w]
            stalled = abs(new_theta - theta) <= tol * abs(new_theta)
            theta = new_theta
            if stalled and residual() <= bound:
                break
        else:
            resid = residual()
            if resid > bound:
                raise MeasureError(
                    f"power iteration residual {resid} too large at {prec} bits")
    return ApproxReal(theta, prec), [ApproxReal(x, prec) for x in v]


def perron(matrix, backend: Backend, symmetry_order: int = 1,
           dimension: int = 1) -> PerronData:
    """Perron-Frobenius eigenvalue and eigenvectors of a primitive matrix,
    with the right eigenvector normalized so that g * sum(v) = 1."""
    rows = _check_matrix(matrix)
    if not is_primitive(rows):
        raise MeasureError("matrix is not primitive")
    if symmetry_order < 1 or dimension < 1:
        raise MeasureError("symmetry_order and dimension must be >= 1")

    if backend.is_exact:
        theta = _exact_theta(rows, backend)
        v = _exact_eigenvector(rows, theta, backend)
        vl = _exact_eigenvector([[rows[j][i] for j in range(len(rows))]
                                 for i in range(len(rows))], theta, backend)
    else:
        theta, v = _approx_eigen(rows, backend)
        _, vl = _approx_eigen(rows, backend, transpose=True)

    total = v[0]
    for x in v[1:]:
        total = total + x
    scale = backend.one / (total * symmetry_order)
    v = tuple(x * scale for x in v)
    dot = vl[0] * v[0]
    for x, y in zip(vl[1:], v[1:]):
        dot = dot + x * y
    vl = tuple(x * (backend.one / dot) for x in vl)

    inflation = theta if dimension == 1 else \
        _power(backend, theta, Fraction(1, dimension), DEFAULT_APPROX_BITS)
    inflation_exact = backend.is_exact and not isinstance(inflation, ApproxReal)

    return PerronData(backend, rows, theta, v, vl, dimension, symmetry_order,
                      inflation, inflation_exact)


@dataclass(frozen=True)
class WeightSystem:
    """Diameters for the path-space ultrametric.

    measure_root mode takes diam[gamma] = mu[gamma]^(1/d); custom mode takes
    per-letter base weights decaying by 1/lambda per generation."""

    diagram: BratteliDiagram
    perron: PerronData
    mode: str = "measure_root"
    base_weights: tuple | None = None
    approx_bits: int = DEFAULT_APPROX_BITS

    def __post_init__(self):
        if self.mode not in ("measure_root", "custom"):
            raise MeasureError(f"unknown weight mode {self.mode!r}")
        if self.mode == "custom":
            if self.base_weights is None or \
                    len(self.base_weights) != self.diagram.n_letters:
                raise MeasureError("custom mode needs one base weight per letter")
            be = self.perron.backend
            for w in self.base_weights:
                if be.compare(be.make(w), be.zero) <= 0:
                    raise MeasureError("base weights must be positive")

    @property
    def backend(self) -> Backend:
        return self.perron.backend

    @property
    def dimension(self) -> int:
        return self.perron.dimension


def mu(ws: WeightSystem, path: Path):
    """Cylinder measure mu[gamma] = v_a * theta^(-n+1) for r(gamma) = (a, n)."""
    if path.root is None:
        return ws.backend.one
    a = ws.diagram.path_range(path)
    return ws.perron.v_right[a] * ws.perron.theta_power(1 - path.generation)


def mu_float(ws: WeightSystem, path: Path) -> float:
    return ws.backend.to_float(mu(ws, path))


def weight(ws: WeightSystem, path: Path):
    """diam[gamma]; exact whenever the d-th root stays in the field."""
    return diam_power(ws, path, Fraction(1))


# 2**16 bits of binary exponent: 64 times the float range of 2**-1074..2**1024
EXACT_POWER_LOG2_LIMIT = 1 << 16


def _power(backend: Backend, base, e: Fraction, bits: int):
    """base^e: exact when the backend's field holds it, else an ApproxReal at
    the given bits, or at the base's own precision when the base is already
    approximate.  This is the one place where an exact computation falls
    back to approximate scalars.

    An exact power with |e * log2|base|| > EXACT_POWER_LOG2_LIMIT lies beyond
    2**65536 or below 2**-65536, so it could not become a float; it raises
    OverflowError instead of squaring toward the exponent, which for
    e = 10**400 would never end."""
    if not isinstance(base, ApproxReal):
        magnitude = abs(float(base))
        if magnitude and abs(e) * Fraction(abs(math.log2(magnitude))) > \
                EXACT_POWER_LOG2_LIMIT:
            raise OverflowError(f"an exact power beyond 2**{EXACT_POWER_LOG2_LIMIT} "
                                f"or below 2**-{EXACT_POWER_LOG2_LIMIT}")
        try:
            return backend.pow_fraction(base, e)
        except ExactnessError:
            base = ApproxReal.make(base, bits)
    if e.denominator == 1:
        return base ** e.numerator
    with mpmath.workprec(base.precision):
        ev = mpmath.mpf(e.numerator) / e.denominator
        return ApproxReal(mpmath.power(base.value, ev), base.precision)


def diam_power(ws: WeightSystem, path: Path, expo: Fraction):
    """diam[gamma]^expo, computed exactly when representable, else as an
    ApproxReal at the configured precision."""
    expo = Fraction(expo)
    if expo == 0:
        return ws.backend.one
    if ws.mode == "measure_root":
        return _power(ws.backend, mu(ws, path), expo / ws.dimension, ws.approx_bits)
    if path.root is None:
        return ws.backend.one
    a = ws.diagram.path_range(path)
    base = ws.backend.make(ws.base_weights[a]) * \
        ws.perron.inflation_power(1 - path.generation)
    return _power(ws.backend, base, expo, ws.approx_bits)


def ultrametric_distance(ws: WeightSystem, x: Path, y: Path):
    """d_w(x, y) = w(r(x ^ y)); zero when one path is a prefix of the other."""
    from .diagram import longest_common_prefix
    meet = longest_common_prefix(x, y)
    if meet.generation == min(x.generation, y.generation):
        return ws.backend.zero
    return weight(ws, meet)


@dataclass(frozen=True)
class ZetaRow:
    generation: int
    increment: float
    cumulative: float
    ratio: float | None


def zeta_partial(ws: WeightSystem, s, n_max: int) -> list[ZetaRow]:
    """Partial sums Z_N(s) = sum_{n<=N} sum_{Pi_n} diam^s, with per-generation
    increments and increment ratios.  Increment ratios tend to theta^(1-s/d)."""
    if n_max < 1:
        raise MeasureError("n_max must be >= 1")
    s = float(s)
    d = ws.dimension
    g = ws.perron.symmetry_order
    r = ws.diagram.n_letters
    lam = float(ws.perron.inflation)
    if ws.mode == "measure_root":
        bases = [float(ws.backend.to_float(v)) ** (1.0 / d) for v in ws.perron.v_right]
    else:
        bases = [float(ws.backend.to_float(ws.backend.make(w))) for w in ws.base_weights]

    rows: list[ZetaRow] = []
    counts = [[1 if i == j else 0 for j in range(r)] for i in range(r)]  # A^(n-1)
    cumulative = 0.0
    prev = None
    a = [list(row) for row in ws.diagram.matrix]
    for n in range(1, n_max + 1):
        colsum = [sum(counts[i][j] for i in range(r)) for j in range(r)]
        scale = lam ** (-(n - 1) * s)
        increment = g * sum(colsum[b] * (bases[b] ** s) for b in range(r)) * scale
        if not math.isfinite(increment) or increment > 1e290:
            raise OverflowError(
                f"zeta increment overflow at generation {n}; s is too far below d={d}")
        if increment < sys.float_info.min:
            # a subnormal or zero increment has no reliable ratio
            raise OverflowError(
                f"zeta increment underflow at generation {n}; s is too far above d={d}")
        cumulative += increment
        rows.append(ZetaRow(n, increment, cumulative,
                            None if prev is None else increment / prev))
        prev = increment
        counts = _linalg.mat_mul(counts, a)
    return rows
