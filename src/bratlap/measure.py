"""Perron-Frobenius data, cylinder measures, the weights of the ultrametric,
and zeta-function partial sums.

The cylinder measure uses the closed form mu[gamma] = v_(r(gamma)) * theta^(1-n)
with the right eigenvector normalized so the root-edge cylinders sum to one;
the Dixmier-trace limit it came from is never evaluated as a limit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _linalg
from .diagram import BratlapError, BratteliDiagram, path_counts
from .scalar import (
    ApproxBackend,
    ApproxReal,
    Backend,
    QuadraticBackend,
    RationalBackend,
    _approx,
    exact_power,
    scalar_sign,
    square_free_part,
)

DEFAULT_APPROX_BITS = 212


class MeasureError(BratlapError):
    pass


@dataclass(frozen=True)
class PerronData:
    """Spectral data of a diagram's matrix: the Perron eigenvalue theta and
    its right eigenvector, normalized so that the root-edge cylinders have
    total measure one; v_right drives every cylinder measure.  `min_poly` is
    theta's certified minimal polynomial in ascending coefficients (see
    `_theta_certificate`), None on an approximate backend."""

    backend: Backend
    theta: object
    v_right: tuple
    dimension: int
    min_poly: tuple[int, ...] | None
    _theta_pows: dict = field(default_factory=dict, repr=False, compare=False)

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


def _field_root(poly: tuple[int, ...]) -> tuple[Backend, object] | None:
    """The largest root of a monic integer polynomial of degree 1 or 2, in its
    own field: Q, or Q(sqrt D) with D the square-free part of p^2 - 4q.
    None for a quadratic whose p^2 - 4q is <= 0 or a perfect square."""
    if len(poly) == 2:
        return RationalBackend(), Fraction(-poly[0])
    q, p, _ = poly
    disc = p * p - 4 * q
    if disc <= 0 or math.isqrt(disc) ** 2 == disc:
        return None
    backend = QuadraticBackend(square_free_part(disc))
    k = math.isqrt(disc // backend.disc)
    return backend, backend.make((Fraction(-p, 2), Fraction(k, 2)))


class _Certificate(NamedTuple):
    """theta's minimal polynomial, the field it generates, theta in that field
    and a strictly positive eigenvector of theta there."""

    poly: tuple[int, ...]
    field: Backend
    theta: object
    vector: list


def _theta_certificate(matrix) -> _Certificate | None:
    """The certificate of the Perron eigenvalue theta of a primitive integer
    matrix, or None for a theta of degree higher than 2.

    By Perron-Frobenius, theta is the only eigenvalue of a primitive matrix
    with a positive eigenvector.  So a candidate is accepted when its largest
    root, built exactly in its own field, leaves a strictly one-signed kernel
    vector of A - root*I.  The candidates come from the float spectrum:
    (-round(theta), 1), then (round(theta*l), -round(theta + l), 1) for each
    other real eigenvalue l.  They are exact only while theta^2 < 2^53, so
    beyond that size a theta without a certified candidate is refused.

    A candidate p with det p(A) != 0 mod a prime is dropped before any
    elimination in its field: p(A) is then nonsingular over Q, and p(A) is
    the product of the A - root*I over p's roots, so no root of p is an
    eigenvalue.  Only the elimination accepts."""
    eigs = np.linalg.eigvals(np.array(matrix, dtype=float))
    top = int(np.argmax(np.abs(eigs)))
    theta_float = float(abs(eigs[top]))
    candidates = [(-round(theta_float), 1)]
    candidates += [(round(theta_float * lam.real), -round(theta_float + lam.real), 1)
                   for i, lam in enumerate(eigs) if i != top and lam.imag == 0]
    a = np.array(matrix, dtype=object)
    powers = (np.identity(len(a), dtype=object), a, a.dot(a))
    for poly in candidates:
        field = _field_root(poly)
        if field is None or _nonsingular_mod_prime(sum(c * x for c, x in zip(poly, powers))):
            continue
        try:
            vector = _exact_eigenvector(matrix, field[1], field[0])
        except (ArithmeticError, MeasureError):
            continue
        return _Certificate(poly, *field, vector)
    if theta_float ** 2 >= 2 ** 53:
        raise MeasureError(f"the float spectrum cannot decide the field of the Perron "
                           f"eigenvalue at this size: theta = {theta_float:.6g}, and its "
                           f"candidates are exact only while theta^2 < 2^53")
    return None


# a prime below 2^31: a product of two residues stays below 2^62, in int64
_PRIME = 2 ** 31 - 1


def _nonsingular_mod_prime(matrix: np.ndarray) -> bool:
    """Whether det(matrix) != 0 mod _PRIME, by Gaussian elimination on int64
    residues; a determinant nonzero mod a prime is nonzero over Q."""
    m = (matrix % _PRIME).astype(np.int64)
    for col in range(len(m)):
        pivots = np.flatnonzero(m[col:, col])
        if not len(pivots):
            return False
        m[[col, col + pivots[0]]] = m[[col + pivots[0], col]]
        factors = m[col + 1:, col] * pow(int(m[col, col]), -1, _PRIME) % _PRIME
        m[col + 1:] = (m[col + 1:] - factors[:, None] * m[col] % _PRIME) % _PRIME
    return True


def _exact_theta(cert: _Certificate | None, backend) -> tuple[object, list]:
    """theta and its certified eigenvector, mapped into an exact backend."""
    if cert is None:
        raise MeasureError("Perron eigenvalue has algebraic degree > 2; use an approx backend")
    if len(cert.poly) == 2 or cert.field == backend:
        return backend.make(cert.theta), [backend.make(x) for x in cert.vector]
    q, p, _ = cert.poly
    disc = p * p - 4 * q
    if isinstance(backend, RationalBackend):
        raise MeasureError(
            f"Perron eigenvalue is irrational (x^2{p:+d}x{q:+d} = 0); "
            f"use a quadratic backend")
    if disc % backend.disc != 0:
        raise MeasureError(
            f"Perron eigenvalue lives in Q(sqrt{disc}); backend has sqrt{backend.disc}")
    raise MeasureError(
        f"Perron eigenvalue lives in Q(sqrt{disc}), not Q(sqrt{backend.disc})")


def _exact_eigenvector(matrix, theta, backend) -> list:
    r = len(matrix)
    rows = [[backend.make(matrix[i][j]) - (theta if i == j else backend.zero)
             for j in range(r)] for i in range(r)]
    # kernel_vector sets its free entry to one, so a one-signed vector is positive
    vec = _linalg.kernel_vector(rows, backend)
    if any(scalar_sign(x) <= 0 for x in vec):
        raise MeasureError("kernel vector is not strictly one-signed; matrix primitive?")
    return vec


def _approx_eigen(rows, backend: ApproxBackend):
    """Power iteration for theta and v at the backend's precision, on the raw
    `mpmath.libmp` kernels with round-to-nearest: the calls `mpmath.mpf`
    arithmetic makes under `mpmath.workprec`, so the bits are the same, with
    each matrix entry converted once."""
    import mpmath
    from mpmath.libmp import (fzero, from_int, from_man_exp, mpf_abs, mpf_add, mpf_div,
                              mpf_gt, mpf_le, mpf_mul, mpf_sub, round_nearest as rnd)
    r = len(rows)
    prec = backend.precision
    tol = from_man_exp(1, 8 - prec)
    bound = from_man_exp(1, 16 - prec)
    a = [[from_int(x, prec, rnd) for x in row] for row in rows]

    def total(xs):
        """sum(xs) as mpf arithmetic forms it, from 0 left to right."""
        acc = fzero
        for x in xs:
            acc = mpf_add(acc, x, prec, rnd)
        return acc

    def times_v(row):
        return total([mpf_mul(x, y, prec, rnd) for x, y in zip(row, v)])

    def residual():
        worst = fzero
        for row, x in zip(a, v):
            dev = mpf_abs(mpf_sub(times_v(row), mpf_mul(theta, x, prec, rnd), prec, rnd))
            if mpf_gt(dev, worst):
                worst = dev
        return worst

    v = [mpf_div(from_int(1), from_int(r), prec, rnd)] * r
    theta = fzero
    # two equal successive estimates can be a coincidence far from the
    # eigenvector (4/3, 5/4, 7/5, 9/7, 4/3, 4/3 on the plastic matrix), so
    # a stalled theta ends the loop only once the residual test passes
    for _ in range(64 * prec):
        w = [times_v(row) for row in a]
        w_total = total(w)
        new_theta = mpf_div(w_total, total(v), prec, rnd)
        v = [mpf_div(x, w_total, prec, rnd) for x in w]
        stalled = mpf_le(mpf_abs(mpf_sub(new_theta, theta, prec, rnd)),
                         mpf_mul(tol, mpf_abs(new_theta), prec, rnd))
        theta = new_theta
        if stalled and mpf_le(residual(), bound):
            break
    else:
        resid = residual()
        if mpf_gt(resid, bound):
            with mpmath.workprec(prec):
                raise MeasureError(f"power iteration residual {mpmath.mp.make_mpf(resid)} "
                                   f"too large at {prec} bits")
    return _approx(theta, prec), [_approx(x, prec) for x in v]


def perron(diagram: BratteliDiagram, backend: Backend, dimension: int = 1) -> PerronData:
    """Perron-Frobenius eigenvalue and right eigenvector of the diagram's
    matrix, with the eigenvector normalized so that g * sum(v) = 1.  On an
    exact backend both are read off theta's certificate."""
    cert = _theta_certificate(diagram.matrix) if backend.is_exact else None
    return _perron(diagram, backend, dimension, cert)


def field_perron(diagram: BratteliDiagram, dimension: int = 1) -> PerronData:
    """`perron` on the smallest exact field of theta, rational or quadratic:D,
    with the field and the data read off one certificate."""
    cert = _theta_certificate(diagram.matrix)
    if cert is None:
        raise MeasureError("Perron eigenvalue has algebraic degree > 2, so no rational "
                           "or quadratic field holds it")
    return _perron(diagram, cert.field, dimension, cert)


def _perron(diagram: BratteliDiagram, backend: Backend, dimension: int,
            cert: _Certificate | None) -> PerronData:
    if dimension < 1:
        raise MeasureError("dimension must be >= 1")
    poly = None
    if backend.is_exact:
        theta, v = _exact_theta(cert, backend)
        poly = cert.poly
    else:
        theta, v = _approx_eigen(diagram.matrix, backend)

    total = v[0]
    for x in v[1:]:
        total = total + x
    scale = backend.one / (total * diagram.symmetry_order)
    v = tuple(x * scale for x in v)
    return PerronData(backend, theta, v, dimension, poly)


@dataclass(frozen=True)
class WeightSystem:
    """Diameters for the path-space ultrametric: diam[gamma] = mu[gamma]^(1/d),
    the measure-built weight of Pearson and Bellissard.  `approx_bits` is the
    precision of a power that leaves the backend's field."""

    diagram: BratteliDiagram
    perron: PerronData
    approx_bits: int = DEFAULT_APPROX_BITS

    @property
    def backend(self) -> Backend:
        return self.perron.backend

    @property
    def dimension(self) -> int:
        return self.perron.dimension


def mu(ws: WeightSystem, a: int, n: int):
    """Cylinder measure mu[gamma] = v_a * theta^(-n+1) of a path gamma with
    range vertex a at generation n; 1 at the empty path's key (-1, 0)."""
    if n == 0:
        return ws.backend.one
    return ws.perron.v_right[a] * ws.perron.theta_power(1 - n)


# 2**16 bits of binary exponent: 64 times the float range of 2**-1074..2**1024
EXACT_POWER_LOG2_LIMIT = 1 << 16


def _power(backend: Backend, base, e: Fraction, bits: int):
    """base^e: exact when `exact_power` keeps it in the backend's field, else
    an ApproxReal at the given bits, or at the base's own precision when the
    base is already approximate.  This is the one place where an exact
    computation falls back to approximate scalars.

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
        exact = exact_power(backend.make(base), e)
        if exact is not None:
            return exact
        base = ApproxReal.make(base, bits)
    if e.denominator == 1:
        return base ** e.numerator
    import mpmath
    with mpmath.workprec(base.precision):
        ev = mpmath.mpf(e.numerator) / e.denominator
        return ApproxReal(mpmath.power(base.value, ev), base.precision)


def diam_power(ws: WeightSystem, a: int, n: int, expo: Fraction):
    """diam[gamma]^expo for a path with range vertex a at generation n,
    computed exactly when representable, else as an ApproxReal at the
    configured precision."""
    expo = Fraction(expo)
    if expo == 0:
        return ws.backend.one
    return _power(ws.backend, mu(ws, a, n), expo / ws.dimension, ws.approx_bits)


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
    g = ws.diagram.symmetry_order
    r = ws.diagram.n_letters
    # diam shrinks by the inflation factor theta^(1/d) per generation
    lam = float(_power(ws.backend, ws.perron.theta, Fraction(1, d), DEFAULT_APPROX_BITS))
    bases = [float(v) ** (1.0 / d) for v in ws.perron.v_right]

    rows: list[ZetaRow] = []
    cumulative = 0.0
    prev = None
    # path_counts yields the diagram's g times the column sums of A^(n-1)
    for n, row in zip(range(1, n_max + 1), path_counts(ws.diagram)):
        try:
            colsum = [float(c // g) for c in row]
        except OverflowError:
            raise MeasureError(f"the path counts of generation {n} leave the float "
                               f"range; the largest usable depth is {n - 1}") from None
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
    return rows
