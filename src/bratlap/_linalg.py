"""Small exact linear-algebra helpers shared by the measure and cuntz modules."""

from __future__ import annotations

from fractions import Fraction

from .scalar import scalar_sign


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def mat_pow(a, k: int):
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [row[:] for row in a]
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def char_poly(a) -> list[int]:
    """Monic characteristic polynomial of an integer matrix.

    Returns [c0, c1, ..., 1] with det(xI - A) = sum c_k x^k, via the
    Faddeev-LeVerrier recursion (exact rational arithmetic, integer result).
    """
    n = len(a)
    af = [[Fraction(v) for v in row] for row in a]
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    m = [row[:] for row in ident]
    coeffs = [Fraction(1)]  # leading coefficient of x^n
    for k in range(1, n + 1):
        am = mat_mul(af, m)
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    # coeffs[k] multiplies x^(n-k); flip to ascending order and integerize
    out = []
    for c in reversed(coeffs):
        if c.denominator != 1:
            raise ArithmeticError("characteristic polynomial came out non-integer")
        out.append(c.numerator)
    return out


def poly_divide_linear(coeffs: list[int], root: int) -> list[int] | None:
    """Divide an ascending-coefficient polynomial by (x - root); None if not a root."""
    n = len(coeffs) - 1
    out = [0] * n
    carry = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + root * carry
    if carry != 0:
        return None
    return out


def integer_roots(coeffs: list[int]) -> list[int]:
    """Integer roots (with multiplicity) of a monic integer polynomial."""
    roots = []
    work = list(coeffs)
    while len(work) > 1 and work[0] == 0:
        roots.append(0)
        work = work[1:]
    changed = True
    while changed and len(work) > 1:
        changed = False
        const = abs(work[0])
        cands = set()
        d = 1
        while d * d <= const:
            if const % d == 0:
                cands.update((d, -d, const // d, -const // d))
            d += 1
        for r in sorted(cands, key=abs):
            nxt = poly_divide_linear(work, r)
            if nxt is not None:
                roots.append(r)
                work = nxt
                changed = True
                break
    return roots


def deflate_integer_roots(coeffs: list[int]) -> tuple[list[int], list[int]]:
    """Split a monic integer polynomial into (integer roots, residual factor)."""
    roots = integer_roots(coeffs)
    work = list(coeffs)
    for r in roots:
        if r == 0:
            work = work[1:]
        else:
            work = poly_divide_linear(work, r)
    return roots, work


def kernel_vector(rows, backend):
    """One nonzero kernel vector of a singular square matrix over an exact field."""
    n = len(rows)
    m = [[backend.make(v) for v in row] for row in rows]
    zero = backend.zero
    pivots = {}  # column -> row
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, n):
            if scalar_sign(m[r][col]) != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(n):
            if r != row and scalar_sign(m[r][col]) != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots[col] = row
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise ArithmeticError("matrix is nonsingular; no kernel vector")
    fc = free[0]
    vec = [zero] * n
    vec[fc] = backend.one
    for col, r in pivots.items():
        vec[col] = -m[r][fc]
    return vec
