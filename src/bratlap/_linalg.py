"""Small exact linear-algebra helpers shared by the measure and cuntz modules."""

from __future__ import annotations

from .scalar import scalar_sign


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


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


def det(a: list[list[int]]) -> int:
    """The determinant of a small integer matrix, by Laplace expansion."""
    return sum((-1) ** j * c * det([row[:j] + row[j + 1:] for row in a[1:]])
               for j, c in enumerate(a[0])) if a else 1


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
