"""Closed-form spectrum of the Laplace-Beltrami operators Delta_s, and a dense
matrix oracle on the generation-n cylinder basis.

Eigenvalues are stored with the sign the defining formula produces (negative);
asymptotics elsewhere use magnitudes.  Prefixes with a single extension are
skipped: their measure increment vanishes identically, so they contribute
nothing and the splitting weight G never has to be evaluated there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import _linalg
from .diagram import (
    DEFAULT_PATH_CAP,
    EMPTY_PATH,
    BratteliDiagram,
    Path,
    PathTable,
    enumerate_paths,
    extensions,
    predicted_path_count,
)
from .measure import WeightSystem, diam_power, mu
from .scalar import ApproxReal, to_float

DEFAULT_DENSE_CAP = 4096


class LaplacianError(ValueError):
    pass


def child_path(diagram: BratteliDiagram, path: Path, ext_index: int) -> Path:
    """Extend a path by one of its extension indices (a root edge when empty)."""
    if path.root is None:
        return Path(ext_index)
    return path.child(ext_index)


def _mul(x, y):
    if isinstance(x, ApproxReal) and not isinstance(y, ApproxReal):
        y = ApproxReal.make(y, x.precision)
    elif isinstance(y, ApproxReal) and not isinstance(x, ApproxReal):
        x = ApproxReal.make(x, y.precision)
    return x * y


def g_value(ws: WeightSystem, path: Path, s):
    """Splitting weight G_s = (1/2) diam^(2-s) * sum over ordered pairs of
    distinct extensions of the product of the two extended measures."""
    s = Fraction(s)
    ext = extensions(ws.diagram, path)
    if len(ext) < 2:
        raise LaplacianError("no splitting at this path")
    measures = [mu(ws, child_path(ws.diagram, path, e)) for e in ext]
    total = measures[0]
    for m in measures[1:]:
        total = total + m
    sumsq = measures[0] * measures[0]
    for m in measures[1:]:
        sumsq = sumsq + m * m
    pair_sum = total * total - sumsq
    dpow = diam_power(ws, path, 2 - s)
    half = ws.backend.one / 2 if not isinstance(dpow, ApproxReal) else \
        ApproxReal.make(Fraction(1, 2), dpow.precision)
    return _mul(_mul(half, dpow), pair_sum)


@dataclass(frozen=True)
class SpectralRecord:
    label: str                  # "zero" | "root" | "path"
    path: Path | None
    generation: int
    value: object               # backend scalar
    value_float: float
    multiplicity: int
    coords: tuple | None = None


@dataclass(frozen=True)
class EigenVectorSpec:
    """One eigenvector: coeff_pos on the cylinder base.e, coeff_neg on base.e'."""

    base: Path
    edge_pos: int
    edge_neg: int
    coeff_pos: object
    coeff_neg: object


def eigenvalue(ws: WeightSystem, path: Path, s) -> SpectralRecord:
    """Direct evaluation of the eigenvalue attached to a finite path: the sum of
    measure increments over prefixes divided by their G values, minus the final
    mu/G term."""
    diagram = ws.diagram
    n_ext = len(extensions(diagram, path))
    if n_ext < 2:
        raise LaplacianError("path has fewer than two extensions; no eigenvalue")
    acc = ws.backend.zero
    for k in range(path.generation):
        pref = path.prefix(k)
        if len(extensions(diagram, pref)) < 2:
            continue
        inc = mu(ws, path.prefix(k + 1)) - mu(ws, pref)
        term = _mul(inc, _invert(g_value(ws, pref, s)))
        acc = _add(acc, term)
    final = _mul(mu(ws, path), _invert(g_value(ws, path, s)))
    val = _add(acc, _neg(final))
    return SpectralRecord("path" if path.generation else "root",
                          path if path.generation else None,
                          path.generation, val, to_float(val), n_ext - 1)


def _invert(x):
    if isinstance(x, ApproxReal):
        return ApproxReal.make(1, x.precision) / x
    return 1 / x


def _neg(x):
    return -x


def _add(x, y):
    if isinstance(x, ApproxReal) and not isinstance(y, ApproxReal):
        y = ApproxReal.make(y, x.precision)
    elif isinstance(y, ApproxReal) and not isinstance(x, ApproxReal):
        x = ApproxReal.make(x, y.precision)
    return x + y


def zero_record(ws: WeightSystem) -> SpectralRecord:
    return SpectralRecord("zero", None, 0, ws.backend.zero, 0.0, 1)


def root_record(ws: WeightSystem, s) -> SpectralRecord | None:
    """The eigenvalue -1/G(root) carried by the root splitting; None when the
    root has a single outgoing edge (empty eigenspace)."""
    n0 = len(ws.diagram.root_edges)
    if n0 < 2:
        return None
    val = _neg(_invert(g_value(ws, EMPTY_PATH, s)))
    return SpectralRecord("root", None, 0, val, to_float(val), n0 - 1)


def eigenbasis(ws: WeightSystem, path: Path) -> list[EigenVectorSpec]:
    """n-1 spanning eigenvectors anchored at the first extension."""
    diagram = ws.diagram
    ext = extensions(diagram, path)
    if len(ext) < 2:
        return []
    anchor = ext[0]
    mu_anchor = mu(ws, child_path(diagram, path, anchor))
    specs = []
    for other in ext[1:]:
        mu_other = mu(ws, child_path(diagram, path, other))
        specs.append(EigenVectorSpec(path, anchor, other,
                                     _invert(mu_anchor), _neg(_invert(mu_other))))
    return specs


class _StationaryCache:
    """Memo of the terms of the eigenvalue formula on a stationary diagram.

    mu(gamma) and G(gamma) depend only on the range vertex r(gamma) and the
    generation n, so they are kept per (r(gamma), n), and so are the two
    terms the spectrum and dense walks add up:

    - the final term -mu(gamma) * G(gamma)^-1, keyed by (r(gamma), n);
    - the step term (mu(gamma e) - mu(gamma)) * G(gamma)^-1, keyed by
      (r(gamma), n, r(gamma e)).

    The empty path uses the key (-1, 0).  Each entry is computed once, from
    the same operands combined in the same order as the direct formula in
    `eigenvalue`, so the memoized walks give the same scalars, bit for bit
    on the approximate backend and exactly on the exact ones.
    """

    def __init__(self, ws: WeightSystem, s):
        self.ws = ws
        self.s = s
        self._mu: dict[tuple[int, int], object] = {}
        self._g: dict[tuple[int, int], object] = {}
        self._inv_g: dict[tuple[int, int], object] = {}
        self._final: dict[tuple[int, int], object] = {}
        self._step: dict[tuple[int, int, int], object] = {}

    def _key(self, path: Path) -> tuple[int, int]:
        if path.root is None:
            return (-1, 0)
        return (self.ws.diagram.path_range(path), path.generation)

    @staticmethod
    def _memo(table: dict, key: tuple, compute):
        val = table.get(key)
        if val is None:
            val = table[key] = compute()
        return val

    def mu_at(self, path: Path):
        return self._memo(self._mu, self._key(path), lambda: mu(self.ws, path))

    def g_at(self, path: Path):
        return self._memo(self._g, self._key(path),
                          lambda: g_value(self.ws, path, self.s))

    def inv_g_at(self, path: Path):
        return self._memo(self._inv_g, self._key(path),
                          lambda: _invert(self.g_at(path)))

    def final_at(self, path: Path):
        return self._memo(self._final, self._key(path),
                          lambda: _neg(_mul(self.mu_at(path), self.inv_g_at(path))))

    def step_at(self, path: Path, child: Path):
        return self._memo(
            self._step, self._key(path) + (self.ws.diagram.path_range(child),),
            lambda: _mul(self.mu_at(child) - self.mu_at(path), self.inv_g_at(path)))


def full_spectrum(ws: WeightSystem, depth: int, s,
                  cap: int = DEFAULT_PATH_CAP) -> list[SpectralRecord]:
    """Records for the zero eigenvalue, the root splitting, and every path of
    generation <= depth with at least two extensions.  Total multiplicity is
    the path count one generation below the cutoff."""
    if depth < 0:
        raise LaplacianError("depth must be >= 0")
    diagram = ws.diagram
    total = sum(predicted_path_count(diagram, k) for k in range(1, depth + 1))
    if total > cap:
        raise LaplacianError(f"spectrum would visit {total} paths (cap {cap})")

    records = [zero_record(ws)]
    root = root_record(ws, s)
    if root is not None:
        records.append(root)
    if depth == 0:
        return records

    cache = _StationaryCache(ws, Fraction(s))
    root_has_split = len(diagram.root_edges) >= 2

    def visit(path: Path, partial, depth_left: int) -> None:
        ext = extensions(diagram, path)
        n_ext = len(ext)
        if n_ext >= 2:
            val = _add(partial, cache.final_at(path))
            records.append(SpectralRecord("path", path, path.generation,
                                          val, to_float(val), n_ext - 1))
        if depth_left == 0:
            return
        for e in ext:
            child = child_path(diagram, path, e)
            if n_ext >= 2:
                child_partial = _add(partial, cache.step_at(path, child))
            else:
                child_partial = partial
            visit(child, child_partial, depth_left - 1)

    for ri in range(len(diagram.root_edges)):
        first = Path(ri)
        if root_has_split:
            partial = cache.step_at(EMPTY_PATH, first)
        else:
            partial = ws.backend.zero
        visit(first, partial, depth - 1)
    return records


def spectrum_multiset(records: list[SpectralRecord]) -> list[float]:
    out: list[float] = []
    for rec in records:
        out.extend([rec.value_float] * rec.multiplicity)
    out.sort()
    return out


@dataclass
class DenseOperator:
    """Matrix of Delta_s restricted to the generation-n cylinder functions,
    rows and columns in path-table order.

    The table is in root-edge order: vertex by vertex, and within a vertex
    slot by slot, the paths under root edge (v, k) fill one contiguous range
    of width slot_widths[v]."""

    generation: int
    s: Fraction
    table: PathTable
    matrix: object              # numpy array (float mode) or nested tuples of scalars
    mu_values: tuple
    exact: bool
    symmetry_order: int
    slot_widths: tuple[int, ...]

    def as_float(self) -> np.ndarray:
        if isinstance(self.matrix, np.ndarray):
            return self.matrix
        n = len(self.table)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                out[i, j] = to_float(self.matrix[i][j])
        return out

    def mu_float(self) -> np.ndarray:
        return np.array([to_float(m) for m in self.mu_values])

    def symmetrized(self) -> np.ndarray:
        """D^(1/2) M D^(-1/2): symmetric with the same spectrum."""
        m = self.as_float()
        root = np.sqrt(self.mu_float())
        return m * np.outer(root, 1.0 / root)


def _dense_exactness(ws: WeightSystem, s: Fraction) -> bool:
    if not ws.backend.is_exact:
        return False
    if ws.mode == "measure_root":
        return (Fraction(2 - s, ws.dimension)).denominator == 1
    return (2 - s).denominator == 1 and ws.perron.inflation_exact


def dense_restriction(ws: WeightSystem, n: int, s,
                      cap: int = DEFAULT_DENSE_CAP) -> DenseOperator:
    """Assemble Delta_s on the Pi_n basis.

    Off-diagonal entries are mu[column]/G(meet); the diagonal accumulates the
    negative increment sum along each path.  Exact scalars are kept whenever
    diam^(2-s) stays in the field, otherwise the matrix is float."""
    s = Fraction(s)
    if n < 1:
        raise LaplacianError("generation must be >= 1")
    size = predicted_path_count(ws.diagram, n)
    if size > cap:
        raise LaplacianError(f"dense restriction needs {size} paths (cap {cap})")
    table = enumerate_paths(ws.diagram, n, cap=cap)
    diagram = ws.diagram
    exact = _dense_exactness(ws, s)

    cache = _StationaryCache(ws, s)
    mu_full = tuple(cache.mu_at(p) for p in table.paths)
    # subtree sizes: number of generation-n paths below a generation-k vertex
    a = [list(row) for row in diagram.matrix]
    sizes = {n: [1] * diagram.n_letters}
    for k in range(n - 1, 0, -1):
        sizes[k] = _linalg.mat_vec(a, sizes[k + 1])

    if exact:
        matrix = [[ws.backend.zero] * size for _ in range(size)]
        mu_col = mu_full
    else:
        matrix = np.zeros((size, size))
        mu_col = np.array([to_float(m) for m in mu_full])

    def fill_block(rows: tuple[int, int], cols: tuple[int, int], meet: Path):
        if exact:
            inv_g = cache.inv_g_at(meet)
            for j in range(cols[0], cols[1]):
                v = _mul(mu_col[j], inv_g)
                for i in range(rows[0], rows[1]):
                    matrix[i][j] = v
        else:
            gf = to_float(cache.g_at(meet))
            matrix[rows[0]:rows[1], cols[0]:cols[1]] = \
                (mu_col[cols[0]:cols[1]] / gf)[None, :]

    def walk(path: Path, lo: int, partial) -> None:
        depth = path.generation
        if depth == n:
            if exact:
                matrix[lo][lo] = partial
            else:
                matrix[lo, lo] = to_float(partial)
            return
        ext = extensions(diagram, path)
        children = [child_path(diagram, path, e) for e in ext]
        widths = [sizes[depth + 1][diagram.path_range(c)] for c in children]
        bounds = [lo]
        for w in widths:
            bounds.append(bounds[-1] + w)
        if len(ext) >= 2:
            for i in range(len(children)):
                for j in range(len(children)):
                    if i != j:
                        fill_block((bounds[i], bounds[i + 1]),
                                   (bounds[j], bounds[j + 1]), path)
            for i, child in enumerate(children):
                walk(child, bounds[i], _add(partial, cache.step_at(path, child)))
        else:
            walk(children[0], lo, partial)

    walk(EMPTY_PATH, 0, ws.backend.zero)
    if exact:
        matrix = tuple(tuple(row) for row in matrix)
    return DenseOperator(n, s, table, matrix, mu_full, exact,
                         diagram.symmetry_order, tuple(sizes[1]))


class SlotSymmetryError(LaplacianError):
    """The symmetrized dense operator is not invariant under the root-slot
    permutations, so its block split would not be exact."""


def dense_spectrum(op: DenseOperator) -> np.ndarray:
    """Sorted eigenvalues of op.symmetrized(), one eigvalsh per block of its
    root-slot decomposition.

    Permuting the g root slots of a vertex maps the path space onto itself
    and keeps every measure and every meet, so S = op.symmetrized() commutes
    with it.  With R[v][k] the range of root edge (v, k), the orthogonal change
    of basis to slot sums and slot differences splits S exactly into
    - the slot-symmetric block B[(v,.), (w,.)] = sum_k S[R[v][0], R[w][k]], of
      dimension sum_v N_v = |Pi_n| / g, and
    - per vertex v the difference block S[R[v][0], R[v][0]] - S[R[v][0], R[v][1]],
      whose eigenvalues are repeated g - 1 times.
    With g = 1 the symmetric block is S itself and there is no difference
    block.  The invariance is checked first, with exact float equality (the
    memo keys entries by range vertex and generation, so slot copies agree
    bit for bit); SlotSymmetryError is raised when a copy differs.
    """
    sym_op = op.symmetrized()
    g = op.symmetry_order
    widths = op.slot_widths
    starts = np.cumsum((0,) + tuple(g * w for w in widths))
    offsets = np.cumsum((0,) + widths)
    vertex_pairs = list(product(range(len(widths)), repeat=2))

    def slab(v: int, w: int) -> np.ndarray:
        """Rows of vertex v, columns of vertex w, as a (g, N_v, g, N_w) view."""
        return sym_op[starts[v]:starts[v + 1], starts[w]:starts[w + 1]] \
            .reshape(g, widths[v], g, widths[w])

    for v, w in vertex_pairs:
        copies = slab(v, w)
        for k, l in product(range(g), repeat=2):
            ref = copies[0, :, int(v == w and k != l), :]
            if not np.array_equal(copies[k, :, l, :], ref):
                raise SlotSymmetryError(
                    f"rows of root edge ({v}, {k}) against columns of root "
                    f"edge ({w}, {l}) differ from their slot copy")

    block = np.empty((offsets[-1], offsets[-1]))
    for v, w in vertex_pairs:
        copies = slab(v, w)
        # summed onto the first copy, so with g = 1 the block is S bit for bit
        target = block[offsets[v]:offsets[v + 1], offsets[w]:offsets[w + 1]]
        target[...] = copies[0, :, 0, :]
        for l in range(1, g):
            target += copies[0, :, l, :]
    parts = [np.linalg.eigvalsh(block)]
    if g > 1:
        for v in range(len(widths)):
            own = slab(v, v)
            diff = own[0, :, 0, :] - own[0, :, 1, :]
            parts.append(np.repeat(np.linalg.eigvalsh(diff), g - 1))
    return np.sort(np.concatenate(parts))


def expand_eigenvector(ws: WeightSystem, table: PathTable,
                       spec: EigenVectorSpec) -> list:
    """Coordinates of an eigenvector spec over the generation-n cylinder basis."""
    diagram = ws.diagram
    pos = child_path(diagram, spec.base, spec.edge_pos)
    neg = child_path(diagram, spec.base, spec.edge_neg)
    zero = ws.backend.zero
    out = []
    for p in table.paths:
        if p.prefix(pos.generation) == pos:
            out.append(spec.coeff_pos)
        elif p.prefix(neg.generation) == neg:
            out.append(spec.coeff_neg)
        else:
            out.append(zero)
    return out


@dataclass
class VerifyReport:
    ok: bool
    generation: int
    s: Fraction
    dense_size: int
    total_multiplicity: int
    counting_ok: bool
    max_abs_deviation: float
    tolerance: float
    exact_checked: bool
    exact_ok: bool | None
    mismatches: list[str]
    notes: list[str]

    def lines(self) -> list[str]:
        yn = "PASS" if self.ok else "FAIL"
        out = [f"verify generation={self.generation} s={self.s}: {yn}",
               f"  dense size {self.dense_size}, closed-form multiplicity "
               f"{self.total_multiplicity} (+1 kernel), counting "
               f"{'ok' if self.counting_ok else 'MISMATCH'}",
               f"  max |dense - closed-form| = {self.max_abs_deviation:.3e}"
               f" (tolerance {self.tolerance:.1e})"]
        if self.exact_checked:
            out.append(f"  exact eigen-relations: {'ok' if self.exact_ok else 'FAIL'}")
        out.extend(f"  mismatch: {m}" for m in self.mismatches)
        if self.notes:
            out.append("NOTES")
            out.extend(f"  {line}" for line in self.notes)
        return out


def verify_spectrum(ws: WeightSystem, n: int, s, tol: float = 1e-8,
                    dense_cap: int = DEFAULT_DENSE_CAP,
                    notes: list[str] | None = None) -> VerifyReport:
    """Cross-check: eigenvalues of the dense restriction at generation n must
    equal {0} plus the closed-form records through generation n-1, as multisets.

    On exact backends the eigenvector relations M v = lambda v are also checked
    with zero tolerance."""
    s = Fraction(s)
    if n < 1:
        raise LaplacianError("generation must be >= 1")
    records = full_spectrum(ws, n - 1, s)
    expected = spectrum_multiset(records)
    op = dense_restriction(ws, n, s, cap=dense_cap)
    size = len(op.table)

    counting_ok = len(expected) == size
    mismatches = []
    if not counting_ok:
        mismatches.append(f"multiplicity {len(expected)} != |Pi_n| = {size}")

    max_dev = float("inf")
    try:
        eigs = dense_spectrum(op)
    except SlotSymmetryError as exc:
        mismatches.append(f"slot symmetry: {exc}")
    else:
        if counting_ok:
            max_dev = float(np.max(np.abs(eigs - np.array(expected))))
            if max_dev > tol:
                k = int(np.argmax(np.abs(eigs - np.array(expected))))
                mismatches.append(f"eigenvalue #{k}: dense {eigs[k]:.12g} "
                                  f"vs closed-form {expected[k]:.12g}")

    exact_checked = op.exact
    exact_ok: bool | None = None
    if op.exact:
        exact_ok = _verify_exact_relations(ws, op, records)
        if not exact_ok:
            mismatches.append("exact eigen-relation check failed")

    ok = counting_ok and max_dev <= tol and (exact_ok is not False)
    return VerifyReport(ok, n, s, size, len(expected), counting_ok, max_dev, tol,
                        exact_checked, exact_ok, mismatches, list(notes or ()))


def _verify_exact_relations(ws: WeightSystem, op: DenseOperator,
                            records: list[SpectralRecord]) -> bool:
    size = len(op.table)
    zero = ws.backend.zero

    for i in range(size):
        acc = zero
        for j in range(size):
            acc = acc + op.matrix[i][j]
        if not _is_zero(acc):
            return False

    for rec in records:
        if rec.label == "zero":
            continue
        base = EMPTY_PATH if rec.label == "root" else rec.path
        bgen = base.generation
        for spec in eigenbasis(ws, base):
            vec = expand_eigenvector(ws, op.table, spec)
            support = [j for j in range(size) if not _is_zero(vec[j])]
            # rows outside the base subtree see the support through one common
            # meet, so they vanish exactly as soon as sum(mu_j v_j) does
            weighted = zero
            for j in support:
                weighted = weighted + op.mu_values[j] * vec[j]
            if not _is_zero(weighted):
                return False
            for i in range(size):
                if op.table.paths[i].prefix(bgen) != base:
                    continue
                acc = zero
                for j in support:
                    acc = acc + op.matrix[i][j] * vec[j]
                if not _is_zero(acc - rec.value * vec[i]):
                    return False
    return True


def _is_zero(x) -> bool:
    if isinstance(x, Fraction):
        return x == 0
    return x.is_zero()
