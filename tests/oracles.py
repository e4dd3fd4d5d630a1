"""Path and dense-operator helpers that several test modules use as
independent oracles: paths as objects (`Path`, `PathTable`,
`enumerate_paths`, `format_path` and the shifts), which the library, working
on per-generation index arrays, no longer builds; the per-record views of
the spectrum and of the affine recursion that tests compare against; and the
loop-by-loop forms of the dense index fill, the sibling-copy split and the
Perron power iteration, the Fraction-pair quadratic scalar and the walk's
object loop, the suffix automaton that counts factors, the path-by-path
Cuntz-Krieger check, the heat trace one t at a time and the emitter's rows
one row at a time; and the library helpers that only tests read: the
root-edge index, one value's lattice coordinates and the bounded-norm
check."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby, product

import mpmath
import numpy as np

from bratlap.asymptotics import (HEAT_ENVELOPE_DEPTH, HEAT_TAIL_TARGET, AsymptoticsError,
                                 GenerationSpectrum, HeatResult, lower_envelope,
                                 magnitude_table, ols_loglog)
from bratlap.cli import _TEXT_COLUMNS
from bratlap.cuntz import CKReport, CompanionData, CuntzError, lattice_array
from bratlap.diagram import (DEFAULT_PATH_CAP, BratteliDiagram, DiagramError,
                             predicted_path_count)
from bratlap.laplacian import LaplacianError, StationaryCache, g_value, walk_states
from bratlap.measure import MeasureError, WeightSystem, mu
from bratlap.scalar import ApproxReal, _as_fraction, is_square_free, rational_sqrt


@dataclass(frozen=True)
class Path:
    """A finite path: a root-edge index plus a run of composable edge-model indices.

    root=None encodes the empty path (the root vertex itself)."""

    root: int | None
    edges: tuple[int, ...] = ()

    @property
    def generation(self) -> int:
        return 0 if self.root is None else 1 + len(self.edges)

    def prefix(self, k: int) -> "Path":
        if k == 0:
            return EMPTY_PATH
        if k > self.generation:
            raise DiagramError("prefix longer than path")
        return Path(self.root, self.edges[: k - 1])

    def child(self, edge_index: int) -> "Path":
        """The path one generation deeper: extended by edge model edge_index,
        or, for the empty path, the root edge edge_index."""
        if self.root is None:
            return Path(edge_index)
        return Path(self.root, self.edges + (edge_index,))


EMPTY_PATH = Path(None)


@dataclass(frozen=True)
class PathTable:
    generation: int
    paths: tuple[Path, ...]

    def __len__(self) -> int:
        return len(self.paths)


def root_edge_index(diagram: BratteliDiagram, vertex: int, slot: int = 0) -> int:
    return vertex * diagram.symmetry_order + slot


def path_range(diagram: BratteliDiagram, path: Path) -> int:
    """Letter index of the deepest vertex the path reaches."""
    if path.root is None:
        raise DiagramError("the empty path has no range vertex")
    if path.edges:
        return diagram.edges[path.edges[-1]].target
    return diagram.root_edges[path.root].vertex


def format_path(diagram: BratteliDiagram, path: Path) -> str:
    """A path's label from its root edge's head and its edges' segments;
    "()" for the empty path."""
    if path.root is None:
        return "()"
    return ".".join((diagram.heads[path.root], *(diagram.segments[ei] for ei in path.edges)))


def enumerate_paths(diagram: BratteliDiagram, n: int,
                    cap: int = DEFAULT_PATH_CAP) -> PathTable:
    """All paths of generation n in lexicographic (root index, edge indices) order."""
    if n < 1:
        raise DiagramError("generation must be >= 1")
    predicted = predicted_path_count(diagram, n, cap)
    if predicted > cap:
        raise DiagramError(
            f"refusing to enumerate more than {cap} paths; raise the cap explicitly")

    paths: list[Path] = []

    def extend(path: Path, at: int, depth: int) -> None:
        if depth == n:
            paths.append(path)
            return
        for ei in diagram.out_edges[at]:
            extend(path.child(ei), diagram.edges[ei].target, depth + 1)

    for ri in range(len(diagram.root_edges)):
        extend(Path(ri), diagram.root_edges[ri].vertex, 1)
    if len(paths) != predicted:
        raise AssertionError("path enumeration disagrees with the matrix-power count")
    return PathTable(n, tuple(paths))


def path_chain(diagram: BratteliDiagram, depth: int) -> list[tuple[list, list]]:
    """Per generation 1 to `depth`, the (parent, edge) lists of the paths of
    `enumerate_paths`: each path's prefix's index one generation up, and its
    last edge, its root edge under parent 0 at generation 1."""
    up = enumerate_paths(diagram, 1).paths
    chain = [([0] * len(up), [p.root for p in up])]
    for n in range(2, depth + 1):
        index = {p: i for i, p in enumerate(up)}
        up = enumerate_paths(diagram, n).paths
        chain.append(([index[p.prefix(n - 1)] for p in up], [p.edges[-1] for p in up]))
    return chain


def level_paths(levels: list) -> list[list[Path]]:
    """Per level of `laplacian.walk_states`, its paths as `Path`s, in (root,
    edges) order, read off the levels' parent and edge arrays."""
    out = [[EMPTY_PATH]]
    for level in levels[1:]:
        up = out[-1]
        out.append([up[p].child(e) for p, e in zip(level.parent.tolist(), level.edge.tolist())])
    return out


@dataclass(frozen=True)
class SpectralRecord:
    label: str                  # "zero" | "root" | "path"
    path: Path | None
    generation: int
    value: object               # backend scalar
    value_float: float
    multiplicity: int


def path_key(diagram: BratteliDiagram, path: Path) -> tuple[int, int]:
    """The (range vertex, generation) key by which the formula layer reads a
    path's terms: (-1, 0) for the empty path."""
    if path.root is None:
        return (-1, 0)
    return (path_range(diagram, path), path.generation)


def extensions(diagram: BratteliDiagram, path: Path) -> tuple[int, ...]:
    """Edge models extending the path one generation; root edges for the
    empty path."""
    if path.root is None:
        return tuple(range(len(diagram.root_edges)))
    return diagram.out_edges[path_range(diagram, path)]


def longest_common_prefix(x: Path, y: Path) -> Path:
    if x.root is None or y.root is None or x.root != y.root:
        return EMPTY_PATH
    common = []
    for a, b in zip(x.edges, y.edges):
        if a != b:
            break
        common.append(a)
    return Path(x.root, tuple(common))


def span(table, prefix: Path) -> range:
    """Indices of the paths of a PathTable that extend `prefix`.  The table
    lists its paths in lexicographic (root, edges) order, so they fill one
    range: from the prefix to its successor, the same path with its last
    edge index one higher, or its root when it has no edges.  The empty path
    spans the whole table."""
    root, edges = prefix.root, prefix.edges
    if root is None:
        return range(len(table.paths))
    after = (root, edges[:-1] + (edges[-1] + 1,)) if edges else (root + 1, ())
    key = lambda p: (p.root, p.edges)
    return range(bisect_left(table.paths, (root, edges), key=key),
                 bisect_left(table.paths, after, key=key))


def distance_to_unstable(embedding, coords) -> float:
    """The distance of one lattice point to the unstable space of a
    CompanionData, vector by vector: its float coordinates minus their
    orthogonal projection onto the unstable basis, and the norm of that."""
    c = np.array([float(x) for x in coords])
    proj = embedding.unstable_basis @ (embedding.unstable_basis.T @ c)
    return float(np.linalg.norm(c - proj))


def lattice_coords(embedding: CompanionData, value) -> tuple[Fraction, ...]:
    """One exact scalar in the lattice's power basis: a row of `lattice_array`."""
    row = lattice_array(embedding, [value])
    return tuple(Fraction(n, row.den) for n in row.num[0].tolist())


def object_matrix(op) -> np.ndarray:
    """The whole |Pi_n|^2 matrix M of a DenseOperator, values[index] as an
    object array of its scalars."""
    return np.array(op.values, dtype=object)[op.index]


def float_matrix(op) -> np.ndarray:
    """The whole |Pi_n|^2 matrix M of a DenseOperator, each entry the float
    of its value."""
    return np.array([float(v) for v in op.values])[op.index]


def whole_symmetrized(op) -> np.ndarray:
    """The whole |Pi_n|^2 matrix D^(1/2) M D^(-1/2) of a DenseOperator, each
    entry the float of M times root[i] * inv_root[j]."""
    root = np.sqrt(op.mu_float())
    return float_matrix(op) * np.outer(root, 1.0 / root)


def copy_groups(diagram: BratteliDiagram, table: PathTable) -> list[tuple]:
    """The groups of identical sibling subtrees below the paths that come
    first in their generation with their run of range vertices, found on
    `Path`s: per group, (its path's generation, the paths of that
    generation with its run, the copies' leaf ranges of `table`)."""
    runs = {EMPTY_PATH: ()}
    groups = []
    for k in range(table.generation):
        paths = sorted({p.prefix(k) for p in table.paths}, key=lambda p: (p.root, p.edges))
        same: dict[tuple, list] = {}
        for p in paths:
            if k:
                runs[p] = runs[p.prefix(k - 1)] + (path_range(diagram, p),)
            same.setdefault(runs[p], []).append(p)
        for p, *others in same.values():
            ext = extensions(diagram, p)
            lo = 0
            for _, run in groupby(diagram.root_edges[e].vertex if k == 0 else
                                  diagram.edges[e].target for e in ext):
                hi = lo + len(list(run))
                if hi - lo >= 2:
                    groups.append((k, 1 + len(others),
                                   [span(table, p.child(e)) for e in ext[lo:hi]]))
                lo = hi
    return groups


def whole_matrix_dense_spectrum(op) -> np.ndarray:
    """The sibling-copy split read off the whole symmetrized matrix S, one
    block and one eigvalsh at a time: `dense_spectrum` with its sums in its
    order, and the copy invariance compared on S's floats.

    Every copy C_q of every group of `copy_groups` is swapped with C_0, and
    S's rows and columns under C_q, so permuted, must equal those under
    C_0.  Orbits are the leaves of one walk state, each read from its first
    leaf r_O; an entry sums S[r_O, j] over the leaves j of orbit P in the
    block's cylinder by np.bincount, r_O's own cell left out, scales it by
    sqrt(m_O / m_P) and adds S[r_O, r_O] on the diagonal.  A top-block sum
    is the sum over root slot 0 plus g - 1 times that over slot 1; the block
    of a group at a path sums over C_0 less over C_1, with m_O counted in
    C_0, and is repeated c - 1 times per path with the group's run.  Block
    dimension times repeat sums to |Pi_n|."""
    sym = whole_symmetrized(op)
    assert np.isfinite(sym).all()
    diagram, size, g = op.cache.ws.diagram, op.vertex.size, op.symmetry_order
    state = op.levels[-1].state
    count = np.bincount(state)
    first = np.array([np.flatnonzero(state == s)[0] for s in range(count.size)])
    table = enumerate_paths(diagram, op.generation)
    groups = copy_groups(diagram, table)

    def orbit_sums(rows, cols: range, lo: int, d: int) -> np.ndarray:
        cols = np.arange(cols.start, cols.stop)
        return np.array([np.bincount(state[cols] - lo, np.where(cols == r, 0.0, sym[r, cols]), d)
                         for r in rows])

    def solved(sums: np.ndarray, rows, m: np.ndarray) -> np.ndarray:
        block = np.sqrt(m[:, None] / m[None, :]) * sums
        block[np.diag_indices(len(rows))] += sym[rows, rows]
        return np.linalg.eigvalsh(block)

    # per slot k, the sums over the root edges (v, k) of every letter v
    slot = [sum(orbit_sums(first, span(table, Path(v * g + k)), 0, count.size)
                for v in range(diagram.n_letters)) for k in range(min(g, 2))]
    top = slot[0] + (g - 1) * slot[-1] if g > 1 else slot[0]
    parts, repeats = [solved(top, first, count)], [np.ones(count.size, int)]
    for _, same, copies in groups:
        for copy in copies[1:]:
            perm = np.arange(size)
            perm[copies[0].start:copies[0].stop], perm[copy.start:copy.stop] = copy, copies[0]
            assert np.array_equal(sym[copy][:, perm], sym[copies[0]])
            assert np.array_equal(sym[perm][:, copy], sym[:, copies[0]])
        lo = state[copies[0].start]
        m = np.bincount(state[copies[0].start:copies[0].stop] - lo)
        assert m.all()
        rows = first[lo:lo + m.size]
        parts.append(solved(orbit_sums(rows, copies[0], lo, m.size) -
                            orbit_sums(rows, copies[1], lo, m.size), rows, m))
        repeats.append(np.full(m.size, (len(copies) - 1) * same))
    assert sum(map(np.sum, repeats)) == size
    return np.sort(np.repeat(np.concatenate(parts), np.concatenate(repeats)))


def blockwise_index(op) -> np.ndarray:
    """op.index rebuilt block by block: the diagonal ids first, then for each
    record in order every off-diagonal block (i, j) of its child cylinders
    set to the ids of mu[column]/G(its key), with the ids interned per key
    and letter in `dense_restriction`'s order after the diagonal's.  No
    record writes outside its own off-diagonal blocks, so no write order is
    relied on."""
    index = np.zeros_like(op.index)
    diagonal = np.diag(op.index)
    np.fill_diagonal(index, diagonal)
    next_id = int(diagonal.max()) + 1
    meet_ids: dict[tuple[int, int], np.ndarray] = {}
    for meet, ends in zip(op.meets, op.bounds):
        lo, hi = ends[0], ends[-1]
        ids = meet_ids.get(meet)
        if ids is None:
            ids = meet_ids[meet] = np.zeros(len(op.mu_values), index.dtype)
            for v in set(op.vertex[lo:hi].tolist()):
                ids[v], next_id = next_id, next_id + 1
        row = ids[op.vertex[lo:hi]]
        for i, j in product(range(len(ends) - 1), repeat=2):
            if i != j:
                index[ends[i]:ends[i + 1], ends[j]:ends[j + 1]] = \
                    row[None, ends[j] - lo:ends[j + 1] - lo]
    return index


def mpf_power_iteration(rows, backend):
    """(theta, v) of the Perron power iteration on `mpmath.mpf` objects under
    `mpmath.workprec`: the reference `measure._approx_eigen`, which calls the
    libmp kernels itself, must match bit for bit."""
    r = len(rows)
    prec = backend.precision
    tol = mpmath.mpf(2) ** (8 - prec)
    bound = mpmath.mpf(2) ** (16 - prec)
    with mpmath.workprec(prec):
        def residual():
            return max(abs(sum(mpmath.mpf(rows[i][j]) * v[j] for j in range(r))
                           - theta * v[i]) for i in range(r))

        v = [mpmath.mpf(1) / r] * r
        theta = mpmath.mpf(0)
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
        inc = mu(ws, *path_key(diagram, path.prefix(k + 1))) - mu(ws, *path_key(diagram, pref))
        acc = acc + inc * (1 / g_value(ws, *path_key(diagram, pref), s))
    final = mu(ws, *path_key(diagram, path)) * (1 / g_value(ws, *path_key(diagram, path), s))
    val = acc - final
    return SpectralRecord("path" if path.generation else "root",
                          path if path.generation else None,
                          path.generation, val, float(val), n_ext - 1)


def walk(cache: StationaryCache, depth: int, visit) -> None:
    """Call visit(path, generation, range_vertex, state, partial) on every
    path of generation <= depth, in pre-order from the empty path, whose
    range vertex is -1 (as in the StationaryCache key (-1, 0)): the
    recursive path-by-path walk that `laplacian.walk_states` replaced.

    State 0 is the empty path's, and a child's state is keyed by parent
    state * n_letters + child range vertex.  `partial` is the state's
    partial sum on its first visit and None after: zero at the empty path,
    below it the parent's, plus the step term of the edge between them when
    the parent has two or more extensions.  The paths of a state have their
    children in the same states, so each partial is formed once."""
    diagram = cache.ws.diagram
    edges, out_edges, letters = diagram.edges, diagram.out_edges, diagram.n_letters
    # (edge, child range vertex) per range vertex, the root edges last, at
    # index -1
    children = [tuple((e, edges[e].target) for e in out) for out in out_edges] + \
        [tuple(enumerate(r.vertex for r in diagram.root_edges))]
    states: dict[int, int] = {}

    def descend(path: Path, generation: int, vertex: int, state: int, partial) -> None:
        visit(path, generation, vertex, state, partial)
        if generation == depth:
            return
        split = len(children[vertex]) >= 2
        for e, target in children[vertex]:
            child = path.child(e)
            key = state * letters + target
            child_state = states.get(key)
            if child_state is None:
                child_state = states[key] = len(states) + 1
                child_partial = partial + cache.step_at(*path_key(diagram, path), target) \
                    if split else partial
            else:
                child_partial = None
            descend(child, generation + 1, target, child_state, child_partial)

    descend(EMPTY_PATH, 0, -1, 0, cache.ws.backend.zero)


def record_visitor(cache: StationaryCache):
    """(records, visit): the zero eigenvalue's record, and a `walk` visitor
    that appends the record of every path it visits with two or more
    extensions, its value formed on the first visit of its walk state."""
    diagram = cache.ws.diagram
    # extensions per range vertex, the root's last (index -1)
    n_ext = [len(out) for out in diagram.out_edges] + [len(diagram.root_edges)]
    records = [SpectralRecord("zero", None, 0, cache.ws.backend.zero, 0.0, 1)]
    values: dict[int, tuple] = {}

    def visit(path: Path, generation: int, vertex: int, state: int, partial) -> None:
        if n_ext[vertex] >= 2:
            if partial is not None:
                val = partial + cache.final_at(*path_key(diagram, path))
                values[state] = (val, float(val))
            records.append(SpectralRecord("path" if generation else "root",
                                          path if generation else None, generation,
                                          *values[state], n_ext[vertex] - 1))

    return records, visit


def spectrum_multiset(records: list[SpectralRecord]) -> list[float]:
    """The records' float values, each repeated by its multiplicity, sorted."""
    return sorted(rec.value_float for rec in records for _ in range(rec.multiplicity))


def full_spectrum(ws: WeightSystem, depth: int, s) -> list[SpectralRecord]:
    """Records for the zero eigenvalue, then, in pre-order from the empty
    path, for every path of generation <= depth with at least two
    extensions: the empty path is the root splitting, labelled "root", with
    value -1/G(root).  Total multiplicity is the path count one generation
    below the cutoff.  This is the record view of `laplacian.walk_states`:
    the records of a walk state share its value object, and each record goes
    to its path's rank."""
    levels = list(walk_states(StationaryCache(ws, Fraction(s)), depth))
    found = []
    for level, paths in zip(levels, level_paths(levels)):
        k, values, ids = level.generation, level.values, level.splits
        for i, rank, state, m in zip(ids.tolist(), level.rank[ids].tolist(),
                                     level.state[ids].tolist(), level.multiplicity.tolist()):
            found.append((rank, SpectralRecord("path" if k else "root", paths[i] if k else None,
                                               k, *values[state], m)))
    found.sort(key=lambda item: item[0])
    return [SpectralRecord("zero", None, 0, ws.backend.zero, 0.0, 1), *(rec for _, rec in found)]


def apply(table, edge_index: int, value):
    """The affine map u_e(value) = Lambda_s value + beta_e of an AffineMapTable."""
    return table.lam * value + table.betas[edge_index]


def recursive_spectrum(table, depth: int) -> list[SpectralRecord]:
    """Spectrum through the given generation, at least the first, grown by
    the affine maps alone from the table's seeds, path by path: the zero and
    root records, then per generation, in `enumerate_paths` order, one
    record per path that ends at a splitting vertex z.  U_e inserts e
    directly below the root, so a path whose edges below its root edge are
    e1 ... ek has the value u_e1(u_e2(... u_ek(seed of z))), each map
    applied to the value of the path one generation shorter.  Paths that
    take the same edges from the same root vertex, as a folded diagram's
    root slots do, share their value and float value.  Nothing of the
    recursion engine in `cuntz` is read, only the table."""
    diagram = table.diagram
    out = [SpectralRecord("zero", None, 0, table.ws.backend.zero, 0.0, 1)]
    if table.root_seed is not None:
        out.append(SpectralRecord("root", None, 0, *table.root_seed, len(diagram.root_edges) - 1))
    values: dict[tuple, tuple] = {}     # (root vertex, edges) -> (value, float)
    for gen in range(1, max(depth, 1) + 1):
        for path in enumerate_paths(diagram, gen).paths:
            z = path_range(diagram, path)
            if table.seeds[z] is None:
                continue
            key = (diagram.root_edges[path.root].vertex, path.edges)
            if key not in values:
                if path.edges:
                    e, *tail = path.edges
                    value = apply(table, e, values[diagram.edges[e].target, tuple(tail)][0])
                    values[key] = (value, float(value))
                else:
                    values[key] = table.seeds[z]
            out.append(SpectralRecord("path", path, gen, *values[key],
                                      len(diagram.out_edges[z]) - 1))
    return out


def sorted_growth(table, depth: int):
    """The generations of `cuntz._grow` as the sort made them: every
    candidate (root vertex, parent * n_classes + class, multiplicity) of a
    step and a parent state reached from its vertex, concatenated, the
    codes deduplicated by np.unique and the multiplicities added at their
    inverse indices."""
    diagram = table.diagram
    classes = table.beta_classes()
    n_cls = max(classes) + 1
    steps = {}
    for e, cls in zip(diagram.edges, classes):
        steps[e.target, e.source, cls] = steps.get((e.target, e.source, cls), 0) + 1
    out_degree = np.array([len(out) for out in diagram.out_edges], dtype=np.int64)
    dst = code = np.flatnonzero(out_degree >= 2)
    mult = diagram.symmetry_order * (out_degree[code] - 1)
    for gen in range(1, max(depth, 1) + 1):
        if gen > 1:
            dst, code, mult = [], [], []
            for (v1, u, cls), k in steps.items():
                idx = np.flatnonzero(counts[v1])
                dst.append(np.full(idx.size, u))
                code.append(idx * n_cls + cls)
                mult.append(counts[v1, idx] * k)
            dst, code, mult = map(np.concatenate, (dst, code, mult))
        codes, inv = np.unique(code, return_inverse=True)
        counts = np.zeros((diagram.n_letters, codes.size), dtype=np.int64)
        np.add.at(counts, (dst, inv), mult)
        yield codes, counts


def strip_distances(report) -> list[tuple[str, float]]:
    """Per record of a StripReport, its label and distance."""
    return list(zip(report.labels, report.state_distances[report.state_of].tolist()))


def walked_spectrum(ws: WeightSystem, depth: int, s) -> list[SpectralRecord]:
    """The records of every path of generation <= depth with two or more
    extensions, in `full_spectrum`'s order, by the path-by-path walk: the
    reference `walk_states` must match, which reads nothing of it."""
    cache = StationaryCache(ws, Fraction(s))
    records, visit = record_visitor(cache)
    walk(cache, depth, visit)
    return records


def walked_dense(ws: WeightSystem, n: int, s):
    """(records, leaves, bounds, diagonal ids) of dense_restriction(ws, n, s)
    by the path-by-path walk to generation n.  It reaches the generation-n
    paths, the leaves, in (root, edges) order; in pre-order a path's first
    leaf is the next one reached, so the running leaf count and the subtree
    sizes bound every child cylinder of a record above generation n.  Each
    leaf's diagonal id is its walk state's, numbered in the order the
    leaves first reach the states."""
    cache = StationaryCache(ws, Fraction(s))
    diagram = ws.diagram
    # sizes[k][v]: the generation-n paths below the generation-k vertex v,
    # A^(n-k) times the ones vector
    a, sizes = diagram.matrix, {n: [1] * diagram.n_letters}
    for k in range(n - 1, 0, -1):
        sizes[k] = [sum(x * y for x, y in zip(row, sizes[k + 1])) for row in a]
    targets = [tuple(diagram.edges[e].target for e in out) for out in diagram.out_edges] + \
        [tuple(r.vertex for r in diagram.root_edges)]
    records, record = record_visitor(cache)
    leaves, bounds, diagonal, ids = [], [], {}, []

    def visit(path: Path, generation: int, vertex: int, state: int, partial) -> None:
        if generation == n:
            ids.append(diagonal.setdefault(state, len(diagonal)))
            leaves.append(path)
            return
        record(path, generation, vertex, state, partial)
        if len(targets[vertex]) >= 2:
            bounds.append(tuple(accumulate((sizes[generation + 1][t] for t in targets[vertex]),
                                           initial=len(leaves))))

    walk(cache, n, visit)
    return records, leaves, bounds, ids


@dataclass(frozen=True)
class PairQuadratic:
    """Element a + b*sqrt(disc) of the real quadratic field Q(sqrt(disc)) as
    a pair of Fractions: the form `scalar.QuadraticNumber` had before it
    held integers (p + q*sqrt(disc)) / r, kept as the reference its
    arithmetic, signs, roots, text and floats must match.

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

    def _coerce(self, other) -> "PairQuadratic | None":
        if isinstance(other, PairQuadratic):
            if other.disc != self.disc:
                raise ValueError(f"mismatched discriminants {self.disc} and {other.disc}")
            return other
        if isinstance(other, (int, Fraction)):
            return _pair(_as_fraction(other), Fraction(0), self.disc)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _pair(self.a + o.a, self.b + o.b, self.disc)

    __radd__ = __add__

    def __neg__(self):
        return _pair(-self.a, -self.b, self.disc)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _pair(self.a - o.a, self.b - o.b, self.disc)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _pair(
            self.a * o.a + self.b * o.b * self.disc,
            self.a * o.b + self.b * o.a,
            self.disc,
        )

    __rmul__ = __mul__

    def inverse(self) -> "PairQuadratic":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return _pair(self.a / n, -self.b / n, self.disc)

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
        out = _pair(Fraction(1), Fraction(0), self.disc)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "PairQuadratic":
        return _pair(self.a, -self.b, self.disc)

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

    def sqrt(self) -> "PairQuadratic | None":
        """Exact non-negative square root inside the same field, or None.

        Solves (c + e*sqrt(D))^2 = a + b*sqrt(D), which requires the norm
        a^2 - D b^2 to be a rational square.
        """
        if self.sign() < 0:
            return None
        if self.is_zero():
            return PairQuadratic(Fraction(0), Fraction(0), self.disc)
        a, b, d = self.a, self.b, self.disc
        if b == 0:
            r = rational_sqrt(a)
            if r is not None:
                return PairQuadratic(r, Fraction(0), d)
            r = rational_sqrt(a / d)
            if r is not None:
                return PairQuadratic(Fraction(0), r, d)
            return None
        n = rational_sqrt(a * a - b * b * d)
        if n is None:
            return None
        for e2 in ((a + n) / (2 * d), (a - n) / (2 * d)):
            e = rational_sqrt(e2)
            if e is None or e == 0:
                continue
            c = b / (2 * e)
            cand = PairQuadratic(c, e, d)
            if (cand * cand).a == a and (cand * cand).b == b and cand.sign() >= 0:
                return cand
            cand = -cand
            if (cand * cand).a == a and (cand * cand).b == b and cand.sign() >= 0:
                return cand
        return None

    def __float__(self) -> float:
        x = float(self.a)
        y = float(self.b) * math.sqrt(self.disc)
        if x > 0 > y or y > 0 > x:
            # x + y cancels; norm / (a - b*sqrt(D)), the same number, does not
            try:
                return float(self.norm()) / (x - y)
            except OverflowError:       # the norm is beyond the float range
                pass
        return x + y

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.a}, {self.b}, sqrt{self.disc})"


def _pair(a: Fraction, b: Fraction, disc: int) -> PairQuadratic:
    """A PairQuadratic from arithmetic on validated operands, skipping
    __post_init__."""
    out = object.__new__(PairQuadratic)
    object.__setattr__(out, "a", a)
    object.__setattr__(out, "b", b)
    object.__setattr__(out, "disc", disc)
    return out


def object_walk(levels: list) -> list[tuple[list, list]]:
    """Per level of `laplacian.walk_states`, (partials, values) by the loop
    the walk ran before it kept exact partial sums as integer numerators:
    every partial its parent state's plus the step term of the edge between
    them, and every value the partial plus the final term, added as
    scalars.  The states and their range vertices are read off the levels'
    path arrays."""
    cache = levels[0].cache
    targets = cache.ws.diagram.targets
    partials, out = [cache.ws.backend.zero], []
    for k, level in enumerate(levels):
        state_vertex = {}
        for state, v in zip(level.state.tolist(), level.vertex.tolist()):
            state_vertex.setdefault(state, v)
        if k:
            up, child = levels[k - 1], {}
            for p, state, t in zip(level.parent.tolist(), level.state.tolist(),
                                   level.vertex.tolist()):
                if state not in child:
                    v, partial = int(up.vertex[p]), partials[int(up.state[p])]
                    child[state] = partial + cache.step_at(v, k - 1, t) \
                        if len(targets[v]) >= 2 else partial
            partials = [child[state] for state in range(len(child))]
        values = []
        for partial, v in zip(partials, (state_vertex[i] for i in range(len(partials)))):
            value = partial + cache.final_at(v, k) if len(targets[v]) >= 2 else None
            values.append(None if value is None else (value, float(value)))
        out.append((partials, values))
    return out


class _SuffixAutomaton:
    """Standard online suffix automaton; counts distinct factors per length.
    The reference for `asymptotics._factor_counts`; letters are any
    hashable values."""

    def __init__(self):
        self.transitions: list[dict] = [{}]
        self.link = [-1]
        self.length = [0]
        self.last = 0

    def extend(self, ch) -> None:
        cur = len(self.length)
        self.length.append(self.length[self.last] + 1)
        self.link.append(-1)
        self.transitions.append({})
        p = self.last
        while p != -1 and ch not in self.transitions[p]:
            self.transitions[p][ch] = cur
            p = self.link[p]
        if p == -1:
            self.link[cur] = 0
        else:
            q = self.transitions[p][ch]
            if self.length[p] + 1 == self.length[q]:
                self.link[cur] = q
            else:
                clone = len(self.length)
                self.length.append(self.length[p] + 1)
                self.transitions.append(dict(self.transitions[q]))
                self.link.append(self.link[q])
                while p != -1 and self.transitions[p].get(ch) == q:
                    self.transitions[p][ch] = clone
                    p = self.link[p]
                self.link[q] = clone
                self.link[cur] = clone
        self.last = cur

    def factor_counts(self, n_max: int) -> list[int]:
        diff = [0] * (n_max + 2)
        for v in range(1, len(self.length)):
            lo = self.length[self.link[v]] + 1
            hi = min(self.length[v], n_max)
            if lo <= hi:
                diff[lo] += 1
                diff[hi + 1] -= 1
        counts = []
        acc = 0
        for n in range(1, n_max + 1):
            acc += diff[n]
            counts.append(acc)
        return counts


def path_shift_down(diagram: BratteliDiagram, edge_index: int,
                    path: Path) -> Path | None:
    """Insert an edge just below the root: (eps, e1, ...) -> (eps', e, e1, ...)
    when e composes with e1, keeping the symmetry slot; None when it does not.
    The reference for `cuntz._shift_maps`."""
    if path.generation < 2:
        raise CuntzError("shift down needs a path of generation >= 2")
    e = diagram.edges[edge_index]
    first = diagram.edges[path.edges[0]]
    if e.target != first.source:
        return None
    slot = diagram.root_edges[path.root].slot
    return Path(root_edge_index(diagram, e.source, slot), (edge_index,) + path.edges)


def path_shift_up(diagram: BratteliDiagram, edge_index: int,
                  path: Path) -> Path | None:
    """Delete the first non-root edge when it equals e, re-rooting at the next
    edge's source; None otherwise."""
    if path.generation < 3:
        raise CuntzError("shift up needs a path of generation >= 3")
    if path.edges[0] != edge_index:
        return None
    nxt = diagram.edges[path.edges[1]]
    slot = diagram.root_edges[path.root].slot
    return Path(root_edge_index(diagram, nxt.source, slot), path.edges[1:])


def ck_relations_by_path(diagram: BratteliDiagram, depth: int, adjacency=None) -> CKReport:
    """`cuntz.ck_relations_check` path by path: every path of generations 2
    to `depth` as a `Path`, shifted down and up by every edge."""
    if adjacency is None:
        adjacency = tuple(
            tuple(1 if e.target == f.source else 0 for f in diagram.edges)
            for e in diagram.edges)
    failures: list[str] = []
    checked = 0
    for gen in range(2, depth + 1):
        table = enumerate_paths(diagram, gen)
        for gamma in table.paths:
            checked += 1
            first = gamma.edges[0]
            for ei in range(len(diagram.edges)):
                down = path_shift_down(diagram, ei, gamma)
                in_domain = down is not None
                claimed = adjacency[ei][first] == 1
                if in_domain != claimed:
                    failures.append(
                        f"U_{ei}*U_{ei} disagrees with the adjacency row on path "
                        f"{format_path(diagram, gamma)}")
                if down is not None:
                    back = path_shift_up(diagram, ei, down)
                    if back != gamma:
                        failures.append(
                            f"shift_up(shift_down) != id on {format_path(diagram, gamma)}")
            if gen >= 3:
                up = path_shift_up(diagram, first, gamma)
                if up is None or path_shift_down(diagram, first, up) != gamma:
                    failures.append(
                        f"shift_down(shift_up) != id on {format_path(diagram, gamma)}")
            if len(failures) > 20:
                return CKReport(False, depth, checked, failures)
    return CKReport(not failures, depth, checked, failures)


def generation_max(spec: GenerationSpectrum) -> dict[int, float]:
    return {n: float(m.max()) for n, m in enumerate(spec.magnitudes) if n and m.size}


@dataclass
class NormBoundReport:
    s: float
    lam: float
    c_constant: float
    bound: float
    sup_by_generation: list[tuple[int, float]]
    sup_total: float
    increment_ratios: list[float]

    @property
    def within_bound(self) -> bool:
        return self.sup_total <= self.bound + 1e-12


def norm_bound_check(table, depth: int = 15) -> NormBoundReport:
    """Bounded regime s > d+2: the running sup of |eigenvalue| must stay below
    c/(1-Lambda), with c the largest |beta| or nonzero seed magnitude of the
    table, and its increments must shrink geometrically like Lambda."""
    ws = table.ws
    s = float(table.s)
    if s <= ws.dimension + 2:
        raise AsymptoticsError("bounded-norm check requires s > d + 2")
    lam = table.lam_float
    if lam >= 1.0:
        raise AsymptoticsError("Lambda_s must be < 1 in the bounded regime")

    spec = magnitude_table(table, depth)
    maxes = generation_max(spec)
    # rows 0 and 1 hold the root and the seeds, and the zero adds nothing
    c = max(float(np.concatenate(spec.magnitudes[:2]).max()),
            max(abs(b) for b in table.betas_float))
    bound = c / (1.0 - lam)

    sup_by_gen = []
    running = 0.0
    for n in sorted(maxes):
        running = max(running, maxes[n])
        sup_by_gen.append((n, running))
    increments = [sup_by_gen[i + 1][1] - sup_by_gen[i][1]
                  for i in range(len(sup_by_gen) - 1)]
    ratios = [increments[i + 1] / increments[i]
              for i in range(len(increments) - 1) if increments[i] > 1e-15]
    return NormBoundReport(s, lam, c, bound, sup_by_gen, running, ratios)


def _log_transfer_contribution(table, seed_vals: dict[int, float], out_deg: list[int],
                               t: float, m: int, log_w: np.ndarray) -> tuple[float, np.ndarray]:
    """One recursion layer in log space at one t; returns (generation m+1
    contribution, updated per-vertex log partition vector)."""
    diagram = table.diagram
    lam = table.lam_float
    scale = lam ** (m - 1)
    new = np.full(diagram.n_letters, -np.inf)
    contrib = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for ei, e in enumerate(diagram.edges):
            cand = t * scale * table.betas_float[ei] + log_w[e.source]
            new[e.target] = np.logaddexp(new[e.target], cand)
        for z, lam_z in seed_vals.items():
            if out_deg[z] < 2 or new[z] == -np.inf:
                continue
            expo = t * (lam ** m) * lam_z + new[z]
            if expo > -745.0:
                contrib += diagram.symmetry_order * (out_deg[z] - 1) * math.exp(expo)
    return contrib, new


def heat_trace_by_t(table, t_grid, depth: int | None = None) -> HeatResult:
    """`asymptotics.heat_trace` one t at a time: per t, the head terms, then
    the log-space transfer recursion over the generations in scalars."""
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid or t_grid[0] <= 0:
        raise AsymptoticsError("t grid must be positive")
    diagram = table.diagram
    lam = table.lam_float
    theta = table.ws.perron.theta_float
    if lam <= 1.0:
        raise AsymptoticsError("heat trace needs Lambda > 1 (s < d+2)")

    env = magnitude_table(table, HEAT_ENVELOPE_DEPTH)
    c_min = lower_envelope(env, lam) / 2.0
    c_cnt = 2.0 * max(int(w.sum()) / theta ** n for n, w in enumerate(env.weights) if n)

    def tail_bound(t: float, d: int) -> float:
        total = 0.0
        for n in range(d + 1, d + 600):
            expo = math.log(c_cnt) + n * math.log(theta) - t * c_min * lam ** n
            if expo < -745.0:
                if n > d + 1:
                    break
                continue
            term = math.exp(expo)
            total += term
            if term < 1e-3 * total and n > d + 3:
                break
        return total

    t_min = t_grid[0]
    if depth is None:
        depth = HEAT_ENVELOPE_DEPTH
        while tail_bound(t_min, depth) > HEAT_TAIL_TARGET and depth < 400:
            depth += 2
    if tail_bound(t_min, depth) > HEAT_TAIL_TARGET:
        raise AsymptoticsError(f"certified tail exceeds {HEAT_TAIL_TARGET:g} at t={t_min:g}")

    out_deg = [len(diagram.out_edges[v]) for v in range(diagram.n_letters)]
    seed_vals = {z: seed[1] for z, seed in enumerate(table.seeds) if seed is not None}
    head = [(m.tolist(), w.tolist()) for m, w in zip(env.magnitudes[:2], env.weights[:2])]
    samples = []
    for t in t_grid:
        total = 0.0
        for mags, wts in head:
            for m, w in zip(mags, wts):
                total += w * math.exp(-t * m)
        log_w = np.zeros(diagram.n_letters)
        for m in range(1, depth):
            contrib, log_w = _log_transfer_contribution(table, seed_vals, out_deg, t, m, log_w)
            total += contrib
        samples.append((t, total, tail_bound(t, depth)))
    fit = ols_loglog([t for t, _, _ in samples], [tr for _, tr, _ in samples])
    return HeatResult(samples, fit, depth)


def rows_by_row(columns: list[str], data: list, blocks, csv: bool, dump) -> str:
    """The text `cli._write_rows` writes for a section, one row at a time: a
    column is a list of per-row values or (cells, index), and each block's
    rows are written once per head, the head before the "path" column's
    value.  A CSV row quotes the text columns; a JSON row is its list
    dumped, the rows joined by commas."""
    columns_ = [values if isinstance(values, tuple) else (values, None) for values in data]
    cells, index = columns_[0]
    blocks = blocks or [(("",), len(cells if index is None else index))]
    rows, stop = [], 0
    for heads, size in blocks:
        start, stop = stop, stop + size
        for head in heads:
            for i in range(start, stop):
                row = [cells[i] if index is None else cells[index[i]]
                       for cells, index in columns_]
                row = [head + v if column == "path" else v for column, v in zip(columns, row)]
                rows.append(",".join(f'"{v}"' if column in _TEXT_COLUMNS else str(v)
                                     for column, v in zip(columns, row)) + "\n"
                            if csv else dump(row))
    return "".join(rows) if csv else ",".join(rows)
