"""Path and dense-operator helpers that several test modules use as
independent oracles, and the per-record views of the spectrum and of the
affine recursion that tests compare against."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from bratlap.cuntz import _expand
from bratlap.diagram import EMPTY_PATH, BratteliDiagram, Path
from bratlap.laplacian import (LaplacianError, StationaryCache, _level_paths, g_value,
                               walk_states)
from bratlap.measure import WeightSystem, mu


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
    return (diagram.path_range(path), path.generation)


def extensions(diagram: BratteliDiagram, path: Path) -> tuple[int, ...]:
    """Edge models extending the path one generation; root edges for the
    empty path."""
    if path.root is None:
        return tuple(range(len(diagram.root_edges)))
    return diagram.out_edges[diagram.path_range(path)]


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


def whole_symmetrized(op) -> np.ndarray:
    """The whole |Pi_n|^2 matrix D^(1/2) M D^(-1/2) of a DenseOperator, each
    entry the float of M times root[i] * inv_root[j]."""
    root = np.sqrt(op.mu_float())
    return op.as_float() * np.outer(root, 1.0 / root)


def whole_matrix_dense_spectrum(op) -> np.ndarray:
    """The slot-split spectrum read off the whole symmetrized matrix, with the
    slot invariance compared on its floats: the dense spectrum as it was
    before only the slot-0 rows were built."""
    sym_op = whole_symmetrized(op)
    assert np.isfinite(sym_op).all()
    g = op.symmetry_order
    widths = op.slot_widths
    starts = np.cumsum((0,) + tuple(g * w for w in widths))
    offsets = np.cumsum((0,) + widths)
    vertex_pairs = list(product(range(len(widths)), repeat=2))

    def slab(v: int, w: int) -> np.ndarray:
        return sym_op[starts[v]:starts[v + 1], starts[w]:starts[w + 1]] \
            .reshape(g, widths[v], g, widths[w])

    for v, w in vertex_pairs:
        copies = slab(v, w)
        for k, l in product(range(g), repeat=2):
            assert np.array_equal(copies[k, :, l, :],
                                  copies[0, :, int(v == w and k != l), :])
    block = np.empty((offsets[-1], offsets[-1]))
    for v, w in vertex_pairs:
        copies = slab(v, w)
        target = block[offsets[v]:offsets[v + 1], offsets[w]:offsets[w + 1]]
        target[...] = copies[0, :, 0, :]
        for l in range(1, g):
            target += copies[0, :, l, :]
    parts = [np.linalg.eigvalsh(block)]
    if g > 1:
        for v in range(len(widths)):
            own = slab(v, v)
            parts.append(np.repeat(np.linalg.eigvalsh(own[0, :, 0, :] - own[0, :, 1, :]),
                                   g - 1))
    return np.sort(np.concatenate(parts))


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
    for level, paths in zip(levels, _level_paths(levels)):
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
    """Spectrum through the given generation grown by the affine maps alone
    from the table's seeds: the zero and root records, one generation-1
    record per root edge into a splitting vertex, and each record of
    generation n+1 u_e applied to a generation-n record, in (root, edges)
    order within a generation.  This is the record view of `cuntz._expand`
    and the betas: records that reach the same recursion state share its
    value and float value."""
    diagram = table.diagram
    classes = table.beta_classes()
    first_edge = [classes.index(cls) for cls in range(max(classes) + 1)]
    out = [SpectralRecord("zero", None, 0, table.ws.backend.zero, 0.0, 1)]
    if table.root_seed is not None:
        out.append(SpectralRecord("root", None, 0, *table.root_seed, len(diagram.root_edges) - 1))
    out += [SpectralRecord("path", Path(r), 1, *table.seeds[edge.vertex],
                           len(diagram.out_edges[edge.vertex]) - 1)
            for r, edge in enumerate(diagram.root_edges) if table.seeds[edge.vertex] is not None]
    states = [seed[0] for seed in table.seeds if seed is not None]
    # per vertex, the edge runs of the paths under its root edges, like
    # the label tails of `BratteliDiagram.split_labels`
    runs = [[()] if len(edges) >= 2 else [] for edges in diagram.out_edges]
    for gen, (codes, index) in enumerate(_expand(table, depth), 2):
        parent, cls = np.divmod(codes, len(first_edge))
        states = [apply(table, first_edge[k], states[i])
                  for i, k in zip(parent.tolist(), cls.tolist())]
        floats = [float(value) for value in states]
        runs = [[(ei,) + run for ei in edges for run in runs[diagram.edges[ei].target]]
                for edges in diagram.out_edges]
        paths = [Path(r, run) for r, edge in enumerate(diagram.root_edges)
                 for run in runs[edge.vertex]]
        out.extend(SpectralRecord("path", path, gen, states[i], floats[i],
                                  len(diagram.out_edges[diagram.path_range(path)]) - 1)
                   for path, i in zip(paths, index.tolist()))
    return out


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
