"""Path and dense-operator helpers that several test modules use as
independent oracles."""

from __future__ import annotations

from bisect import bisect_left
from itertools import product

import numpy as np

from bratlap.diagram import EMPTY_PATH, Path


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
