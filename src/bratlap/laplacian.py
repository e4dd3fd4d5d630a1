"""Closed-form spectrum of the Laplace-Beltrami operators Delta_s, and a dense
matrix oracle on the generation-n cylinder basis.

Eigenvalues are stored with the sign the defining formula produces (negative);
asymptotics elsewhere use magnitudes.  Prefixes with a single extension are
skipped: their measure increment vanishes identically, so they contribute
nothing and the splitting weight G never has to be evaluated there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from . import _linalg
from .diagram import (DEFAULT_PATH_CAP, EMPTY_PATH, Path, PathTable, path_counts,
                      predicted_path_count)
from .measure import WeightSystem, diam_power, mu
from .scalar import ApproxReal, QuadraticNumber

DEFAULT_DENSE_CAP = 4096
ROW_BLOCK = 256      # rows DenseOperator.symmetrized reads and scales at a time
FLOAT_TOLERANCE = 1e-8  # the largest eigenvalue deviation a float operator passes


class LaplacianError(ValueError):
    pass


def g_value(ws: WeightSystem, a: int, n: int, s):
    """Splitting weight G_s = (1/2) diam^(2-s) * sum over ordered pairs of
    distinct extensions of the product of the two extended measures, at a
    path with range vertex a at generation n, or the empty path's (-1, 0)."""
    s = Fraction(s)
    targets = ws.diagram.targets[a]
    if len(targets) < 2:
        raise LaplacianError("no splitting at this path")
    measures = [mu(ws, t, n + 1) for t in targets]
    total = sum(measures[1:], measures[0])
    sumsq = sum((m * m for m in measures[1:]), measures[0] * measures[0])
    pair_sum = total * total - sumsq
    return Fraction(1, 2) * diam_power(ws, a, n, 2 - s) * pair_sum


class StationaryCache:
    """Memo of the terms of the eigenvalue formula on a stationary diagram.

    mu(gamma), 1/mu(gamma) and G(gamma) depend only on the range vertex
    r(gamma) and the generation n, so they are kept and read per key
    (r(gamma), n), and so are the two terms the spectrum and dense walks
    add up:

    - the final term -mu(gamma) * G(gamma)^-1, keyed by (r(gamma), n);
    - the step term (mu(gamma e) - mu(gamma)) * G(gamma)^-1, keyed by
      (r(gamma), n, r(gamma e)).

    The empty path uses the key (-1, 0).  Each entry is computed once, from
    the same operands combined in the same order as the direct per-path
    formula (the sum over the prefixes with two or more extensions of the
    measure increment over G, minus mu/G at the path), so the memoized
    walks give the same scalars, bit for bit on the approximate backend and
    exactly on the exact ones.
    """

    def __init__(self, ws: WeightSystem, s):
        self.ws = ws
        self.s = s
        self._mu: dict[tuple[int, int], object] = {}
        self._inv_mu: dict[tuple[int, int], object] = {}
        self._g: dict[tuple[int, int], object] = {}
        self._inv_g: dict[tuple[int, int], object] = {}
        self._final: dict[tuple[int, int], object] = {}
        self._step: dict[tuple[int, int, int], object] = {}

    @staticmethod
    def _memo(table: dict, key: tuple, compute):
        val = table.get(key)
        if val is None:
            val = table[key] = compute()
        return val

    def mu_at(self, a: int, n: int):
        return self._memo(self._mu, (a, n), lambda: mu(self.ws, a, n))

    def inv_mu_at(self, a: int, n: int):
        return self._memo(self._inv_mu, (a, n), lambda: 1 / self.mu_at(a, n))

    def g_at(self, a: int, n: int):
        return self._memo(self._g, (a, n), lambda: g_value(self.ws, a, n, self.s))

    def inv_g_at(self, a: int, n: int):
        return self._memo(self._inv_g, (a, n), lambda: 1 / self.g_at(a, n))

    # the two terms the walks read once per walk state, looked up without
    # building a closure on every call
    def final_at(self, a: int, n: int):
        val = self._final.get((a, n))
        if val is None:
            val = self._final[a, n] = -(self.mu_at(a, n) * self.inv_g_at(a, n))
        return val

    def step_at(self, a: int, n: int, t: int):
        """The step term from (a, n) to its child ending at t."""
        val = self._step.get((a, n, t))
        if val is None:
            val = self._step[a, n, t] = \
                (self.mu_at(t, n + 1) - self.mu_at(a, n)) * self.inv_g_at(a, n)
        return val


def eigenbasis(cache: StationaryCache, a: int, n: int) -> list[tuple]:
    """(coeff_pos, coeff_neg) of the spanning eigenvectors at a path with
    key (a, n), one per extension after the first: coeff_pos on the
    cylinder of the first extension, coeff_neg on that of the other, each
    1/mu of its child read from the stationary memo, coeff_neg negated."""
    targets = cache.ws.diagram.targets[a]
    if len(targets) < 2:
        return []
    inv_anchor = cache.inv_mu_at(targets[0], n + 1)
    return [(inv_anchor, -cache.inv_mu_at(t, n + 1)) for t in targets[1:]]


class WalkLevel:
    """Generation k of `walk_states`.

    Per path of the generation, in (root, edges) order:
    - `state`: its walk state, an index into `partials`;
    - `vertex`: its range vertex, -1 at the empty path (as in the
      StationaryCache key (-1, 0));
    - `parent`: its parent's index in level k - 1, and `edge` the edge from
      there (a root edge at generation 1, an edge model below); both are -1
      at the empty path;
    - `rank`: the number of records before it in pre-order through
      generation `depth`, the zero eigenvalue's included, which is its own
      record's index in that order when it has one;
    - `first_leaf`: the index of its first generation-`depth` descendant
      among the generation-`depth` paths in (root, edges) order.

    Per range vertex, -1 the root's, `leaves` counts the generation-`depth`
    paths below a path of the generation that ends there.  `splits` lists
    the paths with two or more extensions, those with a record, and
    `multiplicity` their extensions less one.  Per walk state, `partials`
    holds its partial sum and `state_vertex` its range vertex.  A plain
    class, not a dataclass, which would add about 1 ms to every import."""

    def __init__(self, generation: int, state, vertex, parent, edge, rank, first_leaf,
                 leaves, splits, multiplicity, partials: list, state_vertex: list,
                 cache: StationaryCache):
        self.generation, self.state, self.vertex = generation, state, vertex
        self.parent, self.edge, self.rank, self.first_leaf = parent, edge, rank, first_leaf
        self.leaves, self.splits, self.multiplicity = leaves, splits, multiplicity
        self.partials, self.state_vertex, self.cache = partials, state_vertex, cache

    @cached_property
    def values(self) -> list:
        """Per walk state, (value, float) at a vertex with two or more
        extensions and None elsewhere: its partial plus the final term keyed
        by (range vertex, generation).  It is formed on first read, so a
        generation that is not read computes no final term and no G."""
        targets = self.cache.ws.diagram.targets
        finals = {v: self.cache.final_at(v, self.generation)
                  for v in dict.fromkeys(self.state_vertex) if len(targets[v]) >= 2}
        out = []
        for partial, v in zip(self.partials, self.state_vertex):
            val = finals.get(v)
            if val is not None:
                val = partial + val
                val = (val, float(val))
            out.append(val)
        return out


def walk_states(cache: StationaryCache, depth: int):
    """The levels of generations 0 through `depth`, one `WalkLevel` at a
    time; refused at the call when they would hold more than
    DEFAULT_PATH_CAP paths in all.

    A path's eigenvalue is its partial sum plus the final term keyed by
    (r(gamma), n): zero plus, at each prefix gamma with two or more
    extensions, the step term of its next edge e, keyed by (r(gamma), n,
    r(gamma e)).  So it is fixed by the path's walk state, its run of range
    vertices.  State 0 is the empty path's, and a state of generation k + 1
    is a (state of generation k, child range vertex) pair, numbered in the
    order of its code parent * n_letters + child, the way `cuntz._grow`
    codes its states.  That is the order in which the generation's paths
    first reach them: the first path of a state has the children of every
    path of it, and out-edges run in target order.  Each partial is formed
    once per state from the same operands in the same order as the direct
    per-path formula, so the scalars equal a path-by-path walk's, bit for
    bit on the approximate backend.

    Paths are index arrays.  A path's children are its range vertex's
    out-edges in order, so a level lists its paths by parent, then edge.  A
    child's rank and first leaf are its parent's plus offsets that depend
    only on the parent's range vertex and generation and the child's place
    among the out-edges: the parent's own record, and the records and
    generation-`depth` paths below the earlier siblings, counted per
    (vertex, generation) from generation `depth` up."""
    if depth < 0:
        raise LaplacianError("depth must be >= 0")
    total = 0
    for _, row in zip(range(depth), path_counts(cache.ws.diagram)):
        total += sum(row)
        if total > DEFAULT_PATH_CAP:
            raise LaplacianError(
                f"spectrum would visit more than {DEFAULT_PATH_CAP} paths (the cap)")
    return _levels(cache, depth)


def _levels(cache: StationaryCache, depth: int):
    diagram = cache.ws.diagram
    letters, targets = diagram.n_letters, diagram.targets
    # per out-edge slot of each range vertex, the root edges last (index
    # -1): its edge and its child range vertex
    count = np.array([len(row) for row in targets])
    start = np.cumsum(count) - count
    slot_edge = np.array([*(e for out in diagram.out_edges for e in out),
                          *range(len(diagram.root_edges))])
    slot_target = np.array([t for row in targets for t in row])
    split = count >= 2
    # per (generation, vertex), the records and the generation-depth paths
    # of its subtree, summed from generation depth up
    records = [split.astype(np.int64)]
    leaves = [np.ones(letters + 1, np.int64)]
    for _ in range(depth):
        records.insert(0, split + np.add.reduceat(records[0][slot_target], start))
        leaves.insert(0, np.add.reduceat(leaves[0][slot_target], start))

    def before(weights: np.ndarray) -> np.ndarray:
        """Per slot, the sum of the weights of the earlier slots of its vertex."""
        ahead = np.cumsum(weights) - weights
        return ahead - np.repeat(ahead[start], count)

    own = np.repeat(split, count)
    state = np.zeros(1, np.int64)
    vertex = parent = edge = np.full(1, -1)
    rank, first = np.ones(1, np.int64), np.zeros(1, np.int64)
    partials, state_vertex = [cache.ws.backend.zero], [-1]
    for k in range(depth + 1):
        mult = count[vertex] - 1
        splits = np.flatnonzero(mult)
        yield WalkLevel(k, state, vertex, parent, edge, rank, first, leaves[k], splits,
                        mult[splits], partials, state_vertex, cache)
        if k == depth:
            return
        n_children = mult + 1
        parent = np.repeat(np.arange(len(vertex)), n_children)
        slot = np.repeat(start[vertex] - (np.cumsum(n_children) - n_children), n_children) + \
            np.arange(len(parent))
        rank = rank[parent] + (own + before(records[k + 1][slot_target]))[slot]
        first = first[parent] + before(leaves[k + 1][slot_target])[slot]
        edge, vertex = slot_edge[slot], slot_target[slot]
        # the child states, numbered in the order of their codes
        key = state[parent] * letters + vertex
        present = np.zeros(len(partials) * letters, bool)
        present[key] = True
        state = (np.cumsum(present) - 1)[key]
        parent_state, child_vertex = np.divmod(np.flatnonzero(present), letters)

        # the step term per (vertex, child range vertex); None where the
        # vertex has a single extension, whose increment vanishes
        steps = {(v, t): cache.step_at(v, k, t) if split[v] else None
                 for v in dict.fromkeys(state_vertex) for t in targets[v]}
        child_partials = []
        child_vertex = child_vertex.tolist()
        for p, t in zip(parent_state.tolist(), child_vertex):
            step = steps[state_vertex[p], t]
            child_partials.append(partials[p] if step is None else partials[p] + step)
        partials, state_vertex = child_partials, child_vertex


def _level_paths(levels: list[WalkLevel]) -> list[list[Path]]:
    """Per level, its paths as `Path`s, in (root, edges) order."""
    out = [[EMPTY_PATH]]
    for level in levels[1:]:
        up = out[-1]
        out.append([up[p].child(e) for p, e in zip(level.parent.tolist(), level.edge.tolist())])
    return out


@dataclass
class DenseOperator:
    """Matrix of Delta_s restricted to the generation-n cylinder functions, rows
    and columns in path-table order: root-edge order, vertex by vertex, and
    within a vertex slot by slot, the paths under root edge (v, k) filling one
    contiguous range of width slot_widths[v].  Path i has measure
    mu_values[vertex[i]].  The matrix is values[index]: `values` the distinct
    entries, exact scalars when `exact` and floats otherwise, and `index` an
    array of the narrowest unsigned integer type that holds a bound on the
    ids known before assembly.

    The closed-form records above generation n are those of the paths with
    two or more extensions, in pre-order, the zero eigenvalue implied.  The
    k-th base's record is records[k], the walk-state value (value, float),
    and its multiplicity is len(bounds[k]) - 2: the paths through its i-th
    extension fill the range bounds[k][i]:bounds[k][i + 1].  meets[k] is
    that base's key (range vertex, generation) in `cache`, the memo all
    were read from."""

    generation: int
    s: Fraction
    table: PathTable
    mu_values: tuple
    vertex: np.ndarray
    symmetry_order: int
    slot_widths: tuple[int, ...]
    exact: bool
    values: tuple
    index: np.ndarray
    records: list[tuple]
    bounds: list[tuple[int, ...]]
    meets: list[tuple[int, int]]
    cache: StationaryCache

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.values, dtype=object)[self.index]

    def as_float(self) -> np.ndarray:
        return np.array([float(v) for v in self.values])[self.index]

    def mu_float(self) -> np.ndarray:
        return np.array(self.mu_values, dtype=float)[self.vertex]

    def symmetrized(self) -> np.ndarray:
        """The slot-0 rows of S = D^(1/2) M D^(-1/2), which is symmetric with
        the spectrum of M: for each vertex, in order, the rows of its root
        edge (v, 0), as one (|Pi_n| / g) x |Pi_n| slab.  With g = 1 that is
        all of S.  The rows are read through values[index] ROW_BLOCK at a
        time and scaled by the same products as m * np.outer(root, 1 / root),
        so no whole float matrix is held."""
        values = np.array([float(v) for v in self.values])
        root = np.sqrt(self.mu_float())
        inv_root = 1.0 / root
        slab = np.empty((sum(self.slot_widths), len(root)))
        row = start = 0
        for width in self.slot_widths:
            for lo in range(start, start + width, ROW_BLOCK):
                hi = min(lo + ROW_BLOCK, start + width)
                rows = slab[row:row + hi - lo]
                rows[...] = values[self.index[lo:hi]]
                rows *= np.outer(root[lo:hi], inv_root)
                row += hi - lo
            start += self.symmetry_order * width
        return slab


def dense_restriction(ws: WeightSystem, n: int, s,
                      cap: int = DEFAULT_DENSE_CAP) -> DenseOperator:
    """Assemble Delta_s on the Pi_n basis, with the closed-form records above
    generation n, from one `walk_states` call to generation n.

    Off-diagonal entries are mu[column]/G(meet); the diagonal accumulates the
    negative increment sum along each path.  Exact scalars are kept whenever
    diam^(2-s) stays in the field, otherwise the entries are floats.  Values
    are interned by (meet key, column range vertex), on which mu[column]/G
    depends, and the diagonal partials once per walk state of the
    generation-n paths, the leaves.  A record's child
    cylinders are ranges of leaves, from its path's first leaf on, as wide
    as the subtree sizes of its extensions; the off-diagonal blocks are
    filled from the records and these bounds.  The index is allocated once,
    at the type of an id bound known before the walk; an ApproxReal among
    exact values raises."""
    s = Fraction(s)
    if n < 1:
        raise LaplacianError("generation must be >= 1")
    diagram = ws.diagram
    size = predicted_path_count(diagram, n, cap)
    if size > cap:
        raise LaplacianError(f"dense restriction needs more than {cap} paths (the cap)")
    # G carries diam^(2-s) = mu^((2-s)/d): only an integer exponent keeps
    # every entry in the backend's field
    exact = ws.backend.is_exact and Fraction(2 - s, ws.dimension).denominator == 1

    cache = StationaryCache(ws, s)
    # at most one id per generation-n walk state, a run of n range vertices
    # that A's 0/1 support B allows (1^T B^(n-1) 1 of them), and one per
    # (meet key, letter)
    letters = diagram.n_letters
    support = [[int(a > 0) for a in row] for row in diagram.matrix]
    bound = sum(map(sum, _linalg.mat_pow(support, n - 1))) + (1 + (n - 1) * letters) * letters
    index = np.zeros((size, size), dtype=np.min_scalar_type(bound - 1))

    levels = list(walk_states(cache, n))
    paths = _level_paths(levels)
    # the bases above generation n, the paths with two or more extensions,
    # in pre-order, as (rank, generation, path index)
    where = sorted((rank, k, i) for k, level in enumerate(levels[:-1])
                   for rank, i in zip(level.rank[level.splits].tolist(), level.splits.tolist()))
    records = [levels[k].values[levels[k].state[i]] for _, k, i in where]
    top = levels[-1]
    if len(paths[-1]) != size:
        raise AssertionError("the walk disagrees with the matrix-power path count")
    # the leaf states' partials are the first ids, in state order
    np.fill_diagonal(index, top.state)
    values: list = [partial if exact else float(partial) for partial in top.partials]
    below = [level.leaves.tolist() for level in levels]
    # per record, its base's key and the ranges of its child cylinders, as
    # wide as the generation-n paths below each of them
    meets = [(int(levels[k].vertex[i]), k) for _, k, i in where]
    bounds = [tuple(accumulate((below[k + 1][t] for t in diagram.targets[v]),
                               initial=int(levels[k].first_leaf[i])))
              for (_, k, i), (v, _) in zip(where, meets)]
    vertex = top.vertex
    mu_values = tuple(cache.mu_at(v, n) for v in range(letters))

    meet_ids: dict[tuple[int, int], np.ndarray] = {}
    for meet, ends in zip(meets, bounds):
        lo, hi = ends[0], ends[-1]
        # the meet key fixes which letters its subtree reaches at generation n,
        # so its value ids mu[j]/G(meet) are interned per key and letter
        ids = meet_ids.get(meet)
        if ids is None:
            ids = meet_ids[meet] = np.zeros(letters, index.dtype)
            if not exact:
                gf = float(cache.g_at(*meet))
                # mu <= 1, so mu / G is finite for any G in the normal float
                # range; G underflows at a large negative s
                if abs(gf) < sys.float_info.min:
                    raise LaplacianError("dense matrix entries leave the float range; "
                                         "try a larger s or a smaller depth")
            for v in set(vertex[lo:hi].tolist()):
                ids[v] = len(values)
                values.append(mu_values[v] * cache.inv_g_at(*meet) if exact
                              else float(mu_values[v]) / gf)
        row = ids[vertex[lo:hi]]
        for i, j in product(range(len(ends) - 1), repeat=2):
            if i != j:
                index[ends[i]:ends[i + 1], ends[j]:ends[j + 1]] = \
                    row[None, ends[j] - lo:ends[j + 1] - lo]

    if exact and any(isinstance(v, ApproxReal) for v in values):
        raise LaplacianError("an exact dense entry fell back to an approximate scalar")
    return DenseOperator(n, s, PathTable(n, tuple(paths[-1])), mu_values, vertex,
                         diagram.symmetry_order, tuple(below[1][:letters]), exact,
                         tuple(values), index, records, bounds, meets, cache)


class SlotSymmetryError(LaplacianError):
    """The dense operator's value ids are not invariant under the root-slot
    permutations, so its block split would not be exact."""


def dense_spectrum(op: DenseOperator) -> np.ndarray:
    """Sorted eigenvalues of S = D^(1/2) M D^(-1/2), one eigvalsh per block of
    its root-slot decomposition, solved from the slot-0 rows of S alone.

    Permuting the g root slots of a vertex maps the path space onto itself
    and keeps every measure and every meet, so S commutes with it.  With
    R[v][k] the range of root edge (v, k), the orthogonal change of basis to
    slot sums and slot differences splits S exactly into
    - the slot-symmetric block B[(v,.), (w,.)] = sum_k S[R[v][0], R[w][k]], of
      dimension sum_v N_v = |Pi_n| / g, and
    - per vertex v the difference block S[R[v][0], R[v][0]] - S[R[v][0], R[v][1]],
      whose eigenvalues are repeated g - 1 times.
    Both read only the rows R[v][0], so only those are built:
    op.symmetrized() returns them as a (|Pi_n| / g) x |Pi_n| slab, and each
    part of B is its copy 0, then += copies 1..g-1.  With g = 1 the slab is
    S itself and there is no difference block.

    The slot invariance is checked on the integer op.index, not on floats:
    every slot copy must carry the same value ids as the copy it stands for.
    Equal ids give equal entries of M, and S[i, j] is M[i, j] times
    root[i] * inv_root[j], with mu per range vertex, which slot copies share.
    So equal ids make S slot-invariant bit for bit, in the rows the slab
    leaves out too, and the assembly, which interns entries by meet key and
    range vertex, builds operators that pass.  LaplacianError is raised when
    an entry of the slab is not a finite float (once the ids agree, the slab
    holds every distinct entry of S), then SlotSymmetryError when a copy's
    ids differ.
    """
    slab = op.symmetrized()
    if not np.isfinite(slab).all():
        raise LaplacianError("dense matrix entries leave the float range; "
                             "try a larger s or a smaller depth")
    g = op.symmetry_order
    if g == 1:
        return np.linalg.eigvalsh(slab)
    widths = op.slot_widths
    starts = np.cumsum((0,) + tuple(g * w for w in widths))
    offsets = np.cumsum((0,) + widths)
    vertex_pairs = list(product(range(len(widths)), repeat=2))

    for v, w in vertex_pairs:
        # rows of vertex v, columns of vertex w, as a (g, N_v, g, N_w) view
        copies = op.index[starts[v]:starts[v + 1], starts[w]:starts[w + 1]] \
            .reshape(g, widths[v], g, widths[w])
        for k, l in product(range(g), repeat=2):
            ref = copies[0, :, int(v == w and k != l), :]
            if not np.array_equal(copies[k, :, l, :], ref):
                raise SlotSymmetryError(
                    f"rows of root edge ({v}, {k}) against columns of root "
                    f"edge ({w}, {l}) differ from their slot copy")

    def slot0(v: int, w: int) -> np.ndarray:
        """Slot-0 rows of vertex v, columns of vertex w, as an (N_v, g, N_w) view."""
        return slab[offsets[v]:offsets[v + 1], starts[w]:starts[w + 1]] \
            .reshape(widths[v], g, widths[w])

    block = np.empty((offsets[-1], offsets[-1]))
    for v, w in vertex_pairs:
        copies = slot0(v, w)
        target = block[offsets[v]:offsets[v + 1], offsets[w]:offsets[w + 1]]
        target[...] = copies[:, 0, :]
        for l in range(1, g):
            target += copies[:, l, :]
    parts = [np.linalg.eigvalsh(block)]
    for v in range(len(widths)):
        own = slot0(v, v)
        parts.append(np.repeat(np.linalg.eigvalsh(own[:, 0, :] - own[:, 1, :]), g - 1))
    return np.sort(np.concatenate(parts))


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
        if self.exact_ok is not None:
            out.append(f"  exact eigen-relations: {'ok' if self.exact_ok else 'FAIL'}")
        out.extend(f"  mismatch: {m}" for m in self.mismatches)
        if self.notes:
            out.append("NOTES")
            out.extend(f"  {line}" for line in self.notes)
        return out


def verify_spectrum(ws: WeightSystem, n: int, s,
                    dense_cap: int = DEFAULT_DENSE_CAP,
                    notes: list[str] | None = None) -> VerifyReport:
    """Cross-check: eigenvalues of the dense restriction at generation n must
    equal {0} plus the closed-form records through generation n-1, as multisets.

    An exact operator (op.exact) passes on `_verify_exact_relations`: vectors
    at different bases have nested or disjoint supports with mu . v = 0, and
    those at one base each own a child cylinder, so with the constant vector
    and counts totalling |Pi_n| they form a complete eigenbasis of M.  A float
    operator passes on max |dense - closed-form| <= FLOAT_TOLERANCE.  Both
    need the counts and slot copies to agree; each failure is a mismatch."""
    s = Fraction(s)
    # the dense cap refuses an oversize n before the walk starts
    op = dense_restriction(ws, n, s, cap=dense_cap)
    # the zero eigenvalue, then each record as often as its base has
    # extensions after the first
    expected = np.sort(np.repeat([0.0, *(value_float for _, value_float in op.records)],
                                 [1, *(len(ends) - 2 for ends in op.bounds)]))
    size = len(op.table)

    counting_ok = expected.size == size
    mismatches = []
    if not counting_ok:
        mismatches.append(f"multiplicity {expected.size} != |Pi_n| = {size}")

    max_dev = float("inf")
    try:
        eigs = dense_spectrum(op)
    except SlotSymmetryError as exc:
        mismatches.append(f"slot symmetry: {exc}")
    else:
        if counting_ok:
            deviation = np.abs(eigs - expected)
            max_dev = float(np.max(deviation))
            if not (op.exact or max_dev <= FLOAT_TOLERANCE):
                k = int(np.argmax(deviation))
                mismatches.append(f"eigenvalue #{k}: dense {eigs[k]:.12g} vs closed-form "
                                  f"{expected[k]:.12g}, |dense - closed-form| = "
                                  f"{deviation[k]:.3e} > tolerance {FLOAT_TOLERANCE:.1e}")

    exact_ok = _verify_exact_relations(op) if op.exact else None
    if exact_ok is False:
        mismatches.append("exact eigen-relation check failed")

    return VerifyReport(not mismatches, n, s, size, expected.size, counting_ok, max_dev,
                        FLOAT_TOLERANCE, exact_ok, mismatches, list(notes or ()))


def _verify_exact_relations(op: DenseOperator) -> bool:
    """M 1 = 0 and M v = lambda v for every closed-form eigenvector, exactly,
    with each record's multiplicity equal to its number of vectors.

    A vector v at base gamma is coeff_pos on the cylinder of gamma e, coeff_neg
    on that of gamma e', and 0 elsewhere.  Each cylinder is one range of the
    table, read off op.bounds, so (M v)_i is coeff_pos times row i summed over
    the pos range plus coeff_neg times it summed over the neg range.
    - Every row i of gamma's span is checked against op.index as assembled:
      (M v)_i must be lambda coeff_pos on pos, lambda coeff_neg on neg, 0 on
      the rest of the span.
    - A row outside gamma's span meets all of the span's columns at one
      common meet, so it reads mu_j / G(meet) there and (M v)_i is
      sum_j mu_j v_j / G(meet), while v_i = 0: the relation holds there once
      mu . v = 0, which is checked for every vector.

    It all runs in integers.  The entries, the measures, and every vector's
    coefficients and lambda are numerators over one common denominator each
    (`_Numerators`: den, mus.den and c.den).  The relation times
    den * c.den^2 reads c.den * (den M)(c.den v) = den * (c.den lambda)(c.den
    v), so one denominator for all vectors is exact.  Each row of den * M is
    summed once, as prefix sums with a leading 0 column
    (`_Numerators.prefix_sums`), so a sum over the range lo:hi of row i is
    P[i, hi] - P[i, lo]: M 1 = 0 is a zero last column, and every (vector,
    row of its base's span) pair is one pair of lookups, all checked in one
    vectorized pass.  The range sums are Python ints before they meet the
    coefficients, so no product overflows."""
    # per vector: its base's span, pos range and neg range as (lo, hi) each,
    # and coeff_pos, coeff_neg and lambda
    spans, scalars = [], []
    for (value, _), ends, meet in zip(op.records, op.bounds, op.meets):
        pairs = eigenbasis(op.cache, *meet)
        if len(pairs) != len(ends) - 2:
            return False
        # eigenbasis anchors every vector at the first extension
        for k, (coeff_pos, coeff_neg) in enumerate(pairs, 1):
            spans.append([ends[0], ends[-1], *ends[0:2], *ends[k:k + 2]])
            scalars += (coeff_pos, coeff_neg, value)
    entries = _Numerators(op.values)
    rows = entries.prefix_sums(op.index)
    if any(p[:, -1].any() for p in rows):
        return False
    if not spans:
        return True
    mus, c = _Numerators(op.mu_values), _Numerators(scalars)
    base_lo, base_hi, pos_lo, pos_hi, neg_lo, neg_hi = np.array(spans).T
    coeff_pos, coeff_neg, lam = ((c.a[j::3], c.b[j::3]) for j in range(3))

    def times_v(prefix: list[np.ndarray], row, k: np.ndarray) -> tuple:
        """c.den * den * (M v)_row for the vectors k, as (a, b), from the
        prefix sums of den * M"""
        (pa, pb), (na, nb) = (
            _times((coeff[0][k], coeff[1][k]), _range_sums(prefix, row, lo[k], hi[k]), c.disc)
            for coeff, lo, hi in ((coeff_pos, pos_lo, pos_hi), (coeff_neg, neg_lo, neg_hi)))
        return pa + na, pb + nb

    every = np.arange(len(spans))
    if any(np.any(x) for x in times_v(mus.prefix_sums(op.vertex[None, :]), 0, every)):
        return False
    # each vector k once per row i of its base's span
    width = base_hi - base_lo
    k = np.repeat(every, width)
    i = np.arange(len(k)) + np.repeat(base_lo - np.cumsum(width) + width, width)
    in_pos, in_neg = ((lo[k] <= i) & (i < hi[k])
                      for lo, hi in ((pos_lo, pos_hi), (neg_lo, neg_hi)))
    # c.den * v_i, then c.den^2 * lambda v_i
    v = tuple(np.where(in_pos, p[k], np.where(in_neg, q[k], 0))
              for p, q in zip(coeff_pos, coeff_neg))
    want = _times((lam[0][k], lam[1][k]), v, c.disc)
    return not any(np.any(c.den * x - entries.den * w)
                   for x, w in zip(times_v(rows, i, k), want))


def _times(x: tuple, y: tuple, disc: int) -> tuple:
    """(x_a + x_b sqrt(disc)) (y_a + y_b sqrt(disc)) as (a, b)."""
    return x[0] * y[0] + disc * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _range_sums(prefix: list[np.ndarray], row, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Sums over the columns lo:hi of the given rows from `prefix_sums`, as
    (a, b) in Python ints, with b = 0 on Q."""
    sums = [(p[row, hi] - p[row, lo]).astype(object) for p in prefix]
    return sums[0], sums[1] if len(sums) == 2 else 0


class _Numerators:
    """Exact scalars as integer numerators over one common denominator:
    x[k] = (a[k] + b[k] sqrt(disc)) / den, with b = 0 and disc = 0 on Q."""

    def __init__(self, scalars):
        parts = [(x.a, x.b) if isinstance(x, QuadraticNumber) else (Fraction(x), Fraction(0))
                 for x in scalars]
        self.disc = next((x.disc for x in scalars if isinstance(x, QuadraticNumber)), 0)
        self.den = math.lcm(*{q.denominator for pair in parts for q in pair})
        self.a, self.b = (np.array([q.numerator * (self.den // q.denominator) for q in col],
                                   dtype=object) for col in zip(*parts))

    def prefix_sums(self, ids: np.ndarray) -> list[np.ndarray]:
        """Prefix sums of den * x[ids] along each row of the 2-D ids, with a
        leading 0 column: a's, then on Q(sqrt disc) b's.  A sum of at most
        width numerators is bounded by max |numerator| * width, so the sums
        are int64 when that is below 2^63 and Python ints otherwise.  Rows
        are gathered ROW_BLOCK at a time."""
        height, width = ids.shape
        parts = (self.a, self.b) if self.disc else (self.a,)
        top = max(abs(x) for part in parts for x in part)
        dtype = np.int64 if top * width < 2 ** 63 else object
        out = []
        for part in parts:
            part = part.astype(dtype)
            prefix = np.zeros((height, width + 1), dtype)
            for lo in range(0, height, ROW_BLOCK):
                np.cumsum(part[ids[lo:lo + ROW_BLOCK]], axis=1,
                          out=prefix[lo:lo + ROW_BLOCK, 1:])
            out.append(prefix)
        return out
