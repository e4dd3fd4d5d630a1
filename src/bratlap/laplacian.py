"""Closed-form spectrum of the Laplace-Beltrami operators Delta_s, and a dense
matrix oracle on the generation-n cylinder basis.

Eigenvalues are stored with the sign the defining formula produces (negative);
asymptotics elsewhere use magnitudes.  Prefixes with a single extension are
skipped: their measure increment vanishes identically, so they contribute
nothing and the splitting weight G never has to be evaluated there.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from . import _linalg
from .diagram import DEFAULT_PATH_CAP, BratlapError, path_counts, predicted_path_count
from .measure import WeightSystem, diam_power, mu
from .scalar import ROW_BLOCK, ApproxReal, FieldArray

DEFAULT_DENSE_CAP = 4096
FLOAT_TOLERANCE = 1e-8  # the largest eigenvalue deviation a float operator passes


class LaplacianError(BratlapError):
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
      record's index in that order when it has one.

    Per range vertex, -1 the root's, `leaves` counts the generation-`depth`
    paths below a path of the generation that ends there.  `splits` lists
    the paths with two or more extensions, those with a record, and
    `multiplicity` their extensions less one.  Per walk state,
    `state_vertex` holds its range vertex and `partials` its partial sum,
    read from `sums`: a `FieldArray` while every term so far is exact,
    else the scalars, as an ApproxReal sum's bits depend on its order of
    additions.  A plain class, not a dataclass,
    which would add about 1 ms to every import."""

    def __init__(self, generation: int, state, vertex, parent, edge, rank, leaves, splits,
                 multiplicity, sums, state_vertex: list, cache: StationaryCache):
        self.generation, self.state, self.vertex = generation, state, vertex
        self.parent, self.edge, self.rank = parent, edge, rank
        self.leaves, self.splits, self.multiplicity = leaves, splits, multiplicity
        self.sums, self.state_vertex, self.cache = sums, state_vertex, cache

    @cached_property
    def partials(self) -> list:
        return [x for x, _ in self.sums.pairs()] if isinstance(self.sums, FieldArray) \
            else self.sums

    @cached_property
    def values(self) -> list:
        """Per walk state, (value, float) at a vertex with two or more
        extensions and None elsewhere: its partial plus the final term keyed
        by (range vertex, generation), added as integer numerators when both
        are exact.  It is formed on first read, so a generation that is not
        read computes no final term and no G."""
        targets = self.cache.ws.diagram.targets
        finals = {v: self.cache.final_at(v, self.generation)
                  for v in dict.fromkeys(self.state_vertex) if len(targets[v]) >= 2}
        vertex = np.array(self.state_vertex)
        keep = np.flatnonzero(np.array([len(t) >= 2 for t in targets])[vertex])
        if isinstance(self.sums, FieldArray) and \
                not any(isinstance(x, ApproxReal) for x in finals.values()):
            pairs = self.sums.plus(finals, (len(targets),), (vertex[keep],), keep).pairs()
        else:
            values = [self.partials[i] + finals[v]
                      for i, v in zip(keep.tolist(), vertex[keep].tolist())]
            pairs = [(x, float(x)) for x in values]
        out = [None] * len(vertex)
        for i, pair in zip(keep.tolist(), pairs):
            out[i] = pair
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
    bit on the approximate backend.  While the terms are exact the partials
    are a `FieldArray` with one denominator per generation, each step term
    rescaled once per (vertex, child) key (`WalkLevel.sums`).

    Paths are index arrays.  A path's children are its range vertex's
    out-edges in order, so a level lists its paths by parent, then edge.  A
    child's rank is its parent's plus an offset that depends only on the
    parent's range vertex and generation and the child's place among the
    out-edges: the parent's own record, and the records below the earlier
    siblings, counted per (vertex, generation) from generation `depth` up."""
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
    rank = np.ones(1, np.int64)
    zero, state_vertex = cache.ws.backend.zero, [-1]
    sums = [zero] if isinstance(zero, ApproxReal) else FieldArray.of([zero])
    for k in range(depth + 1):
        mult = count[vertex] - 1
        splits = np.flatnonzero(mult)
        yield (level := WalkLevel(k, state, vertex, parent, edge, rank, leaves[k],
                                  splits, mult[splits], sums, state_vertex, cache))
        if k == depth:
            return
        n_children = mult + 1
        parent = np.repeat(np.arange(len(vertex)), n_children)
        slot = np.repeat(start[vertex] - (np.cumsum(n_children) - n_children), n_children) + \
            np.arange(len(parent))
        rank = rank[parent] + (own + before(records[k + 1][slot_target]))[slot]
        edge, vertex = slot_edge[slot], slot_target[slot]
        # the child states, numbered in the order of their codes
        key = state[parent] * letters + vertex
        present = np.zeros(len(state_vertex) * letters, bool)
        present[key] = True
        state = (np.cumsum(present) - 1)[key]
        parent_state, child_vertex = np.divmod(np.flatnonzero(present), letters)

        # the step term per (vertex, child range vertex); None where the
        # vertex has a single extension, whose increment vanishes
        steps = {(v, t): cache.step_at(v, k, t) if split[v] else None
                 for v in dict.fromkeys(state_vertex) for t in targets[v]}
        # the one fork: a FieldArray while every term is exact
        if isinstance(sums, FieldArray) and \
                not any(isinstance(x, ApproxReal) for x in steps.values()):
            sums = sums.plus(steps, (letters + 1, letters),
                             (np.array(state_vertex)[parent_state], child_vertex), parent_state)
        else:
            partials, sums = level.partials, []
            for p, t in zip(parent_state.tolist(), child_vertex.tolist()):
                step = steps[state_vertex[p], t]
                sums.append(partials[p] if step is None else partials[p] + step)
        state_vertex = child_vertex.tolist()


class DenseOperator:
    """Matrix of Delta_s restricted to the generation-n cylinder functions, rows
    and columns in (root, edges) order: root-edge order, vertex by vertex,
    and within a vertex slot by slot, the paths under root edge (v, k)
    filling one contiguous range of width slot_widths[v] from bases[v g + k].
    The i-th path has measure mu_values[vertex[i]].  The matrix is
    values[index]: `values` the distinct entries, exact scalars when `exact`
    and floats otherwise, and `index` their ids, held in compact form at the
    narrowest unsigned integer type that holds a bound on the ids known
    before assembly:
    - squares[v], the slot_widths[v]^2 ids among the paths under root edge
      (v, 0), with the leaves' walk states on its diagonal;
    - root_ids, per letter, the id of mu[letter]/G(root), held by every cell
      whose row and column lie under two different root edges, which meet at
      the root, for its column's range vertex.
    The paths under root edge (v, k) repeat those under (v, 0), so their own
    square is squares[v] too: `dense_spectrum` checks that on the records and
    leaves before it reads the squares.  The `index` property expands the
    whole |Pi_n|^2 array, which `dense` prints.

    The closed-form records above generation n are those of the paths with
    two or more extensions, in pre-order, the zero eigenvalue implied.  The
    k-th base's record is records[k], the walk-state value (value, float),
    and its multiplicity is len(bounds[k]) - 2: the paths through its i-th
    extension fill the range bounds[k][i]:bounds[k][i + 1].  meets[k] is
    that base's key (range vertex, generation) in `cache`, the memo all
    were read from.  `levels` are the walk's levels through generation n;
    `table`, the paths' labels, is built from their parent and edge arrays
    on first read, so only a caller that names paths pays for it.  A plain
    class, like `WalkLevel`."""

    def __init__(self, generation: int, s: Fraction, mu_values: tuple, vertex: np.ndarray,
                 symmetry_order: int, slot_widths: tuple[int, ...], exact: bool,
                 values: tuple, squares: list[np.ndarray], root_ids: np.ndarray,
                 records: list[tuple], bounds: list[tuple[int, ...]],
                 meets: list[tuple[int, int]], cache: StationaryCache, levels: list[WalkLevel]):
        self.generation, self.s, self.mu_values, self.vertex = generation, s, mu_values, vertex
        self.symmetry_order, self.slot_widths, self.exact = symmetry_order, slot_widths, exact
        self.values, self.squares, self.root_ids = values, squares, root_ids
        self.records, self.bounds, self.meets = records, bounds, meets
        self.cache, self.levels = cache, levels
        self.bases = _root_edge_bases(slot_widths, symmetry_order)

    @cached_property
    def table(self) -> tuple[str, ...]:
        chain = [(level.parent.tolist(), level.edge.tolist()) for level in self.levels[1:]]
        label = self.cache.ws.diagram.label
        return tuple(label(chain, i) for i in range(self.vertex.size))

    @property
    def index(self) -> np.ndarray:
        """The whole |Pi_n| x |Pi_n| array of value ids: root_ids of the
        column's range vertex, and squares[v] under each root edge (v, k)."""
        index = np.empty((self.vertex.size,) * 2, self.root_ids.dtype)
        index[...] = self.root_ids[self.vertex]
        for edge, base in enumerate(self.bases.tolist()):
            square = self.squares[edge // self.symmetry_order]
            index[base:base + len(square), base:base + len(square)] = square
        return index

    def mu_float(self) -> np.ndarray:
        return np.array(self.mu_values, dtype=float)[self.vertex]


def _root_edge_bases(widths: tuple[int, ...], g: int) -> np.ndarray:
    """Per root edge (v, k), at v * g + k, the first of the rows under it."""
    width = np.repeat(np.array(widths, np.int64), g)
    return np.cumsum(width) - width


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
    as the subtree sizes of its extensions.

    The ids are filled in compact form (`DenseOperator`), with one write per
    record under a slot-0 root edge, in pre-order: the whole square of its
    span lo:hi gets the ids of mu[column]/G(its key), then the diagonal is
    written last.  An off-diagonal cell (i, j) lies in the span of every
    splitting path above both leaves, and the last of them in pre-order is
    the deepest, their meet (the two leaves part at a path with two or more
    extensions).  Each later record overwrites only its own span, so every
    off-diagonal cell ends up holding its meet's id.  The root's record
    gives root_ids; the records under other slots only intern their keys.
    The ids are allocated once, at the type of an id bound known before the
    walk; an ApproxReal among exact values raises."""
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
    dtype = np.min_scalar_type(bound - 1)

    levels = list(walk_states(cache, n))
    # the bases above generation n, the paths with two or more extensions,
    # in pre-order, as (rank, generation, path index)
    where = sorted((rank, k, i) for k, level in enumerate(levels[:-1])
                   for rank, i in zip(level.rank[level.splits].tolist(), level.splits.tolist()))
    records = [levels[k].values[levels[k].state[i]] for _, k, i in where]
    top = levels[-1]
    if top.vertex.size != size:
        raise AssertionError("the walk disagrees with the matrix-power path count")
    # the leaf states' partials are the first ids, in state order
    values: list = [partial if exact else float(partial) for partial in top.partials]
    below = [level.leaves.tolist() for level in levels]
    # per record, its base's key and the ranges of its child cylinders, as
    # wide as the generation-n paths below each of them, from its path's
    # first leaf: the leaves below the paths before it in its level
    first = [np.cumsum(w) - w for w in (level.leaves[level.vertex] for level in levels[:-1])]
    meets = [(int(levels[k].vertex[i]), k) for _, k, i in where]
    bounds = [tuple(accumulate((below[k + 1][t] for t in diagram.targets[v]),
                               initial=int(first[k][i])))
              for (_, k, i), (v, _) in zip(where, meets)]
    vertex = top.vertex
    mu_values = tuple(cache.mu_at(v, n) for v in range(letters))

    g, widths = diagram.symmetry_order, tuple(below[1][:letters])
    bases = _root_edge_bases(widths, g)
    squares = [np.zeros((w, w), dtype) for w in widths]
    root_ids = np.zeros(letters, dtype)
    # the root edge, v * g + k, under which each record's span lies
    under = np.searchsorted(bases, [ends[0] for ends in bounds], side="right") - 1
    meet_ids: dict[tuple[int, int], np.ndarray] = {}
    for meet, ends, edge in zip(meets, bounds, under.tolist()):
        lo, hi = ends[0], ends[-1]
        # the meet key fixes which letters its subtree reaches at generation n,
        # so its value ids mu[j]/G(meet) are interned per key and letter
        ids = meet_ids.get(meet)
        if ids is None:
            ids = meet_ids[meet] = np.zeros(letters, dtype)
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
        if meet[0] < 0:
            root_ids = ids
        elif edge % g == 0:
            # deeper records come later and overwrite their own spans
            base = int(bases[edge])
            squares[edge // g][lo - base:hi - base, lo - base:hi - base] = ids[vertex[lo:hi]]
    for v, square in enumerate(squares):
        np.fill_diagonal(square, top.state[bases[v * g]:bases[v * g] + widths[v]])

    if exact and any(isinstance(v, ApproxReal) for v in values):
        raise LaplacianError("an exact dense entry fell back to an approximate scalar")
    return DenseOperator(n, s, mu_values, vertex, g, widths, exact, tuple(values), squares,
                         root_ids, records, bounds, meets, cache, levels)


class SlotSymmetryError(LaplacianError):
    """The dense operator's value ids are not invariant under the root-slot
    permutations, so its block split would not be exact."""


def dense_spectrum(op: DenseOperator) -> np.ndarray:
    """Sorted eigenvalues of S = D^(1/2) M D^(-1/2), one eigvalsh per block of
    its root-slot decomposition, gathered from two slot copies per vertex
    pair, not from the whole of S.

    Permuting the g root slots of a vertex maps the path space onto itself
    and keeps every measure and every meet, so S commutes with it.  With
    R[v][k] the range of root edge (v, k), the orthogonal change of basis to
    slot sums and slot differences splits S exactly into
    - the slot-symmetric block B[(v,.), (w,.)] = sum_k S[R[v][0], R[w][k]], of
      dimension sum_v N_v = |Pi_n| / g, and
    - per vertex v the difference block S[R[v][0], R[v][0]] - S[R[v][0], R[v][1]],
      whose eigenvalues are repeated g - 1 times.

    The slot invariance is checked first, before any gather, on what the
    ids are filled from, not on floats (`_check_slot_records`): the records
    under each root edge (v, k) must repeat those under (v, 0) as (meet key,
    lo - base, hi - base), and the leaves' range vertices and walk states
    must repeat too.  Those fix the square of (v, k), and every other cell
    meets at the root and reads root_ids of its column's range vertex.  So
    copy (k, l) of a vertex pair (v, w), rows R[v][k] against columns
    R[w][l], carries the ids of copy (0, 0) when k = l or v != w, and those
    of copy (0, 1) otherwise.  Equal ids give equal entries of M, and S[i, j]
    is M[i, j] times root[i] * inv_root[j], with mu per range vertex, which
    slot copies share; so equal ids give equal floats, bit for bit.

    Each sum over k therefore adds copy (0, 0), then copy (0, 0) again when
    v != w and copy (0, 1) when v = w, g - 1 times.  Only those two copies
    are gathered, ROW_BLOCK rows at a time, as np.outer(root, inv_root)
    times values[squares[v]] or, where they meet at the root, times
    values[root_ids][vertex[cols]].  B is solved and freed before each
    difference block is gathered, so no float matrix larger than B is held.
    With g = 1 each gather is written straight into B, which is S.
    LaplacianError is raised, before a block is solved, when one of its
    entries is not a finite float, which it is not when a gathered entry it
    sums is not.
    """
    g, widths, bases = op.symmetry_order, op.slot_widths, op.bases
    if g > 1:
        _check_slot_records(op)
    values = np.array([float(v) for v in op.values])
    # per column, the entry of every row under another root edge
    root_row = values[op.root_ids[op.vertex]]
    root = np.sqrt(op.mu_float())
    inv_root = 1.0 / root

    def gather(v: int, lo: int, hi: int, w: int, slot: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """S[rows lo:hi under root edge (v, 0), the columns under root edge
        (w, slot)], written into `out` when given."""
        rows = slice(bases[v * g] + lo, bases[v * g] + hi)
        cols = slice(bases[w * g + slot], bases[w * g + slot] + widths[w])
        part = np.multiply.outer(root[rows], inv_root[cols], out=out)
        part *= values[op.squares[v][lo:hi]] if (w, slot) == (v, 0) else root_row[cols]
        return part

    def row_blocks(v: int):
        return ((lo, min(lo + ROW_BLOCK, widths[v])) for lo in range(0, widths[v], ROW_BLOCK))

    def symmetric_block() -> np.ndarray:
        offsets = np.cumsum((0,) + widths)
        block = np.empty((offsets[-1], offsets[-1]))
        for v, w in product(range(len(widths)), repeat=2):
            for lo, hi in row_blocks(v):
                target = block[offsets[v] + lo:offsets[v] + hi, offsets[w]:offsets[w + 1]]
                gather(v, lo, hi, w, 0, out=target)
                if g > 1:
                    other = gather(v, lo, hi, v, 1) if v == w else target.copy()
                    for _ in range(g - 1):
                        target += other
        return block

    def difference_block(v: int) -> np.ndarray:
        diff = np.empty((widths[v], widths[v]))
        for lo, hi in row_blocks(v):
            gather(v, lo, hi, v, 0, out=diff[lo:hi])
            diff[lo:hi] -= gather(v, lo, hi, v, 1)
        return diff

    parts = [_solved(symmetric_block())]
    parts += [np.repeat(_solved(difference_block(v)), g - 1)
              for v in range(len(widths) if g > 1 else 0)]
    return np.sort(np.concatenate(parts))


def _solved(block: np.ndarray) -> np.ndarray:
    """eigvalsh of a block whose entries are all finite floats."""
    # a sum or difference with a term that is not finite is not finite, and
    # min and max, which allocate no mask, propagate NaN
    if not np.isfinite((block.min(), block.max())).all():
        raise LaplacianError("dense matrix entries leave the float range; "
                             "try a larger s or a smaller depth")
    return np.linalg.eigvalsh(block)


def _check_slot_records(op: DenseOperator) -> None:
    """Raise SlotSymmetryError for the first root edge (v, k), k >= 1, in
    order, whose records, as (meet key, lo - base, hi - base), or whose
    leaves' range vertices and walk states differ from those under (v, 0)."""
    g, widths, bases = op.symmetry_order, op.slot_widths, op.bases
    # per record but the root's: its meet key and its span from the base of
    # the root edge it lies under, grouped by that root edge
    spans = np.array([(ends[0], ends[-1]) for ends in op.bounds], np.int64).reshape(-1, 2)
    meets = np.array(op.meets, np.int64).reshape(-1, 2)
    inner = meets[:, 0] >= 0
    edge = np.searchsorted(bases, spans[inner, 0], side="right") - 1
    order = np.argsort(edge, kind="stable")
    table = np.column_stack((meets[inner], spans[inner] - bases[edge, None]))[order]
    first = np.searchsorted(edge[order], np.arange(bases.size + 1))
    state = op.levels[-1].state
    for e, base in enumerate(bases.tolist()):
        v, k = divmod(e, g)
        ref = v * g
        if k == 0:
            continue
        if not np.array_equal(table[first[e]:first[e + 1]], table[first[ref]:first[ref + 1]]):
            raise SlotSymmetryError(f"records under root edge ({v}, {k}) differ from "
                                    f"those under ({v}, 0)")
        leaves, ref_leaves = (slice(b, b + widths[v]) for b in (base, int(bases[ref])))
        if not (np.array_equal(op.vertex[leaves], op.vertex[ref_leaves])
                and np.array_equal(state[leaves], state[ref_leaves])):
            raise SlotSymmetryError(f"leaves under root edge ({v}, {k}) differ from "
                                    f"those under ({v}, 0)")


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
    size = op.vertex.size

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
    - Every row i of gamma's span is checked against the ids as assembled:
      (M v)_i must be lambda coeff_pos on pos, lambda coeff_neg on neg, 0 on
      the rest of the span.
    - A row outside gamma's span meets all of the span's columns at one
      common meet, so it reads mu_j / G(meet) there and (M v)_i is
      sum_j mu_j v_j / G(meet), while v_i = 0: the relation holds there once
      mu . v = 0, which is checked for every vector.

    It all runs in integers.  The entries, the measures, and every vector's
    coefficients and lambda are `FieldArray`s, coordinates over one common
    denominator each (den, mus.den and c.den).  The relation times
    den * c.den^2 reads c.den * (den M)(c.den v) = den * (c.den lambda)(c.den
    v), so one denominator for all vectors is exact.  A sum over the range
    lo:hi of row i is read off the prefix sums of the squares and of the
    root row (`_row_sums`), so no |Pi_n|^2 array is formed: M 1 = 0 is a
    zero sum of every row over all columns, and every (vector,
    row of its base's span) pair is one pair of lookups, all checked in one
    vectorized pass.  The range sums are Python ints before they meet the
    coefficients, so no product overflows.  The rows under a root edge (v, k)
    read squares[v], which `dense_spectrum`'s slot check proves theirs."""
    # the coefficients depend only on a record's meet key and its lambda
    # only on its walk state, whose records share one value object, so each
    # is parsed once: the scalars are every walk state's value, then every
    # key's (coeff_pos, coeff_neg) pairs
    lams = {id(value): value for value, _ in op.records}
    lam_at = dict(zip(lams, range(len(lams))))
    bases = {meet: eigenbasis(op.cache, *meet) for meet in dict.fromkeys(op.meets)}
    first = dict(zip(bases, accumulate((2 * len(pairs) for pairs in bases.values()),
                                       initial=len(lams))))
    # per vector: its base's span, pos range and neg range as (lo, hi) each,
    # and the scalar index of its coeff_pos and of its lambda
    spans, at = [], []
    for (value, _), ends, meet in zip(op.records, op.bounds, op.meets):
        if len(bases[meet]) != len(ends) - 2:
            return False
        # eigenbasis anchors every vector at the first extension
        for k in range(1, len(ends) - 1):
            spans.append([ends[0], ends[-1], *ends[0:2], *ends[k:k + 2]])
            at.append((first[meet] + 2 * (k - 1), lam_at[id(value)]))
    entries = FieldArray.of(op.values)
    row_sums = _row_sums(op, entries)
    if row_sums(np.arange(op.vertex.size), 0, op.vertex.size).num.any():
        return False
    if not spans:
        return True
    c = FieldArray.of([*lams.values(),
                       *(x for pairs in bases.values() for pair in pairs for x in pair)])
    base_lo, base_hi, pos_lo, pos_hi, neg_lo, neg_hi = np.array(spans).T
    pos, lam = np.array(at).T
    coeff_pos, coeff_neg, lam = (c.take(j) for j in (pos, pos + 1, lam))

    def times_v(range_sums, row, k: np.ndarray) -> FieldArray:
        """(M v)_row for the vectors k, from range_sums(row, lo, hi)."""
        pos_part, neg_part = (coeff.take(k).times(range_sums(row, lo[k], hi[k]))
                              for coeff, lo, hi in ((coeff_pos, pos_lo, pos_hi),
                                                    (coeff_neg, neg_lo, neg_hi)))
        return pos_part + neg_part

    every = np.arange(len(spans))
    mus = FieldArray.of(op.mu_values)
    measures = mus.prefix_sums(op.vertex[None, :])
    if times_v(lambda row, lo, hi: mus.range_sums(measures, row, lo, hi), 0, every).num.any():
        return False
    # each vector k once per row i of its base's span
    width = base_hi - base_lo
    k = np.repeat(every, width)
    i = np.arange(len(k)) + np.repeat(base_lo - np.cumsum(width) + width, width)
    in_pos, in_neg = (((lo[k] <= i) & (i < hi[k]))[:, None]
                      for lo, hi in ((pos_lo, pos_hi), (neg_lo, neg_hi)))
    v = FieldArray(np.where(in_pos, coeff_pos.num[k], np.where(in_neg, coeff_neg.num[k], 0)),
                   c.den, c.gen)
    # (M v)_i over den * c.den, and lambda v_i over c.den^2
    return not np.any(c.den * times_v(row_sums, i, k).num !=
                      entries.den * lam.take(k).times(v).num)


def _row_sums(op: DenseOperator, entries: FieldArray):
    """sums(rows, lo, hi): per row i, the sum of row i of den * M over the
    columns lo:hi, as Python ints, from one running sum R of the root row
    (values[root_ids] at each column's range vertex) followed by every row
    of every square.  Row i, under a root edge with base b and width w,
    reads the root row outside b:b + w and its square row, from R's place
    s_i, inside.  With c' = clip(c, b, b + w), its prefix sum at column c is
        prefix_i(c) = R[c] - R[c'] + R[b] + R[s_i + c' - b] - R[s_i].
    R is int64 only while max |numerator| times its length fits, and each
    difference taken here sums entries of R's range, so it fits too."""
    g, size = op.symmetry_order, op.vertex.size
    running = entries.prefix_sums(np.concatenate(
        [op.root_ids[op.vertex], *(square.ravel() for square in op.squares)])[None, :])[0]
    # per row: its root edge's first and end columns, and s_i - b
    edge = np.repeat(np.arange(op.bases.size), np.repeat(op.slot_widths, g))
    first, width = op.bases[edge], np.array(op.slot_widths)[edge // g]
    end = first + width
    square_at = size + np.cumsum([0] + [square.size for square in op.squares])[edge // g]
    at = square_at + (np.arange(size) - first) * width - first

    def sums(rows: np.ndarray, lo, hi) -> FieldArray:
        b, e, s_b = first[rows], end[rows], at[rows]
        lo_in, hi_in = np.minimum(np.maximum(lo, b), e), np.minimum(np.maximum(hi, b), e)
        # the parts of lo:hi outside the root edge, then the part inside
        total = (running[hi] - running[hi_in]) + (running[lo_in] - running[lo]) + \
            (running[s_b + hi_in] - running[s_b + lo_in])
        return FieldArray(total.astype(object), entries.den, entries.gen)

    return sums
