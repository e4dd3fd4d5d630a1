"""The dense oracle's exact block split at every group of identical sibling
subtrees, `laplacian.dense_spectrum`'s engine.  It is imported by that call
only, so a command that solves no dense spectrum never compiles it."""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, groupby

import numpy as np

from .laplacian import DenseOperator, LaplacianError, SlotSymmetryError
from .scalar import ROW_BLOCK


def split_spectrum(op: DenseOperator) -> np.ndarray:
    """`laplacian.dense_spectrum`: the eigenvalues of S = D^(1/2) M D^(-1/2)
    by its exact split at every group of c >= 2 identical sibling subtrees.

    Permuting a group's copies keeps every measure, meet key and walk state,
    so S commutes with it.  The leaves of one walk state are an orbit O of
    m_O leaves, read from its first leaf r_O, and the first path of a walk
    state stands for its others.  The copy sums and contrasts split S into
    the top block over the orbits and, per group of copies C_0 .. C_(c-1)
    below such a path gamma, the block of S[C_0, C_0] - S[C_0, C_1] over the
    orbits in C_0 (the second term is the rank-one sqrt(mu_i mu_j) /
    G(gamma)), repeated c - 1 times per path of gamma's walk state.  A
    block's inner groups have blocks of their own, so dimension times
    repeat sums to |Pi_n|.  Entry (O, P) is sqrt(m_O / m_P) times the sum of
    S[r_O, j] over P's leaves j in the block, r_O's own cell left out and
    added after; a top-block sum is root slot 0's plus g - 1 times slot
    1's.  Those sums run over the compact ids in column order (np.bincount),
    ROW_BLOCK^2 cells at a time, never through a BLAS product, whose order
    depends on the thread count.  Without copies the top block is S,
    gathered straight into it.  Blocks below paths of one key and group
    differ only on the diagonal, and each such stack is one eigvalsh call.
    `_copy_stacks` checks the copies before any gather, and the top block,
    which holds every value id, is solved first."""
    stacks = _copy_stacks(op)
    g, widths, bases = op.symmetry_order, op.slot_widths, op.bases
    state = op.levels[-1].state
    values = np.array([float(v) for v in op.values])
    # per column, the entry of every row under another root edge
    root_row = values[op.root_ids[op.vertex]]
    root = np.sqrt(op.mu_float())
    inv_root = 1.0 / root
    # per walk state of the leaves: its leaves and its first leaf; per
    # letter, where its states start
    count = np.bincount(state)
    first = np.maximum.accumulate(state).searchsorted(np.arange(count.size))
    starts = first.searchsorted(np.append(bases[::g], state.size))

    def orbit_sums(v: int, r: np.ndarray, cols: np.ndarray, key, n: int, out=None):
        """Per row r under root edge (v, 0), the sums of S[r, cols] by key in
        0..n - 1, in column order, r's own cell left out; or, into `out`,
        S[r, cols].  cols ascend, with those under (v, 0) one range."""
        b = bases[v * g]
        lo, hi = cols.searchsorted((b, b + widths[v]))
        inner = cols[lo] - b if hi > lo else 0
        sums = np.empty((r.size, n)) if out is None else out
        step = max(1, ROW_BLOCK * ROW_BLOCK // cols.size)
        for at in range(0, r.size, step):
            rows = r[at:at + step]
            part = np.multiply.outer(root[rows], inv_root[cols],
                                     out=None if out is None else out[at:at + step])
            part[:, :lo] *= root_row[cols[:lo]]
            part[:, lo:hi] *= values[op.squares[v][rows - b, inner:inner + hi - lo]]
            part[:, hi:] *= root_row[cols[hi:]]
            if out is None:
                part[np.arange(rows.size), cols.searchsorted(rows)] = 0.0
                ids = np.arange(0, rows.size * n, n)[:, None] + key
                sums[at:at + step] = np.bincount(ids.ravel(), part.ravel(), rows.size * n) \
                    .reshape(-1, n)
        return sums

    def scaled(rows: slice, cols: slice, sums: np.ndarray) -> np.ndarray:
        return np.sqrt(count[rows, None] / count[None, cols]) * sums

    n, top = count.size, np.empty((count.size,) * 2)
    if n == state.size:
        # no copies: the top block is S, gathered straight into it
        for v in range(len(widths)):
            orbit_sums(v, first[starts[v]:starts[v + 1]], first, None, 0,
                       out=top[starts[v]:starts[v + 1]])
        return _solved(top)
    # per block: its off-diagonal part, where each member's states start,
    # and each member's repeat; per state, S[r_O, r_O]
    blocks, diag = [], np.empty(n)
    # the columns under root slot 0 of every letter, and under slot 1, keyed
    # by walk state after slot 0's
    cols = _ranges(bases[::g], np.array(widths))
    if g > 1:
        cols = np.sort(np.concatenate((cols, cols + np.repeat(widths, widths))))
    key = state[cols] + n * ((bases.searchsorted(cols, side="right") - 1) % g)
    for v in range(len(widths)):
        own, b = slice(starts[v], starts[v + 1]), bases[v * g]
        r = first[own]
        diag[own] = root[r] * inv_root[r] * values[op.squares[v][r - b, r - b]]
        sums = orbit_sums(v, r, cols, key, n * min(g, 2))
        if g > 1:
            sums, cross = sums[:, :n], sums[:, n:]
            blocks.append((scaled(own, own, sums[:, own] - cross[:, own]),
                           np.array([own.start]), [g - 1]))
            sums = sums + (g - 1) * cross
        top[own] = scaled(own, slice(None), sums)
    top.flat[::n + 1] += diag
    for lead, width, repeat in stacks:
        # the first member's copies 0 and 1 give the off-diagonal part
        lo = state[lead]
        d = first.searchsorted(lead[0] + width) - lo[0]
        key = state[lead[0]:lead[0] + 2 * width] - lo[0]
        key[width:] += d
        rows = slice(lo[0], lo[0] + d)
        sums = orbit_sums(starts.searchsorted(lo[0], side="right") - 1, first[rows],
                          np.arange(lead[0], lead[0] + 2 * width), key, 2 * d)
        blocks.append((scaled(rows, rows, sums[:, :d] - sums[:, d:]), lo, repeat))

    parts, repeats = [_solved(top)], [np.ones(n, np.int64)]
    for block, lo, repeat in blocks:
        d = block.shape[0]
        stack = np.repeat(block[None], lo.size, axis=0)
        stack.reshape(lo.size, -1)[:, ::d + 1] += diag[lo[:, None] + np.arange(d)]
        parts.append(_solved(stack).ravel())
        repeats.append(np.repeat(repeat, d))
    return np.sort(np.repeat(np.concatenate(parts), np.concatenate(repeats)))


def _solved(block: np.ndarray) -> np.ndarray:
    """eigvalsh of a block, or a stack of them, whose entries are all finite
    floats."""
    # a sum or difference with a term that is not finite is not finite, and
    # min and max, which allocate no mask, propagate NaN
    if not np.isfinite((block.min(), block.max())).all():
        raise LaplacianError("dense matrix entries leave the float range; "
                             "try a larger s or a smaller depth")
    return np.linalg.eigvalsh(block)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i]:starts[i] + lengths[i], one after the other."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def _copy_stacks(op: DenseOperator) -> list[tuple]:
    """Check that every copy C_q, q >= 1, of every group repeats C_0, and
    return per (range vertex, generation >= 1, group) the stack of blocks
    below the paths that come first with their walk state: where each one's
    C_0 starts among the leaves, the copies' width, and each one's repeat.

    The groups, their copies' leaves and records are read off the records,
    as the ids were filled from them.  A copy's records, those of its
    subtree, as (meet key, span from its first leaf), and its leaves' range
    vertices and walk states must repeat C_0's; the first copy that does
    not, in pre-order of its group's path and then in order, raises
    SlotSymmetryError.  A path comes first with its walk state when its
    first leaf does, and holds 1/m of the leaves of that leaf's state when m
    paths share its walk state."""
    diagram, state, size = op.cache.ws.diagram, op.levels[-1].state, op.vertex.size
    per, pcq = _groups(diagram.targets)
    if not pcq.size:
        return []
    meets = np.fromiter(chain.from_iterable(op.meets), np.int64).reshape(-1, 2)
    ends = np.fromiter(chain.from_iterable(op.bounds), np.int64)
    length = np.array([len(row) + 1 for row in diagram.targets])[meets[:, 0]]
    at = np.cumsum(length) - length
    lo, hi = ends[at], ends[at + length - 1]
    # per record, its meet key and span as one number, whose span part a
    # shift of both ends by L lowers by L (size + 2)
    key = (meets[:, 0] + 1) * (op.generation + 1) + meets[:, 1]
    code = (key * (size + 1) + lo) * (size + 1) + hi
    # per copy, in pre-order of its group's record r and then in order: r,
    # p, c and q
    r = np.repeat(np.arange(meets.shape[0]), per[meets[:, 0]])
    if not r.size:
        return []
    p, c, q = pcq[_ranges((np.cumsum(per) - per)[meets[:, 0]], per[meets[:, 0]])].T
    lead, lead_q = ends[at[r] + p], ends[at[r] + p + q]
    width = ends[at[r] + p + 1] - lead
    rec, rec_q = (np.maximum(lo.searchsorted(x), r + 1) for x in (lead, lead_q))
    records = lo.searchsorted(lead + width) - rec
    differ = np.append(0, np.cumsum(code[_ranges(rec_q, records)] - code[_ranges(rec, records)]
                                    != np.repeat((lead_q - lead) * (size + 2), records)))
    bad_records = differ[np.cumsum(records)] > differ[np.cumsum(records) - records]
    leaf = state * diagram.n_letters + op.vertex
    bad = bad_records | np.logical_or.reduceat(
        leaf[_ranges(lead_q, width)] != leaf[_ranges(lead, width)], np.cumsum(width) - width)
    if bad.any():
        b = bad.argmax()
        _copy_error(op, "records" if bad_records[b] else "leaves", r[b], p[b], q[b])
    count = np.bincount(state)
    first = np.zeros(size, bool)
    first[np.maximum.accumulate(state).searchsorted(np.arange(count.size))] = True
    i = np.flatnonzero((q == 1) & (meets[r, 0] >= 0) & first[lo[r]])
    s = state[lo[r[i]]]
    held = np.sort(state * size + np.arange(size))
    held = held.searchsorted(s * size + hi[r[i]]) - held.searchsorted(s * size + lo[r[i]])
    repeat = (c[i] - 1) * count[s] // held
    key = key[r[i]] * size + p[i]
    return [(lead[i[key == k]], int(width[i[key == k][0]]), repeat[key == k])
            for k in dict.fromkeys(key.tolist())]


@lru_cache
def _groups(targets: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Per range vertex, the root's last, how many copies q >= 1 its
    extensions' groups hold, and each as (first extension p, size c, q)."""
    groups = []
    for row in targets:
        cut = [0, *accumulate(len(list(run)) for _, run in groupby(row))]
        groups.append([(p, e - p, q) for p, e in zip(cut, cut[1:]) for q in range(1, e - p)])
    return np.array([len(row) for row in groups]), np.array(sum(groups, []), np.int64).reshape(-1, 3)


def _copy_error(op: DenseOperator, what: str, r: int, p: int, q: int) -> None:
    """Raise SlotSymmetryError for copy q of the group at extension p of
    record r, naming its root edge, or its path and C_0's."""
    if op.meets[r][0] < 0:
        v = p // op.symmetry_order
        raise SlotSymmetryError(f"{what} under root edge ({v}, {q}) differ from "
                                f"those under ({v}, 0)")
    # the record's path: the splitting path of its generation with its rank
    levels, k = op.levels, op.meets[r][1]
    ranks = np.sort(np.concatenate([level.rank[level.splits] for level in levels[:-1]]))
    splits = levels[k].splits
    child = np.flatnonzero(levels[k + 1].parent == splits[levels[k].rank[splits] == ranks[r]][0])
    steps = [(level.parent.tolist(), level.edge.tolist()) for level in levels[1:k + 2]]
    label = op.cache.ws.diagram.label
    raise SlotSymmetryError(f"{what} under path {label(steps, child[p + q])} differ from "
                            f"those under {label(steps, child[p])}")
