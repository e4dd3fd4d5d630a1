"""Cuntz-Krieger path operators, the affine eigenvalue recursion, the
companion-matrix lattice embedding, and the Pisot strip bound.

The partial isometries insert or delete an edge directly below the root; on
eigenvalues they act as affine maps u_e(x) = Lambda_s * x + beta_e.  The table
of beta constants is re-derived against the laplacian sign convention, and
the recursion is proved from the stationary memo's scaling identities
before it is accepted.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import _linalg
from .diagram import (DEFAULT_PATH_CAP, BratlapError, BratteliDiagram, path_counts,
                      predicted_path_count)
from .measure import PerronData, WeightSystem, _power
from .scalar import ApproxReal, FieldArray, compare, exact_power

# `laplacian` is imported where an affine table is built, so that `ck-check`
# loads only this layer
if TYPE_CHECKING:
    from .laplacian import StationaryCache


class CuntzError(BratlapError):
    pass


@dataclass
class CKReport:
    ok: bool
    depth: int
    paths_checked: int
    failures: list[str]

    def lines(self) -> list[str]:
        head = f"cuntz-krieger relations to depth {self.depth}: " \
               f"{'PASS' if self.ok else 'FAIL'} ({self.paths_checked} paths)"
        return [head] + [f"  {f}" for f in self.failures]


def _shift_maps(diagram: BratteliDiagram, depth: int):
    """Yield, for generations 1 through `depth`, the numbering of its paths
    and their shifts down, as (parent, edge, starts, down).

    The paths are numbered in (root, edges) order, so path i's children are
    numbered from starts[i] on, one per out-edge of its range vertex; path
    i has parent parent[i] one generation up and last edge edge[i], its
    root edge at generation 1, where root edge (v, k) is path v * g + k
    under parent 0.  down[e][i] numbers shift_down(e, path i) in the next
    generation, -1 where e does not compose: it is the child of
    shift_down(e, parent(i)) by edge[i], from (r(e), k) -> (s(e), k).e on
    the root edges."""
    g = diagram.symmetry_order
    source, target = np.array([(e.source, e.target) for e in diagram.edges]).T
    degree, out = np.array(list(map(len, diagram.out_edges))), np.concatenate(diagram.out_edges)
    offset = np.cumsum(degree) - degree
    vertex = np.repeat(np.arange(diagram.n_letters), g)
    parent, edge = np.zeros(vertex.size, np.int64), np.arange(vertex.size)
    for gen in range(1, depth + 1):
        if gen > 1:
            parent = np.repeat(np.arange(vertex.size), degree[vertex])
            pos = np.arange(parent.size) - starts[parent]
            edge = out[offset[vertex[parent]] + pos]
            vertex = target[edge]
        starts = np.cumsum(degree[vertex]) - degree[vertex]
        if gen == 1:
            # e is out-edge place[e] of s(e)
            place = np.argsort(out) - offset[source]
            down = [np.where(vertex == target[e], starts[source[e] * g + edge % g] + place[e], -1)
                    for e in range(len(diagram.edges))]
        else:
            down = [np.where(d[parent] >= 0, starts[d[parent]] + pos, -1) for d in down]
        yield parent, edge, starts, down


def ck_relations_check(diagram: BratteliDiagram, depth: int,
                       adjacency=None) -> CKReport:
    """Verify the partial-isometry relations on all paths of generations 2 to
    `depth`: the domain of each U_e must be the disjoint union of the ranges
    of the U_f it composes with, and up/down shifts must invert each other.

    The shifts are integer index maps, checked per generation and edge:
    the shifts down are `_shift_maps`', and shift_up(f, gamma), f gamma's
    first edge, is the child of shift_up(f, parent(gamma)), from (v, k).f ->
    (r(f), k).  Only a failing path is labelled.

    A corrupted adjacency matrix can be injected to exercise the failure path."""
    if depth < 3:
        raise CuntzError("relation check needs depth >= 3")
    # path counts never fall, so generation `depth` is the largest enumerated
    if predicted_path_count(diagram, depth, DEFAULT_PATH_CAP) > DEFAULT_PATH_CAP:
        raise CuntzError(f"relation check to depth {depth} would enumerate more than "
                         f"{DEFAULT_PATH_CAP} paths (the cap)")
    if adjacency is None:
        adjacency = tuple(
            tuple(1 if e.target == f.source else 0 for f in diagram.edges)
            for e in diagram.edges)
    claims = np.array(adjacency) == 1
    g, n_edges = diagram.symmetry_order, len(diagram.edges)
    target = np.array([e.target for e in diagram.edges])
    messages = ("U_{e}*U_{e} disagrees with the adjacency row on path {label}",
                "shift_up(shift_down) != id on {label}", "shift_down(shift_up) != id on {label}")
    maps = _shift_maps(diagram, depth)
    parent, edge, starts, down = next(maps)
    chain, failures, checked = [(parent, edge)], [], 0
    for gen, (parent, edge, next_starts, next_down) in enumerate(maps, 2):
        chain.append((parent, edge))
        pos = np.arange(parent.size) - starts[parent]
        first = edge if gen == 2 else first[parent]
        up = target[edge] * g + parent % g if gen == 2 else up_starts[up[parent]] + pos
        found = []     # (path, edge, kind) of the first 21 failures of each kind and edge
        for e in range(n_edges):
            if gen >= 3:
                mine = np.flatnonzero(first == e)
                found += [(i, n_edges, 2) for i in mine[down[e][up[mine]] != mine][:21].tolist()]
            into = next_down[e] >= 0
            found += [(i, e, 0) for i in np.flatnonzero(into != claims[e, first])[:21].tolist()]
            defined = np.flatnonzero(into)
            # shift up the shifted paths of generation gen + 1 through their parents
            shifted = next_down[e][defined]
            above = np.searchsorted(next_starts, shifted, side="right") - 1
            back = starts[up[above]] + shifted - next_starts[above]
            wrong = defined[(back != defined) | (first[above] != e)]
            found += [(i, e, 1) for i in wrong[:21].tolist()]
        found.sort()
        for k, (i, e, kind) in enumerate(found):
            failures.append(messages[kind].format(e=e, label=diagram.label(chain, i)))
            if len(failures) > 20 and (k + 1 == len(found) or found[k + 1][0] > i):
                return CKReport(False, depth, checked + i + 1, failures)
        checked += parent.size
        up_starts, starts, down = starts, next_starts, next_down
    return CKReport(not failures, depth, checked, failures)


@dataclass(frozen=True)
class AffineMapTable:
    """Per-edge affine maps u_e(x) = Lambda_s x + beta_e on the spectrum, and
    the seeds they grow it from, as walk-state values (value, float): per
    vertex z, `seeds[z]` is the eigenvalue of the generation-1 paths that
    end at z, None where z has a single out-edge, and `root_seed` is that
    of the root splitting, None when the root has a single edge.  The zero
    eigenvalue is implied."""

    ws: WeightSystem
    s: Fraction
    lam: object
    lam_float: float
    betas: tuple
    betas_float: tuple[float, ...]
    calibration_checks: int
    root_seed: tuple | None
    seeds: tuple

    @property
    def diagram(self) -> BratteliDiagram:
        return self.ws.diagram

    def beta_classes(self) -> list[int]:
        """Per edge, the index of its beta's structural class, numbered in
        order of first appearance.  Edges whose betas are equal scalars of
        one type, such as parallel edges, make the same affine step; floats
        are never compared."""
        classes: dict = {}
        return [classes.setdefault((type(b), b), len(classes)) for b in self.betas]


def affine_table(ws: WeightSystem, s) -> AffineMapTable:
    """Build the recursion constants, and prove the recursion they define.

    beta_e = -(Lambda_s * step(root, eps)) + step(root, eps'), plus
    step(eps', eps' e) when eps' splits, where eps is the root edge into
    r(e), eps' the one into s(e), and step the stationary memo's increment
    term, read by the keys (-1, 0, r(e)), (-1, 0, s(e)) and (s(e), 1,
    r(e)); a root or prefix with a single extension adds nothing.

    Past eps, gamma passes the range vertices U_e gamma passes past eps' e,
    one generation earlier.  mu(a, n+1) = mu(a, n)/theta, and G carries
    mu^((2-s)/d) times two child measures, so step(a, n+1, b) = Lambda_s
    step(a, n, b) and final(a, n+1) = Lambda_s final(a, n), and by induction
    lambda_(U_e gamma) = Lambda_s lambda_gamma + beta_e on every generation.
    `_prove_recursion` confirms the identities and beta_e's formula, or the
    table is refused.  The seeds are the values of walk levels 0 and 1 of
    the same memo: every vertex has root edges, so a generation-1 walk
    state's index is its range vertex."""
    from .laplacian import StationaryCache, walk_states
    s = Fraction(s)
    diagram = ws.diagram
    d = ws.dimension
    # Lambda_s = theta^((d+2-s)/d), exact whenever the power stays in the field
    lam = _power(ws.backend, ws.perron.theta, (d + 2 - s) / d, ws.approx_bits)
    cache = StationaryCache(ws, s)
    root_split = len(diagram.root_edges) >= 2

    betas = []
    for e in diagram.edges:
        beta = ws.backend.zero
        if root_split:
            beta = -(lam * cache.step_at(-1, 0, e.target)) + cache.step_at(-1, 0, e.source)
        if len(diagram.out_edges[e.source]) >= 2:
            beta = beta + cache.step_at(e.source, 1, e.target)
        betas.append(beta)

    # the identities read terms to generation 4, and the walk's path cap
    # counts that far, but only levels 0 to 3 are read: level 4 is never formed
    walk = walk_states(cache, 4)
    levels = [next(walk) for _ in range(4)]
    return AffineMapTable(ws, s, lam, float(lam), tuple(betas),
                          tuple(float(b) for b in betas),
                          _prove_recursion(cache, levels, lam, betas),
                          levels[0].values[0], tuple(levels[1].values))


def _prove_recursion(cache: StationaryCache, levels: list, lam, betas: list) -> int:
    """Require the memo's scaling identities at n = 1, 2 and 3, then the
    generation-2 relations in (root, edges) order, each compared once per
    (walk state of U_e gamma, of gamma, beta class of e); count them all.
    The walk levels number their paths as `_shift_maps` does, so U_e gamma
    is path down[e][gamma] of level 3.
    ApproxReal scalars agree as floats within 1e-9 relative, so on
    approximate backends the recursion is proved to that tolerance only."""
    def agree(x, y) -> bool:
        if isinstance(x, ApproxReal) or isinstance(y, ApproxReal):
            return abs(float(x) - float(y)) <= 1e-9 * max(1.0, abs(float(x)))
        return compare(x, y) == 0

    diagram = cache.ws.diagram
    checks = 0
    for n in (1, 2, 3):
        # every vertex is reached at every generation, as each has root edges
        # and, the matrix being primitive, an in-edge
        for a, targets in enumerate(diagram.targets[:-1]):
            if len(targets) < 2:
                continue
            terms = {"final": [cache.final_at(a, m) for m in (n, n + 1)]}
            for t in targets:
                terms[f"step to {diagram.letters[t]}"] = [cache.step_at(a, m, t)
                                                          for m in (n, n + 1)]
            for term, (x, y) in terms.items():
                checks += 1
                if not agree(y, lam * x):
                    raise CuntzError(f"affine-table scaling identity failed: {term} at "
                                     f"{diagram.letters[a]}, generation {n + 1}, "
                                     f"is {float(y)!r}, not Lambda times {float(x)!r}")

    classes, two, three = [(type(b), b) for b in betas], levels[2], levels[3]
    *_, (_, _, _, down) = _shift_maps(diagram, 2)
    # per edge, the walk state of each generation-2 path's shift, -1 where none
    shifted = [np.where(d >= 0, three.state[d], -1).tolist() for d in down]
    proved = set()
    for i, state in zip(two.splits.tolist(), two.state[two.splits].tolist()):
        for ei, states in enumerate(shifted):
            if states[i] < 0:
                continue
            checks += 1
            key = (states[i], state, classes[ei])
            if key in proved:
                continue
            direct, direct_float = three.values[key[0]]
            via_map = lam * two.values[state][0] + betas[ei]
            if not agree(direct, via_map):
                chain = [(level.parent, level.edge) for level in levels[1:3]]
                raise CuntzError(f"affine-table self-calibration failed on edge {ei} over "
                                 f"{diagram.label(chain, i)}: direct "
                                 f"{direct_float!r} vs map {float(via_map)!r}")
            proved.add(key)
    return checks


def _grow(table: AffineMapTable, depth: int):
    """Generations 1 through max(depth, 1) of the affine recursion: its
    distinct states and the multiplicities of the paths that reach them.

    A path's state depends only on its seed's range vertex z and on the beta
    classes applied, not on its root slot or on which parallel edge it took.
    A generation-1 state is coded z, a later one parent * n_classes + class;
    none is merged on a value.  Per generation this yields (codes, counts):
    the codes in increasing order, and counts[v, i], the int64 summed
    multiplicity of the paths from root vertex v that reach state i."""
    diagram = table.diagram
    classes = table.beta_classes()
    n_cls = max(classes) + 1
    # per beta class, the steps up from a first vertex: (vertex, source) -> edges
    steps = [Counter() for _ in range(n_cls)]
    for e, cls in zip(diagram.edges, classes):
        steps[cls][e.target, e.source] += 1
    # generation 1: one state per splitting vertex z, coded z, which the paths
    # of its g root edges reach, each with out-degree(z) - 1 eigenvectors
    out_degree = np.array([len(out) for out in diagram.out_edges], dtype=np.int64)
    codes = np.flatnonzero(out_degree >= 2)
    counts = np.zeros((diagram.n_letters, codes.size), dtype=np.int64)
    counts[codes, np.arange(codes.size)] = diagram.symmetry_order * (out_degree[codes] - 1)
    yield codes, counts
    for gen in range(2, max(depth, 1) + 1):
        # one candidate state per step and parent state reached from its
        # vertex: their total is capped before the generation's arrays
        reach = np.count_nonzero(counts, axis=1)
        total = int(sum(reach[v1] for cls_steps in steps for v1, _ in cls_steps))
        if total > DEFAULT_PATH_CAP:
            raise CuntzError(f"generation {gen} of the recursion would grow {total} "
                             f"states, more than the {DEFAULT_PATH_CAP}-state cap; "
                             f"the largest usable depth is {gen - 1}")
        codes, counts = _next_states(counts, steps)
        yield codes, counts


def _next_states(counts: np.ndarray, steps: list[Counter]):
    """The codes and counts of the generation after `counts`, with no sort.
    A code is parent * n_cls + class, so in increasing order the new states
    are the parents in order, each with its classes in order.  A first pass
    over the classes counts the classes that reach each parent, those with
    a step from a vertex whose count there is not zero; a second places
    state (parent, class) at the parent's first new index plus the classes
    before it that reach the parent, and adds there each of the class's
    steps' multiplicities, zero at a parent its vertex does not reach.
    Beside its output it holds per-parent arrays and one class's parents
    at a time."""
    n_cls, size = len(steps), counts.shape[1]
    sources = [list(dict.fromkeys(v1 for v1, _ in cls_steps)) for cls_steps in steps]

    def reached(vertices: list[int]) -> np.ndarray:
        mask = counts[vertices[0]] != 0
        for v in vertices[1:]:
            mask |= counts[v] != 0
        return mask

    at = np.zeros(size, np.int64)
    for vertices in sources:
        at += reached(vertices)
    # per parent, the index of its next new state
    n_states = int(at.sum())
    at = np.cumsum(at) - at
    codes = np.empty(n_states, np.int64)
    grown = np.zeros((counts.shape[0], n_states), np.int64)
    for cls, (cls_steps, vertices) in enumerate(zip(steps, sources)):
        mask = reached(vertices)
        parents = np.flatnonzero(mask)
        place = at[parents]
        codes[place] = parents * n_cls + cls
        at += mask
        del mask
        for (v1, u), k in cls_steps.items():
            grown[u][place] += counts[v1][parents] * k
    return codes, grown


@dataclass(frozen=True)
class CompanionData:
    """Multiplication by Lambda_s = x^k on the quotient ring Q[x]/(Q), where
    Q substitutes x^d' into the minimal polynomial of theta, with d' = d/2 for
    even d and d' = d for odd d.  So x = theta^(1/d'), Lambda_s =
    theta^((d+2-s)/d) = x^k with k = d'(d+2-s)/d, and the matrix is C_x^k for
    the companion matrix C_x of Q.
    Basis: powers of x; `generator` is C_x, and `basis_value` is x exactly
    when theta is quadratic and its field holds x, else None."""

    degree: int                      # lattice dimension
    generator: tuple[tuple[int, ...], ...]
    matrix: tuple[tuple[int, ...], ...]
    basis_value: object | None       # exact scalar for x, when the field holds it
    basis_float: float
    pisot: bool
    hyperbolic: bool
    stable_norm: float
    eigenvalues: tuple[complex, ...]
    unstable_basis: np.ndarray       # orthonormal columns spanning V_u
    p_inv_norm: float
    action_verified: str             # "exact" | "numeric"

    def distance_to_unstable(self, coords: np.ndarray) -> np.ndarray:
        """Per row of an (n, degree) float array of lattice points, its
        Euclidean distance to the unstable space.  The stacked products
        project and sum each row as a vector on its own would, so a row's
        distance does not depend on the rows beside it.  A row whose
        products pass the float range reads inf or nan, without a warning."""
        basis = self.unstable_basis
        with np.errstate(over="ignore", invalid="ignore"):
            r = coords - (basis @ (basis.T @ coords[:, :, None]))[:, :, 0]
            return np.sqrt(r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _companion(poly: list[int]) -> list[list[int]]:
    m = len(poly) - 1
    c = [[0] * m for _ in range(m)]
    for i in range(1, m):
        c[i][i - 1] = 1
    for i in range(m):
        c[i][m - 1] = -poly[i]
    return c


def companion_embedding(perron: PerronData, s) -> CompanionData:
    """Lattice model of multiplication by Lambda_s for exact Perron data, with
    the stable norm, unstable basis, |P^-1|, and Pisot and hyperbolicity
    flags of C_s = C_x^k.  Only a positive integer k gives an integer matrix
    that expands along theta."""
    if not perron.backend.is_exact:
        raise CuntzError("the lattice embedding needs exact Perron data")
    d = perron.dimension
    d_prime = d // 2 if d % 2 == 0 else d       # the lattice generator is x = theta^(1/d')
    k = d_prime * (d + 2 - Fraction(s)) / d
    if k.denominator != 1 or k <= 0:
        raise CuntzError(
            f"strip needs k = d'(d+2-s)/d to be a positive integer, so that "
            f"Lambda_s is the power x^k of the lattice generator x = theta^(1/d'); "
            f"at s={s} and d={d}, k={k}")
    k = int(k)
    poly = perron.min_poly
    basis_value = None
    if len(poly) == 3:
        basis_value = exact_power(perron.theta, Fraction(1, d_prime))
    basis_float = perron.theta_float ** (1.0 / d_prime)
    subst = [0] * ((len(poly) - 1) * d_prime + 1)
    for j, c in enumerate(poly):
        subst[j * d_prime] = c
    generator = _companion(subst)
    cmat = _linalg.mat_pow(generator, k)
    degree = len(cmat)

    eigs, p = np.linalg.eig(np.array(cmat, float))
    mods = np.abs(eigs)
    unstable_mask = mods > 1.0
    hyperbolic = bool(np.all(np.abs(mods - 1.0) > 1e-9))
    pisot = bool(hyperbolic and unstable_mask.sum() == 1)
    stable_mods = mods[~unstable_mask]
    stable_norm = float(stable_mods.max()) if stable_mods.size else 0.0

    p = p / np.linalg.norm(p, axis=0)
    p_inv_norm = float(np.linalg.norm(np.linalg.inv(p), 2))
    cols = []
    for i in range(degree):
        if abs(eigs[i]) > 1.0:
            v = p[:, i]
            cols.append(np.real(v))
            if abs(np.imag(eigs[i])) > 1e-12:
                cols.append(np.imag(v))
    if not cols:
        raise CuntzError("companion matrix has no unstable direction")
    q, _ = np.linalg.qr(np.column_stack(cols))
    unstable = q[:, : np.linalg.matrix_rank(np.column_stack(cols))]

    return CompanionData(degree, tuple(map(tuple, generator)), tuple(map(tuple, cmat)),
                         basis_value, basis_float,
                         pisot, hyperbolic, stable_norm, tuple(eigs.tolist()), unstable,
                         p_inv_norm, _verify_action(cmat, k, basis_value, basis_float))


def _verify_action(cmat, k: int, basis_value, basis_float: float) -> str:
    """Check that C multiplies each basis power x^i by x^k: exactly in the
    field when it holds x and the lattice is a plane, where 1 and x are a
    basis of the field, else numerically at x = basis_float."""
    m = len(cmat)
    exact = basis_value is not None and m <= 2
    x = basis_value if exact else basis_float
    powers = [x ** i for i in range(m)]
    t = x ** k
    for i in range(m):
        lhs = sum(cmat[r][i] * powers[r] for r in range(m))
        rhs = t * powers[i]
        if exact and compare(lhs, rhs) != 0:
            raise CuntzError("companion action disagrees with field multiplication")
        if not exact and abs(lhs - rhs) > 1e-6 * max(1.0, abs(rhs)):
            raise CuntzError("companion action fails the numeric multiplication check")
    return "exact" if exact else "numeric"


def lattice_array(embedding: CompanionData, values) -> FieldArray:
    """Exact scalars of theta's field in the lattice's power basis, over their
    least common denominator, by one rational change of basis.  Its column j
    is the c with P c = e_j, for P the field coordinates of 1, x, ...,
    x^(n-1): with P = p / den, P^-1 = den adj(p) / det(p).  Without an
    exact x, n is 1, so only the rationals have lattice coordinates."""
    try:
        field = FieldArray.of(values)
    except TypeError:
        raise CuntzError("value is not exactly representable; "
                         "accumulate coordinates through the recursion") from None
    m = field.num.shape[1]
    n = 1 if embedding.basis_value is None else m
    if field.num[:, n:].any():
        raise CuntzError("no exact basis generator available for these coordinates")
    powers = FieldArray.of([embedding.basis_value ** i if i else 1 for i in range(n)])
    p = powers.num[:, :n].T.tolist()
    adj = [[(-1) ** (i + j) * _linalg.det([r[:i] + r[i + 1:]
                                           for k, r in enumerate(p) if k != j])
            for j in range(n)] for i in range(n)]
    change = [[powers.den * c for c in row] + [0] * (m - n) for row in adj]
    num = field.num @ np.array(change + [[0] * m] * (embedding.degree - n), object).T
    den = field.den * _linalg.det(p)
    g = math.gcd(den, *num.ravel().tolist())
    return FieldArray(num // g, den // g, embedding.generator)


@dataclass
class StripReport:
    """The strip distances by recursion state.  The records are the zero
    eigenvalue, the root splitting when the root has two or more edges, and
    per generation from 1 on the paths that end at a splitting vertex, in
    (root, edges) order, in `blocks` (heads, tails, index), the kernel's and
    one per generation and vertex: under each head, record i is labelled
    head + tails[i], at state_distances[index[i]] from the unstable line.
    `labels` and `state_of` list the records one by one."""

    pisot: bool
    stable_norm: float
    bound: float
    max_distance: float
    per_generation: list[tuple[int, float]]
    blocks: list[tuple[tuple[str, ...], list[str], np.ndarray]]
    state_distances: np.ndarray

    @cached_property
    def labels(self) -> list[str]:
        return [head + tail for heads, tails, _ in self.blocks for head in heads for tail in tails]

    @cached_property
    def state_of(self) -> np.ndarray:
        return np.concatenate([index for heads, _, index in self.blocks for _ in heads])


def _lattice_levels(embedding: CompanionData, table: AffineMapTable, depth: int,
                    betas: FieldArray, seeds: FieldArray):
    """Generations 1 through `depth` of the recursion in lattice coordinates,
    coords(u_e x) = C coords(x) + coords(beta_e), grown from the `betas`, one
    row per class, and the `seeds`, which share one denominator: per
    generation, one `FieldArray` row per state of `_grow`, in its order, and
    per vertex v an int64 array of the state indices of the splitting paths
    under each root edge at v.
    Generation 1's states are the seeds, coded by their range vertices.
    Under v, out-edge e leads to the paths under r(e) one generation
    shorter, and a child's state is the `np.searchsorted` of its code, its
    tail's state * n_classes + class(e), in the generation's sorted codes."""
    diagram = table.diagram
    # a generation-n record is a path ending at a vertex with two or more
    # out-edges, so the total is known before any state is grown: the zero
    # and root records, then those of generations 1 through `depth`
    splits = np.flatnonzero([len(out) >= 2 for out in diagram.out_edges])
    total = 1 + (table.root_seed is not None)
    for _, row in zip(range(depth), path_counts(diagram)):
        total += sum(row[v] for v in splits)
        if total > DEFAULT_PATH_CAP:
            raise CuntzError(f"recursion would produce more than the "
                             f"{DEFAULT_PATH_CAP}-record cap")

    classes, n_cls = table.beta_classes(), len(betas.num)
    states = seeds
    index = [np.flatnonzero(splits == v) for v in range(diagram.n_letters)]
    for gen, (codes, _) in enumerate(_grow(table, depth), 1):
        if gen > 1:
            states = states.take(codes // n_cls).mul(embedding.matrix) + \
                betas.take(codes % n_cls)
            index = [np.concatenate([np.searchsorted(codes, index[diagram.edges[ei].target]
                                                     * n_cls + classes[ei]) for ei in out])
                     for out in diagram.out_edges]
        yield states, index


def strip_check(embedding: CompanionData, table: AffineMapTable,
                depth: int) -> StripReport:
    """Distances to the unstable line of the lattice points of the records
    through generation `depth`, in `StripReport`'s order, against the bound
    m/(1 - |C_s|) with m = |P^-1|^2 max(|beta|, |lambda_seed|) over the
    table's betas and nonzero seeds.

    The coordinates are one `lattice_array` of the seeds and one beta per
    class.  A distance depends only on the recursion state, so the kernel,
    the zero's state and the root's, is measured in one batch, and each
    generation's states, the seeds' first, in one batch each.  Per
    generation and vertex, its tails (`BratteliDiagram.split_tails`) and
    state indices are kept once.  A depth below 1 is refused before any
    work: the seeds are the records of generation 1."""
    if depth < 1:
        raise CuntzError("depth must be >= 1")
    if not embedding.hyperbolic:
        raise CuntzError("companion matrix is non-hyperbolic; strip bound unavailable")
    if embedding.stable_norm >= 1.0:
        raise CuntzError("stable block norm >= 1; strip bound unavailable")

    diagram, g = table.diagram, table.diagram.symmetry_order
    kernel = [table.ws.backend.zero, *(seed[0] for seed in [table.root_seed] if seed)]
    seeds = kernel + [z[0] for z in table.seeds if z]
    # one beta per class, in class order
    coords = lattice_array(embedding, seeds + list(
        dict(zip(table.beta_classes(), table.betas)).values()))

    # the records are the kernel's, each on its own state, then per
    # generation and vertex its paths, whose state indices follow on
    blocks = [(("",), ["zero", "root"][:len(kernel)], np.arange(len(kernel)))]
    # int true division rounds each exact rational correctly, whatever its denominator
    batches = [embedding.distance_to_unstable((coords.num[:len(kernel)] / coords.den)
                                              .astype(float))]
    levels = _lattice_levels(embedding, table, depth, coords.take(slice(len(seeds), None)),
                             coords.take(slice(len(kernel), len(seeds))))
    for (states, index), tails in zip(levels, diagram.split_tails(depth)):
        offset = sum(dists.size for dists in batches)
        blocks += [(diagram.heads[v * g:(v + 1) * g], tails[v], index[v] + offset)
                   for v in range(diagram.n_letters) if tails[v]]
        batches.append(embedding.distance_to_unstable((states.num / states.den).astype(float)))
    if not all(np.isfinite(dists).all() for dists in batches):
        raise CuntzError(f"a strip distance leaves the float range at s={table.s}")
    per_gen = [(gen, float(dists.max(initial=0.0))) for gen, dists in enumerate(batches)]

    # the betas', then the seeds' but the zero's, which are all 0
    rows = coords.num[[*range(len(seeds), len(coords.num)), *range(1, len(seeds))]]
    norms = [math.sqrt(sum((n / coords.den) ** 2 for n in row)) for row in rows.tolist()]
    m_const = embedding.p_inv_norm ** 2 * max(norms)
    bound = m_const / (1.0 - embedding.stable_norm)
    return StripReport(embedding.pisot, embedding.stable_norm, bound,
                       max(dist for _, dist in per_gen), per_gen, blocks,
                       np.concatenate(batches))
