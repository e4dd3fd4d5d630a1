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

import numpy as np

from . import _linalg
from .diagram import (DEFAULT_PATH_CAP, BratteliDiagram, Path, enumerate_paths, path_counts,
                      predicted_path_count)
from .laplacian import StationaryCache, _level_paths, walk_states
from .measure import PerronData, WeightSystem, _power
from .scalar import ApproxReal, QuadraticNumber, compare, exact_power


class CuntzError(ValueError):
    pass


def path_shift_down(diagram: BratteliDiagram, edge_index: int,
                    path: Path) -> Path | None:
    """Insert an edge just below the root: (eps, e1, ...) -> (eps', e, e1, ...)
    when e composes with e1, keeping the symmetry slot; None when it does not."""
    if path.generation < 2:
        raise CuntzError("shift down needs a path of generation >= 2")
    e = diagram.edges[edge_index]
    first = diagram.edges[path.edges[0]]
    if e.target != first.source:
        return None
    slot = diagram.root_edges[path.root].slot
    return Path(diagram.root_edge_index(e.source, slot), (edge_index,) + path.edges)


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
    return Path(diagram.root_edge_index(nxt.source, slot), path.edges[1:])


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


def ck_relations_check(diagram: BratteliDiagram, depth: int,
                       adjacency=None) -> CKReport:
    """Verify the partial-isometry relations on all paths up to the given depth:
    the domain of each U_e must be the disjoint union of the ranges of the U_f
    it composes with, and up/down shifts must invert each other.

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
                        f"{diagram.format_path(gamma)}")
                if down is not None:
                    back = path_shift_up(diagram, ei, down)
                    if back != gamma:
                        failures.append(
                            f"shift_up(shift_down) != id on {diagram.format_path(gamma)}")
            if gen >= 3:
                up = path_shift_up(diagram, first, gamma)
                if up is None or path_shift_down(diagram, first, up) != gamma:
                    failures.append(
                        f"shift_down(shift_up) != id on {diagram.format_path(gamma)}")
            if len(failures) > 20:
                return CKReport(False, depth, checked, failures)
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
    paths = _level_paths(levels)
    return AffineMapTable(ws, s, lam, float(lam), tuple(betas),
                          tuple(float(b) for b in betas),
                          _prove_recursion(cache, levels, paths, lam, betas),
                          levels[0].values[0], tuple(levels[1].values))


def _prove_recursion(cache: StationaryCache, levels: list, paths: list, lam,
                     betas: list) -> int:
    """Require the memo's scaling identities at n = 1, 2 and 3, then the
    generation-2 relations in (root, edges) order, each compared once per
    (walk state of U_e gamma, of gamma, beta class of e); count them all.
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
    state_of = dict(zip(paths[3], three.state.tolist()))
    proved = set()
    for i, state in zip(two.splits.tolist(), two.state[two.splits].tolist()):
        for ei in range(len(diagram.edges)):
            shifted = path_shift_down(diagram, ei, paths[2][i])
            if shifted is None:
                continue
            checks += 1
            key = (state_of[shifted], state, classes[ei])
            if key in proved:
                continue
            direct, direct_float = three.values[key[0]]
            via_map = lam * two.values[state][0] + betas[ei]
            if not agree(direct, via_map):
                raise CuntzError(f"affine-table self-calibration failed on edge {ei} over "
                                 f"{diagram.format_path(paths[2][i])}: direct "
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
    # the steps up from a first vertex: (vertex, source, beta class) -> edges
    steps = Counter((e.target, e.source, cls) for e, cls in zip(diagram.edges, classes))
    # generation 1: one state per splitting vertex z, coded z, which the paths
    # of its g root edges reach, each with out-degree(z) - 1 eigenvectors
    out_degree = np.array([len(out) for out in diagram.out_edges], dtype=np.int64)
    dst = code = np.flatnonzero(out_degree >= 2)
    mult = diagram.symmetry_order * (out_degree[code] - 1)
    for gen in range(1, max(depth, 1) + 1):
        if gen > 1:
            # one candidate state per step and parent state reached from its
            # vertex: their total is capped before the generation's arrays
            rows = [np.flatnonzero(c) for c in counts]
            total = sum(rows[v1].size for v1, _, _ in steps)
            if total > DEFAULT_PATH_CAP:
                raise CuntzError(f"generation {gen} of the recursion would grow {total} "
                                 f"states, more than the {DEFAULT_PATH_CAP}-state cap; "
                                 f"the largest usable depth is {gen - 1}")
            dst, code, mult = [], [], []
            for (v1, u, cls), k in steps.items():
                idx = rows[v1]
                dst.append(np.full(idx.size, u))
                code.append(idx * n_cls + cls)
                mult.append(counts[v1, idx] * k)
            dst, code, mult = map(np.concatenate, (dst, code, mult))
        codes, inv = np.unique(code, return_inverse=True)
        counts = np.zeros((diagram.n_letters, codes.size), dtype=np.int64)
        np.add.at(counts, (dst, inv), mult)
        yield codes, counts


def _expand(table: AffineMapTable, depth: int):
    """Generations 2 through `depth` of the recursion per path.  Per
    generation this yields `_grow`'s codes and an int64 array of each
    path's state index in them, the paths in (root, edges) order.

    The paths under root edge (v, k) take the same edges for every slot k,
    so the indices are found once per vertex and repeated under each of
    its root edges.  Under v, an out-edge e leads to the paths under r(e)
    one generation shorter, and a child's state is found by
    `np.searchsorted` of its code, its tail's state * n_classes + class(e),
    in the generation's sorted codes."""
    diagram = table.diagram
    # a generation-n record is a path ending at a vertex with two or more
    # out-edges, so the total is known before any state is grown: the zero
    # and root records, then those of generations 1 through `depth`
    splits = [v for v in range(diagram.n_letters) if len(diagram.out_edges[v]) >= 2]
    total = 1 + (table.root_seed is not None)
    for _, row in zip(range(depth), path_counts(diagram)):
        total += sum(row[v] for v in splits)
        if total > DEFAULT_PATH_CAP:
            raise CuntzError(f"recursion would produce more than the "
                             f"{DEFAULT_PATH_CAP}-record cap")

    classes = table.beta_classes()
    n_cls = max(classes) + 1
    levels = _grow(table, depth)
    # generation 1: a seed's state is coded by its range vertex
    zs = next(levels)[0]
    index = [np.searchsorted(zs, [v] if v in splits else []) for v in range(diagram.n_letters)]
    for codes, _ in levels:
        index = [np.concatenate([np.searchsorted(codes, index[diagram.edges[ei].target] * n_cls
                                                 + classes[ei]) for ei in out])
                 for out in diagram.out_edges]
        yield codes, np.concatenate([index[edge.vertex] for edge in diagram.root_edges])


@dataclass(frozen=True)
class CompanionData:
    """Multiplication by Lambda_s = x^k on the quotient ring Q[x]/(Q), where
    Q substitutes x^d' into the minimal polynomial of theta, with d' = d/2 for
    even d and d' = d for odd d.  So x = theta^(1/d'), Lambda_s =
    theta^((d+2-s)/d) = x^k with k = d'(d+2-s)/d, and the matrix is C_x^k for
    the companion matrix C_x of Q.
    Basis: powers of x; `basis_value` is x exactly when theta is quadratic
    and its field holds x, else None."""

    degree: int                      # lattice dimension
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
        distance does not depend on the rows beside it."""
        basis = self.unstable_basis
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
    cmat = _linalg.mat_pow(_companion(subst), k)
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

    return CompanionData(degree, tuple(tuple(r) for r in cmat), basis_value, basis_float,
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


def lattice_coords(embedding: CompanionData, value) -> tuple[Fraction, ...]:
    """Expand an exact scalar in the power basis of the quotient ring."""
    m = embedding.degree
    if isinstance(value, (int, Fraction)):
        return (Fraction(value),) + (Fraction(0),) * (m - 1)
    if isinstance(value, QuadraticNumber):
        if value.b == 0:
            return (value.a,) + (Fraction(0),) * (m - 1)
        # an exact x = theta^(1/d') is irrational, as theta is
        t = embedding.basis_value
        if t is None:
            raise CuntzError("no exact basis generator available for these coordinates")
        c1 = value.b / t.b
        c0 = value.a - c1 * t.a
        return (c0, c1) + (Fraction(0),) * (m - 2)
    raise CuntzError(
        "value is not exactly representable; accumulate coordinates through the recursion")


@dataclass
class StripReport:
    """The strip distances by recursion state.  The records are the zero
    eigenvalue, the root splitting when the root has two or more edges, and
    per generation 1 through `depth` the paths that end at a splitting
    vertex, in (root, edges) order.  Record i is labelled labels[i] and lies
    at state_distances[state_of[i]] from the unstable line."""

    depth: int
    pisot: bool
    stable_norm: float
    bound: float
    max_distance: float
    per_generation: list[tuple[int, float]]
    labels: list[str]
    state_of: np.ndarray
    state_distances: np.ndarray


def _lattice_levels(embedding: CompanionData, table: AffineMapTable, depth: int, den: int):
    """Generations 2 through `depth` of the recursion in lattice coordinates,
    coords(u_e x) = C coords(x) + coords(beta_e), as Python int numerators
    over `den`, which C, an integer matrix, keeps.  Per generation this
    yields one row per state of `_expand`, in its order, and `_expand`'s
    state index per path.  The rows are an object array, so that C and the
    betas act on a whole generation at once."""
    def numerators(values) -> np.ndarray:
        return np.array([[c.numerator * (den // c.denominator)
                          for c in lattice_coords(embedding, v)] for v in values], dtype=object)

    classes = table.beta_classes()
    n_cls = max(classes) + 1
    c_t = np.array(embedding.matrix, dtype=object).T
    betas = numerators(table.betas[classes.index(cls)] for cls in range(n_cls))
    states = numerators(seed[0] for seed in table.seeds if seed is not None)
    for codes, index in _expand(table, depth):
        states = states[codes // n_cls] @ c_t + betas[codes % n_cls]
        yield states, index


def strip_check(embedding: CompanionData, table: AffineMapTable,
                depth: int) -> StripReport:
    """Distances to the unstable line of the lattice points of the records
    through generation `depth`, in `StripReport`'s order, against the bound
    m/(1 - |C_s|) with m = |P^-1|^2 max(|beta|, |lambda_seed|) over the
    table's betas and nonzero seeds.

    The coordinates are integer numerators over one denominator: the lcm of
    those of the betas' and seeds' coordinates.  A distance depends only on
    the recursion state, so each generation's states are measured in one
    batch, and each seed on its own state: the zero's, the root's, and one
    per splitting vertex, which its generation-1 paths share.  Per path only
    its label, from `BratteliDiagram.split_labels`, and its state index are
    kept."""
    if not embedding.hyperbolic:
        raise CuntzError("companion matrix is non-hyperbolic; strip bound unavailable")
    if embedding.stable_norm >= 1.0:
        raise CuntzError("stable block norm >= 1; strip bound unavailable")

    # the seed states: the kernel's at generation 0, then per splitting vertex
    kernel = [table.ws.backend.zero, *(seed[0] for seed in [table.root_seed] if seed)]
    seeds = {z: seed[0] for z, seed in enumerate(table.seeds) if seed is not None}
    seed_state = {z: i for i, z in enumerate(seeds, len(kernel))}
    seed_vecs = [lattice_coords(embedding, v) for v in [*kernel, *seeds.values()]]
    beta_vecs = [lattice_coords(embedding, b) for b in table.betas]
    den = math.lcm(*(c.denominator for vec in seed_vecs + beta_vecs for c in vec))

    # the records are the kernel's, each on its own state, then the paths of
    # generation 1 on the states of their range vertices, then the grown
    # generations, whose state indices follow on
    names = table.diagram.split_labels(depth)
    labels = ["zero", "root"][:len(kernel)] + next(names, [])
    state_of = [np.arange(len(kernel)),
                np.array([seed_state[e.vertex] for e in table.diagram.root_edges
                          if e.vertex in seed_state], dtype=np.int64)]
    batches: list[np.ndarray] = []
    offset = len(seed_vecs)
    per_gen: dict[int, float] = {}
    levels = _lattice_levels(embedding, table, depth, den)
    for gen, ((states, index), level_labels) in enumerate(zip(levels, names), 2):
        # int true division rounds correctly, as float(Fraction) does below
        dists = embedding.distance_to_unstable((states / den).astype(float))
        labels += level_labels
        state_of.append(index + offset)
        batches.append(dists)
        offset += dists.size
        # a NaN distance, as from a point near the float range, is passed over
        per_gen[gen] = float(np.fmax.reduce(dists, initial=0.0))
    # measured after the growth: the record cap is checked before any distance
    seed_dists = embedding.distance_to_unstable(np.array(seed_vecs, dtype=float))
    for i, dist in enumerate(seed_dists.tolist()):
        gen = int(i >= len(kernel))
        per_gen[gen] = max(per_gen.get(gen, 0.0), dist)

    # the zero's coordinates are all 0
    norms = [math.sqrt(sum(float(c) ** 2 for c in vec)) for vec in beta_vecs + seed_vecs[1:]]
    m_const = embedding.p_inv_norm ** 2 * max(norms)
    bound = m_const / (1.0 - embedding.stable_norm)
    return StripReport(max(per_gen), embedding.pisot, embedding.stable_norm, bound,
                       max([0.0, *per_gen.values()]), sorted(per_gen.items()), labels,
                       np.concatenate(state_of), np.concatenate([seed_dists, *batches]))
