"""Cuntz-Krieger path operators, the affine eigenvalue recursion, the
companion-matrix lattice embedding, and the Pisot strip bound.

The partial isometries insert or delete an edge directly below the root; on
eigenvalues they act as affine maps u_e(x) = Lambda_s * x + beta_e.  The table
of beta constants is re-derived against the laplacian sign convention and
self-calibrated on oracle data before it is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _linalg
from .diagram import DEFAULT_PATH_CAP, EMPTY_PATH, BratteliDiagram, Path, enumerate_paths
from .laplacian import SpectralRecord, full_spectrum, g_value
from .measure import PerronData, WeightSystem, _power, mu, theta_min_poly
from .scalar import ApproxReal, ExactnessError, QuadraticNumber, compare, to_float


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
    """Per-edge affine maps u_e(x) = Lambda_s x + beta_e on the spectrum."""

    ws: WeightSystem
    s: Fraction
    lam: object
    lam_float: float
    betas: tuple
    betas_float: tuple[float, ...]
    calibration_checks: int

    @property
    def diagram(self) -> BratteliDiagram:
        return self.ws.diagram

    def apply(self, edge_index: int, value):
        return self.lam * value + self.betas[edge_index]

    def beta_classes(self) -> list[int]:
        """Per edge, the index of its beta's structural class, numbered in
        order of first appearance.  Edges whose betas are equal scalars of one
        type, such as parallel edges, make the same affine step; floats are
        never compared."""
        classes: dict = {}
        return [classes.setdefault((type(b), b), len(classes)) for b in self.betas]


def affine_table(ws: WeightSystem, s) -> AffineMapTable:
    """Build the recursion constants.

    beta_e couples the root-level correction terms for inserting e below the
    root; increments across single-extension prefixes vanish and are skipped.
    The table is only returned after u_e(lambda_gamma) = lambda_(U_e gamma)
    has been confirmed on all applicable paths through generation 3 (hard
    failure otherwise)."""
    s = Fraction(s)
    diagram = ws.diagram
    d = ws.dimension
    # Lambda_s = theta^((d+2-s)/d), exact whenever the power stays in the field
    lam = _power(ws.backend, ws.perron.theta, (d + 2 - s) / d, ws.approx_bits)
    zero = ws.backend.zero

    root_split = len(diagram.root_edges) >= 2
    inv_g_root = 1 / g_value(ws, EMPTY_PATH, s) if root_split else None
    one = ws.backend.one

    betas = []
    for edge_index, e in enumerate(diagram.edges):
        eps = Path(diagram.root_edge_index(e.target))
        eps_prime = Path(diagram.root_edge_index(e.source))
        beta = zero
        if root_split:
            term1 = -(lam * ((mu(ws, eps) - one) * inv_g_root))
            term2 = (mu(ws, eps_prime) - one) * inv_g_root
            beta = term1 + term2
        if len(diagram.out_edges[e.source]) >= 2:
            extended = eps_prime.child(edge_index)
            inc = mu(ws, extended) - mu(ws, eps_prime)
            beta = beta + inc * (1 / g_value(ws, eps_prime, s))
        betas.append(beta)

    return AffineMapTable(ws, s, lam, to_float(lam), tuple(betas),
                          tuple(to_float(b) for b in betas),
                          _self_calibrate(ws, s, lam, betas))


def _self_calibrate(ws: WeightSystem, s: Fraction, lam, betas: list) -> int:
    """Require u_e(lambda_gamma) = lambda_(U_e gamma) on oracle data at depth 3."""
    diagram = ws.diagram
    exact = ws.backend.is_exact and not isinstance(lam, ApproxReal) and \
        not any(isinstance(b, ApproxReal) for b in betas)
    by_path = {rec.path: rec
               for rec in full_spectrum(ws, 4, s) if rec.label == "path"}
    checks = 0
    for gen in (2, 3):
        for gamma in enumerate_paths(diagram, gen).paths:
            rec = by_path.get(gamma)
            if rec is None:
                continue
            for ei in range(len(diagram.edges)):
                shifted = path_shift_down(diagram, ei, gamma)
                if shifted is None:
                    continue
                direct = by_path[shifted]
                via_map = lam * rec.value + betas[ei]
                if exact:
                    agree = ws.backend.compare(direct.value, via_map) == 0
                else:
                    scale = max(1.0, abs(direct.value_float))
                    agree = abs(direct.value_float - to_float(via_map)) <= 1e-9 * scale
                if not agree:
                    raise CuntzError(
                        f"affine-table self-calibration failed on edge {ei} over "
                        f"{diagram.format_path(gamma)}: direct {direct.value_float!r} "
                        f"vs map {to_float(via_map)!r}")
                checks += 1
    if checks == 0:
        raise CuntzError("self-calibration found no applicable oracle paths")
    return checks


def seed_records(ws: WeightSystem, s) -> list[SpectralRecord]:
    """Zero, root, and generation-1 records: the finite data the recursion grows from."""
    return full_spectrum(ws, 1, s)


def recursive_spectrum(table: AffineMapTable, seeds: list[SpectralRecord],
                       depth: int, embedding: "CompanionData | None" = None
                       ) -> list[SpectralRecord]:
    """Spectrum through the given generation grown by the affine maps alone:
    each record of generation n+1 is u_e applied to a generation-n record.

    With an embedding, lattice coordinates are accumulated alongside the
    recursion via coords(u_e x) = C coords(x) + coords(beta_e).

    A record's value and coordinates depend only on its seed's value and
    coordinates and on the sequence of betas applied, not on its root slot or
    on which of two parallel edges it took.  So each generation computes every
    distinct step (parent state, beta) once, and the records that reach the
    same state share its value, float value and coordinate objects."""
    diagram = table.diagram
    out = list(seeds)
    if embedding is not None:
        out = [_with_coords(rec, embedding) for rec in out]
    if depth <= 1:
        return out

    beta_coords = None
    if embedding is not None:
        beta_coords = [lattice_coords(embedding, b) for b in table.betas]
        # the nonzero integer entries of each row of C
        rows = [[(j, c) for j, c in enumerate(row) if c] for row in embedding.matrix]
    # edges into each vertex, with the class of their beta
    into: list[list[tuple[int, int, int]]] = [[] for _ in diagram.letters]
    for ei, (e, cls) in enumerate(zip(diagram.edges, table.beta_classes())):
        into[e.target].append((ei, e.source, cls))

    # a state is (value, value_float, coords); the generation-1 seeds are
    # interned by value and coordinates, so the g root slots share one
    index: dict = {}
    states: list[tuple] = []
    level: list[tuple[SpectralRecord, int]] = []
    for rec in out:
        if rec.label == "path" and rec.generation == 1:
            key = (type(rec.value), rec.value, rec.coords)
            if key not in index:
                index[key] = len(states)
                states.append((rec.value, rec.value_float, rec.coords))
            level.append((rec, index[key]))
    produced = len(out)
    for gen in range(2, depth + 1):
        steps: dict[tuple[int, int], int] = {}
        new_states: list[tuple] = []
        nxt: list[tuple[SpectralRecord, int]] = []
        for rec, state in level:
            root = diagram.root_edges[rec.path.root]
            for ei, source, cls in into[root.vertex]:
                step = steps.get((state, cls))
                if step is None:
                    step = steps[(state, cls)] = len(new_states)
                    value, _, coords = states[state]
                    val = table.apply(ei, value)
                    if embedding is not None:
                        coords = tuple(
                            sum((coords[j] if c == 1 else coords[j] * c
                                 for j, c in row), b)
                            for row, b in zip(rows, beta_coords[ei]))
                    new_states.append((val, to_float(val), coords))
                val, val_float, coords = new_states[step]
                shifted = Path(diagram.root_edge_index(source, root.slot),
                               (ei,) + rec.path.edges)
                nxt.append((SpectralRecord("path", shifted, gen, val, val_float,
                                           rec.multiplicity, coords), step))
        nxt.sort(key=lambda pair: (pair[0].path.root, pair[0].path.edges))
        produced += len(nxt)
        if produced > DEFAULT_PATH_CAP:
            raise CuntzError(f"recursion exceeded the {DEFAULT_PATH_CAP}-record cap")
        out.extend(rec for rec, _ in nxt)
        level, states = nxt, new_states
    return out


def _with_coords(rec: SpectralRecord, embedding: "CompanionData") -> SpectralRecord:
    coords = lattice_coords(embedding, rec.value)
    return SpectralRecord(rec.label, rec.path, rec.generation, rec.value,
                          rec.value_float, rec.multiplicity, coords)


@dataclass(frozen=True)
class CompanionData:
    """Multiplication by Lambda_s = x^k on the quotient ring Q[x]/(Q), where
    Q substitutes x^d' into the minimal polynomial of theta, with d' = d/2 for
    even d and d' = d for odd d.  So x = theta^(1/d'), Lambda_s =
    theta^((d+2-s)/d) = x^k with k = d'(d+2-s)/d, and the matrix is C_x^k for
    the companion matrix C_x of Q.  `companion_embedding` builds it at s = d,
    where it multiplies by theta^(2/d); `at` rebuilds it at another s.
    Basis: powers of x; `basis_value` is x exactly when theta is quadratic
    and its field holds x, else None."""

    poly: tuple[int, ...]            # minimal polynomial of theta, ascending
    degree: int                      # lattice dimension
    matrix: tuple[tuple[int, ...], ...]
    dimension: int
    basis_value: object | None       # exact scalar for x, when the field holds it
    basis_float: float
    pisot: bool
    hyperbolic: bool
    stable_norm: float
    eigenvalues: tuple[complex, ...]
    unstable_basis: np.ndarray       # orthonormal columns spanning V_u
    p_inv_norm: float
    action_verified: str             # "exact" | "numeric"

    def distance_to_unstable(self, coords) -> float:
        c = np.array([float(x) for x in coords])
        proj = self.unstable_basis @ (self.unstable_basis.T @ c)
        return float(np.linalg.norm(c - proj))

    def at(self, s) -> "CompanionData":
        """The embedding that grows the recursion's coordinates at s, with the
        stable norm, unstable basis and |P^-1| of C_s = C_x^k.  Only a
        positive integer k gives an integer matrix that expands along theta."""
        d = self.dimension
        k = _root_degree(d) * (d + 2 - Fraction(s)) / d
        if k.denominator != 1 or k <= 0:
            raise CuntzError(
                f"strip needs k = d'(d+2-s)/d to be a positive integer, so that "
                f"Lambda_s is the power x^k of the lattice generator x = theta^(1/d'); "
                f"at s={s} and d={d}, k={k}")
        return _embedding(self.poly, d, self.basis_value, self.basis_float, int(k))


def _root_degree(dimension: int) -> int:
    """d': the basis generator is x = theta^(1/d')."""
    return dimension // 2 if dimension % 2 == 0 else dimension


def _companion(poly: list[int]) -> list[list[int]]:
    m = len(poly) - 1
    c = [[0] * m for _ in range(m)]
    for i in range(1, m):
        c[i][i - 1] = 1
    for i in range(m):
        c[i][m - 1] = -poly[i]
    return c


def companion_embedding(perron: PerronData) -> CompanionData:
    """Lattice model of multiplication by theta^(2/d) for exact Perron data,
    with Pisot and hyperbolicity flags read off the companion spectrum."""
    if not perron.backend.is_exact:
        raise CuntzError("the lattice embedding needs exact Perron data")
    poly, theta_float = theta_min_poly(perron.matrix)
    d_prime = _root_degree(perron.dimension)
    basis_value = None
    if len(poly) == 3:
        try:
            basis_value = perron.backend.pow_fraction(perron.theta, Fraction(1, d_prime))
        except ExactnessError:
            pass
    return _embedding(poly, perron.dimension, basis_value, theta_float ** (1.0 / d_prime),
                      2 * d_prime // perron.dimension)


def _embedding(poly, dimension: int, basis_value, basis_float: float,
               k: int) -> CompanionData:
    d_prime = _root_degree(dimension)
    subst = [0] * ((len(poly) - 1) * d_prime + 1)
    for j, c in enumerate(poly):
        subst[j * d_prime] = c
    cmat = _linalg.mat_pow(_companion(subst), k)
    degree = len(cmat)

    eigs = np.linalg.eigvals(np.array(cmat, float))
    mods = np.abs(eigs)
    unstable_mask = mods > 1.0
    hyperbolic = bool(np.all(np.abs(mods - 1.0) > 1e-9))
    pisot = bool(hyperbolic and unstable_mask.sum() == 1)
    stable_mods = mods[~unstable_mask]
    stable_norm = float(stable_mods.max()) if stable_mods.size else 0.0

    w, p = np.linalg.eig(np.array(cmat, float))
    p = p / np.linalg.norm(p, axis=0)
    p_inv_norm = float(np.linalg.norm(np.linalg.inv(p), 2))
    cols = []
    for i in range(degree):
        if abs(w[i]) > 1.0:
            v = p[:, i]
            cols.append(np.real(v))
            if abs(np.imag(w[i])) > 1e-12:
                cols.append(np.imag(v))
    if not cols:
        raise CuntzError("companion matrix has no unstable direction")
    q, _ = np.linalg.qr(np.column_stack(cols))
    unstable = q[:, : np.linalg.matrix_rank(np.column_stack(cols))]

    return CompanionData(poly, degree, tuple(tuple(r) for r in cmat), dimension,
                         basis_value, basis_float, pisot, hyperbolic, stable_norm,
                         tuple(eigs.tolist()), unstable, p_inv_norm,
                         _verify_action(cmat, k, basis_value, basis_float))


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


def reconstruct_from_coords(embedding: CompanionData, coords) -> float:
    return float(sum(float(c) * embedding.basis_float ** i for i, c in enumerate(coords)))


@dataclass
class StripReport:
    depth: int
    pisot: bool
    stable_norm: float
    m_constant: float
    bound: float
    max_distance: float
    per_generation: list[tuple[int, float]]
    distances: list[tuple[str, float]]

    def lines(self) -> list[str]:
        out = [f"strip analysis depth {self.depth}: max distance "
               f"{self.max_distance:.6g} vs bound {self.bound:.6g} "
               f"({'within' if self.max_distance <= self.bound else 'EXCEEDS'})",
               f"  pisot={self.pisot} stable-norm={self.stable_norm:.6g} "
               f"m={self.m_constant:.6g}"]
        out.extend(f"  generation {g}: max distance {v:.6g}"
                   for g, v in self.per_generation)
        return out


def strip_check(embedding: CompanionData, records: list[SpectralRecord],
                table: AffineMapTable, seeds: list[SpectralRecord]) -> StripReport:
    """Distances of eigenvalue lattice points to the unstable line, against the
    bound m/(1 - |C_s|) with m = |P^-1|^2 max(|beta|, |lambda_seed|)."""
    if not embedding.hyperbolic:
        raise CuntzError("companion matrix is non-hyperbolic; strip bound unavailable")
    if embedding.stable_norm >= 1.0:
        raise CuntzError("stable block norm >= 1; strip bound unavailable")

    beta_vecs = [lattice_coords(embedding, b) for b in table.betas]
    seed_vecs = [rec.coords if rec.coords is not None
                 else lattice_coords(embedding, rec.value)
                 for rec in seeds if rec.label != "zero"]
    norms = [math.sqrt(sum(float(c) ** 2 for c in vec))
             for vec in beta_vecs + seed_vecs]
    m_const = embedding.p_inv_norm ** 2 * max(norms)
    bound = m_const / (1.0 - embedding.stable_norm)

    per_gen: dict[int, float] = {}
    distances: list[tuple[str, float]] = []
    max_dist = 0.0
    diagram = table.diagram
    # records of one recursion state share their coords tuple, and `records`
    # keeps it alive, so its id is a safe key; coordinates expanded here are
    # temporaries and are not memoized
    by_coords: dict[int, float] = {}
    for rec in records:
        if rec.coords is None:
            dist = embedding.distance_to_unstable(lattice_coords(embedding, rec.value))
        else:
            dist = by_coords.get(id(rec.coords))
            if dist is None:
                dist = by_coords[id(rec.coords)] = \
                    embedding.distance_to_unstable(rec.coords)
        label = rec.label if rec.path is None else diagram.format_path(rec.path)
        distances.append((label, dist))
        per_gen[rec.generation] = max(per_gen.get(rec.generation, 0.0), dist)
        max_dist = max(max_dist, dist)
    depth = max(per_gen) if per_gen else 0
    return StripReport(depth, embedding.pisot, embedding.stable_norm, m_const,
                       bound, max_dist, sorted(per_gen.items()), distances)
