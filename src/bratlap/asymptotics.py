"""Weyl counting, heat-trace scaling, bounded-norm checks, and 1D factor
complexity.

Heavy sums never enumerate paths one by one.  The per-generation eigenvalue
arrays are the float projection of the distinct recursion states that
`cuntz._grow` grows from the table's seeds, one per splitting vertex, and
yields with their summed multiplicities, so memory grows with the number of
states, not of paths, and every value is bit-identical to a per-path
expansion's.  The heat trace is contracted through per-vertex
transfer vectors in log space, which makes any truncation depth affordable.
The two-sided asymptotic constants are fitted and reported, not asserted a
priori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cuntz import AffineMapTable, _grow
from .diagram import SubstitutionRule, path_counts


# thresholds in the default Weyl sample
WEYL_POINTS = 48
# the heat trace's certified tail stays below this at every requested t
HEAT_TAIL_TARGET = 1e-9
# generations enumerated to fit the heat-trace tail envelope
HEAT_ENVELOPE_DEPTH = 12
# the longest fixed-point prefix factor_complexity grows
MAX_PREFIX_LENGTH = 2_000_000


class AsymptoticsError(ValueError):
    pass


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float


def ols_loglog(xs, ys) -> FitResult:
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if np.unique(lx).size < 2:     # no slope through one abscissa
        return FitResult(float("nan"), float(ly[0]) if ly.size else float("nan"), 0.0)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return FitResult(float(slope), float(intercept), resid)


@dataclass
class GenerationSpectrum:
    """Per-generation |eigenvalue| arrays with multiplicity weights, row n
    for generation n: row 0 holds the zero eigenvalue and the root
    splitting, row 1 the seeds, one entry per splitting vertex."""

    magnitudes: list[np.ndarray]
    weights: list[np.ndarray]

    def flatten(self) -> tuple[np.ndarray, np.ndarray]:
        return np.concatenate(self.magnitudes), np.concatenate(self.weights)

    def count(self, thresholds) -> np.ndarray:
        """N(t) = #{|eigenvalue| <= t} with multiplicity, per threshold."""
        values, mults = self.flatten()
        order = np.argsort(values)
        cum = np.concatenate(([0], np.cumsum(mults[order])))
        return cum[np.searchsorted(values[order], thresholds, side="right")]

    def total_multiplicity(self) -> int:
        return int(sum(int(w.sum()) for w in self.weights))

    def generation_min(self) -> dict[int, float]:
        return {n: float(m.min()) for n, m in enumerate(self.magnitudes) if n and m.size}

    def generation_max(self) -> dict[int, float]:
        return {n: float(m.max()) for n, m in enumerate(self.magnitudes) if n and m.size}


def _check_weight_range(diagram, depth: int) -> None:
    """Refuse a depth whose total multiplicity |Pi_(depth+1)| does not fit the
    int64 weights, which would wrap silently.  Path counts never fall from one
    generation to the next, so the count stops at the first one too large.
    The depth it names is only the int64 bound: the recursion's state cap
    (`cuntz._grow`) may refuse a smaller one."""
    limit = np.iinfo(np.int64).max
    for n, row in zip(range(1, depth + 2), path_counts(diagram)):
        if sum(row) > limit:
            raise AsymptoticsError(
                f"depth {depth} needs |Pi_{depth + 1}| > 2**63 - 1 = {limit} "
                f"eigenvalues, more than the int64 multiplicities hold; the int64 "
                f"bound for this diagram is depth {n - 2}")


def magnitude_table(table: AffineMapTable, depth: int) -> GenerationSpectrum:
    """Per-generation |eigenvalue| magnitudes with exact multiplicities: one
    entry per recursion state of `cuntz._grow`, with its summed multiplicity.
    A state's value is Lambda * parent + beta, the float operations a
    per-path expansion applies in the same order, so every value is
    bit-identical to that expansion's.

    Multiplicities are exact int64 counts: a depth whose total |Pi_(depth+1)|
    exceeds 2**63 - 1 raises AsymptoticsError, and so does a magnitude that
    leaves the float range; a generation of more than DEFAULT_PATH_CAP
    states raises CuntzError."""
    _check_weight_range(table.diagram, depth)
    # row 0: the zero eigenvalue, and the root splitting when the root has
    # two or more edges
    root = [table.root_seed] if table.root_seed else []
    magnitudes = [np.array([0.0, *(abs(value_float) for _, value_float in root)])]
    weights = [np.array([1, *(len(table.diagram.root_edges) - 1 for _ in root)],
                        dtype=np.int64)]

    classes = table.beta_classes()
    beta = np.zeros(max(classes) + 1)
    beta[classes] = table.betas_float
    lam = table.lam_float
    # generation 1, the seeds, is always reported
    for gen, (codes, counts) in enumerate(_grow(table, depth), 1):
        if gen == 1:    # a seed's code is its range vertex
            vals = np.array([table.seeds[z][1] for z in codes.tolist()])
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                vals = lam * vals[codes // beta.size] + beta[codes % beta.size]
        magnitudes.append(np.abs(vals))
        weights.append(counts.sum(axis=0))

    for gen, m in enumerate(magnitudes):
        if not np.isfinite(m).all():
            raise AsymptoticsError(
                f"eigenvalue magnitudes leave the float range at generation {gen}")
    return GenerationSpectrum(magnitudes, weights)


@dataclass
class WeylResult:
    samples: list[tuple[float, int]]
    fit: FitResult
    cap: float
    total_multiplicity: int


def lower_envelope(spec: GenerationSpectrum, lam: float) -> float:
    """c_min = min_n m_n / Lambda^n over the enumerated generations n >= 1,
    with m_n the smallest magnitude of generation n."""
    return min(v / lam ** n for n, v in spec.generation_min().items())


def coverage_cap(spec: GenerationSpectrum, lam: float) -> float:
    """Largest threshold whose count is complete: any eigenvalue beyond the
    enumerated depth has magnitude at least c_min * Lambda^(depth+1), with
    c_min the fitted lower envelope constant."""
    return lower_envelope(spec, lam) * lam ** (max(spec.generation_min()) + 1)


def weyl_count(spec: GenerationSpectrum, lam: float, grid=None) -> WeylResult:
    """Step counting function N(t) = #{|eigenvalue| <= t} with multiplicity,
    sampled on a log grid below the coverage cap, plus a log-log OLS fit.
    The magnitudes grow only while Lambda > 1: at s >= d+2 no Weyl law holds."""
    if lam <= 1.0:
        raise AsymptoticsError("Weyl count needs Lambda > 1 (s < d+2)")
    cap = coverage_cap(spec, lam)
    if grid is None:
        # the power law starts once whole generations contribute; below the
        # first generation's smallest magnitude the count is the flat root atom
        gen_mins = spec.generation_min()
        lo = gen_mins[min(gen_mins)] * 1.0000001
        hi = cap * 0.9999999
        if hi <= lo:
            raise AsymptoticsError("enumerated depth too shallow for any threshold")
        grid = np.geomspace(lo, hi, WEYL_POINTS)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.max() > cap:
            raise AsymptoticsError(
                f"grid exceeds the covered window; max usable threshold is {cap:.6g}")
    samples = list(zip(grid.tolist(), spec.count(grid).tolist()))
    fit = ols_loglog([t for t, c in samples if c > 0],
                     [c for _, c in samples if c > 0])
    return WeylResult(samples, fit, cap, spec.total_multiplicity())


@dataclass
class WeylMarginRow:
    magnitude: float
    count: int
    lower: float
    upper: float

    @property
    def lower_ok(self) -> bool:
        return self.count >= self.lower - 1e-9

    @property
    def upper_ok(self) -> bool:
        return self.count <= self.upper + 1e-9


def weyl_margins(spec: GenerationSpectrum, bounds: dict) -> list[WeylMarginRow]:
    """Evaluate reference counting bounds of the form coef*sqrt(a*t + b) at
    each distinct eigenvalue magnitude.  Margins are reported, not asserted:
    the bounds may be marginal at small magnitudes."""
    lc, la, lb = map(float, bounds["lower"])
    uc, ua, ub = map(float, bounds["upper"])
    values, _ = spec.flatten()
    distinct = np.unique(values[values > 0])
    return [WeylMarginRow(t, n, lc * math.sqrt(la * t + lb), uc * math.sqrt(ua * t + ub))
            for t, n in zip(distinct.tolist(), spec.count(distinct).tolist())]


@dataclass
class HeatResult:
    samples: list[tuple[float, float, float]]   # (t, trace, certified tail)
    fit: FitResult
    depth: int


def _log_transfer_contribution(table: AffineMapTable, seed_vals: dict[int, float],
                               out_deg: list[int], t: float, m: int,
                               log_w: np.ndarray) -> tuple[float, np.ndarray]:
    """One recursion layer in log space; returns (generation m+1 contribution,
    updated per-vertex log partition vector)."""
    diagram = table.diagram
    r = diagram.n_letters
    lam = table.lam_float
    scale = lam ** (m - 1)
    new = np.full(r, -np.inf)
    contrib = 0.0
    # where t * Lambda^m leaves the float range the exponents turn into
    # inf - inf = nan; the terms they stand for are exp(t * eigenvalue) = 0,
    # and the expo test below skips them
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


def heat_trace(table: AffineMapTable, t_grid, depth: int | None = None) -> HeatResult:
    """Truncated trace of exp(t * Delta) over the spectrum grown from the
    table's seeds, with a certified geometric tail bound below
    HEAT_TAIL_TARGET at every requested t.

    The tail certificate extrapolates the measured per-generation envelopes
    with ratio Lambda and a 2x safety factor on both constants."""
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
        feasible = t_min
        while tail_bound(feasible, depth) > HEAT_TAIL_TARGET:
            feasible *= 2.0
            if feasible > 1e12:
                raise AsymptoticsError("tail cannot be certified at any sensible t")
        raise AsymptoticsError(
            f"certified tail exceeds {HEAT_TAIL_TARGET:g} at t={t_min:g}; "
            f"smallest feasible t at this depth is {feasible:g}")

    out_deg = [len(diagram.out_edges[v]) for v in range(diagram.n_letters)]
    seed_vals = {z: seed[1] for z, seed in enumerate(table.seeds) if seed is not None}
    # generations 0 and 1, the kernel, the root splitting and the seeds, are
    # the envelope table's first rows; every eigenvalue is <= 0
    head = [(m.tolist(), w.tolist()) for m, w in zip(env.magnitudes[:2], env.weights[:2])]

    samples = []
    for t in t_grid:
        total = 0.0
        for mags, wts in head:
            for m, w in zip(mags, wts):
                total += w * math.exp(-t * m)
        log_w = np.zeros(diagram.n_letters)   # slots enter through symmetry_order
        for m in range(1, depth):
            contrib, log_w = _log_transfer_contribution(
                table, seed_vals, out_deg, t, m, log_w)
            total += contrib
        samples.append((t, total, tail_bound(t, depth)))

    fit = ols_loglog([t for t, tr, _ in samples], [tr for _, tr, _ in samples])
    return HeatResult(samples, fit, depth)


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


def norm_bound_check(table: AffineMapTable, depth: int = 15) -> NormBoundReport:
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
    maxes = spec.generation_max()
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


class _SuffixAutomaton:
    """Standard online suffix automaton; counts distinct factors per length."""

    def __init__(self):
        self.transitions: list[dict[str, int]] = [{}]
        self.link = [-1]
        self.length = [0]
        self.last = 0

    def extend(self, ch: str) -> None:
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


def _fixed_point_seed(rule: SubstitutionRule) -> tuple[str, int]:
    """A letter whose image under some power of the rule starts with itself."""
    first = {l: rule.image(l)[0] for l in rule.letters}
    for l in rule.letters:
        if first[l] == l:
            return l, 1
    seen: dict[str, int] = {}
    l = rule.letters[0]
    k = 0
    while l not in seen:
        seen[l] = k
        l = first[l]
        k += 1
    return l, k - seen[l]


@dataclass(frozen=True)
class ComplexityTable:
    n_max: int
    counts: tuple[int, ...]
    word_length: int
    rounds: int

    def p(self, n: int) -> int:
        return self.counts[n - 1]

    def nu(self, n: int) -> float:
        if n < 2:
            raise AsymptoticsError("nu(n) needs n >= 2")
        return math.log(self.p(n)) / math.log(n)


def factor_complexity(rule: SubstitutionRule, n_max: int) -> ComplexityTable:
    """Exact factor counts of the substitution fixed point, by growing a prefix
    until the counts for every n <= n_max agree on two successive rounds.
    Each round's prefix extends the last one, so one suffix automaton is
    extended by the new letters only."""
    if rule.dimension != 1:
        raise AsymptoticsError("factor complexity is implemented for d = 1 only")
    seed, power = _fixed_point_seed(rule)
    images = {l: rule.image(l) for l in rule.letters}

    def substitute(word: list[str]) -> list[str]:
        out: list[str] = []
        for ch in word:
            out.extend(images[ch])
        return out

    word = [seed]
    for _ in range(power):
        word = substitute(word)

    prev_counts = None
    rounds = 0
    sa = _SuffixAutomaton()
    while True:
        rounds += 1
        for _ in range(power):
            word = substitute(word)
        if len(word) > MAX_PREFIX_LENGTH:
            raise AsymptoticsError(f"fixed-point prefix exceeded {MAX_PREFIX_LENGTH} letters")
        if len(word) < 4 * n_max:
            continue
        # the automaton holds the last counted prefix: its last state's length
        for ch in word[sa.length[sa.last]:]:
            sa.extend(ch)
        counts = sa.factor_counts(n_max)
        if prev_counts is not None and counts == prev_counts:
            return ComplexityTable(n_max, tuple(counts), len(word), rounds)
        prev_counts = counts
