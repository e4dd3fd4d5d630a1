"""Weyl counting, heat-trace scaling and 1D factor complexity.

Heavy sums never enumerate paths one by one.  The per-generation eigenvalue
arrays are the float projection of the distinct recursion states that
`cuntz._grow` grows from the table's seeds, one per splitting vertex, and
yields with their summed multiplicities, so memory grows with the number of
states, not of paths, and every value is bit-identical to a per-path
expansion's.  The heat trace is contracted through per-vertex
transfer vectors in log space, one array over the whole t grid per
generation, which makes any truncation depth affordable.
The two-sided asymptotic constants are fitted and reported, not asserted a
priori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .diagram import BratlapError, SubstitutionRule, path_counts

# `cuntz` is imported where a table is grown, so that `factor_complexity`
# loads neither it nor `laplacian`
if TYPE_CHECKING:
    from .cuntz import AffineMapTable


# thresholds in the default Weyl sample
WEYL_POINTS = 48
# the heat trace's certified tail stays below this at every requested t
HEAT_TAIL_TARGET = 1e-9
# generations enumerated to fit the heat-trace tail envelope
HEAT_ENVELOPE_DEPTH = 12
# the longest fixed-point prefix factor_complexity grows
MAX_PREFIX_LENGTH = 2_000_000


class AsymptoticsError(BratlapError):
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


def _check_weight_range(diagram, depth: int) -> None:
    """Refuse a depth whose total multiplicity |Pi_(depth+1)| does not fit the
    int64 weights, which would wrap silently.  The path counts never fall
    from one generation to the next, so the count stops at the first one
    too large.  The depth it names is only the int64 bound: the recursion's
    state cap (`cuntz._grow`) may refuse a smaller one."""
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
    from .cuntz import _grow
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


def _exps(x: np.ndarray) -> np.ndarray:
    """exp of each entry by libm's math.exp, which np.exp may miss by an ulp."""
    return np.fromiter(map(math.exp, x.tolist()), float, x.size)


@dataclass
class HeatResult:
    samples: list[tuple[float, float, float]]   # (t, trace, certified tail)
    fit: FitResult
    depth: int


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

    # per n, log(c_cnt) + n log(theta) and Lambda^n, formed once per call
    log_cnt, log_theta, terms = math.log(c_cnt), math.log(theta), {}

    def tail_bound(t: float, d: int) -> float:
        total, scale = 0.0, t * c_min
        for n in range(d + 1, d + 600):
            if n not in terms:
                terms[n] = (log_cnt + n * log_theta, lam ** n)
            head, power = terms[n]
            expo = head - scale * power
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

    # generations 0 and 1, the kernel, the root splitting and the seeds, are
    # the envelope table's first rows; every eigenvalue is <= 0
    ts = np.array(t_grid)
    total = np.zeros(ts.size)
    for mags, wts in zip(env.magnitudes[:2], env.weights[:2]):
        for m, w in zip(mags.tolist(), wts.tolist()):
            total += w * _exps(-ts * m)
    # after generation m, row v of log_w holds per t the log of the sum of
    # exp(t x) over the offsets x = sum_j Lambda^(j-1) beta(e_j) of the runs
    # of m edges that end at v.  A splitting vertex z then holds
    # g (out-degree - 1) eigenvalues Lambda^m lam_z + x per run
    seeds = [(z, seed[1], diagram.symmetry_order * (len(diagram.out_edges[z]) - 1))
             for z, seed in enumerate(table.seeds)
             if seed is not None and len(diagram.out_edges[z]) >= 2]
    log_w = np.zeros((diagram.n_letters, ts.size))
    # where t * Lambda^m leaves the float range the exponents turn into
    # inf - inf = nan; the terms they stand for are exp(t * eigenvalue) = 0,
    # and the expo test below skips them
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, depth):
            step = ts * lam ** (m - 1)
            new = np.full_like(log_w, -np.inf)
            for beta, e in zip(table.betas_float, diagram.edges):
                np.logaddexp(new[e.target], step * beta + log_w[e.source], out=new[e.target])
            contrib = np.zeros(ts.size)
            for z, lam_z, coef in seeds:
                expo = ts * lam ** m * lam_z + new[z]
                live = (new[z] != -np.inf) & (expo > -745.0)
                contrib[live] += coef * _exps(expo[live])
            total += contrib
            log_w = new
    samples = [(t, tr, tail_bound(t, depth)) for t, tr in zip(t_grid, total.tolist())]
    fit = ols_loglog([t for t, tr, _ in samples], [tr for _, tr, _ in samples])
    return HeatResult(samples, fit, depth)


def _factor_counts(word: np.ndarray, n_max: int) -> list[int]:
    """p(n), n = 1..n_max, the distinct factors of length n of a word of
    letter codes >= 1, from a suffix array and the longest common prefix
    (LCP) of each pair of neighbours in it (Manber and Myers, SIAM J.
    Comput. 22, 1993).  keys[t][i] codes the window of 2**t letters at i, 0
    past the end, in lexicographic order, a window cut by the end first.
    Prefix doubling packs two keys into one int64, ranking them once a pair
    no longer fits, up to 2**t >= n_max; binary lifting over the kept keys
    gives the LCPs, capped at n_max.  The L - n + 1 windows of length n hold
    p(n) factors and one repeat per neighbour pair with LCP >= n."""
    size, width = word.size, 1 << (n_max - 1).bit_length()
    pad = np.zeros(width, dtype=np.int64)
    keys = [np.concatenate([word, pad])]
    while len(keys) < width.bit_length():
        key, h = keys[-1], 1 << (len(keys) - 1)
        if (int(key.max()) + 1) ** 2 > np.iinfo(np.int64).max:
            key = keys[-1] = np.unique(key, return_inverse=True)[1]
        keys.append(key * (int(key.max()) + 1) + np.concatenate([key[h:], pad[:h]]))
    order = np.argsort(keys[-1][:size])
    a, c = order[:-1], order[1:]
    lcp = np.zeros(a.size, dtype=np.int64)
    for t in range(len(keys) - 2, -1, -1):
        lcp += (keys[t][a + lcp] == keys[t][c + lcp]) << t
    lcp[keys[-1][a] == keys[-1][c]] = n_max
    longer = np.bincount(np.minimum(lcp, n_max), minlength=n_max + 1)[::-1].cumsum()[::-1]
    return (size + 1 - np.arange(1, n_max + 1) - longer[1:]).tolist()


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
    Each counted round's prefix, its letters coded 1..k, is counted from
    its suffix array and LCP array by `_factor_counts`."""
    if rule.dimension != 1:
        raise AsymptoticsError("factor complexity is implemented for d = 1 only")
    seed, power = _fixed_point_seed(rule)
    code = {l: i for i, l in enumerate(rule.letters, 1)}
    images = {code[l]: [code[ch] for ch in rule.image(l)] for l in rule.letters}

    def substitute(word: list[int]) -> list[int]:
        out: list[int] = []
        for ch in word:
            out.extend(images[ch])
        return out

    # every round's length follows from the letter counts, by powers of the
    # rule's abelianization; the loop returns at the second counted round at
    # the earliest, so a prefix that round takes past the cap is refused first
    grow = [[images[m].count(l) for m in images] for l in images]
    counts, lengths = [int(l == seed) for l in rule.letters], []
    while sum(n >= 4 * n_max for n in lengths[1:]) < 2:
        for _ in range(power):
            counts = [sum(g * c for g, c in zip(row, counts)) for row in grow]
        lengths.append(sum(counts))
        if lengths[-1] > MAX_PREFIX_LENGTH:
            raise AsymptoticsError(f"fixed-point prefix exceeded {MAX_PREFIX_LENGTH} letters")

    word = [code[seed]]
    for _ in range(power):
        word = substitute(word)

    prev_counts = None
    rounds = 0
    while True:
        rounds += 1
        for _ in range(power):
            word = substitute(word)
        if len(word) > MAX_PREFIX_LENGTH:
            raise AsymptoticsError(f"fixed-point prefix exceeded {MAX_PREFIX_LENGTH} letters")
        if len(word) < 4 * n_max:
            continue
        counts = _factor_counts(np.array(word, dtype=np.int64), n_max)
        if prev_counts is not None and counts == prev_counts:
            return ComplexityTable(n_max, tuple(counts), len(word), rounds)
        prev_counts = counts
