"""Weyl counting, heat traces, bounded norms, factor complexity."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from bratlap import asymptotics
from bratlap.asymptotics import (
    AsymptoticsError,
    factor_complexity,
    heat_trace,
    magnitude_table,
    ols_loglog,
    weyl_count,
    weyl_margins,
)
from bratlap.cuntz import affine_table
from bratlap.diagram import SubstitutionRule, build_diagram, predicted_path_count
from bratlap.measure import WeightSystem, perron
from bratlap.presets import load_preset, preset_names
from bratlap.scalar import QuadraticBackend, RationalBackend
from oracles import (_SuffixAutomaton, full_spectrum, generation_max, heat_trace_by_t,
                     norm_bound_check, path_range, spectrum_multiset)

Q5 = QuadraticBackend(5)
RAT = RationalBackend()
FIB_A = ((1, 1), (1, 0))
TM_A = ((1, 1), (1, 1))
PEN_A = ((2, 1), (1, 1))

FIB_RULE = SubstitutionRule.from_strings({"a": "ab", "b": "a"})
TM_RULE = SubstitutionRule.from_strings({"0": "01", "1": "10"})


def fib_setup(s=1):
    d = build_diagram(FIB_A)
    ws = WeightSystem(d, perron(d, Q5))
    return affine_table(ws, s)


def tm_setup(s=1):
    d = build_diagram(TM_A, letters=("0", "1"))
    ws = WeightSystem(d, perron(d, RAT))
    return affine_table(ws, s)


def penrose_setup(s=2):
    d = build_diagram(PEN_A, symmetry_order=20)
    ws = WeightSystem(d, perron(d, Q5, dimension=2))
    return affine_table(ws, s)


def test_magnitude_table_matches_full_spectrum():
    table = fib_setup()
    spec = magnitude_table(table, 6)
    ws = table.ws
    expected = sorted(abs(v) for v in spectrum_multiset(full_spectrum(ws, 6, 1)))
    values, mults = spec.flatten()
    got = sorted(np.repeat(values, mults).tolist())
    assert np.allclose(got, expected, atol=1e-9)


def test_magnitude_table_counts_penrose():
    table = penrose_setup()
    spec = magnitude_table(table, 8)
    assert spec.total_multiplicity() == predicted_path_count(table.diagram, 9)


def _per_path_magnitudes(table, depth):
    """Reference oracle: the affine recursion expanded from the direct
    generation <= 1 records with one float per path class, keyed by (first
    vertex, seed range vertex), nothing merged; per generation,
    {|eigenvalue|: total weight}."""
    seeds = full_spectrum(table.ws, 1, table.s)
    diagram = table.diagram
    g = diagram.symmetry_order
    out_deg = [len(diagram.out_edges[v]) for v in range(diagram.n_letters)]
    in_edges = [[ei for ei, e in enumerate(diagram.edges) if e.target == v]
                for v in range(diagram.n_letters)]
    gen0 = {0.0: 1}
    for rec in seeds:
        if rec.label == "root":
            gen0[abs(rec.value_float)] = gen0.get(abs(rec.value_float), 0) + rec.multiplicity
    state = {(z, z): np.array([v]) for z, v in (
        (path_range(diagram, rec.path), rec.value_float)
        for rec in seeds if rec.label == "path" and rec.generation == 1)}
    out = [gen0]
    for gen in range(1, depth + 1):
        if gen > 1:
            nxt = {}
            for (v1, z), arr in state.items():
                for ei in in_edges[v1]:
                    e = diagram.edges[ei]
                    nxt.setdefault((e.source, z), []).append(
                        table.lam_float * arr + table.betas_float[ei])
            state = {key: np.concatenate(parts) for key, parts in nxt.items()}
        acc = {}
        for (v1, z), arr in state.items():
            for x in np.abs(arr).tolist():
                acc[x] = acc.get(x, 0) + g * (out_deg[z] - 1)
        out.append(acc)
    return out


@pytest.mark.parametrize("preset", preset_names())
def test_magnitude_table_bit_identical_to_per_path_oracle(preset):
    # states merge by (parent state, beta class) only, so every magnitude
    # equals the per-path expansion's float exactly, with its summed weight
    bundle = load_preset(preset)
    ws = bundle.weight_system
    for s in sorted({0, 1, bundle.dimension}):
        table = affine_table(ws, s)
        spec = magnitude_table(table, 10)
        got = []
        for mags, wts in zip(spec.magnitudes, spec.weights):
            acc = {}
            for x, w in zip(mags.tolist(), wts.tolist()):
                acc[x] = acc.get(x, 0) + w
            got.append(acc)
        assert len(spec.magnitudes) == 11
        assert got == _per_path_magnitudes(table, 10), (preset, s)


@pytest.mark.parametrize("preset", preset_names())
def test_count_is_the_weighted_number_of_magnitudes_at_most_t(preset):
    bundle = load_preset(preset)
    for s in sorted({0, 1, bundle.dimension}):
        spec = magnitude_table(affine_table(bundle.weight_system, s), 8)
        values, mults = spec.flatten()
        distinct = np.unique(values)
        # every step, every gap between steps, and both ends
        ts = np.concatenate((distinct, (distinct[:-1] + distinct[1:]) / 2,
                             [distinct[0] - 1.0, 2.0 * distinct[-1] + 1.0]))
        for t, n in zip(ts.tolist(), spec.count(ts).tolist()):
            assert n == int(mults[values <= t].sum()), (preset, s, t)


def test_magnitude_table_keeps_one_entry_per_state():
    table = penrose_setup(s=1)
    spec = magnitude_table(table, 16)
    assert sum(m.size for m in spec.magnitudes) <= 131_072
    assert spec.total_multiplicity() == predicted_path_count(table.diagram, 17)


def test_magnitude_table_refuses_depth_beyond_int64_weights():
    table = tm_setup()
    with pytest.raises(AsymptoticsError, match="int64 bound for this diagram is depth 61"):
        magnitude_table(table, 62)


def test_magnitude_table_refuses_values_beyond_float_range():
    # at s = -100, Lambda_s = 2**102 carries the magnitudes past 1e308
    table = tm_setup(s=-100)
    with np.errstate(all="raise"):       # and no numpy warning on the way
        with pytest.raises(AsymptoticsError, match="float range at generation"):
            magnitude_table(table, 12)


def test_weyl_fibonacci_slope():
    table = fib_setup()
    spec = magnitude_table(table, 18)
    result = weyl_count(spec, table.lam_float)
    assert 0.40 <= result.fit.slope <= 0.60
    counts = [c for _, c in result.samples]
    assert counts == sorted(counts)


def test_weyl_fibonacci_s0_slope():
    table = fib_setup(s=0)
    spec = magnitude_table(table, 18)
    result = weyl_count(spec, table.lam_float)
    # target d/(d - s + 2) = 1/3
    assert 0.25 <= result.fit.slope <= 0.42


def test_weyl_total_count():
    table = tm_setup()
    spec = magnitude_table(table, 8)
    values, mults = spec.flatten()
    top = float(values.max())
    n_at_top = int(mults[values <= top].sum())
    assert n_at_top == spec.total_multiplicity() == 2 ** 9  # |Pi_9|


def test_weyl_grid_beyond_coverage_rejected():
    table = fib_setup()
    spec = magnitude_table(table, 8)
    with pytest.raises(AsymptoticsError):
        weyl_count(spec, table.lam_float, grid=[1e9])


def test_weyl_count_refuses_lambda_at_most_one():
    # Lambda_s = theta^((d+2-s)/d) is 1 at s = d+2 and below 1 past it,
    # where the magnitudes no longer grow
    table = tm_setup()
    spec = magnitude_table(table, 6)
    for lam in (1.0, 0.5, 0.0):
        with pytest.raises(AsymptoticsError, match=r"needs Lambda > 1 \(s < d\+2\)"):
            weyl_count(spec, lam)


def test_weyl_margins_thue_morse():
    table = tm_setup()
    spec = magnitude_table(table, 12)
    bounds = {"lower": (0.5, 6 / 7, 10 / 7), "upper": (1.0, 6 / 7, 4 / 7)}
    rows = weyl_margins(spec, bounds)
    by_mag = {round(r.magnitude): r for r in rows}
    assert by_mag[4].count == 2
    assert by_mag[18].count == 4
    assert by_mag[18].upper == pytest.approx(4.0, abs=1e-9)
    assert by_mag[18].upper_ok and by_mag[18].lower_ok
    # the upper bound is met with equality at every eigenvalue magnitude
    for r in rows:
        assert r.count == pytest.approx(r.upper, abs=1e-6)
        assert r.lower <= r.count


def test_heat_trace_fibonacci_scaling():
    table = fib_setup()
    grid = np.geomspace(1e-8, 1e-3, 21)
    result = heat_trace(table, grid)
    assert -0.60 <= result.fit.slope <= -0.40
    assert all(tail < 1e-9 for _, _, tail in result.samples)
    traces = [tr for _, tr, _ in result.samples]
    assert traces == sorted(traces, reverse=True)


def test_heat_trace_limit_is_one():
    table = fib_setup()
    result = heat_trace(table, [50.0])
    assert result.samples[0][1] == pytest.approx(1.0, abs=1e-20)


def test_heat_trace_bracket_consistency():
    table = fib_setup()
    t = 1e-4
    base = heat_trace(table, [t], depth=20)
    deeper = heat_trace(table, [t], depth=22)
    tr0, tail0 = base.samples[0][1], base.samples[0][2]
    tr2 = deeper.samples[0][1]
    assert tr0 <= tr2 <= tr0 + tail0


def test_heat_trace_penrose_scaling():
    table = penrose_setup()
    grid = np.geomspace(1e-6, 1e-2, 17)
    result = heat_trace(table, grid)
    assert -1.15 <= result.fit.slope <= -0.85


def test_heat_trace_infeasible_tail():
    table = fib_setup()
    with pytest.raises(AsymptoticsError):
        heat_trace(table, [1e-9], depth=10)


def _heat_table(preset):
    ws = load_preset(preset).weight_system
    return affine_table(ws, ws.dimension)   # heat runs at s = d


@pytest.mark.parametrize("preset", preset_names())
def test_heat_trace_matches_the_per_t_loop(preset):
    # the whole grid in one array per generation forms every float the
    # per-t loop forms: the same samples, bit for bit, and the same depth
    table = _heat_table(preset)
    # the largest depth the CLI takes, where t Lambda^m overflows at t = 1e2
    largest = math.ceil(sys.float_info.max_exp / math.log2(table.lam_float)) - 3
    default, wide = np.geomspace(1e-8, 1e-3, 21), np.geomspace(1e-4, 1e2, 33)
    for grid, depth in ((default, None), ([1e-3], None), (wide, None), (wide, largest),
                        (default, 30)):
        new, old = heat_trace(table, grid, depth), heat_trace_by_t(table, grid, depth)
        assert (new.samples, new.depth) == (old.samples, old.depth), (len(grid), depth)


def test_heat_trace_matches_the_per_t_loop_on_the_grid_cap():
    table = _heat_table("fibonacci")
    grid = np.geomspace(1e-8, 1e-3, 10_000)
    new, old = heat_trace(table, grid), heat_trace_by_t(table, grid)
    assert (new.samples, new.depth) == (old.samples, old.depth)


def test_norm_bound_fibonacci_s4_degenerate():
    # at s = 4, d = 1 the splitting weight is letter-independent and the
    # eigenvalue sum telescopes: the whole nonzero spectrum is -phi^3, the
    # running sup is constant, and every increment vanishes identically
    table = fib_setup(s=4)
    alpha = 1 / ((1 + 5 ** 0.5) / 2)
    assert table.lam_float == pytest.approx(alpha, abs=1e-12)
    report = norm_bound_check(table, depth=15)
    assert report.within_bound
    phi3 = ((1 + 5 ** 0.5) / 2) ** 3
    assert report.sup_total == pytest.approx(phi3, abs=1e-9)
    sups = [v for _, v in report.sup_by_generation]
    assert all(abs(v - phi3) < 1e-9 for v in sups)
    assert report.increment_ratios == []


def test_norm_bound_thue_morse_s4_degenerate():
    table = tm_setup(s=4)
    assert table.lam_float == pytest.approx(0.5, abs=1e-15)
    report = norm_bound_check(table, depth=12)
    assert report.within_bound
    assert report.bound == pytest.approx(2 * report.c_constant, abs=1e-12)
    assert report.sup_total == pytest.approx(4.0, abs=1e-12)


def test_norm_bound_penrose_s5_geometric_decay():
    # with two splitting letters the bounded-regime spectrum is not constant,
    # and the running-sup increments genuinely decay at ratio Lambda
    table = penrose_setup(s=5)
    lam = table.lam_float
    assert lam == pytest.approx(1 / ((1 + 5 ** 0.5) / 2), rel=1e-9)
    report = norm_bound_check(table, depth=16)
    assert report.within_bound
    late = report.increment_ratios[6:]
    assert late
    for ratio in late:
        assert ratio == pytest.approx(lam, rel=0.05)


def test_norm_bound_rejects_unbounded_regime():
    table = fib_setup(s=1)
    with pytest.raises(AsymptoticsError):
        norm_bound_check(table)


def test_complexity_fibonacci_word():
    result = factor_complexity(FIB_RULE, 200)
    assert result.counts == tuple(n + 1 for n in range(1, 201))
    assert result.nu(200) == pytest.approx(math.log(201) / math.log(200), abs=1e-12)


def test_complexity_thue_morse_small():
    result = factor_complexity(TM_RULE, 12)
    assert result.counts[:4] == (2, 4, 6, 10)
    # monotone, and bounded by alphabet growth
    for i in range(11):
        assert result.counts[i] <= result.counts[i + 1] <= 2 * result.counts[i]


def test_complexity_seed_rotation():
    # a -> baa starts with b, and b -> ba starts with b itself: b is the seed
    # at power 1, found before any cycle search
    conj = SubstitutionRule.from_strings({"a": "baa", "b": "ba"})
    result = factor_complexity(conj, 50)
    assert result.counts[0] == 2
    assert all(result.counts[i] < result.counts[i + 1] for i in range(49))


def _thue_morse_complexity(n: int) -> int:
    """Brlek (1989), de Luca and Varricchio (1989): p(1) = 2, p(2) = 4, and
    for n >= 3, with n - 1 = 2^r + q and 0 < q <= 2^r, p(n) = 6 * 2^(r-1) + 4q
    when q <= 2^(r-1), else 8 * 2^(r-1) + 2q."""
    if n <= 2:
        return 2 * n
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2 ** r
    return 3 * 2 ** r + 4 * q if 2 * q <= 2 ** r else 4 * 2 ** r + 2 * q


def test_complexity_seed_found_on_a_cycle():
    # a -> ba and b -> ab: no letter's image starts with itself, so the seed
    # search follows a -> b -> a and takes a under the square of the rule,
    # whose fixed point a b b a b a a b ... is the thue-morse word
    rule = SubstitutionRule.from_strings({"a": "ba", "b": "ab"})
    assert asymptotics._fixed_point_seed(rule) == ("a", 2)
    result = factor_complexity(rule, 60)
    assert result.counts[:8] == (2, 4, 6, 10, 12, 16, 20, 22)
    assert result.counts == tuple(_thue_morse_complexity(n) for n in range(1, 61))
    assert result.counts == factor_complexity(TM_RULE, 60).counts


def _automaton_counts(word, n_max: int) -> list[int]:
    automaton = _SuffixAutomaton()
    for ch in word:
        automaton.extend(ch)
    return automaton.factor_counts(n_max)


def test_complexity_extends_one_automaton(monkeypatch):
    # the counted rounds are the prefixes of 8,192 and 16,384 letters of the
    # thue-morse word, each extending the last, and their counts are those
    # of a suffix automaton that reads the last prefix letter by letter
    count = asymptotics._factor_counts
    calls = []

    def counted(word, n_max):
        calls.append(word.tolist())
        return count(word, n_max)

    monkeypatch.setattr(asymptotics, "_factor_counts", counted)
    result = factor_complexity(TM_RULE, 2000)
    assert (result.rounds, result.word_length) == (13, 16384)
    assert [len(word) for word in calls] == [8192, 16384]
    assert calls[1][:8192] == calls[0]
    assert result.counts == tuple(_automaton_counts(calls[-1], 2000))


@pytest.mark.parametrize("seed", range(8))
def test_factor_counts_match_the_suffix_automaton(seed):
    # words of 2 to 4 letters and up to 3,000 letters, and every n_max up to
    # a quarter of their length: past n_max = 16 (4 letters) or 32 (2), two
    # packed keys no longer fit an int64, so prefix doubling ranks them
    rng = np.random.default_rng(seed)
    size = int(rng.integers(4, 3001)) if seed else 3000
    word = rng.integers(1, 3 + seed % 3, size)
    expected = _automaton_counts(word.tolist(), size // 4)
    for n_max in range(1, size // 4 + 1):
        assert asymptotics._factor_counts(word, n_max) == expected[:n_max], n_max


@pytest.mark.parametrize("name", ["dyadic-odometer", "fibonacci", "fibonacci-conjugate",
                                  "thue-morse"])
def test_complexity_matches_the_suffix_automaton(name):
    rule = load_preset(name).rule
    seed, power = asymptotics._fixed_point_seed(rule)
    for n_max in (1, 2, 3, 10, 77, 500):
        result = factor_complexity(rule, n_max)
        word = [seed]
        while len(word) < result.word_length:
            for _ in range(power):
                word = [ch for letter in word for ch in rule.image(letter)]
        assert result.counts == tuple(_automaton_counts(word[:result.word_length], n_max))


def test_complexity_rejects_higher_dimension():
    rule = SubstitutionRule.from_strings({"a": "ab", "b": "a"}, dimension=2)
    with pytest.raises(AsymptoticsError):
        factor_complexity(rule, 10)


def test_generation_max_growth_ratio():
    # below the bounded regime the per-generation max |lambda| grows by the
    # recursion factor Lambda, within 2% beyond generation 6
    for setup in (fib_setup, tm_setup, penrose_setup):
        table = setup()
        spec = magnitude_table(table, 12)
        maxes = generation_max(spec)
        for n in range(7, 12):
            ratio = maxes[n + 1] / maxes[n]
            assert ratio == pytest.approx(table.lam_float, rel=0.02), (setup, n)


def test_ols_loglog_recovers_power_law():
    xs = np.geomspace(1, 1e6, 30)
    ys = 3.5 * xs ** 0.5
    fit = ols_loglog(xs, ys)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.residual < 1e-12


def _counting_loop_raises(rule: SubstitutionRule, n_max: int, cap: int) -> bool:
    """Whether the counting loop of `factor_complexity` as it ran without a
    refusal up front passes `cap` letters before it returns: the prefix
    grows by `power` substitutions a round, and from the first round of at
    least 4 * n_max letters it returns once the factor counts of two
    successive rounds agree.  Factors are counted as sets of slices."""
    seed, power = asymptotics._fixed_point_seed(rule)
    word, prev = [seed], None
    for _ in range(power):
        word = [ch for letter in word for ch in rule.image(letter)]
    while True:
        for _ in range(power):
            word = [ch for letter in word for ch in rule.image(letter)]
        if len(word) > cap:
            return True
        if len(word) < 4 * n_max:
            continue
        counts = [len({tuple(word[i:i + n]) for i in range(len(word) - n + 1)})
                  for n in range(1, n_max + 1)]
        if counts == prev:
            return False
        prev = counts


@pytest.mark.parametrize("name", ["dyadic-odometer", "fibonacci", "fibonacci-conjugate",
                                  "thue-morse"])
def test_complexity_refuses_a_hopeless_nmax_before_building(name, monkeypatch):
    """Under a small prefix cap, factor_complexity refuses exactly the n_max
    whose counting loop would pass the cap, with its message, and does so
    before any letter is counted."""
    rule = load_preset(name).rule
    count, reads = asymptotics._factor_counts, []

    def counted(word, n_max):
        reads.extend(word.tolist())
        return count(word, n_max)

    monkeypatch.setattr(asymptotics, "_factor_counts", counted)
    outcomes = set()
    for cap in (16, 100, 500):
        monkeypatch.setattr(asymptotics, "MAX_PREFIX_LENGTH", cap)
        for n_max in range(1, 41):
            reads.clear()
            try:
                factor_complexity(rule, n_max)
                refused = False
            except AsymptoticsError as exc:
                assert str(exc) == f"fixed-point prefix exceeded {cap} letters"
                refused = True
            assert refused == _counting_loop_raises(rule, n_max, cap), (cap, n_max)
            assert not (refused and reads), (cap, n_max)
            outcomes.add(refused)
    assert outcomes == {True, False}
