"""Path operators, the affine recursion, the lattice embedding, strip bounds."""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bratlap import asymptotics, cuntz, laplacian
from bratlap.cli import main
from bratlap.cuntz import (
    CuntzError,
    affine_table,
    ck_relations_check,
    companion_embedding,
    lattice_coords,
    path_shift_down,
    path_shift_up,
    strip_check,
)
from bratlap.diagram import (EMPTY_PATH, Path, build_diagram, enumerate_paths, path_counts,
                             predicted_path_count)
from bratlap.laplacian import g_value
from bratlap.measure import WeightSystem, _theta_certificate, mu, perron
from bratlap.presets import PRESETS, load_preset, preset_names
from bratlap.scalar import (ApproxBackend, ApproxReal, QuadraticBackend, RationalBackend,
                            compare)
from oracles import (apply, distance_to_unstable, full_spectrum, path_key, recursive_spectrum,
                     strip_distances, walked_spectrum)

Q5 = QuadraticBackend(5)
RAT = RationalBackend()
PHI = Q5.make((Fraction(1, 2), Fraction(1, 2)))

FIB_A = ((1, 1), (1, 0))
TM_A = ((1, 1), (1, 1))
PEN_A = ((2, 1), (1, 1))
FIB_CONJ_A = ((2, 1), (1, 1))


def reconstruct_from_coords(embedding, coords) -> float:
    """The float value of lattice coordinates: sum of c_i x^i at x = basis_float."""
    return float(sum(float(c) * embedding.basis_float ** i for i, c in enumerate(coords)))


def strip_coordinates(embedding, table, depth):
    """strip_check's report, and the lattice coordinates it grew for the
    records of recursive_spectrum(table, depth), in their order: the seeds'
    expanded from their values, the others read off the recursion states as
    numerators over the lcm of the betas' and seeds' denominators."""
    levels = []
    grow = cuntz._lattice_levels

    def spy(*args):
        for states, index in grow(*args):
            levels.append([tuple(states[i]) for i in index.tolist()])
            yield states, index

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuntz, "_lattice_levels", spy)
        report = strip_check(embedding, table, depth)
    seeds = [lattice_coords(embedding, rec.value) for rec in recursive_spectrum(table, 1)]
    den = math.lcm(*(c.denominator for vec in seeds for c in vec),
                   *(c.denominator for b in table.betas for c in lattice_coords(embedding, b)))
    coords = seeds + [tuple(Fraction(n, den) for n in nums)
                      for level in levels for nums in level]
    return report, coords


def system(diagram, backend, dimension=1, **kwargs):
    return WeightSystem(diagram, perron(diagram, backend, dimension), **kwargs)


def fib_ws():
    return system(build_diagram(FIB_A), Q5)


def tm_ws():
    return system(build_diagram(TM_A, letters=("0", "1")), RAT)


def dyadic_ws():
    return system(build_diagram([[2]]), RAT)


def penrose_ws(g=20, backend=None):
    return system(build_diagram(PEN_A, symmetry_order=g), backend or Q5, 2)


def test_shift_down_composable():
    d = build_diagram(FIB_A)
    aa = Path(0, (0,))
    down = path_shift_down(d, 0, aa)     # insert a->a on top
    assert down == Path(0, (0, 0))
    assert path_shift_down(d, 1, aa) is None   # a->b has range b != source a
    ba = Path(1, (2,))
    down2 = path_shift_down(d, 1, ba)    # a->b composes with b->a, re-roots at a
    assert down2 == Path(0, (1, 2))


def test_shift_down_preserves_slot():
    d = build_diagram(PEN_A, symmetry_order=20)
    start_b = Path(d.root_edge_index(1, slot=7), (d.out_edges[1][0],))  # b.a
    e3 = next(i for i, e in enumerate(d.edges) if (e.source, e.target) == (0, 1))
    down = path_shift_down(d, e3, start_b)
    assert down is not None
    assert d.root_edges[down.root] == d.root_edges[d.root_edge_index(0, slot=7)]


def test_shift_up_partial_inverse():
    d = build_diagram(TM_A, letters=("0", "1"))
    for gamma in enumerate_paths(d, 3).paths:
        for ei in range(len(d.edges)):
            down = path_shift_down(d, ei, gamma)
            if down is not None:
                assert path_shift_up(d, ei, down) == gamma
    gamma = enumerate_paths(d, 3).paths[0]
    wrong = next(ei for ei in range(len(d.edges)) if ei != gamma.edges[0])
    assert path_shift_up(d, wrong, gamma) is None


def test_shift_guards():
    d = build_diagram(FIB_A)
    with pytest.raises(CuntzError):
        path_shift_down(d, 0, Path(0))
    with pytest.raises(CuntzError):
        path_shift_up(d, 0, Path(0, (0,)))


def test_ck_relations_pass():
    assert ck_relations_check(build_diagram(FIB_A), 5).ok
    assert ck_relations_check(build_diagram(TM_A), 5).ok
    assert ck_relations_check(build_diagram(PEN_A, symmetry_order=4), 4).ok


def test_ck_relations_negative_control():
    d = build_diagram(FIB_A)
    good = tuple(tuple(1 if e.target == f.source else 0 for f in d.edges)
                 for e in d.edges)
    corrupted = [list(row) for row in good]
    corrupted[0][2] = 1 - corrupted[0][2]
    report = ck_relations_check(d, 4, adjacency=corrupted)
    assert not report.ok
    assert report.failures


def test_affine_table_thue_morse():
    table = affine_table(tm_ws(), 1)
    assert table.lam == Fraction(4)
    assert table.betas == (Fraction(-2),) * 4
    assert table.calibration_checks > 0


def test_affine_table_dyadic():
    # single root edge: the root correction terms vanish entirely
    table = affine_table(dyadic_ws(), 1)
    assert table.lam == Fraction(4)
    assert table.betas == (Fraction(-2), Fraction(-2))


def test_affine_table_fibonacci():
    table = affine_table(fib_ws(), 1)
    assert table.lam == PHI * PHI
    # edges in order a->a, a->b, b->a; the beta sign follows the inserted
    # edge's source vertex
    assert table.betas == (-PHI, -PHI, PHI)


def test_affine_table_fibonacci_conjugate_scaling():
    a = ((2, 1), (1, 1))
    ws = system(build_diagram(a), Q5)
    table = affine_table(ws, 1)
    assert table.lam == PHI ** 4       # theta^2 with theta = phi^2


def test_lambda_fallback_uses_configured_precision():
    # Lambda_{1/2} = 2^(5/2) leaves Q, so it falls back at the weight
    # system's precision, as the betas do
    ws = system(build_diagram(TM_A, letters=("0", "1")), RAT, approx_bits=100)
    table = affine_table(ws, Fraction(1, 2))
    assert table.lam.precision == ws.approx_bits == 100
    assert {b.precision for b in table.betas} == {100}


def test_affine_table_penrose():
    table = affine_table(penrose_ws(), 2)
    assert table.lam == PHI * PHI
    assert len(table.betas) == 5
    assert table.calibration_checks > 0


# the comparisons each preset's proof makes: the memo's scaling identities at
# n = 1, 2 and 3, one per (splitting vertex, child vertex) plus one final
# term per splitting vertex, and the generation-2 (record, edge) relations,
# counted one by one; they do not depend on s
CALIBRATION_CHECKS = {"fibonacci": 12, "fibonacci-conjugate": 31, "thue-morse": 26,
                      "dyadic-odometer": 10, "penrose": 278, "ammann-a2": 70}


@pytest.mark.parametrize("name", preset_names())
def test_calibration_counts_every_relation(name):
    # each (direct state, parent state, beta class) is compared once, but
    # every (record, edge) relation it proves is counted
    backends = [None, "quadratic:5"] if name.startswith("fibonacci") else [None]
    for backend in backends:
        ws = load_preset(name, backend=backend).weight_system
        for s in (-1, 0, Fraction(1, 2), 1, 2, 3):
            assert affine_table(ws, s).calibration_checks == CALIBRATION_CHECKS[name], \
                (backend, s)


# the first failing generation-2 relation in (root, edges) order, checked
# relation by relation, once every beta of the last class is raised by one
LAST_CLASS_FAILURES = {
    ("fibonacci", 0): "edge 2 over a.a: direct -353.6493702224834 vs map -352.6493702224834",
    ("fibonacci", 2): "edge 2 over a.a: direct -24.798373876248846 vs map -23.798373876248846",
    ("fibonacci-conjugate", 0):
        "edge 3 over a.a(1): direct -4356.6538168825455 vs map -4355.6538168825455",
    ("fibonacci-conjugate", 2):
        "edge 3 over a.a(1): direct -48.87314095474771 vs map -47.87314095474771",
    ("thue-morse", 0): "edge 0 over 0.0: direct -2194.0 vs map -2193.0",
    ("thue-morse", 2): "edge 0 over 0.0: direct -46.0 vs map -45.0",
    ("dyadic-odometer", 0): "edge 0 over a.a(1): direct -274.0 vs map -273.0",
    ("dyadic-odometer", 2): "edge 0 over a.a(1): direct -22.0 vs map -21.0",
    ("penrose", 0): "edge 4 over b[0].a: direct -188385.19819760494 vs map -188384.19819760494",
    ("penrose", 2): "edge 4 over b[0].a: direct -1040.782756093744 vs map -1039.782756093744",
    ("ammann-a2", 0): "edge 4 over b[0].a: direct -7537.41136784704 vs map -7536.41136784704",
    ("ammann-a2", 2):
        "edge 4 over b[0].a: direct -209.83759351138485 vs map -208.83759351138485",
}


@pytest.mark.parametrize("name, s", LAST_CLASS_FAILURES, ids=str)
def test_calibration_failure_in_the_last_beta_class(name, s, monkeypatch):
    # a wrong beta in the class seen last is still caught, and the relation
    # named is the first failing one in (root, edges) order
    prove = cuntz._prove_recursion

    def perturbed(cache, levels, paths, lam, betas):
        last = list(dict.fromkeys((type(b), b) for b in betas))[-1]
        return prove(cache, levels, paths, lam, [b + 1 if (type(b), b) == last else b
                                                 for b in betas])

    monkeypatch.setattr(cuntz, "_prove_recursion", perturbed)
    with pytest.raises(CuntzError) as info:
        affine_table(load_preset(name).weight_system, s)
    assert str(info.value) == ("affine-table self-calibration failed on "
                               + LAST_CLASS_FAILURES[name, s])


@pytest.mark.parametrize("name", preset_names())
def test_scaling_identities_catch_a_generation_four_term(name, monkeypatch):
    # the generation-2 relations read no generation-4 term; the identity at
    # n = 3 -> 4 does, so a wrong final term there is still caught
    final_at = cuntz.StationaryCache.final_at

    def perturbed(cache, a, n):
        value = final_at(cache, a, n)
        return value + 1 if n == 4 else value

    monkeypatch.setattr(cuntz.StationaryCache, "final_at", perturbed)
    for s in (0, 2):
        with pytest.raises(CuntzError, match="scaling identity failed: final at .*, "
                                             "generation 4, is "):
            affine_table(load_preset(name).weight_system, s)


def test_seed_extension_property():
    # the gen-1 eigenvalue is the affine image of the root eigenvalue
    ws = tm_ws()
    table = affine_table(ws, 1)
    seeds = recursive_spectrum(table, 1)
    root = next(r for r in seeds if r.label == "root")
    gen1 = next(r for r in seeds if r.label == "path")
    assert apply(table, 0, root.value) == gen1.value


def test_recursion_chain_thue_morse():
    ws = tm_ws()
    table = affine_table(ws, 1)
    records = recursive_spectrum(table, 3)
    per_gen = {}
    for r in records:
        if r.label == "path":
            per_gen.setdefault(r.generation, set()).add(r.value)
    assert per_gen[1] == {Fraction(-18)}
    assert per_gen[2] == {Fraction(-74)}
    assert per_gen[3] == {Fraction(-298)}


def test_recursion_matches_direct_fibonacci():
    ws = fib_ws()
    table = affine_table(ws, 1)
    rec = recursive_spectrum(table, 8)
    direct = full_spectrum(ws, 8, 1)
    assert Counter((r.value, r.multiplicity) for r in rec) == \
        Counter((r.value, r.multiplicity) for r in direct)


def test_recursion_depth_zero_and_one():
    ws = fib_ws()
    table = affine_table(ws, 1)
    seeds = full_spectrum(ws, 1, 1)
    assert recursive_spectrum(table, 0) == seeds
    assert recursive_spectrum(table, 1) == seeds


def test_companion_fibonacci():
    pdata = perron(build_diagram(FIB_A), Q5)
    emb = companion_embedding(pdata, 1)
    assert pdata.min_poly == (-1, -1, 1)
    assert emb.matrix == ((1, 1), (1, 2))
    assert emb.pisot and emb.hyperbolic
    assert emb.action_verified == "exact"
    assert emb.stable_norm == pytest.approx(float(2 / (1 + 5 ** 0.5)) ** 2, abs=1e-12)


def test_companion_thue_morse_scalar():
    emb = companion_embedding(perron(build_diagram(TM_A), RAT), 1)
    assert emb.degree == 1
    assert emb.matrix == ((4,),)
    assert emb.pisot


def test_companion_penrose():
    pdata = perron(build_diagram(PEN_A), Q5, dimension=2)
    emb = companion_embedding(pdata, 2)
    assert pdata.min_poly == (1, -3, 1)
    assert emb.matrix == ((0, -1), (1, 3))
    mods = sorted(abs(e) for e in emb.eigenvalues)
    phi2 = float(PHI * PHI)
    assert mods[1] == pytest.approx(phi2, abs=1e-9)
    assert mods[0] == pytest.approx(1 / phi2, abs=1e-9)
    assert emb.pisot


def test_lattice_coords_examples():
    emb_tm = companion_embedding(perron(build_diagram(TM_A), RAT), 1)
    assert lattice_coords(emb_tm, Fraction(-18)) == (Fraction(-18),)
    emb_fib = companion_embedding(perron(build_diagram(FIB_A), Q5), 1)
    lam0 = -(2 * PHI + 1)
    assert lattice_coords(emb_fib, lam0) == (Fraction(-1), Fraction(-2))


def fib_conj_ws():
    return system(build_diagram(FIB_CONJ_A), Q5)


# fibonacci repeats no step; penrose repeats each step across its 20 root
# slots; fibonacci-conjugate across its two parallel a -> a edges
@pytest.mark.parametrize("ws_factory, s, depth", [
    (fib_ws, 1, 6),
    (penrose_ws, 2, 5),
    (fib_conj_ws, 1, 6),
], ids=["fibonacci", "penrose", "fibonacci-conjugate"])
def test_coords_recursion_homomorphism(ws_factory, s, depth):
    ws = ws_factory()
    table = affine_table(ws, s)
    records = recursive_spectrum(table, depth)
    direct = {(r.label, r.path): r for r in full_spectrum(ws, depth, s)}
    # the same records as the direct formula, path by path
    assert len(records) == len(direct)
    for rec in records:
        ref = direct[(rec.label, rec.path)]
        assert (rec.path, rec.value, rec.value_float) == \
            (ref.path, ref.value, ref.value_float)


@pytest.mark.parametrize("name", preset_names())
def test_recursion_generations_in_path_order(name):
    # the level engine emits each generation in (root, edges) order without
    # sorting it
    bundle = load_preset(name)
    records = recursive_spectrum(affine_table(bundle.weight_system, bundle.dimension), 6)
    for gen in range(1, 7):
        level = [rec for rec in records if rec.generation == gen]
        assert level, gen
        assert level == sorted(level, key=lambda rec: (rec.path.root, rec.path.edges)), gen


# the three recursions above at s = d, and each at another s where strip
# runs; thue-morse's lattice is a line (degree 1), and at depth 1 nothing
# grows past the seeds
@pytest.mark.parametrize("ws_factory, s, depth", [
    (fib_ws, 1, 6),
    (fib_ws, -1, 8),
    (penrose_ws, 2, 5),
    (penrose_ws, 0, 5),
    (fib_conj_ws, 1, 6),
    (fib_conj_ws, 0, 6),
    (tm_ws, 1, 7),
    (tm_ws, 0, 6),
    (fib_ws, 1, 1),
], ids=["fibonacci", "fibonacci-s-1", "penrose", "penrose-s0", "fibonacci-conjugate",
        "fibonacci-conjugate-s0", "thue-morse", "thue-morse-s0", "fibonacci-depth-1"])
def test_strip_matches_per_path_oracle(ws_factory, s, depth):
    # strip grows labels, coordinates and distances by recursion state, and
    # measures a generation's states in one batch; path by path they must
    # equal format_path, the field expansion of the value and the distance
    # of that expansion measured on its own, bit for bit
    ws = ws_factory()
    table = affine_table(ws, s)
    emb = companion_embedding(ws.perron, s)
    records = recursive_spectrum(table, depth)
    report, coords = strip_coordinates(emb, table, depth)
    distances = strip_distances(report)
    assert len(distances) == len(coords) == len(records)
    for rec, (label, dist), got in zip(records, distances, coords):
        assert label == (rec.label if rec.path is None else ws.diagram.format_path(rec.path))
        assert got == lattice_coords(emb, rec.value), label
        assert reconstruct_from_coords(emb, got) == \
            pytest.approx(rec.value_float, rel=1e-12, abs=1e-9), label
        assert dist == distance_to_unstable(emb, lattice_coords(emb, rec.value)), label
    per_gen = {}
    for rec, (_, dist) in zip(records, distances):
        per_gen[rec.generation] = max(per_gen.get(rec.generation, 0.0), dist)
    assert report.per_generation == sorted(per_gen.items())
    assert report.max_distance == max(per_gen.values())


@pytest.mark.parametrize("ws_factory", [fib_ws, tm_ws], ids=["plane", "line"])
def test_batched_distances_match_the_per_vector_oracle(ws_factory):
    # the batch measures each row as the row alone would be measured, bit for
    # bit, from small points to ones near 1e22; an empty generation gives none
    ws = ws_factory()
    emb = companion_embedding(ws.perron, 1)
    rng = np.random.default_rng(5)
    coords = np.concatenate([rng.standard_normal((200, emb.degree)) * scale
                             for scale in (1.0, 1e8, 1e16, 1e22)])
    got = emb.distance_to_unstable(coords)
    assert got.tolist() == [distance_to_unstable(emb, row) for row in coords]
    empty = emb.distance_to_unstable(np.empty((0, emb.degree)))
    assert empty.shape == (0,)


def test_coords_scalar_recursion_thue_morse():
    emb = companion_embedding(perron(build_diagram(TM_A), RAT), 1)
    c = lattice_coords(emb, Fraction(-18))
    pushed = tuple(4 * x for x in c)
    assert tuple(p + q for p, q in zip(pushed, (Fraction(-2),))) == (Fraction(-74),)


def test_strip_fibonacci_bounded():
    ws = fib_ws()
    table = affine_table(ws, 1)
    emb = companion_embedding(ws.perron, 1)
    report = strip_check(emb, table, 12)
    assert report.max_distance <= report.bound
    dist10 = max(v for g, v in report.per_generation if g <= 10)
    assert abs(report.max_distance - dist10) <= 0.01 * report.max_distance


def test_strip_thue_morse_zero():
    ws = tm_ws()
    table = affine_table(ws, 1)
    emb = companion_embedding(ws.perron, 1)
    report = strip_check(emb, table, 8)
    assert report.max_distance == 0.0


def test_strip_penrose_bounded():
    ws = penrose_ws()
    table = affine_table(ws, 2)
    emb = companion_embedding(ws.perron, 2)
    report = strip_check(emb, table, 7)
    assert report.max_distance <= report.bound
    assert report.pisot


def test_companion_embedding_field_mismatch_falls_back_to_numeric():
    # theta^(1/3) is not in Q(sqrt5): exact_power gives None
    emb3 = companion_embedding(perron(build_diagram(FIB_A), Q5, dimension=3), 3)
    assert emb3.basis_value is None
    assert emb3.action_verified == "numeric"


def test_companion_embedding_needs_exact_perron_data():
    with pytest.raises(CuntzError, match="exact Perron data"):
        companion_embedding(perron(build_diagram(FIB_A), ApproxBackend(64)), 1)


def test_companion_embedding_propagates_unexpected_errors(monkeypatch):
    pdata = perron(build_diagram(FIB_A), Q5)

    def broken(x, e):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(cuntz, "exact_power", broken)
    with pytest.raises(ZeroDivisionError):
        companion_embedding(pdata, 1)


def test_strip_refuses_non_hyperbolic():
    ws = fib_ws()
    table = affine_table(ws, 1)
    emb = companion_embedding(ws.perron, 1)
    broken = dataclasses.replace(emb, hyperbolic=False)
    with pytest.raises(CuntzError):
        strip_check(broken, table, 5)


# the s in {-1, 0, 1, 2} where strip runs: at d = 2, s = -1 and s = 1 take
# recursion constants out of Q(sqrt5)
STRIP_S = {"fibonacci": [-1, 0, 1, 2], "fibonacci-conjugate": [-1, 0, 1, 2],
           "thue-morse": [-1, 0, 1, 2], "dyadic-odometer": [-1, 0, 1, 2],
           "penrose": [0, 2], "ammann-a2": [0, 2]}


@pytest.mark.parametrize("name", preset_names())
def test_strip_coordinates_reconstruct_their_values(name):
    # the recursion grows coordinates with C_s, which multiplies by Lambda_s
    ws = load_preset(name, backend=_theta_certificate(PRESETS[name].matrix).field).weight_system
    accepted = []
    for s in (-1, 0, 1, 2):
        table = affine_table(ws, s)
        constants = (table.lam, *table.betas,
                     *(seed[0] for seed in (table.root_seed, *table.seeds) if seed))
        if any(isinstance(x, ApproxReal) for x in constants):
            continue
        accepted.append(s)
        emb = companion_embedding(ws.perron, s)
        _, grown = strip_coordinates(emb, table, 5)
        for rec, coords in zip(recursive_spectrum(table, 5), grown, strict=True):
            if emb.basis_value is not None:
                value = sum(c * emb.basis_value ** i for i, c in enumerate(coords))
                assert compare(value, rec.value) == 0, (s, rec.path)
            else:
                err = abs(reconstruct_from_coords(emb, coords) - rec.value_float)
                assert err <= 1e-12 * abs(rec.value_float), (s, rec.path)
    assert accepted == STRIP_S[name]


@pytest.mark.parametrize("s, k", [("3", "0"), ("4", "-1"), ("1/2", "5/2")])
def test_embedding_refuses_k_that_is_not_a_positive_integer(s, k):
    # theta = 4: Lambda_s = 4^(5/2) = 32 is rational at s = 1/2, but it is
    # not an integer power of x = theta
    pdata = perron(build_diagram([[4]]), RAT)
    with pytest.raises(CuntzError, match=f"at s={s} and d=1, k={k}$"):
        companion_embedding(pdata, Fraction(s))


# the golden-mean and integer presets, whose theta Q(sqrt5) holds
QUADRATIC_PRESETS = ("fibonacci", "fibonacci-conjugate", "thue-morse", "dyadic-odometer")


@pytest.mark.parametrize("name, backend",
                         [(name, None) for name in preset_names()] +
                         [(name, "quadratic:5") for name in QUADRATIC_PRESETS])
def test_affine_table_seeds_are_the_depth_one_spectrum(name, backend):
    # the seeds are the values of walk levels 0 and 1 of the memo that also
    # proves the recursion to generation 4: one per splitting vertex, shared
    # by the records of its g root edges' paths, and the root's; the memo
    # makes each scalar the same whatever the depth of the walk, bit for bit
    ws = load_preset(name, backend=backend).weight_system
    diagram = ws.diagram
    for s in (-1, 0, Fraction(1, 2), 1, 2):
        table = affine_table(ws, s)
        records = walked_spectrum(ws, 1, s)
        assert records[0].label == "zero", s
        roots = [rec for rec in records if rec.label == "root"]
        at_vertex = {z: [rec for rec in records
                         if rec.label == "path" and diagram.path_range(rec.path) == z]
                     for z in range(diagram.n_letters)}
        assert len(table.seeds) == diagram.n_letters, s
        for seed, want in [(table.root_seed, roots), *zip(table.seeds, at_vertex.values())]:
            if not want:
                assert seed is None, s
                continue
            value, value_float = seed
            for rec in want:
                assert type(value) is type(rec.value) and value == rec.value, s
                assert value_float == rec.value_float, s
        assert all(len(at_vertex[z]) == diagram.symmetry_order
                   for z, seed in enumerate(table.seeds) if seed is not None), s
        if name == "fibonacci":     # b has the one out-edge b -> a
            assert table.seeds[1] is None, s
        assert (table.root_seed is None) == (name == "dyadic-odometer"), s


def _hand_built_betas(ws, s, lam) -> list:
    """The recursion constants built term by term from mu and G: the oracle
    for affine_table's reading of the stationary memo."""
    diagram = ws.diagram
    root_split = len(diagram.root_edges) >= 2
    inv_g_root = 1 / g_value(ws, *path_key(diagram, EMPTY_PATH), s) if root_split else None
    one = ws.backend.one
    betas = []
    for edge_index, e in enumerate(diagram.edges):
        eps = Path(diagram.root_edge_index(e.target))
        eps_prime = Path(diagram.root_edge_index(e.source))
        beta = ws.backend.zero
        if root_split:
            term1 = -(lam * ((mu(ws, *path_key(diagram, eps)) - one) * inv_g_root))
            term2 = (mu(ws, *path_key(diagram, eps_prime)) - one) * inv_g_root
            beta = term1 + term2
        if len(diagram.out_edges[e.source]) >= 2:
            inc = mu(ws, *path_key(diagram, eps_prime.child(edge_index))) - \
                mu(ws, *path_key(diagram, eps_prime))
            beta = beta + inc * (1 / g_value(ws, *path_key(diagram, eps_prime), s))
        betas.append(beta)
    return betas


@pytest.mark.parametrize("name", preset_names())
def test_betas_equal_the_hand_built_formula(name):
    # equal scalars of one type: bits and precision on the approximate backend
    for backend in dict.fromkeys((PRESETS[name].recommended_backend, "quadratic:5",
                                  "approx:64")):
        ws = load_preset(name, backend=backend).weight_system
        for s in (Fraction(k, 2) for k in range(-6, 9)):
            table = affine_table(ws, s)
            want = _hand_built_betas(ws, s, table.lam)
            assert [type(b) for b in table.betas] == [type(b) for b in want], (backend, s)
            assert table.betas == tuple(want), (backend, s)


@pytest.mark.parametrize("name", preset_names())
def test_recursion_record_cap_is_the_total_it_grows(name, monkeypatch):
    # the cap is checked up front against the records the recursion will
    # grow: a cap at that total accepts, one below refuses
    table = affine_table(load_preset(name).weight_system, load_preset(name).dimension)
    total = len(recursive_spectrum(table, 6))
    monkeypatch.setattr(cuntz, "DEFAULT_PATH_CAP", total)
    assert len(recursive_spectrum(table, 6)) == total
    monkeypatch.setattr(cuntz, "DEFAULT_PATH_CAP", total - 1)
    with pytest.raises(CuntzError, match="record cap"):
        recursive_spectrum(table, 6)


@pytest.mark.parametrize("name", ["fibonacci", "penrose", "ammann-a2"])
def test_affine_table_path_cap_counts_generation_4(name, monkeypatch):
    # the proof reads walk levels 0 to 3, but the walk's path cap still
    # counts the paths of generations 1 to 4, with the walk's own message
    ws = load_preset(name).weight_system
    total = sum(sum(row) for _, row in zip(range(4), path_counts(ws.diagram)))
    formed = []
    levels = laplacian._levels
    monkeypatch.setattr(laplacian, "_levels", lambda cache, depth: (
        formed.append(level.generation) or level for level in levels(cache, depth)))
    monkeypatch.setattr(laplacian, "DEFAULT_PATH_CAP", total)
    affine_table(ws, Fraction(2))
    assert formed == [0, 1, 2, 3]
    monkeypatch.setattr(laplacian, "DEFAULT_PATH_CAP", total - 1)
    with pytest.raises(laplacian.LaplacianError,
                       match=rf"^spectrum would visit more than {total - 1} paths \(the cap\)$"):
        affine_table(ws, Fraction(2))


@pytest.mark.parametrize("name", ["fibonacci", "penrose"])
def test_recursion_state_cap_refuses_before_growing(name, monkeypatch, capsys):
    # generation n grows one candidate state per (step from a vertex, state
    # reached from it); their total is checked against the cap before any
    # array of generation n is built, and names the largest usable depth
    table = affine_table(load_preset(name).weight_system, load_preset(name).dimension)
    steps = Counter((e.target, e.source, cls)
                    for e, cls in zip(table.diagram.edges, table.beta_classes()))
    candidates = [sum(int((counts[v1] > 0).sum()) for v1, _, _ in steps)
                  for _, counts in cuntz._grow(table, 5)]
    assert candidates == sorted(set(candidates))    # strictly growing
    monkeypatch.setattr(cuntz, "DEFAULT_PATH_CAP", candidates[-1])
    assert len(asymptotics.magnitude_table(table, 6).magnitudes) == 7
    monkeypatch.setattr(cuntz, "DEFAULT_PATH_CAP", candidates[-1] - 1)
    message = (f"generation 6 of the recursion would grow {candidates[-1]} states, "
               f"more than the {candidates[-1] - 1}-state cap; the largest usable depth is 5")
    with pytest.raises(CuntzError) as exc:
        asymptotics.magnitude_table(table, 6)
    assert str(exc.value) == message
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--preset", name, "--depth", "6"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def _check_level(diagram, classes, codes, counts, rows):
    """The rows (path, multiplicity, state index) of one generation against
    its counted level: counts[v, i] is the summed multiplicity of the rows
    from root vertex v in state i, and a state is one (seed vertex, beta
    class sequence)."""
    summed = Counter()
    keys: dict[int, set] = {}
    for path, mult, state in rows:
        summed[diagram.root_edges[path.root].vertex, state] += mult
        keys.setdefault(state, set()).add(
            (diagram.path_range(path), tuple(classes[ei] for ei in path.edges)))
    assert {(v, i): int(counts[v, i]) for v, i in zip(*counts.nonzero())} == summed
    assert sorted(keys) == list(range(codes.size))
    assert all(len(k) == 1 for k in keys.values())
    assert len(set.union(*keys.values())) == codes.size


@pytest.mark.parametrize("name", preset_names())
def test_counted_and_per_path_views_of_the_recursion_agree(name):
    # the counted levels that magnitude_table projects and the per-path rows
    # that strip reads come from one engine: per generation, a state's
    # multiplicity is that of its rows, summed, and the total over all
    # generations is the path count |Pi_8|
    bundle = load_preset(name)
    diagram = bundle.weight_system.diagram
    splits = [v for v in range(diagram.n_letters) if len(diagram.out_edges[v]) >= 2]
    for s in sorted({0, 1, bundle.dimension}):
        table = affine_table(bundle.weight_system, s)
        classes = table.beta_classes()
        levels = list(cuntz._grow(table, 7))
        grown = list(cuntz._expand(table, 7))
        assert len(levels) == 7 and len(grown) == 6
        # the kernel: the zero eigenvalue and the root splitting
        total = 1 + (len(diagram.root_edges) - 1 if table.root_seed else 0)
        for n, ((codes, counts), row_counts) in enumerate(zip(levels, path_counts(diagram)), 1):
            mults = [(path, len(diagram.out_edges[diagram.path_range(path)]) - 1)
                     for path in enumerate_paths(diagram, n).paths]
            splitting = [(path, mult) for path, mult in mults if mult >= 1]
            if n > 1:
                # _expand's indices belong to the splitting paths in enumeration order
                grown_codes, index = grown[n - 2]
                assert np.array_equal(grown_codes, codes), (s, n)
                index = index.tolist()
            else:
                # a generation-1 state is coded by its range vertex
                index = [codes.tolist().index(diagram.path_range(path)) for path, _ in splitting]
            rows = [(path, mult, state)
                    for (path, mult), state in zip(splitting, index, strict=True)]
            _check_level(diagram, classes, codes, counts, rows)
            assert len(rows) == sum(row_counts[v] for v in splits), (s, n)
            total += int(counts.sum())
        assert total == predicted_path_count(diagram, 8), s


def test_relation_check_refuses_a_depth_past_the_cap(monkeypatch):
    diagram = build_diagram(FIB_A)
    count = len(enumerate_paths(diagram, 6))
    monkeypatch.setattr(cuntz, "DEFAULT_PATH_CAP", count)
    assert ck_relations_check(diagram, 6).ok
    monkeypatch.setattr(cuntz, "DEFAULT_PATH_CAP", count - 1)
    with pytest.raises(CuntzError, match="more than"):
        ck_relations_check(diagram, 6)
