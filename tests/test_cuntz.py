"""Path operators, the affine recursion, the lattice embedding, strip bounds."""

from __future__ import annotations

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

from bratlap.cuntz import (
    CuntzError,
    affine_table,
    ck_relations_check,
    companion_embedding,
    lattice_coords,
    path_shift_down,
    path_shift_up,
    reconstruct_from_coords,
    recursive_spectrum,
    seed_records,
    strip_check,
)
from bratlap.diagram import Path, build_diagram, enumerate_paths
from bratlap.laplacian import full_spectrum
from bratlap.measure import WeightSystem, perron, theta_field
from bratlap.presets import PRESETS, load_preset, preset_names
from bratlap.scalar import (ApproxBackend, ApproxReal, QuadraticBackend, RationalBackend,
                            compare)

Q5 = QuadraticBackend(5)
RAT = RationalBackend()
PHI = Q5.make((Fraction(1, 2), Fraction(1, 2)))

FIB_A = ((1, 1), (1, 0))
TM_A = ((1, 1), (1, 1))
PEN_A = ((2, 1), (1, 1))
FIB_CONJ_A = ((2, 1), (1, 1))


def fib_ws():
    return WeightSystem(build_diagram(FIB_A), perron(FIB_A, Q5))


def tm_ws():
    return WeightSystem(build_diagram(TM_A, letters=("0", "1")), perron(TM_A, RAT))


def dyadic_ws():
    return WeightSystem(build_diagram([[2]]), perron([[2]], RAT))


def penrose_ws(g=20, backend=None):
    be = backend or Q5
    return WeightSystem(build_diagram(PEN_A, symmetry_order=g),
                        perron(PEN_A, be, symmetry_order=g, dimension=2))


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
    ws = WeightSystem(build_diagram(a), perron(a, Q5))
    table = affine_table(ws, 1)
    assert table.lam == PHI ** 4       # theta^2 with theta = phi^2


def test_lambda_fallback_uses_configured_precision():
    # Lambda_{1/2} = 2^(5/2) leaves Q, so it falls back at the weight
    # system's precision, as the betas do
    ws = WeightSystem(build_diagram(TM_A, letters=("0", "1")), perron(TM_A, RAT),
                      approx_bits=100)
    table = affine_table(ws, Fraction(1, 2))
    assert table.lam.precision == ws.approx_bits == 100
    assert {b.precision for b in table.betas} == {100}


def test_affine_table_penrose():
    table = affine_table(penrose_ws(), 2)
    assert table.lam == PHI * PHI
    assert len(table.betas) == 5
    assert table.calibration_checks > 0


def test_seed_extension_property():
    # the gen-1 eigenvalue is the affine image of the root eigenvalue
    ws = tm_ws()
    table = affine_table(ws, 1)
    seeds = seed_records(ws, 1)
    root = next(r for r in seeds if r.label == "root")
    gen1 = next(r for r in seeds if r.label == "path")
    assert table.apply(0, root.value) == gen1.value


def test_recursion_chain_thue_morse():
    ws = tm_ws()
    table = affine_table(ws, 1)
    records = recursive_spectrum(table, seed_records(ws, 1), 3)
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
    rec = recursive_spectrum(table, seed_records(ws, 1), 8)
    direct = full_spectrum(ws, 8, 1)
    assert Counter((r.value, r.multiplicity) for r in rec) == \
        Counter((r.value, r.multiplicity) for r in direct)


def test_recursion_depth_zero_and_one():
    ws = fib_ws()
    table = affine_table(ws, 1)
    seeds = seed_records(ws, 1)
    assert recursive_spectrum(table, seeds, 0) == seeds
    assert recursive_spectrum(table, seeds, 1) == seeds


def test_companion_fibonacci():
    emb = companion_embedding(perron(FIB_A, Q5))
    assert emb.poly == (-1, -1, 1)
    assert emb.matrix == ((1, 1), (1, 2))
    assert emb.pisot and emb.hyperbolic
    assert emb.action_verified == "exact"
    assert emb.stable_norm == pytest.approx(float(2 / (1 + 5 ** 0.5)) ** 2, abs=1e-12)


def test_companion_thue_morse_scalar():
    emb = companion_embedding(perron(TM_A, RAT))
    assert emb.degree == 1
    assert emb.matrix == ((4,),)
    assert emb.pisot


def test_companion_penrose():
    emb = companion_embedding(perron(PEN_A, Q5, dimension=2))
    assert emb.poly == (1, -3, 1)
    assert emb.matrix == ((0, -1), (1, 3))
    mods = sorted(abs(e) for e in emb.eigenvalues)
    phi2 = float(PHI * PHI)
    assert mods[1] == pytest.approx(phi2, abs=1e-9)
    assert mods[0] == pytest.approx(1 / phi2, abs=1e-9)
    assert emb.pisot


def test_lattice_coords_examples():
    emb_tm = companion_embedding(perron(TM_A, RAT))
    assert lattice_coords(emb_tm, Fraction(-18)) == (Fraction(-18),)
    emb_fib = companion_embedding(perron(FIB_A, Q5))
    lam0 = -(2 * PHI + 1)
    assert lattice_coords(emb_fib, lam0) == (Fraction(-1), Fraction(-2))


def fib_conj_ws():
    return WeightSystem(build_diagram(FIB_CONJ_A), perron(FIB_CONJ_A, Q5))


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
    emb = companion_embedding(ws.perron)
    records = recursive_spectrum(table, seed_records(ws, s), depth, embedding=emb)
    direct = {(r.label, r.path): r for r in full_spectrum(ws, depth, s)}
    # the same records as the direct formula, path by path
    assert len(records) == len(direct)
    for rec in records:
        ref = direct[(rec.label, rec.path)]
        assert (rec.path, rec.value, rec.value_float) == \
            (ref.path, ref.value, ref.value_float)
        assert rec.coords is not None
        assert reconstruct_from_coords(emb, rec.coords) == \
            pytest.approx(rec.value_float, abs=1e-9)
        # accumulated coordinates agree with direct field expansion
        assert rec.coords == lattice_coords(emb, rec.value)


def test_coords_scalar_recursion_thue_morse():
    emb = companion_embedding(perron(TM_A, RAT))
    c = lattice_coords(emb, Fraction(-18))
    pushed = tuple(4 * x for x in c)
    assert tuple(p + q for p, q in zip(pushed, (Fraction(-2),))) == (Fraction(-74),)


def test_strip_fibonacci_bounded():
    ws = fib_ws()
    table = affine_table(ws, 1)
    emb = companion_embedding(ws.perron)
    seeds = seed_records(ws, 1)
    records = recursive_spectrum(table, seeds, 12, embedding=emb)
    report = strip_check(emb, records, table, seeds)
    assert report.max_distance <= report.bound
    dist10 = max(v for g, v in report.per_generation if g <= 10)
    assert abs(report.max_distance - dist10) <= 0.01 * report.max_distance


def test_strip_thue_morse_zero():
    ws = tm_ws()
    table = affine_table(ws, 1)
    emb = companion_embedding(ws.perron)
    seeds = seed_records(ws, 1)
    records = recursive_spectrum(table, seeds, 8, embedding=emb)
    report = strip_check(emb, records, table, seeds)
    assert report.max_distance == 0.0


def test_strip_penrose_bounded():
    ws = penrose_ws()
    table = affine_table(ws, 2)
    emb = companion_embedding(ws.perron)
    seeds = seed_records(ws, 2)
    records = recursive_spectrum(table, seeds, 7, embedding=emb)
    report = strip_check(emb, records, table, seeds)
    assert report.max_distance <= report.bound
    assert report.pisot


def test_strip_distances_equal_unmemoized():
    ws = penrose_ws()
    table = affine_table(ws, 2)
    emb = companion_embedding(ws.perron)
    seeds = seed_records(ws, 2)
    records = recursive_spectrum(table, seeds, 5, embedding=emb)
    # every third record carries no coordinates, so strip_check expands them
    # itself into temporaries, between records that share coordinate tuples
    mixed = [dataclasses.replace(rec, coords=None) if k % 3 == 0 else rec
             for k, rec in enumerate(records)]
    assert any(rec.coords is None for rec in mixed)
    for recs in (records, mixed):
        report = strip_check(emb, recs, table, seeds)
        assert len(report.distances) == len(recs)
        for rec, (label, dist) in zip(recs, report.distances):
            expected = emb.distance_to_unstable(lattice_coords(emb, rec.value))
            assert dist == expected, label


def test_companion_embedding_field_mismatch_falls_back_to_numeric():
    # theta^(1/3) is not in Q(sqrt5): ExactnessError
    emb3 = companion_embedding(perron(FIB_A, Q5, dimension=3))
    assert emb3.basis_value is None
    assert emb3.action_verified == "numeric"


def test_companion_embedding_needs_exact_perron_data():
    with pytest.raises(CuntzError, match="exact Perron data"):
        companion_embedding(perron(FIB_A, ApproxBackend(64)))


def test_companion_embedding_propagates_unexpected_errors(monkeypatch):
    pdata = perron(FIB_A, Q5)

    def broken(self, x, e):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(QuadraticBackend, "pow_fraction", broken)
    with pytest.raises(ZeroDivisionError):
        companion_embedding(pdata)


def test_strip_refuses_non_hyperbolic():
    ws = fib_ws()
    table = affine_table(ws, 1)
    emb = companion_embedding(ws.perron)
    broken = dataclasses.replace(emb, hyperbolic=False)
    with pytest.raises(CuntzError):
        strip_check(broken, [], table, [])


# the s in {-1, 0, 1, 2} where strip runs: at d = 2, s = -1 and s = 1 take
# recursion constants out of Q(sqrt5)
STRIP_S = {"fibonacci": [-1, 0, 1, 2], "fibonacci-conjugate": [-1, 0, 1, 2],
           "thue-morse": [-1, 0, 1, 2], "dyadic-odometer": [-1, 0, 1, 2],
           "penrose": [0, 2], "ammann-a2": [0, 2]}


@pytest.mark.parametrize("name", preset_names())
def test_strip_coordinates_reconstruct_their_values(name):
    # the recursion grows coordinates with C_s, which multiplies by Lambda_s
    ws = load_preset(name, backend=theta_field(PRESETS[name].matrix)).weight_system
    accepted = []
    for s in (-1, 0, 1, 2):
        table, seeds = affine_table(ws, s), seed_records(ws, s)
        constants = (table.lam, *table.betas, *(rec.value for rec in seeds))
        if any(isinstance(x, ApproxReal) for x in constants):
            continue
        accepted.append(s)
        emb = companion_embedding(ws.perron).at(s)
        for rec in recursive_spectrum(table, seeds, 5, embedding=emb):
            if emb.basis_value is not None:
                value = sum(c * emb.basis_value ** i for i, c in enumerate(rec.coords))
                assert compare(value, rec.value) == 0, (s, rec.path)
            else:
                err = abs(reconstruct_from_coords(emb, rec.coords) - rec.value_float)
                assert err <= 1e-12 * abs(rec.value_float), (s, rec.path)
    assert accepted == STRIP_S[name]


@pytest.mark.parametrize("s, k", [("3", "0"), ("4", "-1"), ("1/2", "5/2")])
def test_embedding_refuses_k_that_is_not_a_positive_integer(s, k):
    # theta = 4: Lambda_s = 4^(5/2) = 32 is rational at s = 1/2, but it is
    # not an integer power of x = theta
    emb = companion_embedding(perron([[4]], RAT))
    with pytest.raises(CuntzError, match=f"at s={s} and d=1, k={k}$"):
        emb.at(Fraction(s))
