"""Closed-form spectra against hand-evaluated constants and the dense oracle."""

from __future__ import annotations

import functools
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bratlap import cuntz, laplacian
from bratlap.cli import main
from bratlap.diagram import BratteliDiagram, build_diagram, predicted_path_count
from bratlap.laplacian import (
    LaplacianError,
    dense_restriction,
    dense_spectrum,
    eigenbasis,
    g_value,
    verify_spectrum,
)
from bratlap.measure import WeightSystem, mu, perron
from bratlap.presets import PRESETS, load_preset
from bratlap.scalar import (
    ApproxBackend,
    ApproxReal,
    FieldArray,
    QuadraticBackend,
    QuadraticNumber,
    RationalBackend,
    ROW_BLOCK,
)
from oracles import (
    EMPTY_PATH,
    Path,
    blockwise_index,
    eigenvalue,
    enumerate_paths,
    extensions,
    float_matrix,
    format_path,
    full_spectrum,
    level_paths,
    longest_common_prefix,
    object_matrix,
    object_walk,
    path_key,
    root_edge_index,
    span,
    spectrum_multiset,
    walked_dense,
    walked_spectrum,
    whole_matrix_dense_spectrum,
    whole_symmetrized,
)

Q5 = QuadraticBackend(5)
RAT = RationalBackend()
ALPHA = Q5.make((Fraction(-1, 2), Fraction(1, 2)))
PHI = Q5.make((Fraction(1, 2), Fraction(1, 2)))

FIB_A = ((1, 1), (1, 0))
TM_A = ((1, 1), (1, 1))
PEN_A = ((2, 1), (1, 1))


def fib_ws():
    d = build_diagram(FIB_A)
    return WeightSystem(d, perron(d, Q5))


def tm_ws():
    d = build_diagram(TM_A, letters=("0", "1"))
    return WeightSystem(d, perron(d, RAT))


def dyadic_ws():
    d = build_diagram([[2]])
    return WeightSystem(d, perron(d, RAT))


def penrose_ws(backend=None, g=20):
    be = backend or ApproxBackend(100)
    d = build_diagram(PEN_A, symmetry_order=g)
    return WeightSystem(d, perron(d, be, dimension=2))


def test_g_values_fibonacci():
    ws = fib_ws()
    assert g_value(ws, *path_key(ws.diagram, EMPTY_PATH), 1) == ALPHA ** 3
    assert g_value(ws, *path_key(ws.diagram, Path(0)), 1) == ALPHA ** 6
    with pytest.raises(LaplacianError):
        g_value(ws, *path_key(ws.diagram, Path(1)), 1)  # vertex b has a single extension


def test_g_values_thue_morse():
    ws = tm_ws()
    assert g_value(ws, *path_key(ws.diagram, EMPTY_PATH), 1) == Fraction(1, 4)
    assert g_value(ws, *path_key(ws.diagram, Path(0)), 1) == Fraction(1, 32)


def root_records(ws, s):
    """The records full_spectrum labels "root" at depth 0."""
    return [rec for rec in full_spectrum(ws, 0, s) if rec.label == "root"]


def test_root_eigenvalue_fibonacci():
    ws = fib_ws()
    [rec] = root_records(ws, 1)
    assert rec.value == -(2 * PHI + 1)
    assert rec.multiplicity == 1


def test_eigenvalue_fibonacci_handchecked():
    ws = fib_ws()
    t1 = enumerate_paths(ws.diagram, 1).paths
    assert eigenvalue(ws, t1[0], 1).value == -(6 * PHI + 3)     # = -3 phi^3
    t2 = enumerate_paths(ws.diagram, 2).paths
    assert eigenvalue(ws, t2[0], 1).value == -(16 * PHI + 9)    # path a.a
    assert eigenvalue(ws, t2[2], 1).value == -(14 * PHI + 9)    # path b.a
    t3 = enumerate_paths(ws.diagram, 3).paths
    baa = t3[3]
    assert format_path(ws.diagram, baa) == "b.a.a"
    assert eigenvalue(ws, baa, 1).value == -(40 * PHI + 25)
    with pytest.raises(LaplacianError):
        eigenvalue(ws, t2[1], 1)  # a.b ends at b, single extension


def test_eigenvalue_thue_morse():
    ws = tm_ws()
    [rec] = root_records(ws, 1)
    assert rec.value == Fraction(-4) and rec.multiplicity == 1
    for path in enumerate_paths(ws.diagram, 1).paths:
        assert eigenvalue(ws, path, 1).value == Fraction(-18)
    for path in enumerate_paths(ws.diagram, 2).paths:
        assert eigenvalue(ws, path, 2 - 1).value == Fraction(-74)


def test_dyadic_odometer_closed_form():
    # single root edge: no root record, and the per-generation eigenvalue
    # follows -(2/3)(7*4^(n-1) - 1)
    ws = dyadic_ws()
    assert root_records(ws, 1) == []
    for n in range(1, 5):
        expected = Fraction(-2, 3) * (7 * 4 ** (n - 1) - 1)
        for path in enumerate_paths(ws.diagram, n).paths:
            assert eigenvalue(ws, path, 1).value == expected


def test_eigenbasis_fibonacci():
    ws = fib_ws()
    cache = laplacian.StationaryCache(ws, 1)
    [(coeff_pos, coeff_neg)] = eigenbasis(cache, *path_key(ws.diagram, EMPTY_PATH))
    assert coeff_neg / coeff_pos == -PHI       # chi_a - phi chi_b after rescaling
    [(coeff_pos, coeff_neg)] = eigenbasis(cache, *path_key(ws.diagram, Path(0)))
    assert coeff_neg / coeff_pos == -PHI
    assert eigenbasis(cache, *path_key(ws.diagram, Path(1))) == []


def test_eigenbasis_dimension_penrose_vertex_a():
    ws = penrose_ws(backend=Q5)
    specs = eigenbasis(laplacian.StationaryCache(ws, 2),
                       *path_key(ws.diagram, Path(root_edge_index(ws.diagram, 0, 5))))
    assert len(specs) == 2


def test_eigenbasis_memo_equals_direct_measures():
    # the memo keeps mu and 1/mu per (range vertex, generation); the
    # coefficients are 1/mu of the anchor child and -1/mu of the other, as
    # the direct formula gives them, one pair per extension after the first
    ws = penrose_ws(g=4, backend=Q5)
    cache = laplacian.StationaryCache(ws, 2)
    bases = [EMPTY_PATH] + [p for n in (1, 2, 3) for p in enumerate_paths(ws.diagram, n).paths]
    for base in bases:
        ext = extensions(ws.diagram, base)
        pairs = eigenbasis(cache, *path_key(ws.diagram, base))
        assert len(pairs) == max(0, len(ext) - 1), base
        for (coeff_pos, coeff_neg), other in zip(pairs, ext[1:]):
            anchor_mu = mu(ws, *path_key(ws.diagram, base.child(ext[0])))
            other_mu = mu(ws, *path_key(ws.diagram, base.child(other)))
            assert coeff_pos == 1 / anchor_mu
            assert coeff_neg == -(1 / other_mu)


def test_full_spectrum_fibonacci_depth1():
    ws = fib_ws()
    records = full_spectrum(ws, 1, 1)
    values = sorted((r.value_float, r.multiplicity) for r in records)
    phi = float(PHI)
    assert len(records) == 3
    assert values[0][0] == pytest.approx(-3 * phi ** 3)
    assert values[1][0] == pytest.approx(-phi ** 3)
    assert values[2] == (0.0, 1)
    assert sum(r.multiplicity for r in records) == 3  # |Pi_2|


def test_full_spectrum_thue_morse_depth2():
    ws = tm_ws()
    records = full_spectrum(ws, 2, 1)
    by_value = {}
    for r in records:
        by_value[r.value_float] = by_value.get(r.value_float, 0) + r.multiplicity
    assert by_value == {0.0: 1, -4.0: 1, -18.0: 2, -74.0: 4}
    assert sum(by_value.values()) == 8  # |Pi_3|


def test_counting_identity_various():
    for ws, depth in ((fib_ws(), 8), (tm_ws(), 7), (dyadic_ws(), 8)):
        for n in range(1, depth):
            records = full_spectrum(ws, n, ws.dimension)
            total = sum(r.multiplicity for r in records)
            assert total == len(enumerate_paths(ws.diagram, n + 1))


def test_dense_fibonacci_pi1():
    ws = fib_ws()
    op = dense_restriction(ws, 1, 1)
    assert op.exact
    phi = PHI
    assert object_matrix(op).tolist() == [[-phi, phi], [phi * phi, -(phi * phi)]]
    m = float_matrix(op)
    assert np.allclose(m @ np.ones(2), 0.0, atol=1e-12)
    v = np.array([1.0, -float(phi)])
    assert np.allclose(m @ v, -float(phi) ** 3 * v, atol=1e-10)


def test_dense_thue_morse_pi1():
    ws = tm_ws()
    op = dense_restriction(ws, 1, 1)
    assert np.allclose(dense_spectrum(op), [-4.0, 0.0], atol=1e-12)


def test_dense_kernel_and_mu_symmetry():
    for ws, s in ((fib_ws(), 1), (tm_ws(), 1), (penrose_ws(), 2)):
        op = dense_restriction(ws, 3, s)
        m = float_matrix(op)
        assert np.max(np.abs(m @ np.ones(len(op.table)))) < 1e-9
        d = np.diag(op.mu_float())
        dm = d @ m
        assert np.max(np.abs(dm - dm.T)) < 1e-10


def test_dense_mu_symmetry_exact():
    ws = fib_ws()
    op = dense_restriction(ws, 4, 1)
    assert op.exact
    n = len(op.table)
    m = object_matrix(op)
    for i in range(n):
        for j in range(n):
            mu_i, mu_j = op.mu_values[op.vertex[i]], op.mu_values[op.vertex[j]]
            assert mu_i * m[i][j] == mu_j * m[j][i]


def test_dense_nonpositive_spectrum_at_s_equals_d():
    for ws, s in ((fib_ws(), 1), (tm_ws(), 1), (penrose_ws(), 2)):
        op = dense_restriction(ws, 4, s)
        eigs = np.linalg.eigvalsh(whole_symmetrized(op))
        assert eigs.max() < 1e-9


def test_dense_cap():
    ws = tm_ws()
    with pytest.raises(LaplacianError):
        dense_restriction(ws, 10, 1, cap=100)


def test_verify_fibonacci_exact():
    report = verify_spectrum(fib_ws(), 2, 1)
    assert report.ok and report.exact_ok is True
    assert report.total_multiplicity == 3
    assert report.max_abs_deviation < 1e-12


def test_verify_without_eigenvectors():
    """dyadic-odometer at generation 1 has one path, under a root with one
    extension: no closed-form vector, and only M 1 = 0 to check exactly."""
    for s in (0, 1, 2):
        report = verify_spectrum(load_preset("dyadic-odometer").weight_system, 1, s)
        assert report.ok and report.exact_ok and report.dense_size == 1


# a relative 1e-12 moves every float deviation below the 1e-8 tolerance, so
# only the exact eigen-relation check can catch these mutations
EPS = Fraction(1, 10 ** 12)


def _first_generation_one_record(op) -> int:
    """The index of the first record whose base is at generation 1."""
    return next(k for k, (_, generation) in enumerate(op.meets) if generation == 1)


def _scale_first_generation_one_record(op):
    k = _first_generation_one_record(op)
    value = op.records[k][0] * (1 + EPS)
    op.records[k] = (value, float(value))
    return op


def _root_edge(op, i: int) -> int:
    """The root edge, v * g + k, under which row or column i lies."""
    return int(np.searchsorted(op.bases, i, side="right")) - 1


def _edit_entries(op, edits):
    """Give each listed entry of the interned matrix a value of its own, the
    old one edited, appended to op.values.  A cell whose row and column lie
    under one root edge (v, k) is cell (i - base, j - base) of squares[v],
    which stands for that cell under every slot k, the cells the root-slot
    permutations map it to; any other cell meets at the root, and its id is
    root_ids of its column's range vertex, shared by every such cell of
    that vertex."""
    for (i, j), edit in edits.items():
        edge = _root_edge(op, i)
        if edge == _root_edge(op, j):
            ids, cell = op.squares[edge // op.symmetry_order], (i - op.bases[edge],
                                                                j - op.bases[edge])
        else:
            ids, cell = op.root_ids, op.vertex[j]
        op.values += (edit(op.values[ids[cell]]),)
        ids[cell] = len(op.values) - 1
    return op


def _scale_first_measure(op):
    """Scale the measure of every path at the first path's range vertex."""
    v = op.vertex[0]
    op.mu_values = op.mu_values[:v] + (op.mu_values[v] * (1 + EPS),) + op.mu_values[v + 1:]
    return op


def _row_sum_neutral_pair(row):
    """+EPS on an off-diagonal entry of one row and -EPS on its diagonal; `row`
    picks the row from the table size, and the column is a neighbour under
    the same root edge, so the edit is made under every root slot."""
    def mutate(op):
        i = row(len(op.table))
        j = i + 1 if i + 1 < len(op.table) and _root_edge(op, i + 1) == _root_edge(op, i) \
            else i - 1
        assert _root_edge(op, j) == _root_edge(op, i)
        return _edit_entries(op, {(i, j): lambda x: x + EPS, (i, i): lambda x: x - EPS})
    return mutate


def _add_measure_row(op):
    """M + EPS 1 mu^T: every value id, the diagonal's walk states included,
    plus EPS times mu of its column's range vertex.  Every closed-form
    M v = lambda v still holds, as mu . v = 0, so only M 1 = 0 is broken."""
    column = np.full(len(op.values), -1)
    column[op.index] = op.vertex[None, :]
    assert column.min() >= 0
    op.values = tuple(x + EPS * op.mu_values[v] for x, v in zip(op.values, column.tolist()))
    return op


# edits of the operator verify reads: its records, entries and measures
_MUTATIONS = {
    "record value": _scale_first_generation_one_record,
    # breaks M 1 = 0
    "off-diagonal entry": lambda op: _edit_entries(op, {(0, 1): lambda x: x * (1 + EPS)}),
    # keep every row sum at zero, so only the eigen-relations can catch them
    "row-sum-neutral pair": _row_sum_neutral_pair(lambda size: 0),
    "row-sum-neutral pair, middle row": _row_sum_neutral_pair(lambda size: size // 2),
    "row-sum-neutral pair, last row": _row_sum_neutral_pair(lambda size: size - 1),
    "measure": _scale_first_measure,
    # keeps every eigen-relation, so only M 1 = 0 can catch it
    "measure-weighted rank one": _add_measure_row,
}

# (preset, backend, depth, s): thue-morse runs on Q, and penrose's g = 20 root
# edges and three-extension vertex give many vectors per base
_MUTATED_RUNS = [("fibonacci", "quadratic:5", 4, 1), ("thue-morse", "rational", 5, 1),
                 ("penrose", "quadratic:5", 3, 2)]


@pytest.mark.parametrize("run, mutation", [
    pytest.param(run, m, id=m if run[0] == "fibonacci" else f"{run[0]}-{m}")
    for run in _MUTATED_RUNS for m in sorted(_MUTATIONS)])
def test_exact_check_catches_relative_1e12_mutations(monkeypatch, capsys, run, mutation):
    preset, backend, depth, s = run
    mutate = _MUTATIONS[mutation]
    build = laplacian.dense_restriction
    monkeypatch.setattr(laplacian, "dense_restriction",
                        lambda *args, **kw: mutate(build(*args, **kw)))
    report = verify_spectrum(load_preset(preset, backend=backend).weight_system, depth, s)
    assert report.exact_ok is False and report.ok is False
    assert report.max_abs_deviation <= report.tolerance
    assert main(["verify", "--preset", preset, "--backend", backend,
                 "--depth", str(depth), "--s", str(s)]) == 1
    assert "exact eigen-relations: FAIL" in capsys.readouterr().out


def test_exact_check_catches_wrong_multiplicity(monkeypatch, capsys):
    """One record claiming one eigenvector more than its base carries fails
    the exact check, not only the multiplicity count."""
    def one_more(op):
        # a record's multiplicity is its bounds' length less 2: one more,
        # empty, cylinder claims one more vector
        k = _first_generation_one_record(op)
        op.bounds[k] += op.bounds[k][-1:]
        return op

    build = laplacian.dense_restriction
    monkeypatch.setattr(laplacian, "dense_restriction",
                        lambda *a, **kw: one_more(build(*a, **kw)))
    report = verify_spectrum(load_preset("fibonacci").weight_system, 4, 1)
    assert report.exact_ok is False and report.counting_ok is False and report.ok is False
    assert main(["verify", "--preset", "fibonacci", "--depth", "4", "--s", "1"]) == 1
    assert "exact eigen-relations: FAIL" in capsys.readouterr().out


def test_dense_restriction_refuses_inexact_entries(monkeypatch):
    """The exact check sums interned values by counting them, which is only
    sound for exact scalars, so an approximate cache value is refused."""
    inv_g_at = laplacian.StationaryCache.inv_g_at
    monkeypatch.setattr(laplacian.StationaryCache, "inv_g_at",
                        lambda self, a, n: ApproxReal.make(inv_g_at(self, a, n), 100))
    with pytest.raises(LaplacianError, match="approximate scalar"):
        dense_restriction(load_preset("thue-morse").weight_system, 3, 1)


EXACT_PRESETS = ("fibonacci", "fibonacci-conjugate", "thue-morse", "dyadic-odometer")


@pytest.mark.parametrize("preset", EXACT_PRESETS)
def test_interned_matrix_equals_object_matrix(preset):
    """values[index] against the plain object matrix: each off-diagonal entry
    is mu[j]/G(meet) by the direct formula, the float matrix is the same
    float cast bit for bit, and every row sum over a cylinder range that
    the exact check reads off the compact ids (`_row_sums`), and every
    measure range sum, is the plain exact sum."""
    ws = load_preset(preset).weight_system
    zero = ws.backend.zero
    for n in range(2, 6):
        for s in (0, 1, 2):
            op = dense_restriction(ws, n, s)
            assert op.exact
            full = object_matrix(op)
            inv_g, table = {}, enumerate_paths(ws.diagram, n)
            for (i, p), (j, q) in product(enumerate(table.paths), repeat=2):
                if i != j:
                    meet = longest_common_prefix(p, q)
                    if meet not in inv_g:
                        inv_g[meet] = 1 / g_value(ws, *path_key(ws.diagram, meet), s)
                    assert full[i, j] == op.mu_values[op.vertex[j]] * inv_g[meet], \
                        (n, s, i, j)
            assert float_matrix(op).tobytes() == full.astype(float).tobytes(), (n, s)
            ranges = {span(table, p.prefix(k)) for p in table.paths for k in range(n + 1)}
            entries = FieldArray.of(op.values)
            mus = FieldArray.of(op.mu_values)
            row_sums = laplacian._row_sums(op, entries)
            measures = mus.prefix_sums(op.vertex[None, :])
            every = np.arange(len(full))
            for r in ranges:
                plain = sum((op.mu_values[v] for v in op.vertex[r.start:r.stop]), zero)
                assert _listed(mus.range_sums(measures, [0], r.start, r.stop)) == \
                    [_parts(plain * mus.den)]
                plain = [_parts(sum(row[r.start:r.stop], zero) * entries.den) for row in full]
                assert _listed(row_sums(every, r.start, r.stop)) == plain, (n, s, r)


def test_index_fill_equals_blockwise_fill_at_penrose_depth6():
    """The pre-order fill against the block-by-block one where the spans
    overlap most: penrose's 20 root slots at the depth past the default cap."""
    op = dense_restriction(load_preset("penrose").weight_system, 6, 1, cap=8192)
    assert op.vertex.size == 4660
    assert np.array_equal(op.index, blockwise_index(op))


def _listed(sums):
    """Range sums as a list of per-row (a, b) pairs, b = 0 on Q."""
    return [(*row, 0)[:2] for row in map(tuple, sums.num.tolist())]


def _parts(x):
    return (x.a, x.b) if isinstance(x, QuadraticNumber) else (x, 0)


@pytest.mark.parametrize("backend", [RAT, Q5], ids=["rational", "quadratic:5"])
@pytest.mark.parametrize("top, dtype", [(2 ** 59, np.int64), (2 ** 60, object)],
                         ids=["int64", "object"])
def test_prefix_sums_are_plain_sums(backend, top, dtype):
    """Every range sum of every row of `FieldArray.prefix_sums` is the plain
    exact sum.  A row of eight numerators above 2^60 sums past 2^63, so they
    take Python ints; below 2^59 every partial sum fits int64."""
    rng = np.random.default_rng(11)
    steps = rng.integers(0, 1000, 6).tolist()
    values = [backend.make((top + k, -top - k)) if backend is Q5 else Fraction(top + k)
              for k in steps]
    ids = rng.integers(0, len(values), (4, 8))
    nums = FieldArray.of(values)
    assert nums.den == 1
    prefix = nums.prefix_sums(ids)
    assert prefix.shape == (4, 9, 2 if backend is Q5 else 1)
    assert prefix.dtype == dtype
    for lo, hi in product(range(9), repeat=2):
        if lo <= hi:
            plain = [_parts(sum((values[x] for x in row[lo:hi]), backend.zero)) for row in ids]
            assert _listed(nums.range_sums(prefix, np.arange(4), lo, hi)) == plain


FLOAT_CASES = [("penrose", "approx:200", Fraction(1, 2)), ("penrose", "approx:200", 2),
               ("ammann-a2", "approx:200", Fraction(1, 2)), ("ammann-a2", "approx:200", 2),
               # (2 - s)/d = 3/2 leaves Q(sqrt5), so the exact backend goes float
               ("fibonacci-conjugate", "quadratic:5", Fraction(1, 2))]


@pytest.mark.parametrize("preset, backend, s", FLOAT_CASES)
def test_interned_float_matrix_equals_direct_formula(preset, backend, s):
    """values[index] on the float path: each off-diagonal entry is
    float(mu_j) / float(G(meet)) by the direct formula, each diagonal entry the
    float of the prefix-increment sum formed as `eigenvalue` forms it, and
    the spectrum gathered from them has the bytes of the one read off
    m * np.outer(root, 1 / root)."""
    ws = load_preset(preset, backend=backend).weight_system
    inv_g = functools.cache(lambda path: 1 / g_value(ws, *path_key(ws.diagram, path), s))
    mu_at = functools.cache(lambda path: mu(ws, *path_key(ws.diagram, path)))
    for n in range(2, 6):
        op = dense_restriction(ws, n, s)
        assert not op.exact and all(type(v) is float for v in op.values)
        table = enumerate_paths(ws.diagram, n)
        m, paths = float_matrix(op), table.paths
        mu_col = np.array([float(mu_at(p)) for p in paths])
        checked = 0
        for meet in {p.prefix(k) for p in paths for k in range(n)}:
            ext = extensions(ws.diagram, meet)
            if len(ext) < 2:
                continue
            gf = float(g_value(ws, *path_key(ws.diagram, meet), s))
            spans = [span(table, meet.child(e)) for e in ext]
            for rows, cols in product(spans, repeat=2):
                if rows != cols:
                    block = m[rows.start:rows.stop, cols.start:cols.stop]
                    want = np.broadcast_to(mu_col[cols.start:cols.stop] / gf, block.shape)
                    assert block.tobytes() == want.tobytes(), (n, meet)
                    checked += block.size
        assert checked == len(paths) * (len(paths) - 1)
        for i, p in enumerate(paths):
            acc = ws.backend.zero
            for k in range(n):
                pref = p.prefix(k)
                if len(extensions(ws.diagram, pref)) >= 2:
                    acc = acc + (mu_at(p.prefix(k + 1)) - mu_at(pref)) * inv_g(pref)
            assert m[i, i] == float(acc), (n, i)
        assert dense_spectrum(op).tobytes() == whole_matrix_dense_spectrum(op).tobytes(), n


def test_verify_thue_morse_depth3():
    report = verify_spectrum(tm_ws(), 3, 1)
    assert report.ok and report.exact_ok
    expected = spectrum_multiset(full_spectrum(tm_ws(), 2, 1))
    assert expected == sorted([-74.0] * 4 + [-18.0] * 2 + [-4.0, 0.0])


def test_verify_penrose_approx():
    report = verify_spectrum(penrose_ws(), 2, 2)
    assert report.ok
    assert report.exact_ok is None
    assert report.max_abs_deviation < 1e-8


# three letters, g = 3, parallel edges: the slot split away from the presets
TRI_A = ((2, 1, 0), (0, 1, 1), (1, 0, 1))


def tri_ws():
    d = build_diagram(TRI_A, symmetry_order=3)
    return WeightSystem(d, perron(d, ApproxBackend(100)))


@pytest.mark.parametrize("system", ["penrose", "ammann-a2", "tri-g3", "fibonacci",
                                    "fibonacci-conjugate", "dyadic-odometer"])
@pytest.mark.parametrize("s", [Fraction(1, 2), 1, 2])
def test_slot_split_spectrum_equals_full_eigvalsh(system, s):
    """The split at every group of identical sibling subtrees agrees with
    one eigvalsh on the whole symmetrized operator, root slots (g = 20, 4
    and 3) and parallel edges (TRI_A, fibonacci-conjugate and the dyadic
    odometer, g = 1) alike, and it returns one eigenvalue per path: block
    dimension times repeat sums to |Pi_n|.  Without copies (fibonacci) the
    single block is that operator, bit for bit.  It equals, bit for bit,
    the split read off the whole float matrix."""
    ws = tri_ws() if system == "tri-g3" else load_preset(system).weight_system
    copies = ws.diagram.symmetry_order > 1 or max(map(max, ws.diagram.matrix)) > 1
    for n in range(2, 6):
        op = dense_restriction(ws, n, s)
        full = np.sort(np.linalg.eigvalsh(whole_symmetrized(op)))
        split = dense_spectrum(op)
        assert np.array_equal(split, whole_matrix_dense_spectrum(op)), n
        if not copies:
            assert np.array_equal(split, full), n
        else:
            assert split.shape == full.shape
            assert np.max(np.abs(split - full)) <= 1e-12 * np.max(np.abs(full)), n


@pytest.mark.parametrize("system", [*sorted(PRESETS), "tri-g3"])
def test_expanded_index_equals_blockwise_fill(system):
    """The compact ids, expanded, against the block-by-block fill of every
    record's off-diagonal child blocks, the records under every root slot
    included, on all six presets and TRI_A (g = 3, parallel edges)."""
    ws = tri_ws() if system == "tri-g3" else load_preset(system).weight_system
    for n, s in product(range(1, 6), (Fraction(1, 2), 1, 2)):
        op = dense_restriction(ws, n, s)
        assert np.array_equal(op.index, blockwise_index(op)), (n, s)


@pytest.mark.parametrize("name, backend, depth", [("penrose", "quadratic:5", 3),
                                                  ("ammann-a2", "quadratic:5", 4),
                                                  ("fibonacci", "quadratic:5", 5)])
def test_row_sums_equal_prefix_sums_of_the_expanded_index(name, backend, depth):
    """The exact check's row sums, read off the squares and the root row,
    equal the prefix sums of every row of the expanded ids at every column,
    and their differences over every range of a row's own root edge and
    across it, on folded diagrams (g = 20, 4) and with g = 1."""
    ws = load_preset(name, backend=backend).weight_system
    # (2 - s)/d is an integer at s = 0 and 2 for d = 1 and 2: exact entries
    for s in (0, 2):
        op = dense_restriction(ws, depth, s)
        assert op.exact
        entries = FieldArray.of(op.values)
        want = entries.prefix_sums(op.index)
        size = op.vertex.size
        row_sums = laplacian._row_sums(op, entries)
        rows, cols = (x.ravel() for x in np.indices((size, size + 1)))
        got = row_sums(rows, 0, cols).num
        assert np.array_equal(got.reshape(want.shape), want), s
        # every range of the first and last root edges' rows, and ranges
        # that start inside a root edge and end past it
        width = op.slot_widths
        for rows in (np.arange(width[0]), np.arange(size - width[-1], size)):
            for lo, hi in product(range(0, size + 1, 7), repeat=2):
                if lo <= hi:
                    got = row_sums(rows, lo, hi).num
                    assert np.array_equal(got, (want[rows, hi] - want[rows, lo]).astype(object)), \
                        (s, lo, hi)


def _verify_peak(ws, n: int, s) -> int:
    """The bytes verify_spectrum(ws, n, s) allocates at its peak, by
    tracemalloc, after a first call has filled the stationary memo's
    imports and caches."""
    verify_spectrum(ws, n, s)
    tracemalloc.start()
    try:
        assert verify_spectrum(ws, n, s).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("name, n, bound", [("ammann-a2", 7, 8e6), ("penrose", 5, 1e6),
                                            ("thue-morse", 8, 1.42e6)])
def test_verify_holds_no_whole_id_matrix(name, n, bound):
    """verify_spectrum holds its ids in compact form and solves one block at
    a time: on ammann-a2 at n = 7 (|Pi_n| = 2440, g = 4, approx:200) it
    peaks below 8 MB, where the |Pi_n|^2 index alone took 5.95 MB; on
    penrose at n = 5 (g = 20) below 1 MB; and on thue-morse at n = 8 (g = 1,
    the exact check on Q) no higher than the 1.42 MB of the whole index."""
    assert _verify_peak(load_preset(name).weight_system, n, 1) < bound


def _slot_cell(op, v, k, a, w, l, b):
    """The cell of row a of root edge (v, k) and column b of root edge (w, l)."""
    g = op.symmetry_order
    return op.bases[v * g + k] + a, op.bases[w * g + l] + b


def _break_slot(op, kind: str, v: int, k: int):
    """Perturb one input of the slot check under root edge (v, k): its first
    record's span ("span", hi one less) or meet key ("meet", a generation
    deeper), or its first leaf's walk state ("state") or range vertex
    ("vertex", the other of two letters).  "copy-span" and "copy-state"
    perturb the first record's span or the first leaf's walk state under
    the second edge a -> a below root edge (v, k') for every slot k', so
    the root slots still repeat slot 0, and only the check of that
    parallel-edge pair sees it."""
    if kind.startswith("copy-"):
        g = op.symmetry_order
        for slot in range(g):
            # the record of root edge (v, slot) bounds its children's leaves
            ends = next(ends for ends, meet in zip(op.bounds, op.meets)
                        if meet == (v, 1) and ends[0] == op.bases[v * g + slot])
            if kind == "copy-span":
                r = next(r for r, (lo, meet) in enumerate(zip(op.bounds, op.meets))
                         if meet == (0, 2) and lo[0] == ends[1])
                op.bounds[r] = op.bounds[r][:-1] + (op.bounds[r][-1] - 1,)
            else:
                op.levels[-1].state[ends[1]] += 1
        return op
    base = op.bases[v * op.symmetry_order + k]
    if kind in ("span", "meet"):
        r = next(r for r, (ends, meet) in enumerate(zip(op.bounds, op.meets))
                 if meet[0] >= 0 and base <= ends[0] < base + op.slot_widths[v])
        if kind == "span":
            op.bounds[r] = op.bounds[r][:-1] + (op.bounds[r][-1] - 1,)
        else:
            op.meets[r] = (op.meets[r][0], op.meets[r][1] + 1)
    elif kind == "state":
        op.levels[-1].state[base] += 1
    else:
        op.vertex[base] = 1 - op.vertex[base]
    return op


# broken inputs as (kind, v, k), and the copy the check names: a record
# under (0, 1), the root edge of a broken (0, 0) copy's rows before the
# check read records, then a record's meet key there, a leaf under (0, 2),
# a leaf under the reference slot (1, 0), which makes (1, 1) the first to
# differ, and two root edges at once, where (0, 1) comes first; then, under
# every root slot of letter a alike, a record's span and a leaf's walk state
# under the second of the parallel edges a -> a below a[0], a[1], ...
_BROKEN_SLOTS = {
    "same-slot": ([("span", 0, 1)], "records under root edge (0, 1)", "(0, 0)"),
    "other-slot": ([("meet", 0, 1)], "records under root edge (0, 1)", "(0, 0)"),
    "other-vertex": ([("state", 0, 2)], "leaves under root edge (0, 2)", "(0, 0)"),
    "reference": ([("vertex", 1, 0)], "leaves under root edge (1, 1)", "(1, 0)"),
    "two-copies": ([("span", 0, 2), ("state", 0, 1)], "leaves under root edge (0, 1)",
                   "(0, 0)"),
    "parallel-span": ([("copy-span", 0, 0)], "records under path a[0].a(2)", "a[0].a(1)"),
    "parallel-state": ([("copy-state", 0, 0)], "leaves under path a[0].a(2)", "a[0].a(1)"),
}


@pytest.mark.parametrize("cells", sorted(_BROKEN_SLOTS))
@pytest.mark.parametrize("system", ["penrose", "ammann-a2"])
def test_verify_reports_broken_slot_symmetry(monkeypatch, system, cells):
    """A record's span or meet key, or a leaf's walk state or range vertex,
    under one root slot, or under one of two parallel edges, that no longer
    repeats copy 0's is caught by the copy check before any gather, not
    absorbed into the float tolerance, and dense_spectrum names the first
    such copy, with what differs there (g = 20 on penrose, 4 on
    ammann-a2)."""
    ws = penrose_ws() if system == "penrose" else \
        load_preset(system, backend="approx:100").weight_system
    breaks, broken, reference = _BROKEN_SLOTS[cells]

    def perturbed(*args, **kwargs):
        op = dense_restriction(*args, **kwargs)
        for kind, v, k in breaks:
            _break_slot(op, kind, v, k)
        return op

    with pytest.raises(laplacian.SlotSymmetryError) as exc:
        dense_spectrum(perturbed(ws, 3, 2))
    want = str(exc.value)
    assert want == f"{broken} differ from those under {reference}"

    monkeypatch.setattr(laplacian, "dense_restriction", perturbed)
    report = verify_spectrum(ws, 3, 2)
    assert not report.ok
    assert f"slot symmetry: {want}" in report.mismatches
    assert report.lines()[0].endswith("FAIL")
    assert any("mismatch: slot symmetry" in line for line in report.lines())


# cells as (v, k, a, w, l, b) made infinite: a cell of the square of (0, 0),
# a cell of the (0, 1) copy and of a cross-vertex copy, which meet at the
# root, and with g = 1 a cross-vertex cell; and, as (kind, v, k), slot
# inputs broken under the root edge of the rows of two copies that are not
# gathered, (0, 2) against (0, 3) and (1, 1) against (0, 2)
_INFINITE_CELLS = {
    "own-copy-00": ("penrose", (0, 0, 0, 0, 0, 1), LaplacianError),
    "own-copy-01": ("penrose", (1, 0, 0, 1, 1, 0), LaplacianError),
    "cross-copy-00": ("penrose", (0, 0, 1, 1, 0, 0), LaplacianError),
    "own-copy-23": ("penrose", ("span", 0, 2), laplacian.SlotSymmetryError),
    "cross-copy-12": ("penrose", ("vertex", 1, 1), laplacian.SlotSymmetryError),
    "one-slot": ("thue-morse", (1, 0, 0, 0, 0, 1), LaplacianError),
}


@pytest.mark.parametrize("case", sorted(_INFINITE_CELLS))
def test_a_non_finite_gathered_entry_comes_before_broken_slots(case):
    """Every value id is gathered: one in the square of (v, 0) or in
    root_ids, made infinite, raises LaplacianError from the block that sums
    it.  A slot copy that is not gathered is held only as the records and
    leaves under its root edge, and only the slot check, which runs first,
    sees them broken (penrose, g = 20).  With g = 1 (thue-morse) every copy
    is gathered."""
    system, cell, error = _INFINITE_CELLS[case]
    op = dense_restriction(penrose_ws() if system == "penrose" else tm_ws(), 3, 2)
    if error is LaplacianError:
        _edit_entries(op, {_slot_cell(op, *cell): lambda x: float("inf")})
    else:
        _break_slot(op, *cell)
    with pytest.raises(error) as exc:
        dense_spectrum(op)
    assert type(exc.value) is error
    if error is LaplacianError:
        assert "dense matrix entries leave the float range" in str(exc.value)
    else:
        assert f"root edge ({cell[1]}, {cell[2]})" in str(exc.value)


def test_verify_builds_no_path(monkeypatch):
    """verify reads the walk's arrays only: the table of path labels is built
    on first read, which verify never makes, and no path is labelled."""
    def no_labels(*args):
        raise AssertionError("verify labelled paths")

    monkeypatch.setattr(laplacian.DenseOperator, "table", property(no_labels))
    monkeypatch.setattr(BratteliDiagram, "label", no_labels)
    report = verify_spectrum(penrose_ws(), 5, 1)
    assert report.ok and report.dense_size == 1780


def test_verify_ammann_depth7_half_passes():
    """One eigvalsh on the whole 2440-dim operator missed the 1e-8 tolerance
    here (3.4e-8); the blocks of the sibling-copy split, the largest of
    dimension 128, are solved to well inside it."""
    ws = load_preset("ammann-a2", backend="approx:200").weight_system
    report = verify_spectrum(ws, 7, Fraction(1, 2))
    assert report.ok, report.lines()
    assert report.dense_size == 2440


def test_gathered_spectrum_equals_whole_matrix_at_ammann_depth7():
    """At the deepest ammann-a2 generation the cap accepts, the spectrum
    gathered from the representative rows of the compact ids equals the
    whole-matrix split bit for bit."""
    op = dense_restriction(load_preset("ammann-a2").weight_system, 7, Fraction(1, 2))
    assert dense_spectrum(op).tobytes() == whole_matrix_dense_spectrum(op).tobytes()


def test_gathered_spectrum_equals_whole_matrix_across_row_chunks():
    """On fibonacci-conjugate at n = 8 (g = 1, a -> a doubled) the 128
    representative rows of letter a against all 1,597 columns take several
    ROW_BLOCK^2-cell gathers, and the spectrum still equals the
    whole-matrix split bit for bit."""
    op = dense_restriction(load_preset("fibonacci-conjugate").weight_system, 8, Fraction(1, 2))
    state = op.levels[-1].state
    rows = np.unique(state[:op.slot_widths[0]]).size
    assert (op.vertex.size, rows) == (1597, 128)
    assert rows * op.vertex.size > 2 * ROW_BLOCK ** 2
    assert dense_spectrum(op).tobytes() == whole_matrix_dense_spectrum(op).tobytes()


def _dense_spectrum_peak(op) -> int:
    """The bytes dense_spectrum(op) allocates at its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        dense_spectrum(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_dense_spectrum_holds_no_whole_float_matrix():
    """dense_spectrum on ammann-a2 at n = 7 (g = 4, |Pi_n| = 2440) peaks
    below 2 MB (1.85 MB measured: a letter's 64 representative rows against
    the 1,220 columns under root slots 0 and 1, and their sums), where the
    610-dim block of the split at the root slots alone took 3.0 MB and
    that split peaked at 4.3 MB."""
    op = dense_restriction(load_preset("ammann-a2").weight_system, 7, 1)
    size, g = op.vertex.size, op.symmetry_order
    assert (size, g) == (2440, 4)
    peak = _dense_spectrum_peak(op)
    assert peak < 2e6, peak


@pytest.mark.parametrize("n", [8, 10])
def test_dense_spectrum_with_one_slot_holds_one_float_matrix(n):
    """With g = 1 each gather is written straight into the block, which is
    the whole operator: on thue-morse dense_spectrum holds no more than one
    |Pi_n|^2 float matrix plus ROW_BLOCK of its rows, at n = 8, the deepest
    benchmark verify, and at n = 10, where ROW_BLOCK rows are a quarter of
    the matrix."""
    op = dense_restriction(load_preset("thue-morse").weight_system, n, 0)
    size = op.vertex.size
    assert (size, op.symmetry_order) == (2 ** n, 1)
    peak = _dense_spectrum_peak(op)
    assert peak <= 8 * size * (size + ROW_BLOCK), peak


def test_verify_deep_generations():
    for ws, s in ((fib_ws(), 1), (tm_ws(), 1)):
        for n in (4, 5):
            report = verify_spectrum(ws, n, s)
            assert report.ok, report.lines()


@pytest.mark.parametrize("s", [1, 2])
def test_approx_spectrum_keeps_declared_precision(s):
    """Penrose on approx:200 against its exact Q(sqrt5) twin embedded at 200
    bits: every record agrees to 2^-180 relative, so no step of the walk,
    negation included, rounds to double precision."""
    approx = full_spectrum(load_preset("penrose", backend="approx:200").weight_system, 3, s)
    exact = full_spectrum(load_preset("penrose", backend="quadratic:5").weight_system, 3, s)
    assert [r.path for r in approx] == [r.path for r in exact]
    for ra, rq in zip(approx, exact):
        twin = ApproxReal.make(rq.value, 200)
        assert ra.value.precision == 200
        assert abs(float(ra.value - twin)) <= 2.0 ** -180 * abs(float(twin)), ra.path


@pytest.mark.parametrize("name,backend,depth,slots", [
    ("thue-morse", "rational", 7, None),
    ("dyadic-odometer", "rational", 8, None),
    ("fibonacci", "quadratic:5", 8, None),
    # the 20 root slots of a penrose vertex are copies of one subtree: slot 1
    # shares every walk state that slot 0 built, and slots 20 and 21 do the
    # same under the second root vertex; the direct formula on all 2862
    # records would take about 15 s
    ("penrose", "quadratic:5", 5, (0, 1)),
    ("penrose", "approx:200", 4, (0, 1, 20, 21)),
    ("ammann-a2", "approx:200", 5, None),
    ("fibonacci-conjugate", "approx:200", 6, None),
    # the walk's first visit alone: the root record against -1/G(root)
    ("penrose", "approx:200", 0, None),
])
@pytest.mark.parametrize("s", [1, 2, Fraction(3, 2)])
def test_memoized_spectrum_equals_direct_formula(name, backend, depth, slots, s):
    ws = load_preset(name, backend=backend).weight_system
    checked = 0
    for rec in full_spectrum(ws, depth, s):
        if rec.label == "zero" or (slots and rec.path and rec.path.root not in slots):
            continue
        direct = eigenvalue(ws, rec.path or EMPTY_PATH, s)
        assert type(rec.value) is type(direct.value), rec.path
        assert rec.value == direct.value, rec.path
        if isinstance(direct.value, ApproxReal):
            assert rec.value.value == direct.value.value, rec.path     # the mpf bits
        assert rec.value_float == direct.value_float, rec.path
        checked += 1
    assert checked > (20 if depth else 0)


@pytest.mark.parametrize("name,backend,depth,n_records,n_values", [
    ("penrose", "approx:200", 7, 19722, 256),
    ("ammann-a2", "approx:200", 8, 10334, 512),
    ("dyadic-odometer", "rational", 13, 8192, 14),
])
def test_full_spectrum_shares_one_value_per_walk_state(name, backend, depth,
                                                       n_records, n_values):
    """Paths that differ only in their root slot or in which parallel edge
    they took reach one walk state, and their records share its value
    object: one object per distinct float on these diagrams."""
    records = full_spectrum(load_preset(name, backend=backend).weight_system, depth, 1)
    assert len(records) == n_records
    assert len({id(rec.value) for rec in records}) == n_values
    assert len({rec.value_float for rec in records}) == n_values


@pytest.mark.parametrize("name,n,n_states", [("penrose", 5, 32), ("ammann-a2", 6, 64),
                                              ("ammann-a2", 7, 128)])
def test_dense_diagonal_interns_one_value_per_walk_state(name, n, n_states):
    """The dense walk interns each diagonal partial once per walk state, so
    the diagonal's ids are as many as its distinct floats, and the index,
    allocated for the ids bounded before the walk (at most 154 here), takes
    one byte per entry."""
    op = dense_restriction(load_preset(name, backend="approx:200").weight_system, n, 1)
    assert len(set(np.diag(op.index).tolist())) == n_states
    assert len(set(np.diag(float_matrix(op)).tolist())) == n_states
    assert op.index.dtype == np.uint8 and int(op.index.max()) == len(op.values) - 1


def test_dense_index_peak_is_one_byte_per_entry():
    """The ids are allocated once, at the type their bound needs, so
    assembly never holds a wider provisional copy beside them, and in
    compact form: on ammann-a2 at n = 7 the squares take one byte per
    entry, and assembly peaks below a quarter of the |Pi_n|^2 bytes of the
    whole index they stand for."""
    ws = load_preset("ammann-a2", backend="approx:200").weight_system
    size = 2440
    tracemalloc.start()
    try:
        op = dense_restriction(ws, 7, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(op.table) == size and op.index.dtype == np.uint8
    assert sum(square.nbytes for square in op.squares) == sum(w * w for w in op.slot_widths)
    assert peak <= 0.25 * size * size, peak


def test_verify_refuses_oversize_dense_before_spectrum(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a walk started before the dense cap check")

    monkeypatch.setattr(laplacian, "walk_states", no_walk)
    ws = load_preset("penrose").weight_system
    with pytest.raises(LaplacianError, match="dense restriction needs more than 4096"):
        verify_spectrum(ws, 7, 1)


def test_spectrum_path_cap_is_the_total_it_visits(monkeypatch):
    # the running sum of |Pi_k| stops at the cap: a cap at the total visited
    # accepts, one below refuses
    ws = fib_ws()
    total = sum(len(enumerate_paths(ws.diagram, k)) for k in range(1, 9))
    monkeypatch.setattr(laplacian, "DEFAULT_PATH_CAP", total)
    full_spectrum(ws, 8, 1)
    monkeypatch.setattr(laplacian, "DEFAULT_PATH_CAP", total - 1)
    with pytest.raises(LaplacianError, match="more than"):
        full_spectrum(ws, 8, 1)


def _same_value(got: tuple, want) -> None:
    """A walk-state value (value, float) against a record's, bit for bit."""
    value, value_float = got
    assert type(value) is type(want.value) and value == want.value, want.path
    assert value_float.hex() == want.value_float.hex(), want.path
    if isinstance(want.value, ApproxReal):
        assert value._mpf == want.value._mpf, want.path


def _same_record(got, want) -> None:
    assert (got.label, got.path, got.generation, got.multiplicity) == \
        (want.label, want.path, want.generation, want.multiplicity)
    _same_value((got.value, got.value_float), want)


@pytest.mark.parametrize("backend", ["field", "approx:200"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_dense_walk_yields_full_spectrum_leaves_and_cylinders(name, backend):
    """The one walk of dense_restriction gives full_spectrum(ws, n - 1, s)'s
    records after the zero one, record for record, the leaves in
    enumerate_paths order, and as each record's bounds the cylinders of its
    base's extensions, one more than its multiplicity.  verify adds the
    zero eigenvalue to the records' multiset.  The index, filled with one
    write per record's whole span in pre-order, equals the block-by-block
    fill of the records' off-diagonal child blocks, on the folded diagrams
    (g = 20, 4) too."""
    ws = load_preset(name, backend=None if backend == "field" else backend).weight_system
    diagram = ws.diagram
    for s, n in product((0, Fraction(1, 2), 1, 2), range(1, 6)):
        op = dense_restriction(ws, n, s)
        want = full_spectrum(ws, n - 1, s)
        assert want[0].label == "zero"
        assert len(op.records) == len(want) - 1, (s, n)
        for got, rec in zip(op.records, want[1:]):
            _same_value(got, rec)
        table = enumerate_paths(diagram, n)
        assert tuple(level_paths(op.levels)[-1]) == table.paths
        assert np.array_equal(op.index, blockwise_index(op)), (s, n)
        assert len(op.bounds) == len(op.records)
        for rec, ends in zip(want[1:], op.bounds):
            assert len(ends) - 2 == rec.multiplicity, (s, n, rec.path)
            base = rec.path or EMPTY_PATH
            assert [range(lo, hi) for lo, hi in zip(ends, ends[1:])] == \
                [span(table, base.child(e)) for e in extensions(diagram, base)]
        if n == 3:
            # with the dense spectrum replaced by the walked multiset, the
            # closed form verify expects deviates from it nowhere
            walked = np.array(spectrum_multiset(walked_spectrum(ws, n - 1, s)))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(laplacian, "dense_spectrum", lambda op: walked)
                report = verify_spectrum(ws, n, s)
            assert report.counting_ok and report.max_abs_deviation == 0.0, (s, n)


def _value_objects(name: str, backend: str | None, depth: int) -> list[tuple[int, int, int]]:
    """Per walk level 0 to depth at s = 1: its states with a value, their
    value objects and their distinct values, None on ApproxReal."""
    ws = load_preset(name, backend=backend).weight_system
    out = []
    for level in laplacian.walk_states(laplacian.StationaryCache(ws, 1), depth):
        values = [v for v in level.values if v]
        exact = not isinstance(values[0][0], ApproxReal)
        out.append((len(values), len({id(v) for v in values}),
                    len({v[0] for v in values}) if exact else None))
    return out


def test_exact_values_are_made_once_per_distinct_numerator():
    # thue-morse's 4,095 walk states through level 11, the ones spectrum
    # --depth 12 prints, hold one value per level: one object each
    levels = _value_objects("thue-morse", None, 11)
    assert sum(states for states, _, _ in levels) == 4095
    assert [(objects, distinct) for _, objects, distinct in levels] == [(1, 1)] * 12
    # fibonacci's values are all distinct, so every state has its own object,
    # and so has every ApproxReal value, which is never compared
    for states, objects, distinct in _value_objects("fibonacci", None, 11):
        assert states == objects == distinct
    for states, objects, distinct in _value_objects("thue-morse", "approx:200", 11):
        assert states == objects and distinct is None


@pytest.mark.parametrize("backend", ["field", "approx:200"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_walk_states_match_the_path_by_path_walk(name, backend):
    """The state engine against the recursive walk it replaced: full_spectrum
    record for record, the records of one walk state sharing one value
    object, and the states of equal exact value too, but never two states
    of ApproxReal value; and dense_restriction's records, leaves, bounds
    and diagonal ids."""
    ws = load_preset(name, backend=None if backend == "field" else backend).weight_system
    for s in (0, Fraction(1, 2), 1, 2):
        for depth in range(7):
            got, want = full_spectrum(ws, depth, s), walked_spectrum(ws, depth, s)
            assert len(got) == len(want), (s, depth)
            shared, states = {}, {}
            for g, w in zip(got, want):
                _same_record(g, w)
                assert shared.setdefault(id(w.value), id(g.value)) == id(g.value)
                states.setdefault(id(g.value), {id(w.value)}).add(id(w.value))
                if isinstance(g.value, ApproxReal):
                    assert len(states[id(g.value)]) == 1, (s, depth)
        for n in range(1, 7):
            if predicted_path_count(ws.diagram, n) > laplacian.DEFAULT_DENSE_CAP:
                break
            op = dense_restriction(ws, n, s)
            records, leaves, bounds, ids = walked_dense(ws, n, s)
            assert records[0].label == "zero"
            assert len(op.records) == len(records) - 1, (s, n)
            for g, ends, w in zip(op.records, op.bounds, records[1:]):
                _same_value(g, w)
                assert len(ends) - 2 == w.multiplicity, (s, n, w.path)
            assert tuple(level_paths(op.levels)[-1]) == tuple(leaves)
            assert op.table == tuple(format_path(ws.diagram, p) for p in leaves)
            assert op.bounds == bounds
            assert np.diag(op.index).tolist() == ids


@pytest.mark.parametrize("argv, calls", [
    (["--preset", "fibonacci", "--depth", "9"], 9),
    (["--preset", "thue-morse", "--depth", "8"], 15),
    (["--preset", "ammann-a2", "--depth", "7"], 13),
])
def test_verify_computes_each_splitting_weight_once(argv, calls, monkeypatch, capsys):
    """verify reads one stationary memo: g_value runs once per (range
    vertex, generation) key."""
    keys = []

    def counted(ws, a, n, s):
        keys.append((a, n))
        return g_value(ws, a, n, s)

    monkeypatch.setattr(laplacian, "g_value", counted)
    assert main(["verify", *argv, "--s", "1"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(keys) == len(set(keys)) == calls


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_memo_is_read_by_integer_keys(name, monkeypatch):
    """The walk reads the stationary memo by (range vertex, generation)
    keys, never by a path: after walk_states, verify_spectrum and
    affine_table every key in the memo's tables is a tuple of ints."""
    ws = load_preset(name).weight_system
    caches, init = [], laplacian.StationaryCache.__init__

    def recorded(cache, *args):
        init(cache, *args)
        caches.append(cache)

    monkeypatch.setattr(laplacian.StationaryCache, "__init__", recorded)
    for s in (0, Fraction(1, 2), 1, 2):
        for level in laplacian.walk_states(laplacian.StationaryCache(ws, s), 6):
            assert len(level.values) == len(level.partials)
    verify_spectrum(ws, 4, 1)
    cuntz.affine_table(ws, 1)
    assert len(caches) == 6
    for cache in caches:
        keys = [k for table in vars(cache).values() if isinstance(table, dict) for k in table]
        assert keys
        assert all(type(k) is tuple and all(type(x) is int for x in k) for k in keys), keys


WALK_GRID = [("ammann-a2", "quadratic:5", 5), ("penrose", "quadratic:5", 4),
             ("fibonacci", "quadratic:5", 7), ("fibonacci-conjugate", "quadratic:5", 7),
             *((name, backend, 7) for name in ("dyadic-odometer", "thue-morse")
               for backend in ("rational", "quadratic:5", "quadratic:2"))]
WALK_S = (-1, 0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3)


def _same_scalars(got: list, want: list) -> bool:
    """Equal entries of equal types: floats by their bits, (value, float)
    pairs by both, None only against None."""
    def bits(x):
        if isinstance(x, tuple):
            return tuple(map(bits, x))
        return x.hex() if isinstance(x, float) else (type(x), x)
    return [x if x is None else bits(x) for x in got] == \
        [x if x is None else bits(x) for x in want]


@pytest.mark.parametrize("name, backend, depth", WALK_GRID)
def test_walk_numerators_match_the_object_walk(name, backend, depth):
    """The walk's exact partial sums, kept as integer numerators, against
    the object loop that added them as scalars: every level's partials and
    values on each preset's field and the fields that hold its theta, where
    exact sums stay numerators and where the walk falls back to ApproxReal
    terms at a fractional power mid-walk.  The dense restriction to the
    same generation reads the same leaf partials and records."""
    ws = load_preset(name, backend=backend).weight_system
    fell_back = set()
    for s in WALK_S:
        levels = list(laplacian.walk_states(laplacian.StationaryCache(ws, s), depth))
        walked = object_walk(levels)
        for level, (partials, values) in zip(levels, walked):
            assert _same_scalars(level.partials, partials), (s, level.generation)
            assert _same_scalars(level.values, values), (s, level.generation)
        kinds = [isinstance(level.sums, FieldArray) for level in levels]
        assert kinds[0] and kinds == sorted(kinds, reverse=True), s
        if not kinds[-1]:
            fell_back.add(s)
        op = dense_restriction(ws, depth, s)
        top = walked[-1][0]
        want = top if op.exact else [float(x) for x in top]
        assert _same_scalars(list(op.values[:len(top)]), want), s
        bases = sorted((rank, k, i) for k, level in enumerate(levels[:-1])
                       for rank, i in zip(level.rank[level.splits].tolist(),
                                          level.splits.tolist()))
        records = [walked[k][1][levels[k].state[i]] for _, k, i in bases]
        assert _same_scalars(op.records, records), s
    if name.startswith("fibonacci"):
        assert fell_back == {Fraction(1, 2), Fraction(3, 2)}
