"""Closed-form spectra against hand-evaluated constants and the dense oracle."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from bratlap import laplacian
from bratlap.diagram import EMPTY_PATH, Path, build_diagram, enumerate_paths
from bratlap.laplacian import (
    LaplacianError,
    dense_restriction,
    dense_spectrum,
    eigenbasis,
    eigenvalue,
    expand_eigenvector,
    full_spectrum,
    g_value,
    root_record,
    spectrum_multiset,
    verify_spectrum,
)
from bratlap.measure import WeightSystem, perron
from bratlap.presets import load_preset
from bratlap.scalar import ApproxBackend, QuadraticBackend, RationalBackend, embed_real

Q5 = QuadraticBackend(5)
RAT = RationalBackend()
ALPHA = Q5.make((Fraction(-1, 2), Fraction(1, 2)))
PHI = Q5.make((Fraction(1, 2), Fraction(1, 2)))

FIB_A = ((1, 1), (1, 0))
TM_A = ((1, 1), (1, 1))
PEN_A = ((2, 1), (1, 1))


def fib_ws():
    d = build_diagram(FIB_A)
    return WeightSystem(d, perron(FIB_A, Q5))


def tm_ws():
    d = build_diagram(TM_A, letters=("0", "1"))
    return WeightSystem(d, perron(TM_A, RAT))


def dyadic_ws():
    d = build_diagram([[2]])
    return WeightSystem(d, perron([[2]], RAT))


def penrose_ws(backend=None, g=20):
    be = backend or ApproxBackend(100)
    d = build_diagram(PEN_A, symmetry_order=g)
    return WeightSystem(d, perron(PEN_A, be, symmetry_order=g, dimension=2))


def test_g_values_fibonacci():
    ws = fib_ws()
    assert g_value(ws, EMPTY_PATH, 1) == ALPHA ** 3
    assert g_value(ws, Path(0), 1) == ALPHA ** 6
    with pytest.raises(LaplacianError):
        g_value(ws, Path(1), 1)  # vertex b has a single extension


def test_g_values_thue_morse():
    ws = tm_ws()
    assert g_value(ws, EMPTY_PATH, 1) == Fraction(1, 4)
    assert g_value(ws, Path(0), 1) == Fraction(1, 32)


def test_root_eigenvalue_fibonacci():
    ws = fib_ws()
    rec = root_record(ws, 1)
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
    assert ws.diagram.format_path(baa) == "b.a.a"
    assert eigenvalue(ws, baa, 1).value == -(40 * PHI + 25)
    with pytest.raises(LaplacianError):
        eigenvalue(ws, t2[1], 1)  # a.b ends at b, single extension


def test_eigenvalue_thue_morse():
    ws = tm_ws()
    rec = root_record(ws, 1)
    assert rec.value == Fraction(-4) and rec.multiplicity == 1
    for path in enumerate_paths(ws.diagram, 1).paths:
        assert eigenvalue(ws, path, 1).value == Fraction(-18)
    for path in enumerate_paths(ws.diagram, 2).paths:
        assert eigenvalue(ws, path, 2 - 1).value == Fraction(-74)


def test_dyadic_odometer_closed_form():
    # single root edge: no root record, and the per-generation eigenvalue
    # follows -(2/3)(7*4^(n-1) - 1)
    ws = dyadic_ws()
    assert root_record(ws, 1) is None
    for n in range(1, 5):
        expected = Fraction(-2, 3) * (7 * 4 ** (n - 1) - 1)
        for path in enumerate_paths(ws.diagram, n).paths:
            assert eigenvalue(ws, path, 1).value == expected


def test_eigenbasis_fibonacci():
    ws = fib_ws()
    specs = eigenbasis(ws, EMPTY_PATH)
    assert len(specs) == 1
    ratio = specs[0].coeff_neg / specs[0].coeff_pos
    assert ratio == -PHI                       # chi_a - phi chi_b after rescaling
    specs_a = eigenbasis(ws, Path(0))
    assert len(specs_a) == 1
    assert specs_a[0].coeff_neg / specs_a[0].coeff_pos == -PHI
    assert eigenbasis(ws, Path(1)) == []


def test_eigenbasis_dimension_penrose_vertex_a():
    ws = penrose_ws(backend=Q5)
    specs = eigenbasis(ws, Path(ws.diagram.root_edge_index(0, 5)))
    assert len(specs) == 2


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
    assert op.matrix == ((-phi, phi), (phi * phi, -(phi * phi)))
    m = op.as_float()
    assert np.allclose(m @ np.ones(2), 0.0, atol=1e-12)
    v = np.array([1.0, -float(phi)])
    assert np.allclose(m @ v, -float(phi) ** 3 * v, atol=1e-10)


def test_dense_thue_morse_pi1():
    ws = tm_ws()
    op = dense_restriction(ws, 1, 1)
    eigs = np.sort(np.linalg.eigvalsh(op.symmetrized()))
    assert np.allclose(eigs, [-4.0, 0.0], atol=1e-12)


def test_dense_kernel_and_mu_symmetry():
    for ws, s in ((fib_ws(), 1), (tm_ws(), 1), (penrose_ws(), 2)):
        op = dense_restriction(ws, 3, s)
        m = op.as_float()
        assert np.max(np.abs(m @ np.ones(len(op.table)))) < 1e-9
        d = np.diag(op.mu_float())
        dm = d @ m
        assert np.max(np.abs(dm - dm.T)) < 1e-10


def test_dense_mu_symmetry_exact():
    ws = fib_ws()
    op = dense_restriction(ws, 4, 1)
    assert op.exact
    n = len(op.table)
    for i in range(n):
        for j in range(n):
            assert op.mu_values[i] * op.matrix[i][j] == op.mu_values[j] * op.matrix[j][i]


def test_dense_nonpositive_spectrum_at_s_equals_d():
    for ws, s in ((fib_ws(), 1), (tm_ws(), 1), (penrose_ws(), 2)):
        op = dense_restriction(ws, 4, s)
        eigs = np.linalg.eigvalsh(op.symmetrized())
        assert eigs.max() < 1e-9


def test_dense_cap():
    ws = tm_ws()
    with pytest.raises(LaplacianError):
        dense_restriction(ws, 10, 1, cap=100)


def test_expand_eigenvector_relation_exact():
    ws = fib_ws()
    op = dense_restriction(ws, 3, 1)
    rec = eigenvalue(ws, Path(0), 1)
    spec = eigenbasis(ws, Path(0))[0]
    vec = expand_eigenvector(ws, op.table, spec)
    n = len(op.table)
    for i in range(n):
        acc = Q5.zero
        for j in range(n):
            acc = acc + op.matrix[i][j] * vec[j]
        assert acc == rec.value * vec[i]


def test_verify_fibonacci_exact():
    report = verify_spectrum(fib_ws(), 2, 1)
    assert report.ok and report.exact_checked and report.exact_ok
    assert report.total_multiplicity == 3
    assert report.max_abs_deviation < 1e-12


def test_verify_thue_morse_depth3():
    report = verify_spectrum(tm_ws(), 3, 1)
    assert report.ok and report.exact_ok
    expected = spectrum_multiset(full_spectrum(tm_ws(), 2, 1))
    assert expected == sorted([-74.0] * 4 + [-18.0] * 2 + [-4.0, 0.0])


def test_verify_penrose_approx():
    report = verify_spectrum(penrose_ws(), 2, 2)
    assert report.ok
    assert not report.exact_checked
    assert report.max_abs_deviation < 1e-8


# three letters, g = 3, parallel edges: the slot split away from the presets
TRI_A = ((2, 1, 0), (0, 1, 1), (1, 0, 1))


def tri_ws():
    d = build_diagram(TRI_A, symmetry_order=3)
    return WeightSystem(d, perron(TRI_A, ApproxBackend(100), symmetry_order=3))


@pytest.mark.parametrize("system", ["penrose", "ammann-a2", "tri-g3", "fibonacci"])
@pytest.mark.parametrize("s", [Fraction(1, 2), 1, 2])
def test_slot_split_spectrum_equals_full_eigvalsh(system, s):
    """The block split agrees with one eigvalsh on the whole symmetrized
    operator; with g = 1 the single block is that operator, bit for bit."""
    ws = tri_ws() if system == "tri-g3" else load_preset(system).weight_system
    for n in range(2, 6):
        op = dense_restriction(ws, n, s)
        full = np.sort(np.linalg.eigvalsh(op.symmetrized()))
        split = dense_spectrum(op)
        if ws.diagram.symmetry_order == 1:
            assert np.array_equal(split, full), n
        else:
            assert split.shape == full.shape
            assert np.max(np.abs(split - full)) <= 1e-12 * np.max(np.abs(full)), n


def test_verify_reports_broken_slot_symmetry(monkeypatch):
    """One entry of one slot copy perturbed by a relative 1e-15 is caught by
    the exact invariance check, not absorbed into the float tolerance."""
    def perturbed(*args, **kwargs):
        op = dense_restriction(*args, **kwargs)
        width = op.slot_widths[0]
        op.matrix[width, width] *= 1 + 1e-15     # vertex 0, slot 1, diagonal
        return op

    monkeypatch.setattr(laplacian, "dense_restriction", perturbed)
    report = verify_spectrum(penrose_ws(), 3, 2)
    assert not report.ok
    assert any(m.startswith("slot symmetry:") for m in report.mismatches)
    assert report.lines()[0].endswith("FAIL")
    assert any("mismatch: slot symmetry" in line for line in report.lines())


def test_verify_ammann_depth7_half_passes():
    """One eigvalsh on the whole 2440-dim operator missed the 1e-8 tolerance
    here (3.4e-8); the slot blocks are solved to well inside it."""
    ws = load_preset("ammann-a2", backend="approx:200").weight_system
    report = verify_spectrum(ws, 7, Fraction(1, 2))
    assert report.ok, report.lines()
    assert report.dense_size == 2440


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
        twin = embed_real(rq.value, 200)
        assert ra.value.precision == 200
        assert abs(float(ra.value - twin)) <= 2.0 ** -180 * abs(float(twin)), ra.path


@pytest.mark.parametrize("name,backend,depth,slots", [
    ("thue-morse", "rational", 7, None),
    ("dyadic-odometer", "rational", 8, None),
    ("fibonacci", "quadratic:5", 8, None),
    # the 20 root slots of penrose are copies of one subtree: slot 1 already
    # reads every memo entry that slot 0 filled, and the direct formula on
    # all 2862 records would take about 15 s
    ("penrose", "quadratic:5", 5, (0, 1)),
])
@pytest.mark.parametrize("s", [1, 2])
def test_memoized_spectrum_equals_direct_formula(name, backend, depth, slots, s):
    ws = load_preset(name, backend=backend).weight_system
    checked = 0
    for rec in full_spectrum(ws, depth, s):
        if rec.label == "zero" or (slots and rec.path and rec.path.root not in slots):
            continue
        direct = eigenvalue(ws, rec.path or EMPTY_PATH, s)
        assert type(rec.value) is type(direct.value), rec.path
        assert rec.value == direct.value, rec.path
        checked += 1
    assert checked > 20
