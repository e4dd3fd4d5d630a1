"""Perron data, cylinder measures, weights, ultrametric, zeta partial sums."""

from __future__ import annotations

import json
import re
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bratlap import _linalg
from bratlap.cli import main
from bratlap.diagram import DiagramError, build_diagram, is_primitive
from bratlap.measure import (
    EXACT_POWER_LOG2_LIMIT,
    MeasureError,
    _approx_eigen,
    _exact_eigenvector,
    _field_root,
    _nonsingular_mod_prime,
    _power,
    _theta_certificate,
    WeightSystem,
    diam_power,
    field_perron,
    mu,
    perron,
    zeta_partial,
)
from bratlap.presets import PRESETS
from bratlap.scalar import ApproxBackend, ApproxReal, QuadraticBackend, RationalBackend
from oracles import (EMPTY_PATH, Path, enumerate_paths, longest_common_prefix,
                     mpf_power_iteration, path_key, path_range, root_edge_index)

Q5 = QuadraticBackend(5)
RAT = RationalBackend()

FIB_A = ((1, 1), (1, 0))
TM_A = ((1, 1), (1, 1))
PEN_A = ((2, 1), (1, 1))

ALPHA = Q5.make((Fraction(-1, 2), Fraction(1, 2)))      # 1/phi
PHI = Q5.make((Fraction(1, 2), Fraction(1, 2)))


def weight(ws: WeightSystem, path: Path):
    """diam[gamma]; exact whenever the d-th root stays in the field."""
    return diam_power(ws, *path_key(ws.diagram, path), Fraction(1))


def fib_ws():
    d = build_diagram(FIB_A)
    return WeightSystem(d, perron(d, Q5))


def tm_ws():
    d = build_diagram(TM_A, letters=("0", "1"))
    return WeightSystem(d, perron(d, RAT))


def penrose_ws(g=20):
    d = build_diagram(PEN_A, symmetry_order=g)
    return WeightSystem(d, perron(d, Q5, dimension=2))


def test_perron_fibonacci_exact():
    d = build_diagram(FIB_A)
    p = perron(d, Q5)
    assert p.theta == PHI
    assert p.v_right == (ALPHA, ALPHA * ALPHA)
    # with d = 1 the diameter is the measure, exactly
    assert weight(WeightSystem(d, p), Path(0)) == ALPHA


def test_perron_thue_morse_rational():
    p = perron(build_diagram(TM_A), RAT)
    assert p.theta == Fraction(2)
    assert p.v_right == (Fraction(1, 2), Fraction(1, 2))


def test_perron_penrose_folded():
    p = perron(build_diagram(PEN_A, symmetry_order=20), Q5, dimension=2)
    assert p.theta == PHI * PHI
    assert p.v_right == (ALPHA / 20, ALPHA * ALPHA / 20)
    # the inflation factor theta^(1/2) = phi that zeta_partial reads stays in
    # the field
    assert _power(Q5, p.theta, Fraction(1, 2), 212) == PHI


def test_perron_approx_backend():
    be = ApproxBackend(200)
    p = perron(build_diagram(FIB_A), be)
    with mpmath.workprec(200):
        golden = (1 + mpmath.sqrt(5)) / 2
        assert abs(p.theta.value - golden) < mpmath.mpf(2) ** -180


@pytest.mark.parametrize("bits", [53, 64, 200])
def test_perron_plastic_power_iteration(bits):
    # from the uniform start the theta estimates run 4/3, 5/4, 7/5, 9/7, 4/3,
    # 4/3: a repeat long before the eigenvector is reached
    p = perron(build_diagram(((0, 1, 0), (0, 0, 1), (1, 1, 0))), ApproxBackend(bits))
    with mpmath.workprec(bits):
        theta = p.theta.value
        assert abs(theta ** 3 - theta - 1) < mpmath.mpf(2) ** (20 - bits)
        v = [x.value for x in p.v_right]
        assert abs(v[1] - theta * v[0]) < mpmath.mpf(2) ** (20 - bits)


def _same_power_iteration(matrix, bits):
    """_approx_eigen and the mpf-object iteration give theta and v with equal
    raw mpf tuples at the same precision, or the same refusal."""
    backend = ApproxBackend(bits)
    try:
        want = mpf_power_iteration(matrix, backend)
    except MeasureError as exc:
        with pytest.raises(MeasureError, match=re.escape(str(exc))):
            _approx_eigen(matrix, backend)
        return
    theta, v = _approx_eigen(matrix, backend)
    assert (theta.value._mpf_, theta.precision) == (want[0].value._mpf_, bits)
    assert [x.value._mpf_ for x in v] == [x.value._mpf_ for x in want[1]]


@pytest.mark.parametrize("bits", [53, 100, 200])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_power_iteration_bits_equal_mpf_iteration_on_presets(name, bits):
    _same_power_iteration(PRESETS[name].matrix, bits)


@given(st.integers(2, 3).flatmap(
    lambda r: st.lists(st.lists(st.integers(0, 3), min_size=r, max_size=r),
                       min_size=r, max_size=r)),
       st.sampled_from([53, 100, 200]))
@settings(max_examples=100, deadline=None)
def test_power_iteration_bits_equal_mpf_iteration(matrix, bits):
    assume(is_primitive(matrix))
    _same_power_iteration(matrix, bits)


def test_exact_power_beyond_float_range_refused():
    # squaring toward e = 10**400 would never end
    with pytest.raises(OverflowError, match=f"2\\*\\*{EXACT_POWER_LOG2_LIMIT}"):
        _power(Q5, PHI, Fraction(10 ** 400), 212)
    with pytest.raises(OverflowError):
        _power(RAT, Fraction(1, 2), Fraction(-(EXACT_POWER_LOG2_LIMIT + 1)), 212)
    assert _power(RAT, Fraction(1, 2), Fraction(EXACT_POWER_LOG2_LIMIT), 212) == \
        Fraction(1, 2 ** EXACT_POWER_LOG2_LIMIT)


def test_perron_errors():
    with pytest.raises(DiagramError, match="not primitive"):
        build_diagram(((0, 1), (1, 0)))             # so never reaches perron
    fib = build_diagram(FIB_A)
    with pytest.raises(MeasureError):
        perron(fib, RAT)                            # irrational theta
    with pytest.raises(MeasureError):
        perron(fib, QuadraticBackend(2))            # wrong field
    tribonacci = build_diagram(((1, 1, 1), (1, 0, 0), (0, 1, 0)))
    with pytest.raises(MeasureError):
        perron(tribonacci, Q5)                      # degree 3
    p = perron(tribonacci, ApproxBackend(100))      # fine numerically
    assert float(p.theta) == pytest.approx(1.8392867552141612)


def test_theta_is_the_eigenvalue_with_a_positive_eigenvector():
    # the other eigenvalue, 3,999,999, lies within 1e-6 * theta of theta; a
    # diagram of this matrix would hold 8 * 10**6 edge models, so the
    # certificate is checked directly
    m = ((4 * 10 ** 6, 1), (1, 4 * 10 ** 6))
    cert = _theta_certificate(m)
    assert cert.field == RAT
    assert cert.theta == 4 * 10 ** 6 + 1
    assert cert.poly == (-(4 * 10 ** 6 + 1), 1)
    assert cert.vector[0] == cert.vector[1] > 0


def test_theta_of_huge_entries_takes_no_divisor_search():
    # trial division of the characteristic polynomial's constant term,
    # 10**24 - 1, would run to its square root, 10**12
    m = ((10 ** 12, 1), (1, 10 ** 12))
    start = time.perf_counter()
    cert = _theta_certificate(m)
    assert cert.field == RAT
    assert cert.theta == 10 ** 12 + 1
    assert cert.poly == (-(10 ** 12 + 1), 1)
    assert cert.vector[0] == cert.vector[1] > 0
    assert time.perf_counter() - start < 1.0


def test_quadratic_theta_beside_the_eigenvalue_zero():
    # eigenvalues 0 and 1 -+ sqrt3; p^2 - 4q = 12, whose square-free part is 3
    m = ((0, 0, 1), (0, 0, 1), (1, 1, 2))
    cert = _theta_certificate(m)
    assert cert.field == QuadraticBackend(3)
    assert cert.poly == (-2, -2, 1)
    p = perron(build_diagram(m), QuadraticBackend(3))
    assert p.theta == QuadraticBackend(3).make((1, 1))
    assert p.min_poly == (-2, -2, 1)


# theta = 4 + sqrt6, with 6 an eigenvalue too: the first candidate,
# x - round(theta) = x - 6, has det(A - 6 I) = 0, so the mod-p filter
# passes it on to an elimination
PF_SIX = ((3, 4, 0, 1), (1, 5, 0, 0), (0, 1, 3, 4), (0, 0, 1, 5))


def test_theta_is_not_the_rational_eigenvalue_next_to_it(tmp_path, capsys):
    """The kernel of A - 6 I is not one-signed, so the Perron-Frobenius sign
    test alone refuses 6 and the certificate goes on to x^2 - 8x + 10 in
    Q(sqrt6); verify on that field passes its exact check."""
    cert = _theta_certificate(PF_SIX)
    assert cert.poly == (10, -8, 1)
    assert cert.field == QuadraticBackend(6)
    assert cert.theta == QuadraticBackend(6).make((4, 1))
    a = np.array(PF_SIX, dtype=object)
    assert not _nonsingular_mod_prime(a - 6 * np.identity(4, dtype=object))
    with pytest.raises(MeasureError, match="not strictly one-signed"):
        _exact_eigenvector(PF_SIX, Fraction(6), RAT)
    spec = tmp_path / "pf.json"
    spec.write_text(json.dumps({"letters": list("abcd"), "matrix": [list(r) for r in PF_SIX]}))
    assert main(["verify", "--matrix-file", str(spec), "--depth", "2", "--s", "1",
                 "--backend", "quadratic:6"]) == 0
    assert "  exact eigen-relations: ok" in capsys.readouterr().out.splitlines()[-2]


def test_cubic_theta_has_no_field():
    plastic = ((0, 1, 0), (0, 0, 1), (1, 1, 0))
    assert _theta_certificate(plastic) is None
    with pytest.raises(MeasureError, match="degree > 2, so no rational or quadratic "):
        field_perron(build_diagram(plastic))
    with pytest.raises(MeasureError, match="degree > 2; use an approx backend"):
        perron(build_diagram(plastic), RAT)
    assert perron(build_diagram(plastic), ApproxBackend(64)).min_poly is None


def test_theta_beyond_exact_float_candidates_refused():
    # theta = 10**8 + the plastic number: cubic, and theta^2 > 2**53, where
    # a candidate rounded from floats is no longer exact
    n = 10 ** 8
    m = ((n, 1, 0), (0, n, 1), (1, 1, n))
    with pytest.raises(MeasureError, match="float spectrum cannot decide .* 2\\^53"):
        _theta_certificate(m)


def test_high_degree_theta_refused_without_elimination(monkeypatch):
    # a seeded random 0/1 matrix: theta has high degree, so every float
    # candidate has det p(A) != 0 mod the prime and none reaches an
    # elimination in its field
    rng = np.random.default_rng(40)
    matrix = rng.integers(0, 2, (40, 40)).tolist()
    assert is_primitive(matrix)
    diagram = build_diagram(matrix)
    eliminations = []
    kernel_vector = _linalg.kernel_vector
    monkeypatch.setattr(_linalg, "kernel_vector",
                        lambda rows, b: eliminations.append(b) or kernel_vector(rows, b))
    start = time.perf_counter()
    with pytest.raises(MeasureError, match="degree > 2; use an approx backend"):
        perron(diagram, RAT)
    with pytest.raises(MeasureError, match="degree > 2, so no rational or quadratic"):
        field_perron(diagram)
    assert time.perf_counter() - start < 1.0
    assert eliminations == []


@pytest.mark.parametrize("name, poly, field", [
    ("fibonacci", (-1, -1, 1), Q5), ("fibonacci-conjugate", (1, -3, 1), Q5),
    ("thue-morse", (-2, 1), RAT), ("dyadic-odometer", (-2, 1), RAT),
    ("penrose", (1, -3, 1), Q5), ("ammann-a2", (1, -3, 1), Q5)])
def test_every_preset_gets_its_exact_field(name, poly, field):
    cert = _theta_certificate(PRESETS[name].matrix)
    assert (cert.poly, cert.field) == (poly, field)


def _sympy_min_poly(matrix):
    """theta's minimal polynomial from sympy alone: the irreducible factor of
    the characteristic polynomial with the largest real root, which by
    Perron-Frobenius is theta."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    charpoly = sympy.Matrix(matrix).charpoly(x).as_expr()
    factors = [sympy.Poly(f, x) for f, _ in sympy.factor_list(charpoly)[1]]
    best = max((f for f in factors if f.real_roots()), key=lambda f: max(f.real_roots()))
    return tuple(int(c) for c in reversed(best.all_coeffs())) if best.degree() <= 2 else None


@given(st.integers(1, 4).flatmap(
    lambda r: st.lists(st.lists(st.integers(0, 5), min_size=r, max_size=r),
                       min_size=r, max_size=r)))
@settings(max_examples=150, deadline=None)
def test_certified_min_poly_matches_sympy(matrix):
    assume(is_primitive(matrix) and matrix != [[1]])
    cert = _theta_certificate(matrix)
    assert (None if cert is None else cert.poly) == _sympy_min_poly(matrix)


def _eliminated_v_right(diagram, backend):
    """The oracle for perron's exact eigenvector: A - theta*I eliminated again
    in the backend's field, with theta built from its certified polynomial,
    and normalized so that g * sum(v) = 1."""
    theta = backend.make(_field_root(_theta_certificate(diagram.matrix).poly)[1])
    v = _exact_eigenvector(diagram.matrix, theta, backend)
    total = v[0]
    for x in v[1:]:
        total = total + x
    scale = backend.one / (total * diagram.symmetry_order)
    return theta, tuple(x * scale for x in v)


# every preset on each exact backend that holds its theta, and two matrices
# whose theta lies in another field
EXACT_SYSTEMS = [(name, spec.matrix, spec.symmetry_order, backend)
                 for name, spec in PRESETS.items()
                 for backend in ((RAT, Q5) if len(_theta_certificate(spec.matrix).poly) == 2
                                 else (Q5,))] + \
    [("zero-eigenvalue", ((0, 0, 1), (0, 0, 1), (1, 1, 2)), 1, QuadraticBackend(3)),
     ("sqrt13", ((3, 1), (1, 0)), 1, QuadraticBackend(13))]


@pytest.mark.parametrize("name, matrix, g, backend", EXACT_SYSTEMS,
                         ids=[f"{s[0]}-{s[3].kind}" for s in EXACT_SYSTEMS])
def test_certified_vector_equals_a_second_elimination(name, matrix, g, backend, monkeypatch):
    diagram = build_diagram(matrix, symmetry_order=g)
    theta, v_right = _eliminated_v_right(diagram, backend)
    eliminations = []
    kernel_vector = _linalg.kernel_vector
    monkeypatch.setattr(_linalg, "kernel_vector",
                        lambda rows, b: eliminations.append(b) or kernel_vector(rows, b))
    p = perron(diagram, backend)
    assert p.theta == theta
    assert p.v_right == v_right
    assert [type(x) for x in p.v_right] == [type(x) for x in v_right]
    # perron eliminates no more than the certificate alone, whose last
    # elimination is the accepted candidate's
    in_perron = len(eliminations)
    _theta_certificate(matrix)
    assert len(eliminations) == 2 * in_perron


def test_mu_thue_morse_halving():
    ws = tm_ws()
    for n in range(1, 8):
        for path in enumerate_paths(ws.diagram, n).paths:
            assert mu(ws, *path_key(ws.diagram, path)) == Fraction(1, 2 ** n)


def test_mu_fibonacci_powers_of_alpha():
    ws = fib_ws()
    for n in range(1, 9):
        for path in enumerate_paths(ws.diagram, n).paths:
            v = path_range(ws.diagram, path)
            expected = ALPHA ** (n if v == 0 else n + 1)
            assert mu(ws, *path_key(ws.diagram, path)) == expected


def test_mu_penrose_generation_one():
    ws = penrose_ws()
    p = Path(root_edge_index(ws.diagram, 0, slot=7))
    assert mu(ws, *path_key(ws.diagram, p)) == ALPHA / 20
    assert mu(ws, *path_key(ws.diagram, EMPTY_PATH)) == Q5.one


def test_measure_additivity_exact():
    for ws in (fib_ws(), tm_ws()):
        for n in range(1, 10):
            for path in enumerate_paths(ws.diagram, n).paths:
                parts = [mu(ws, *path_key(ws.diagram, path.child(e)))
                         for e in ws.diagram.out_edges[path_range(ws.diagram, path)]]
                total = parts[0]
                for x in parts[1:]:
                    total = total + x
                assert total == mu(ws, *path_key(ws.diagram, path))


def test_total_mass_one():
    for ws in (fib_ws(), tm_ws(), penrose_ws()):
        total = ws.backend.zero
        for ri in range(len(ws.diagram.root_edges)):
            total = total + mu(ws, *path_key(ws.diagram, Path(ri)))
        assert total == ws.backend.one


def test_weight_equals_mu_in_dimension_one():
    ws = fib_ws()
    for path in enumerate_paths(ws.diagram, 4).paths:
        assert weight(ws, path) == mu(ws, *path_key(ws.diagram, path))


def test_weight_penrose_square_root():
    ws = penrose_ws()
    p = Path(root_edge_index(ws.diagram, 0))
    w = weight(ws, p)
    assert isinstance(w, ApproxReal)
    with mpmath.workprec(212):
        target = ApproxReal.make(mu(ws, *path_key(ws.diagram, p)), 212).value
        assert abs(w.value * w.value - target) < mpmath.mpf(2) ** -180


def test_diam_power_integer_exponents_exact():
    ws = fib_ws()
    path = Path(0, (0,))
    m = mu(ws, *path_key(ws.diagram, path))
    assert diam_power(ws, *path_key(ws.diagram, path), Fraction(-2)) == Q5.one / (m * m)
    assert diam_power(ws, *path_key(ws.diagram, path), Fraction(0)) == Q5.one


def ultrametric_distance(ws: WeightSystem, x: Path, y: Path):
    """d_w(x, y) = w(r(x ^ y)), the paper's ultrametric built on `weight`;
    zero when one path is a prefix of the other."""
    meet = longest_common_prefix(x, y)
    if meet.generation == min(x.generation, y.generation):
        return ws.backend.zero
    return weight(ws, meet)


def test_ultrametric_examples():
    ws = fib_ws()
    t3 = enumerate_paths(ws.diagram, 3).paths
    aaa, aab = t3[0], t3[1]
    baa = t3[3]
    assert ultrametric_distance(ws, aaa, baa) == Q5.one          # split at the root
    assert ultrametric_distance(ws, aaa, aaa) == Q5.zero
    assert ultrametric_distance(ws, aaa, aab) == ALPHA * ALPHA   # split after (a.a)
    t2 = enumerate_paths(ws.diagram, 2).paths
    assert ultrametric_distance(ws, t2[0], t2[1]) == ALPHA       # (aa) vs (ab)
    # prefix pairs count as representing the same boundary point
    assert ultrametric_distance(ws, t2[0], aaa) == Q5.zero


def test_strong_triangle_inequality():
    ws = tm_ws()
    paths = enumerate_paths(ws.diagram, 4).paths
    dist = {}
    for x in paths:
        for y in paths:
            dist[x, y] = float(ultrametric_distance(ws, x, y))
    for x in paths:
        for y in paths:
            for z in paths:
                assert dist[x, y] <= max(dist[x, z], dist[z, y]) + 1e-15


def test_weight_sandwich():
    for ws, n_top in ((fib_ws(), 13), (penrose_ws(), 8)):
        theta = float(ws.perron.theta)
        d = ws.dimension
        gen1 = [float(weight(ws, Path(ri)))
                for ri in range(len(ws.diagram.root_edges))]
        lo, hi = min(gen1), max(gen1)
        for n in range(1, n_top):
            # spot-check the leftmost and rightmost paths of each generation
            table = enumerate_paths(ws.diagram, n)
            for path in (table.paths[0], table.paths[-1]):
                w = float(weight(ws, path))
                scale = theta ** (-(n - 1) / d)
                assert lo * scale * (1 - 1e-9) <= w <= hi * scale * (1 + 1e-9)


def test_zeta_fibonacci_ratios():
    ws = fib_ws()
    rows = zeta_partial(ws, 2.0, 40)
    alpha = 1 / float(PHI)
    assert rows[29].ratio == pytest.approx(alpha, rel=0.01)
    # Cauchy tail below 1e-6 by generation 40
    assert rows[39].increment / (1 - alpha) < 1e-6
    rows1 = zeta_partial(ws, 1.0, 30)
    assert rows1[29].ratio == pytest.approx(1.0, rel=0.01)


def test_zeta_increments_sum_diameters_on_a_folded_diagram():
    # with g = 20 root slots, each increment is still the sum of diam^s over
    # the generation's paths
    ws = penrose_ws()
    for row in zeta_partial(ws, 1.5, 4):
        paths = enumerate_paths(ws.diagram, row.generation).paths
        direct = sum(float(weight(ws, path)) ** 1.5 for path in paths)
        assert row.increment == pytest.approx(direct, rel=1e-12)


def test_zeta_thue_morse_growth():
    ws = tm_ws()
    rows = zeta_partial(ws, 0.5, 30)
    assert rows[29].ratio == pytest.approx(2 ** 0.5, rel=0.01)


def test_zeta_overflow_guard():
    ws = tm_ws()
    with pytest.raises(OverflowError):
        zeta_partial(ws, -50.0, 40)


def test_zeta_underflow_guard():
    # a zero increment would leave the next ratio dividing by zero
    with pytest.raises(OverflowError, match="underflow at generation 2"):
        zeta_partial(fib_ws(), 1000.0, 5)
