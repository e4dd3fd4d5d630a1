"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bratlap.asymptotics import (
    factor_complexity,
    heat_trace,
    magnitude_table,
    norm_bound_check,
    weyl_count,
    weyl_margins,
)
from bratlap.cli import main as cli_main
from bratlap.cuntz import (
    affine_table,
    companion_embedding,
    strip_check,
)
from bratlap.diagram import predicted_path_count
from bratlap.laplacian import verify_spectrum
from bratlap.measure import zeta_partial
from bratlap.presets import load_preset, preset_names
from bratlap.scalar import QuadraticBackend
from oracles import full_spectrum, recursive_spectrum

Q5 = QuadraticBackend(5)
PHI_F = (1 + 5 ** 0.5) / 2

EXACT_BACKEND_FOR = {
    "fibonacci": "quadratic:5",
    "fibonacci-conjugate": "quadratic:5",
    "thue-morse": "quadratic:5",
    "dyadic-odometer": "quadratic:5",
}


def _report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} ({name}): PASS  [{detail}]")


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    details = []
    for name in preset_names():
        exact = name in EXACT_BACKEND_FOR
        backend = EXACT_BACKEND_FOR.get(name, "approx:100")
        bundle = load_preset(name, backend=backend)
        ws = bundle.weight_system
        for n in range(2, 7):
            if exact:
                # the binding check is exact equality (eigen-relations with
                # zero tolerance); the float multiset net scales with the
                # eigensolver's conditioning
                scale = max(abs(r.value_float)
                            for r in full_spectrum(ws, n - 1, bundle.dimension))
                tol = max(1e-8, 1e-11 * scale)
            else:
                tol = 1e-8           # absolute, per the approx-backend contract
            report = verify_spectrum(ws, n, bundle.dimension, dense_cap=8192)
            assert report.ok, (name, n, report.lines())
            assert report.counting_ok
            assert report.max_abs_deviation <= tol, (name, n, report.max_abs_deviation)
            if exact:
                assert report.exact_ok is True, (name, n)
        details.append(f"{name}:n2-6")
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s (budget 30s)"
    _report(1, "oracle equivalence", f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_02_thue_morse_reference():
    t0 = time.time()
    bundle = load_preset("thue-morse")
    ws = bundle.weight_system
    records = full_spectrum(ws, 11, 1)
    by_gen: dict[int, Counter] = {}
    for rec in records:
        if rec.label != "zero":
            by_gen.setdefault(rec.generation, Counter())[rec.value] += rec.multiplicity
    # lambda_1 = -4 exactly, then lambda_{n+1} = 4 lambda_n - 2 through n = 12,
    # with multiplicity 2^(n-1); lambda_n sits at generation n-1
    expected = Fraction(-4)
    for n in range(1, 13):
        gen = n - 1
        assert set(by_gen[gen]) == {expected}, (n, by_gen[gen])
        assert by_gen[gen][expected] == 2 ** (n - 1)
        expected = 4 * expected - 2
    # report the reference counting-bound margins at each eigenvalue magnitude
    table = affine_table(ws, 1)
    spec = magnitude_table(table, 12)
    ref = bundle.metadata["reference"]["weyl_bounds"]
    rows = weyl_margins(spec, {
        "lower": tuple(float(v) for v in ref["lower"]),
        "upper": tuple(float(v) for v in ref["upper"])})
    for r in rows:
        print(f"    weyl margin at |lambda|={r.magnitude:.6g}: N={r.count}, "
              f"lower={r.lower:.6g} ({'ok' if r.lower_ok else 'violated'}), "
              f"upper={r.upper:.6g} ({'ok' if r.upper_ok else 'marginal'})")
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s (budget 5s)"
    _report(2, "thue-morse reference", f"lambda chain to n=12; {elapsed:.1f}s")


def test_criterion_03_recursion_direct_agreement():
    # exact equality on the quadratic/rational backends
    for name in ("fibonacci", "thue-morse"):
        bundle = load_preset(name, backend=EXACT_BACKEND_FOR[name])
        ws = bundle.weight_system
        table = affine_table(ws, 1)
        assert table.calibration_checks > 0
        rec = recursive_spectrum(table, 10)
        direct = full_spectrum(ws, 10, 1)
        assert Counter((r.path, r.value) for r in rec) == \
            Counter((r.path, r.value) for r in direct), name
    # Penrose at 200 bits: relative agreement within 1e-10 path by path
    bundle = load_preset("penrose", backend="approx:200")
    ws = bundle.weight_system
    table = affine_table(ws, 2)
    assert table.calibration_checks > 0
    rec = {r.path: r.value_float
           for r in recursive_spectrum(table, 10)
           if r.label == "path"}
    direct = {r.path: r.value_float
              for r in full_spectrum(ws, 10, 2) if r.label == "path"}
    assert set(rec) == set(direct)
    worst = max(abs(rec[p] - direct[p]) / abs(direct[p]) for p in direct)
    assert worst <= 1e-10, worst
    _report(3, "recursion vs direct",
            f"exact fib+tm depth 10; penrose rel dev {worst:.2e} over "
            f"{len(direct)} paths")


def test_criterion_04_weyl_exponent():
    t0 = time.time()
    fib = load_preset("fibonacci")
    table = affine_table(fib.weight_system, 1)
    spec = magnitude_table(table, 18)
    fit_fib = weyl_count(spec, table.lam_float).fit
    assert 0.40 <= fit_fib.slope <= 0.60, fit_fib

    pen = load_preset("penrose", backend="quadratic:5")
    table_p = affine_table(pen.weight_system, 2)
    spec_p = magnitude_table(table_p, 12)
    fit_pen = weyl_count(spec_p, table_p.lam_float).fit
    assert 0.85 <= fit_pen.slope <= 1.15, fit_pen
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"
    _report(4, "weyl exponent",
            f"fib slope {fit_fib.slope:.3f} (target 0.5), penrose slope "
            f"{fit_pen.slope:.3f} (target 1.0); {elapsed:.1f}s")


def test_criterion_05_heat_trace_scaling():
    fib = load_preset("fibonacci")
    table = affine_table(fib.weight_system, 1)
    res_fib = heat_trace(table, np.geomspace(1e-8, 1e-3, 25))
    assert -0.60 <= res_fib.fit.slope <= -0.40, res_fib.fit
    assert all(tail < 1e-9 for _, _, tail in res_fib.samples)

    pen = load_preset("penrose", backend="quadratic:5")
    table_p = affine_table(pen.weight_system, 2)
    res_pen = heat_trace(table_p, np.geomspace(1e-6, 1e-2, 25))
    assert -1.15 <= res_pen.fit.slope <= -0.85, res_pen.fit
    _report(5, "heat-trace scaling",
            f"fib slope {res_fib.fit.slope:.3f} (target -0.5), penrose slope "
            f"{res_pen.fit.slope:.3f} (target -1.0), fib tail < 1e-9")


def test_criterion_06_strip_bound():
    fib = load_preset("fibonacci")
    ws = fib.weight_system
    table = affine_table(ws, 1)
    emb = companion_embedding(fib.perron, 1)
    report = strip_check(emb, table, 12)
    assert report.max_distance <= report.bound
    per_gen = dict(report.per_generation)
    max10 = max(v for g, v in per_gen.items() if g <= 10)
    max12 = report.max_distance
    assert abs(max12 - max10) <= 0.01 * max12, (max10, max12)

    tm = load_preset("thue-morse")
    table_tm = affine_table(tm.weight_system, 1)
    emb_tm = companion_embedding(tm.perron, 1)
    report_tm = strip_check(emb_tm, table_tm, 8)
    assert report_tm.max_distance == 0.0
    _report(6, "strip bound",
            f"fib max {report.max_distance:.4f} <= bound {report.bound:.4f}, "
            f"depth-10 vs 12 drift {abs(max12 - max10):.2e}; tm distances == 0")


def test_criterion_07_bounded_case():
    fib = load_preset("fibonacci")
    ws = fib.weight_system
    table = affine_table(ws, 4)
    report = norm_bound_check(table, depth=15)
    assert report.within_bound, (report.sup_total, report.bound)
    alpha = 1 / PHI_F
    assert table.lam_float == pytest.approx(alpha, rel=1e-12)
    # geometric decay of the running-sup increments, in multiplicative form
    # d_{n+1} = Lambda d_n within 5% (exact when both vanish: at s = 4 with
    # d = 1 the fibonacci spectrum is the constant -phi^3, so every increment
    # is identically zero and the decay holds degenerately)
    sups = [v for _, v in report.sup_by_generation]
    increments = [b - a for a, b in zip(sups, sups[1:])]
    for d_n, d_next in zip(increments, increments[1:]):
        assert abs(d_next - alpha * d_n) <= 0.05 * alpha * d_n + 1e-9, increments
    degenerate = all(abs(d) <= 1e-12 for d in increments)
    _report(7, "bounded case",
            f"sup {report.sup_total:.6f} <= bound {report.bound:.6f}; increment "
            f"decay at ratio {alpha:.4f} "
            + ("(degenerate: constant spectrum, zero increments)"
               if degenerate else "within 5%"))


def test_criterion_08_zeta_abscissa():
    fib = load_preset("fibonacci")
    ws = fib.weight_system
    finals = {}
    for s in (0.5, 1.0, 2.0):
        rows = zeta_partial(ws, s, 30)
        target = PHI_F ** (1 - s)
        assert rows[-1].ratio == pytest.approx(target, rel=0.01), (s, rows[-1])
        finals[s] = rows[-1].ratio
    assert finals[0.5] > 1.0           # divergent side of the abscissa
    assert finals[1.0] == pytest.approx(1.0, rel=0.01)
    assert finals[2.0] < 1.0           # convergent side
    _report(8, "zeta abscissa",
            "ratios at gen 30: " + ", ".join(
                f"s={s}: {v:.4f} (target {PHI_F ** (1 - s):.4f})"
                for s, v in finals.items()))


def test_criterion_09_complexity():
    fib = load_preset("fibonacci")
    table = factor_complexity(fib.rule, 500)
    for n in range(1, 201):
        assert table.p(n) == n + 1, n
    nu500 = table.nu(500)
    assert abs(nu500 - 1.0) <= 0.02, nu500

    tm = load_preset("thue-morse")
    tm_table = factor_complexity(tm.rule, 4)
    assert tm_table.counts == (2, 4, 6, 10)
    _report(9, "complexity",
            f"fib p(n)=n+1 through 200, nu(500)={nu500:.4f}; tm p(1..4)=2,4,6,10")


def test_criterion_10_counting_identity():
    for name in preset_names():
        bundle = load_preset(name, backend=EXACT_BACKEND_FOR.get(name, "quadratic:5"))
        ws = bundle.weight_system
        table = affine_table(ws, bundle.dimension)
        for n in range(2, 9):
            spec = magnitude_table(table, n - 1)
            assert spec.total_multiplicity() == predicted_path_count(bundle.diagram, n), \
                (name, n)
        # spot-check with the record-level enumeration as well
        records = full_spectrum(ws, 4, bundle.dimension)
        assert sum(r.multiplicity for r in records) == \
            predicted_path_count(bundle.diagram, 5)
    _report(10, "counting identity", "all presets, n = 2..8, exact")


def test_criterion_11_known_discrepancy_reporting(capsys):
    bundle = load_preset("fibonacci")
    ws = bundle.weight_system
    records = full_spectrum(ws, 1, 1)
    phi = Q5.make((Fraction(1, 2), Fraction(1, 2)))
    by_label = {r.label: r for r in records if r.label != "path"}
    root_mag = -by_label["root"].value
    second = next(r for r in records if r.label == "path")
    second_mag = -second.value
    # oracle magnitudes are 2 phi^2 - 1 and 6 phi^2 - 3 ...
    assert root_mag == 2 * phi * phi - 1
    assert second_mag == 6 * phi * phi - 3
    # ... and differ from the cited forms 1 + 2 phi^2 and 3 + 6 phi^2
    assert root_mag != 1 + 2 * phi * phi
    assert second_mag != 3 + 6 * phi * phi

    code = cli_main(["verify", "--preset", "fibonacci", "--depth", "3", "--s", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "NOTES" in out
    assert "2*phi^2-1" in out and "6*phi^2-3" in out
    assert "1+2*phi^2" in out and "3+6*phi^2" in out
    with capsys.disabled():
        print()
        _report(11, "known-discrepancy reporting",
                "oracle 2phi^2-1, 6phi^2-3 reported; cited forms flagged in NOTES")
