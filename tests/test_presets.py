"""Preset loading, reference closed forms, and cross-preset consistency."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bratlap.diagram import EMPTY_PATH, build_diagram
from bratlap.laplacian import g_value, verify_spectrum
from bratlap.measure import WeightSystem, perron
from bratlap.presets import PRESETS, load_preset, preset_names
from bratlap.scalar import QuadraticBackend
from oracles import full_spectrum, path_key, spectrum_multiset

Q5 = QuadraticBackend(5)
PHI = Q5.make((Fraction(1, 2), Fraction(1, 2)))


def test_preset_names():
    assert set(preset_names()) == {
        "fibonacci", "fibonacci-conjugate", "thue-morse", "dyadic-odometer",
        "penrose", "ammann-a2"}
    with pytest.raises(KeyError):
        load_preset("kronecker")


def test_all_presets_load_and_validate():
    for name in preset_names():
        bundle = load_preset(name)
        assert bundle.diagram.symmetry_order == PRESETS[name].symmetry_order
        assert bundle.perron.dimension == bundle.dimension


def test_penrose_root_measures():
    bundle = load_preset("penrose", backend=Q5)
    alpha = Q5.one / PHI
    assert bundle.perron.v_right == (alpha / 20, alpha * alpha / 20)


def test_thue_morse_reference_recursion():
    bundle = load_preset("thue-morse")
    ref = bundle.metadata["reference"]
    assert ref["first_eigenvalue"] == -4
    assert ref["recursion"] == (4, -2)
    [rec] = [r for r in full_spectrum(bundle.weight_system, 0, 1) if r.label == "root"]
    assert rec.value == Fraction(-4)


def test_penrose_root_eigenvalue_closed_form():
    # the worked closed form -2g(g+1-4phi^2)/(g^2-10g+5), checked exactly in
    # Q(sqrt5) against -1/G(root) for both symmetry orders
    for name, g in (("penrose", 20), ("ammann-a2", 4)):
        bundle = load_preset(name, backend=Q5)
        ws = bundle.weight_system
        lam0 = -(Q5.one / g_value(ws, *path_key(ws.diagram, EMPTY_PATH), 2))
        phi2 = PHI * PHI
        closed = Q5.make(-2 * g) * (Q5.make(g + 1) - 4 * phi2) / \
            Q5.make(g * g - 10 * g + 5)
        assert lam0 == closed
    # g = 4 value: -8(2*sqrt5 + 1)/19
    assert float(lam0) == pytest.approx(-(16 * 5 ** 0.5 + 8) / 19, abs=1e-12)


def test_penrose_with_g4_equals_ammann():
    pen = PRESETS["penrose"]
    ammann = load_preset("ammann-a2", backend=Q5)
    refolded = perron(build_diagram(pen.matrix, symmetry_order=4), Q5, dimension=2)
    ws = WeightSystem(load_preset("ammann-a2", backend=Q5).diagram, refolded)
    lhs = spectrum_multiset(full_spectrum(ws, 3, 2))
    rhs = spectrum_multiset(full_spectrum(ammann.weight_system, 3, 2))
    assert lhs == rhs


def test_fibonacci_discrepancy_note_present():
    bundle = load_preset("fibonacci")
    notes = bundle.metadata["notes"]
    assert any("2*phi^2-1" in n and "1+2*phi^2" in n for n in notes)
    ref = bundle.metadata["reference"]
    assert ref["cited_forms"] == ("1 + 2*phi^2", "3 + 6*phi^2")


def test_every_preset_verifies_at_depth_4():
    for name in preset_names():
        bundle = load_preset(name)
        report = verify_spectrum(bundle.weight_system, 4, bundle.dimension)
        assert report.ok, (name, report.lines())
