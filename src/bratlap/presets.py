"""Built-in diagrams and reference constants for the classic worked examples."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import BratteliDiagram, SubstitutionRule, abelianize, build_diagram
from .measure import PerronData, WeightSystem, perron
from .scalar import Backend, parse_backend

FIBONACCI_DISCREPANCY_NOTE = (
    "Known discrepancy: commonly cited closed forms for the first two nonzero "
    "eigenvalue magnitudes at s=1 read 1+2*phi^2 and 3+6*phi^2, while the dense "
    "oracle and the eigenvalue formula give 2*phi^2-1 (= 2*phi+1 ~ 4.236) and "
    "6*phi^2-3 (= 6*phi+3 ~ 12.708).  The cited constant terms carry a sign slip; "
    "this tool always reports the oracle values and never adjusts to match the "
    "cited forms.")


@dataclass(frozen=True)
class PresetSpec:
    name: str
    rule: SubstitutionRule | None
    matrix: tuple[tuple[int, ...], ...]
    letters: tuple[str, ...]
    dimension: int
    symmetry_order: int
    recommended_backend: str
    metadata: dict


@dataclass(frozen=True)
class PresetBundle:
    name: str
    rule: SubstitutionRule | None
    diagram: BratteliDiagram
    dimension: int
    backend: Backend
    perron: PerronData
    weight_system: WeightSystem
    metadata: dict


def _specs() -> dict[str, PresetSpec]:
    fib_rule = SubstitutionRule.from_strings({"a": "ab", "b": "a"})
    conj_rule = SubstitutionRule.from_strings({"a": "baa", "b": "ba"})
    tm_rule = SubstitutionRule.from_strings({"0": "01", "1": "10"})
    dyadic_rule = SubstitutionRule.from_strings({"a": "aa"})
    golden = ((2, 1), (1, 1))
    return {
        "fibonacci": PresetSpec(
            "fibonacci", fib_rule, abelianize(fib_rule), ("a", "b"), 1, 1,
            "quadratic:5",
            {
                "description": "uncollared golden-mean substitution a->ab, b->a",
                "transversal_faithful": False,
                "reference": {
                    "recursion_multiplier": "phi^2",
                    "recursion_offsets": "-phi for maps into vertex a, +phi into b",
                    "root_magnitude": "2*phi^2 - 1",
                    "second_magnitude": "6*phi^2 - 3",
                    "cited_forms": ("1 + 2*phi^2", "3 + 6*phi^2"),
                },
                "notes": [FIBONACCI_DISCREPANCY_NOTE],
            }),
        "fibonacci-conjugate": PresetSpec(
            "fibonacci-conjugate", conj_rule, abelianize(conj_rule), ("a", "b"), 1, 1,
            "quadratic:5",
            {
                "description": "border-forcing golden-mean substitution a->baa, b->ba",
                "transversal_faithful": True,
                "reference": {
                    "recursion_multiplier": "phi^4 (theta = phi^2 with d = 1)",
                },
                "notes": [],
            }),
        "thue-morse": PresetSpec(
            "thue-morse", tm_rule, abelianize(tm_rule), ("0", "1"), 1, 1,
            "rational",
            {
                "description": "Thue-Morse substitution 0->01, 1->10",
                "transversal_faithful": False,
                "reference": {
                    "first_eigenvalue": -4,
                    "recursion": (4, -2),
                    "closed_form": "-(2/3)*(7*4^(n-1) - 1)",
                    "multiplicity": "2^(n-1)",
                    "weyl_bounds": {
                        "lower": (0.5, Fraction(6, 7), Fraction(10, 7)),
                        "upper": (1.0, Fraction(6, 7), Fraction(4, 7)),
                    },
                },
                "notes": [],
            }),
        "dyadic-odometer": PresetSpec(
            "dyadic-odometer", dyadic_rule, ((2,),), ("a",), 1, 1,
            "rational",
            {
                "description": "single vertex with two parallel loops: the dyadic "
                               "Cantor set (one root edge, so no root splitting)",
                "transversal_faithful": True,
                "reference": {
                    "closed_form": "-(2/3)*(7*4^(n-1) - 1)",
                    "recursion": (4, -2),
                },
                "notes": [],
            }),
        "penrose": PresetSpec(
            "penrose", None, golden, ("a", "b"), 2, 20,
            "approx:200",
            {
                "description": "Penrose rhombi modulo D10 symmetry (|G| = 20), d = 2",
                "transversal_faithful": True,
                "reference": {
                    "root_closed_form": "-2g(g+1-4*phi^2)/(g^2-10g+5) with g = 20",
                },
                "notes": [],
            }),
        "ammann-a2": PresetSpec(
            "ammann-a2", None, golden, ("a", "b"), 2, 4,
            "approx:200",
            {
                "description": "Ammann A2 tiles modulo reflections (|G| = 4), d = 2",
                "transversal_faithful": True,
                "reference": {
                    "root_closed_form": "-2g(g+1-4*phi^2)/(g^2-10g+5) with g = 4",
                },
                "notes": [],
            }),
    }


PRESETS = _specs()


def preset_names() -> list[str]:
    return list(PRESETS)


def load_preset(name: str, backend: Backend | str | None = None) -> PresetBundle:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    spec = PRESETS[name]
    if backend is None:
        backend = parse_backend(spec.recommended_backend)
    elif isinstance(backend, str):
        backend = parse_backend(backend)
    diagram = build_diagram(spec.matrix, symmetry_order=spec.symmetry_order,
                            letters=spec.letters)
    pdata = perron(diagram, backend, dimension=spec.dimension)
    ws = WeightSystem(diagram, pdata)
    return PresetBundle(spec.name, spec.rule, diagram, spec.dimension,
                        backend, pdata, ws, dict(spec.metadata))
