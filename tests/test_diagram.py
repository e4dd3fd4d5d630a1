"""Diagram construction, path enumeration, path labels."""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from itertools import product

import pytest

import bratlap
from bratlap.diagram import (
    DEFAULT_PATH_CAP,
    DiagramError,
    SubstitutionRule,
    abelianize,
    build_diagram,
    is_primitive,
    load_diagram_json,
    predicted_path_count,
)
from bratlap.presets import load_preset, preset_names
from oracles import (EMPTY_PATH, Path, enumerate_paths, format_path, longest_common_prefix,
                     path_chain, path_range, root_edge_index, span)

FIB = SubstitutionRule.from_strings({"a": "ab", "b": "a"})
TM = SubstitutionRule.from_strings({"0": "01", "1": "10"})
PENROSE_MATRIX = [[2, 1], [1, 1]]


def fib_diagram():
    return build_diagram(abelianize(FIB))


def tm_diagram():
    return build_diagram(abelianize(TM), letters=("0", "1"))


def test_abelianize_fibonacci():
    assert abelianize(FIB) == ((1, 1), (1, 0))


def test_abelianize_thue_morse():
    assert abelianize(TM) == ((1, 1), (1, 1))


def test_abelianize_single_letter():
    rule = SubstitutionRule.from_strings({"a": "a"})
    assert abelianize(rule) == ((1,),)
    with pytest.raises(DiagramError):
        build_diagram(abelianize(rule))


def test_rule_validation():
    with pytest.raises(DiagramError):
        SubstitutionRule(("a",), ((),))
    with pytest.raises(DiagramError):
        SubstitutionRule(("a",), (("b",),))


def test_build_fibonacci():
    d = fib_diagram()
    assert len(d.root_edges) == 2
    assert len(d.edges) == 3
    assert [(e.source, e.target) for e in d.edges] == [(0, 0), (0, 1), (1, 0)]


def test_build_penrose_matrix_g20():
    d = build_diagram(PENROSE_MATRIX, symmetry_order=20)
    assert len(d.root_edges) == 40
    assert len(d.edges) == 5


def test_build_thue_morse():
    d = tm_diagram()
    assert len(d.root_edges) == 2
    assert len(d.edges) == 4


def test_build_rejects_bad_matrices():
    with pytest.raises(DiagramError):
        build_diagram([[1, 0], [0, 1]])        # not primitive
    with pytest.raises(DiagramError):
        build_diagram([[1]])                   # the matrix (1)
    with pytest.raises(DiagramError):
        build_diagram([[1, 1], [1]])           # ragged
    with pytest.raises(DiagramError):
        build_diagram([[2]], symmetry_order=0)


def _small_primitive_matrices():
    """Every primitive matrix other than (1) that is 1x1 with entry <= 3, 2x2
    with entries <= 2, or 3x3 with 0/1 entries."""
    for r, top in ((1, 3), (2, 2), (3, 1)):
        for flat in product(range(top + 1), repeat=r * r):
            m = [list(flat[i * r:(i + 1) * r]) for i in range(r)]
            if m != [[1]] and is_primitive(m):
                yield m


def test_every_vertex_carries_two_paths_of_length_r():
    # the two-infinite-paths hypothesis, which build_diagram does not check
    # again: it follows from primitivity and the refusal of (1)
    built = 0
    for m in _small_primitive_matrices():
        diagram = build_diagram(m)
        r = diagram.n_letters
        counts = [1] * r    # paths of length k down from each vertex
        for _ in range(r):
            counts = [sum(counts[diagram.edges[ei].target] for ei in diagram.out_edges[v])
                      for v in range(r)]
        assert min(counts) >= 2, m
        built += 1
    assert built == 2 + 32 + 139


def test_is_primitive():
    assert is_primitive([[1, 1], [1, 0]])
    assert is_primitive([[2]])
    assert not is_primitive([[0, 1], [1, 0]])  # period 2
    assert not is_primitive([[1, 1], [0, 1]])  # reducible


def _wielandt(r):
    """The r-cycle plus the chord r -> 2: primitive with exponent (r-1)^2 + 1,
    the largest an r x r primitive matrix can have."""
    return [[int(j == (i + 1) % r or (i, j) == (r - 1, 1)) for j in range(r)]
            for i in range(r)]


@pytest.mark.parametrize("r", range(3, 9))
def test_is_primitive_reaches_the_wielandt_exponent(r):
    assert is_primitive(_wielandt(r))
    assert not is_primitive([[int(j == (i + 1) % r) for j in range(r)] for i in range(r)])


def test_is_primitive_decides_a_60_letter_wielandt_matrix_at_once():
    # multiplying by the matrix 59^2 + 1 times took over a minute
    start = time.perf_counter()
    assert is_primitive(_wielandt(60))
    assert time.perf_counter() - start < 1.0


def test_enumerate_fibonacci_small():
    d = fib_diagram()
    t1 = enumerate_paths(d, 1)
    assert len(t1) == 2
    t2 = enumerate_paths(d, 2)
    assert len(t2) == 3
    assert [format_path(d, p) for p in t2.paths] == ["a.a", "a.b", "b.a"]


def test_enumerate_fibonacci_depth10():
    d = fib_diagram()
    assert len(enumerate_paths(d, 10)) == 144


def test_enumeration_cap():
    d = tm_diagram()
    with pytest.raises(DiagramError):
        enumerate_paths(d, 12, cap=100)


def test_predicted_count_matches():
    d = build_diagram(PENROSE_MATRIX, symmetry_order=4)
    for n in range(1, 7):
        assert predicted_path_count(d, n) == len(enumerate_paths(d, n))


def test_capped_count_stops_at_the_cap():
    d = build_diagram(PENROSE_MATRIX, symmetry_order=4)
    exact = predicted_path_count(d, 6)
    assert predicted_path_count(d, 6, cap=exact) == exact
    # a generation far past the cap: the first count above it comes back,
    # instead of a number of thousands of digits grown for 10**30 generations
    assert exact < predicted_path_count(d, 10 ** 30, cap=exact) < 10 * exact


def test_extensions_fibonacci():
    # a path's extensions end at targets[r(gamma)]: a -> a, b and b -> a; the
    # empty path's, the root edges, at targets[-1]
    d = fib_diagram()
    assert d.targets[0] == (0, 1)
    assert d.targets[1] == (0,)
    assert d.targets[-1] == (0, 1)


def test_extensions_penrose_vertex_a():
    d = build_diagram(PENROSE_MATRIX, symmetry_order=20)
    assert d.targets[0] == (0, 0, 1)
    kinds = [(d.edges[e].source, d.edges[e].target, d.edges[e].occurrence)
             for e in d.out_edges[0]]
    assert kinds == [(0, 0, 1), (0, 0, 2), (0, 1, 1)]
    # the root entry lists the vertex of every root edge, slot by slot
    assert d.targets[-1] == (0,) * 20 + (1,) * 20


def test_extension_counting_identity():
    # |Pi_{n+1}| equals the sum of n_gamma over Pi_n
    for d in (fib_diagram(), tm_diagram(), build_diagram(PENROSE_MATRIX, symmetry_order=4)):
        for n in range(1, 8):
            table = enumerate_paths(d, n)
            total = sum(len(d.targets[path_range(d, p)]) for p in table.paths)
            assert total == predicted_path_count(d, n + 1)


def test_enumeration_prefix_stability():
    d = fib_diagram()
    t4 = enumerate_paths(d, 4)
    t5 = enumerate_paths(d, 5)
    prefixes = []
    for p in t5.paths:
        q = p.prefix(4)
        if q not in prefixes:
            prefixes.append(q)
    assert prefixes == list(t4.paths)


@pytest.mark.parametrize("name", preset_names())
def test_span_is_the_cylinder_of_a_prefix(name):
    diagram = load_preset(name).diagram
    for n in range(1, 6):
        table = enumerate_paths(diagram, n)
        assert span(table, EMPTY_PATH) == range(len(table))
        for k in range(1, n + 1):
            cylinders = {}
            for i, p in enumerate(table.paths):
                cylinders.setdefault(p.prefix(k), []).append(i)
            for prefix, members in cylinders.items():
                assert list(span(table, prefix)) == members, (n, prefix)


def test_path_labels_penrose_and_parallel_edges():
    # a slot in brackets when g > 1; an occurrence in parentheses where two
    # letters have parallel edges
    pen = build_diagram(PENROSE_MATRIX, symmetry_order=20)
    a_to_a = [ei for ei, e in enumerate(pen.edges) if (e.source, e.target) == (0, 0)]
    b_to_a = next(ei for ei, e in enumerate(pen.edges) if (e.source, e.target) == (1, 0))
    path = Path(root_edge_index(pen, 1, 7), (b_to_a, a_to_a[1]))
    assert format_path(pen, path) == "b[7].a.a(2)"
    assert pen.heads[root_edge_index(pen, 0, 19)] == "a[19]"
    assert [pen.segments[ei] for ei in a_to_a] == ["a(1)", "a(2)"]
    assert format_path(fib_diagram(), Path(1, (2,))) == "b.a"
    assert format_path(fib_diagram(), EMPTY_PATH) == "()"


_G3_FILES = {
    # g = 3 with a vertex that does not split, and g = 3 with parallel edges
    "golden-g3": '{"letters": ["a", "b"], "matrix": [[1, 1], [1, 0]], "symmetry_order": 3}',
    "penrose-g3": '{"letters": ["p", "q"], "matrix": [[2, 1], [1, 1]], "symmetry_order": 3}',
}


@pytest.mark.parametrize("name", [*preset_names(), *_G3_FILES])
def test_split_labels_are_format_path_of_the_splitting_paths(name):
    # per generation, the labels of the paths whose range vertex has two or
    # more out-edges, in enumeration order: each root edge's head before
    # the split tails of its vertex
    if name in _G3_FILES:
        diagram = load_diagram_json(_G3_FILES[name])[0]
    else:
        diagram = load_preset(name).diagram
    labels = [[head + tail for head, edge in zip(diagram.heads, diagram.root_edges)
               for tail in tails[edge.vertex]] for tails in diagram.split_tails(7)]
    assert len(labels) == 7
    for n, got in enumerate(labels, 1):
        want = [format_path(diagram, p) for p in enumerate_paths(diagram, n).paths
                if len(diagram.out_edges[path_range(diagram, p)]) >= 2]
        assert got == want, (name, n)
    assert list(diagram.split_tails(0)) == []


@pytest.mark.parametrize("name", [*preset_names(), *_G3_FILES])
def test_label_is_format_path_of_the_chain(name):
    # a path labelled from its generation's (parent, edge) arrays reads as
    # format_path of the enumerated path
    if name in _G3_FILES:
        diagram = load_diagram_json(_G3_FILES[name])[0]
    else:
        diagram = load_preset(name).diagram
    chain = path_chain(diagram, 5)
    for n in range(1, 6):
        paths = enumerate_paths(diagram, n).paths
        assert [diagram.label(chain[:n], i) for i in range(len(paths))] == \
            [format_path(diagram, p) for p in paths]


MOVED_TO_THE_ORACLES = {"Path", "EMPTY_PATH", "PathTable", "enumerate_paths", "path_range",
                        "format_path", "path_shift_down", "_level_paths"}


def test_library_defines_no_path_objects():
    # paths are index arrays in the library; the path objects and what reads
    # them live in the test oracles
    for info in pkgutil.iter_modules(bratlap.__path__):
        module = importlib.import_module(f"bratlap.{info.name}")
        names = set(vars(module))
        names.update(attr for obj in vars(module).values()
                      if isinstance(obj, type) and obj.__module__ == module.__name__
                      for attr in vars(obj))
        assert not names & MOVED_TO_THE_ORACLES, info.name


def test_child_of_the_empty_path_is_a_root_edge():
    assert EMPTY_PATH.child(3) == Path(3)
    assert Path(3).child(1) == Path(3, (1,))
    assert Path(3, (1,)).child(0).prefix(2) == Path(3, (1,))


@pytest.mark.parametrize("letters", [["a", "a"], ["", "b"],
                                     *(["a", "b" + c] for c in '.[]()",')])
def test_ambiguous_letters_refused(letters):
    # two vertices under one label, or a label that path labels or CSV
    # quoting would split
    text = json.dumps({"letters": letters, "matrix": [[1, 1], [1, 0]]})
    with pytest.raises(DiagramError, match="letter"):
        load_diagram_json(text)
    with pytest.raises(DiagramError, match="letter"):
        build_diagram([[1, 1], [1, 0]], letters=tuple(letters))


def test_longest_common_prefix():
    d = fib_diagram()
    t2 = enumerate_paths(d, 2)
    aa, ab, ba = t2.paths
    assert longest_common_prefix(aa, ab) == Path(0)
    assert longest_common_prefix(aa, aa) == aa
    assert longest_common_prefix(aa, ba) == EMPTY_PATH


def diagram_to_json(diagram, dimension: int = 1) -> str:
    """The diagram file format that `load_diagram_json` reads."""
    return json.dumps({"letters": list(diagram.letters),
                       "matrix": [list(row) for row in diagram.matrix],
                       "dimension": dimension,
                       "symmetry_order": diagram.symmetry_order}, sort_keys=True)


def test_json_roundtrip_and_ragged_rejection():
    d = build_diagram(PENROSE_MATRIX, symmetry_order=4)
    text = diagram_to_json(d, dimension=2)
    d2, dim = load_diagram_json(text)
    assert dim == 2
    assert d2.matrix == d.matrix and d2.symmetry_order == 4
    with pytest.raises(DiagramError):
        load_diagram_json('{"letters": ["a", "b"], "matrix": [[1, 1], [1]]}')
    with pytest.raises(DiagramError):
        load_diagram_json("not json")


@pytest.mark.parametrize("text", [
    "5",
    "null",
    '{"letters": 5, "matrix": 5}',
    '{"letters": ["a"], "matrix": [5]}',
    '{"letters": ["a", "b"], "matrix": [[1, 1], [1, 0]], "dimension": null}',
])
def test_json_fields_of_the_wrong_type_rejected(text):
    with pytest.raises(DiagramError):
        load_diagram_json(text)


# just above the cap: generation 2 has g * sum(a_pq) = DEFAULT_PATH_CAP + 2
# paths.  A diagram at the cap would build 10**7 edge models, so none is built.
_GENERATION_2_ABOVE_THE_CAP = [
    {"letters": ["a", "b"], "matrix": [[5_000_000, 1], [1, 5_000_000]]},
    {"letters": ["a", "b"], "matrix": [[1, 1], [1, 0]], "symmetry_order": 3_333_334},
]


@pytest.mark.parametrize("payload", _GENERATION_2_ABOVE_THE_CAP, ids=["entries", "slots"])
def test_generation_2_beyond_the_path_cap_refused(payload):
    assert payload.get("symmetry_order", 1) * sum(map(sum, payload["matrix"])) == \
        DEFAULT_PATH_CAP + 2
    with pytest.raises(DiagramError, match=f"{DEFAULT_PATH_CAP + 2} generation-2 paths"):
        load_diagram_json(json.dumps(payload))
