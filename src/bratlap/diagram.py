"""Stationary Bratteli diagrams built from substitution data.

A diagram is stored through its models: one vertex per letter, one edge model
per (source letter, range letter, occurrence) triple, and g root-edge slots
per vertex.  Finite paths are index sequences into those models; generation n
means n edges counting the root edge, so generation 0 is the bare root.  The
paths of a generation are numbered in (root, edges) order and held as index
arrays: per path, its parent's number one generation up and its last edge.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


DEFAULT_PATH_CAP = 10_000_000
# what path labels add to letters (".", slot brackets, occurrence parentheses)
# and what CSV quoting uses
LABEL_CHARS = '.[]()",'


class BratlapError(ValueError):
    """A refusal of the library's: each layer's error subclasses it, so the
    CLI maps every one to a usage error without importing the layer."""


class DiagramError(BratlapError):
    pass


@dataclass(frozen=True)
class SubstitutionRule:
    """A combinatorial substitution: ordered alphabet plus one image word per letter."""

    letters: tuple[str, ...]
    images: tuple[tuple[str, ...], ...]
    dimension: int = 1

    def __post_init__(self):
        if len(self.letters) != len(set(self.letters)):
            raise DiagramError("duplicate letters in alphabet")
        if len(self.images) != len(self.letters):
            raise DiagramError("need exactly one image word per letter")
        if self.dimension < 1:
            raise DiagramError("dimension must be >= 1")
        for word in self.images:
            if not word:
                raise DiagramError("empty substitution image")
            for w in word:
                if w not in self.letters:
                    raise DiagramError(f"image uses unknown letter {w!r}")

    @staticmethod
    def from_strings(mapping: dict[str, str], dimension: int = 1) -> "SubstitutionRule":
        letters = tuple(mapping)
        images = tuple(tuple(word) for word in mapping.values())
        return SubstitutionRule(letters, images, dimension)

    def image(self, letter: str) -> tuple[str, ...]:
        return self.images[self.letters.index(letter)]


def abelianize(rule: SubstitutionRule) -> tuple[tuple[int, ...], ...]:
    """Abelianization matrix: entry (p, q) counts letter p in the image of q."""
    idx = {l: i for i, l in enumerate(rule.letters)}
    r = len(rule.letters)
    counts = [[0] * r for _ in range(r)]
    for q, word in enumerate(rule.images):
        for w in word:
            counts[idx[w]][q] += 1
    return tuple(tuple(row) for row in counts)


def _integer(value, what: str) -> int:
    """An integer input as an int; a float, a string or a bool is refused
    rather than truncated or read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DiagramError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_matrix(matrix) -> tuple[tuple[int, ...], ...]:
    rows = tuple(tuple(_integer(v, "a matrix entry") for v in row) for row in matrix)
    r = len(rows)
    if r == 0 or any(len(row) != r for row in rows):
        raise DiagramError("matrix must be square and non-empty")
    if any(v < 0 for row in rows for v in row):
        raise DiagramError("matrix entries must be non-negative integers")
    return rows


def is_primitive(matrix) -> bool:
    """True iff some power of the matrix is entrywise strictly positive.  The
    support is squared until it is positive or its exponent reaches the
    Wielandt bound (r-1)^2 + 1, which no primitive matrix's exponent passes.
    A primitive matrix has no zero row, so once a power is positive every
    later one is too, and the test is exact."""
    rows = _check_matrix(matrix)
    support = np.array([[v > 0 for v in row] for row in rows])
    exponent = 1
    while not support.all():
        if exponent >= (len(rows) - 1) ** 2 + 1:
            return False
        support = support @ support     # boolean: or of ands
        exponent *= 2
    return True


@dataclass(frozen=True, order=True)
class EdgeModel:
    """Edge from generation-n letter `source` into generation-(n+1) letter `target`,
    distinguished by which occurrence of `source` in the image of `target` it encodes."""

    source: int
    target: int
    occurrence: int


@dataclass(frozen=True, order=True)
class RootEdge:
    vertex: int
    slot: int


@dataclass(frozen=True)
class BratteliDiagram:
    letters: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    symmetry_order: int
    edges: tuple[EdgeModel, ...]
    root_edges: tuple[RootEdge, ...]
    out_edges: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def n_letters(self) -> int:
        return len(self.letters)

    @cached_property
    def targets(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the range vertices of its out-edges in order, and at
        index -1 those of the root edges: the children of a path ending at v
        end at targets[v], and those of the empty path at targets[-1]."""
        return tuple(tuple(self.edges[e].target for e in out) for out in self.out_edges) + \
            (tuple(r.vertex for r in self.root_edges),)

    @cached_property
    def heads(self) -> tuple[str, ...]:
        """Per root edge, the start of a path label: its letter, with its
        slot in brackets when there are several."""
        return tuple(self.letters[re.vertex] +
                     (f"[{re.slot}]" if self.symmetry_order > 1 else "")
                     for re in self.root_edges)

    @cached_property
    def segments(self) -> tuple[str, ...]:
        """Per edge model, its part of a path label: the target letter, with
        the occurrence in parentheses when its two letters have several edges."""
        return tuple(self.letters[e.target] +
                     (f"({e.occurrence})" if self.matrix[e.source][e.target] > 1 else "")
                     for e in self.edges)

    def label(self, chain, i: int) -> str:
        """The label of path i of the last generation in `chain`, which lists
        per generation from 1 on the (parent, edge) index arrays of its
        paths in (root, edges) order, a generation-1 path's edge being its
        root edge: that root edge's head, then the segment of each edge
        model on the way down, joined by dots."""
        parts = []
        for parent, edge in reversed(chain[1:]):
            parts.append(self.segments[edge[i]])
            i = parent[i]
        return ".".join((self.heads[chain[0][1][i]], *reversed(parts)))

    def split_tails(self, depth: int):
        """Yield, for generations 1 through `depth`, per vertex v the tails of
        the paths under a root edge r at v that end at a vertex with two or
        more out-edges, labelled heads[r] + tail: over v's out-edges e in
        order, e's segment before each tail of r(e) one generation shorter."""
        steps = [[("." + self.segments[ei], self.edges[ei].target) for ei in out]
                 for out in self.out_edges]
        tails = [[""] if len(out) >= 2 else [] for out in self.out_edges]
        for gen in range(1, depth + 1):
            if gen > 1:
                tails = [[dot + tail for dot, w in vertex_steps for tail in tails[w]]
                         for vertex_steps in steps]
            yield tails


def build_diagram(matrix, symmetry_order: int = 1,
                  letters: tuple[str, ...] | None = None) -> BratteliDiagram:
    """Diagram of a substitution matrix: a_pq edge models from p to q, and
    `symmetry_order` root-edge slots per letter.  Every vertex has two or
    more descending paths of each length >= r, as the two-infinite-paths
    hypothesis needs: for r = 1 the entry is >= 2 once (1) is refused, and a
    larger primitive matrix is no permutation matrix, so a vertex with two
    out-edges lies within r - 1 steps of every vertex."""
    rows = _check_matrix(matrix)
    r = len(rows)
    if symmetry_order < 1:
        raise DiagramError("symmetry_order must be >= 1")
    if symmetry_order * r > DEFAULT_PATH_CAP:
        # generation 1 alone would exceed the cap every enumeration enforces
        raise DiagramError(f"symmetry_order {symmetry_order} gives {symmetry_order * r} "
                           f"root edges, more than the {DEFAULT_PATH_CAP}-path cap")
    gen2 = symmetry_order * sum(map(sum, rows))
    if gen2 > DEFAULT_PATH_CAP:
        # generation 2 has g * sum(a_pq) paths: refused before the sum(a_pq)
        # edge models are built
        raise DiagramError(f"symmetry_order {symmetry_order} and this matrix give {gen2} "
                           f"generation-2 paths, more than the {DEFAULT_PATH_CAP}-path cap")
    if letters is None:
        letters = tuple(chr(ord("a") + i) for i in range(r)) if r <= 26 else \
            tuple(f"v{i}" for i in range(r))
    if len(letters) != r:
        raise DiagramError("letter count does not match matrix size")
    for i, letter in enumerate(letters):
        if not letter or letter in letters[:i] or set(letter) & set(LABEL_CHARS):
            raise DiagramError(f"letter {letter!r} is empty, repeated or holds one of "
                               f"{LABEL_CHARS!r}, which path labels and CSV quoting use")
    if not is_primitive(rows):
        raise DiagramError("matrix is not primitive")
    if rows == ((1,),):
        raise DiagramError("the 1x1 matrix (1) does not define a Bratteli diagram")

    edges = tuple(sorted(
        EdgeModel(p, q, k)
        for p in range(r) for q in range(r) for k in range(1, rows[p][q] + 1)
    ))
    root_edges = tuple(RootEdge(v, s) for v in range(r) for s in range(symmetry_order))
    out_edges = tuple(
        tuple(i for i, e in enumerate(edges) if e.source == v) for v in range(r))

    return BratteliDiagram(tuple(letters), rows, symmetry_order,
                           edges, root_edges, out_edges)


def path_counts(diagram: BratteliDiagram):
    """Yield, for n = 1, 2, ..., the number of generation-n paths ending at
    each vertex, as Python ints: g times the column sums of A^(n-1).

    The generator never ends.  Every vertex has an out-edge, so |Pi_n| never
    falls as n grows; a caller that bounds a count, or a running sum of
    counts, stops at the first generation past its cap instead of computing
    the number it refuses."""
    a = diagram.matrix
    r = diagram.n_letters
    row = [diagram.symmetry_order] * r
    while True:
        yield row
        row = [sum(row[k] * a[k][j] for k in range(r)) for j in range(r)]


def predicted_path_count(diagram: BratteliDiagram, n: int, cap: int | None = None) -> int:
    """|Pi_n|.  With a cap, the count of the first generation up to n that
    passes the cap is returned at once: |Pi_n| is then above the cap too,
    and the number returned is only a lower bound for it."""
    if n < 1:
        raise DiagramError("generation must be >= 1")
    for k, row in enumerate(path_counts(diagram), 1):
        count = sum(row)
        if k == n or (cap is not None and count > cap):
            return count


def load_diagram_json(text: str) -> tuple[BratteliDiagram, int]:
    """Parse the structured-text diagram format; returns (diagram, dimension)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"diagram file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DiagramError("diagram file must hold a JSON object")
    for key in ("letters", "matrix"):
        if key not in payload:
            raise DiagramError(f"diagram file is missing the {key!r} field")
    try:
        letters = payload["letters"]
        if not isinstance(letters, list) or not all(isinstance(l, str) for l in letters):
            raise TypeError(f"letters must be a JSON array of strings, got {letters!r}")
        matrix = payload["matrix"]
        if any(len(row) != len(letters) for row in matrix) or \
                len(matrix) != len(letters):
            raise DiagramError(
                "matrix shape does not match the letter list (ragged input?)")
        dimension = _integer(payload.get("dimension", 1), "dimension")
        if dimension < 1:
            raise DiagramError("dimension must be >= 1")
        g = _integer(payload.get("symmetry_order", 1), "symmetry_order")
        return build_diagram(matrix, symmetry_order=g, letters=tuple(letters)), dimension
    except TypeError as exc:
        raise DiagramError(f"diagram file has a field of the wrong type: {exc}") from exc


def load_diagram_file(path: str) -> tuple[BratteliDiagram, int]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_diagram_json(fh.read())
