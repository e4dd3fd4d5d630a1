"""Stationary Bratteli diagrams built from substitution data.

A diagram is stored through its models: one vertex per letter, one edge model
per (source letter, range letter, occurrence) triple, and g root-edge slots
per vertex.  Finite paths are index sequences into those models; generation n
means n edges counting the root edge, so generation 0 is the bare root.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

from . import _linalg

DEFAULT_PATH_CAP = 10_000_000


class DiagramError(ValueError):
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
    """True iff some power of the matrix is entrywise strictly positive."""
    rows = _check_matrix(matrix)
    r = len(rows)
    bound = r * r - 2 * r + 2 if r > 1 else 1  # Wielandt exponent
    b = [[1 if v > 0 else 0 for v in row] for row in rows]
    power = b
    for _ in range(max(bound, 1)):
        if all(all(v for v in row) for row in power):
            return True
        power = [[1 if s > 0 else 0 for s in row]
                 for row in _linalg.mat_mul(power, b)]
    return all(all(v for v in row) for row in power)


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
class Path:
    """A finite path: a root-edge index plus a run of composable edge-model indices.

    root=None encodes the empty path (the root vertex itself)."""

    root: int | None
    edges: tuple[int, ...] = ()

    @property
    def generation(self) -> int:
        return 0 if self.root is None else 1 + len(self.edges)

    def prefix(self, k: int) -> "Path":
        if k == 0:
            return EMPTY_PATH
        if k > self.generation:
            raise DiagramError("prefix longer than path")
        return Path(self.root, self.edges[: k - 1])

    def child(self, edge_index: int) -> "Path":
        return Path(self.root, self.edges + (edge_index,))


EMPTY_PATH = Path(None)


@dataclass(frozen=True)
class BratteliDiagram:
    letters: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    symmetry_order: int
    edges: tuple[EdgeModel, ...]
    root_edges: tuple[RootEdge, ...]
    out_edges: tuple[tuple[int, ...], ...] = field(repr=False)
    in_edges: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def n_letters(self) -> int:
        return len(self.letters)

    def root_edge_index(self, vertex: int, slot: int = 0) -> int:
        return vertex * self.symmetry_order + slot

    def path_range(self, path: Path) -> int:
        """Letter index of the deepest vertex the path reaches."""
        if path.root is None:
            raise DiagramError("the empty path has no range vertex")
        if path.edges:
            return self.edges[path.edges[-1]].target
        return self.root_edges[path.root].vertex

    def validate_path(self, path: Path) -> None:
        if path.root is None:
            if path.edges:
                raise DiagramError("empty path cannot carry edges")
            return
        if not 0 <= path.root < len(self.root_edges):
            raise DiagramError("root edge index out of range")
        at = self.root_edges[path.root].vertex
        for ei in path.edges:
            e = self.edges[ei]
            if e.source != at:
                raise DiagramError("path edges are not composable")
            at = e.target

    def format_path(self, path: Path) -> str:
        if path.root is None:
            return "()"
        re = self.root_edges[path.root]
        parts = [self.letters[re.vertex]]
        if self.symmetry_order > 1:
            parts[0] += f"[{re.slot}]"
        for ei in path.edges:
            e = self.edges[ei]
            seg = self.letters[e.target]
            if self.matrix[e.source][e.target] > 1:
                seg += f"({e.occurrence})"
            parts.append(seg)
        return ".".join(parts)


def build_diagram(matrix, symmetry_order: int = 1,
                  letters: tuple[str, ...] | None = None) -> BratteliDiagram:
    """Diagram of a substitution matrix: a_pq edge models from p to q, and
    `symmetry_order` root-edge slots per letter."""
    rows = _check_matrix(matrix)
    r = len(rows)
    if symmetry_order < 1:
        raise DiagramError("symmetry_order must be >= 1")
    if symmetry_order * r > DEFAULT_PATH_CAP:
        # generation 1 alone would exceed the cap every enumeration enforces
        raise DiagramError(f"symmetry_order {symmetry_order} gives {symmetry_order * r} "
                           f"root edges, more than the {DEFAULT_PATH_CAP}-path cap")
    if letters is None:
        letters = tuple(chr(ord("a") + i) for i in range(r)) if r <= 26 else \
            tuple(f"v{i}" for i in range(r))
    if len(letters) != r:
        raise DiagramError("letter count does not match matrix size")
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
    in_edges = tuple(
        tuple(i for i, e in enumerate(edges) if e.target == v) for v in range(r))

    diagram = BratteliDiagram(tuple(letters), rows, symmetry_order,
                              edges, root_edges, out_edges, in_edges)
    _check_split_hypothesis(diagram)
    return diagram


def _check_split_hypothesis(diagram: BratteliDiagram) -> None:
    """Every vertex must carry at least two distinct descending paths at some depth."""
    rows = diagram.matrix
    r = len(rows)
    counts = [1] * r
    for _ in range(2 * r + 2):
        counts = [min(sum(rows[v][q] * counts[q] for q in range(r)), 10) for v in range(r)]
        if all(c >= 2 for c in counts):
            return
    raise DiagramError("diagram violates the two-infinite-paths hypothesis")


def predicted_path_count(diagram: BratteliDiagram, n: int) -> int:
    """|Pi_n| from the matrix-power formula (column sums of A^(n-1) per root edge)."""
    if n < 1:
        raise DiagramError("generation must be >= 1")
    power = _linalg.mat_pow([list(row) for row in diagram.matrix], n - 1)
    r = diagram.n_letters
    per_vertex = [sum(power[v][q] for q in range(r)) for v in range(r)]
    return diagram.symmetry_order * sum(per_vertex)


@dataclass(frozen=True)
class PathTable:
    generation: int
    paths: tuple[Path, ...]

    def __len__(self) -> int:
        return len(self.paths)


def enumerate_paths(diagram: BratteliDiagram, n: int,
                    cap: int = DEFAULT_PATH_CAP) -> PathTable:
    """All paths of generation n in lexicographic (root index, edge indices) order."""
    if n < 1:
        raise DiagramError("generation must be >= 1")
    predicted = predicted_path_count(diagram, n)
    if predicted > cap:
        raise DiagramError(
            f"refusing to enumerate {predicted} paths (cap {cap}); raise the cap explicitly")

    paths: list[Path] = []

    def extend(path: Path, at: int, depth: int) -> None:
        if depth == n:
            paths.append(path)
            return
        for ei in diagram.out_edges[at]:
            extend(path.child(ei), diagram.edges[ei].target, depth + 1)

    for ri in range(len(diagram.root_edges)):
        extend(Path(ri), diagram.root_edges[ri].vertex, 1)
    if len(paths) != predicted:
        raise AssertionError("path enumeration disagrees with the matrix-power count")
    return PathTable(n, tuple(paths))


def extensions(diagram: BratteliDiagram, path: Path) -> tuple[int, ...]:
    """Edge models extending the path one generation; root edges for the empty path."""
    if path.root is None:
        return tuple(range(len(diagram.root_edges)))
    return diagram.out_edges[diagram.path_range(path)]


def n_extensions(diagram: BratteliDiagram, path: Path) -> int:
    return len(extensions(diagram, path))


def ext_pairs(diagram: BratteliDiagram, path: Path) -> tuple[tuple[int, int], ...]:
    """Ordered pairs of distinct extensions; n(n-1) pairs."""
    ext = extensions(diagram, path)
    return tuple((e, f) for e in ext for f in ext if e != f)


def longest_common_prefix(x: Path, y: Path) -> Path:
    if x.root is None or y.root is None or x.root != y.root:
        return EMPTY_PATH
    common = []
    for a, b in zip(x.edges, y.edges):
        if a != b:
            break
        common.append(a)
    return Path(x.root, tuple(common))


def dual_diagram(diagram: BratteliDiagram) -> BratteliDiagram:
    """Composability diagram: one vertex per edge model of the input, and a single
    edge e -> f whenever range(e) = source(f).  Drives Cuntz-Krieger admissibility."""
    names = tuple(
        f"{diagram.letters[e.source]}>{diagram.letters[e.target]}:{e.occurrence}"
        for e in diagram.edges)
    m = len(diagram.edges)
    matrix = tuple(
        tuple(1 if diagram.edges[i].target == diagram.edges[j].source else 0
              for j in range(m))
        for i in range(m))
    return build_diagram(matrix, symmetry_order=1, letters=names)


def composability_matrix(diagram: BratteliDiagram) -> tuple[tuple[int, ...], ...]:
    return dual_diagram(diagram).matrix


def diagram_to_json(diagram: BratteliDiagram, dimension: int = 1) -> str:
    payload = {
        "letters": list(diagram.letters),
        "matrix": [list(row) for row in diagram.matrix],
        "dimension": dimension,
        "symmetry_order": diagram.symmetry_order,
    }
    return json.dumps(payload, sort_keys=True)


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
        letters = tuple(str(l) for l in payload["letters"])
        matrix = payload["matrix"]
        if any(len(row) != len(letters) for row in matrix) or \
                len(matrix) != len(letters):
            raise DiagramError(
                "matrix shape does not match the letter list (ragged input?)")
        dimension = _integer(payload.get("dimension", 1), "dimension")
        if dimension < 1:
            raise DiagramError("dimension must be >= 1")
        g = _integer(payload.get("symmetry_order", 1), "symmetry_order")
        return build_diagram(matrix, symmetry_order=g, letters=letters), dimension
    except TypeError as exc:
        raise DiagramError(f"diagram file has a field of the wrong type: {exc}") from exc


def load_diagram_file(path: str) -> tuple[BratteliDiagram, int]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_diagram_json(fh.read())
