"""Path helpers that several test modules use as independent oracles."""

from __future__ import annotations

from bratlap.diagram import EMPTY_PATH, Path


def longest_common_prefix(x: Path, y: Path) -> Path:
    if x.root is None or y.root is None or x.root != y.root:
        return EMPTY_PATH
    common = []
    for a, b in zip(x.edges, y.edges):
        if a != b:
            break
        common.append(a)
    return Path(x.root, tuple(common))
