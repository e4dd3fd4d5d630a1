"""A conformance corpus: a deterministic list of CLI argvs over the six
presets and small generic matrix files, run in-process through
`bratlap.cli.main`.

    PYTHONPATH=src python tests/corpus.py [--sample N] [--seed K] > digests.txt

prints, per argv, the sha256 of its (stdout, stderr, exit code) and the
argv.  Running it with each of two trees' src/ on PYTHONPATH and diffing the
two listings shows every argv whose output changed; no digest is kept in the
repository.  The matrix files are written to a scratch directory that is
the working directory while the argvs run, so each argv names its file by a
relative path and prints the same on any machine.

The inputs: the six presets, each on the exact field of its theta; every
primitive 2x2 matrix with entries <= 2 and a seeded handful of primitive
3x3 ones whose theta has degree <= 2, each at symmetry order g in {1, 2}
and dimension d in {1, 2}; and [[2]] and [[3]] at g = 2.  Per input and per
s in {-1, -1/2, 0, 1/2, 1, 2}: `spectrum`, `verify` on the field backend and
on approx:100, `dense`, `strip` and `zeta`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import traceback
from itertools import product

from bratlap import cli
from bratlap.diagram import DiagramError, build_diagram
from bratlap.measure import _theta_certificate
from bratlap.presets import PRESETS, preset_names

S_VALUES = ("-1", "-1/2", "0", "1/2", "1", "2")
THREE_BY_THREE = 6      # seeded primitive 3x3 matrices with theta of degree <= 2


def _field(matrix) -> str | None:
    """The --backend of theta's exact field, or None for a matrix that is not
    primitive or whose theta has degree above 2."""
    try:
        build_diagram(matrix)
    except DiagramError:
        return None
    cert = _theta_certificate(matrix)
    return cert and cert.field.kind


def matrix_files() -> dict[str, tuple[dict, str]]:
    """File name -> (diagram file payload, field backend), in a fixed order."""
    matrices = [[[a, b], [c, d]] for a, b, c, d in product(range(3), repeat=4)]
    rng, threes = random.Random(19), []
    while len(threes) < THREE_BY_THREE:
        m = [[rng.randint(0, 2) for _ in range(3)] for _ in range(3)]
        if m not in threes and _field(m):
            threes.append(m)
    files = {}
    for i, m in enumerate(matrices + threes):
        field = _field(m)
        for g, d in product((1, 2), repeat=2) if field else ():
            letters = [chr(ord("a") + j) for j in range(len(m))]
            files[f"m{i}_g{g}_d{d}.json"] = ({"letters": letters, "matrix": m, "dimension": d,
                                              "symmetry_order": g}, field)
    for k, d in product((2, 3), (1, 2)):
        files[f"k{k}_g2_d{d}.json"] = ({"letters": ["a"], "matrix": [[k]], "dimension": d,
                                        "symmetry_order": 2}, "rational")
    return files


def argvs(files: dict[str, tuple[dict, str]]) -> list[list[str]]:
    """The corpus argvs, presets first, then the matrix files in order."""
    sources = [(["--preset", name], _field([list(r) for r in PRESETS[name].matrix]))
               for name in preset_names()]
    sources += [(["--matrix-file", name], field) for name, (_, field) in files.items()]
    out = []
    for (source, field), s in product(sources, S_VALUES):
        exact = ["--backend", field, "--s", s]
        out += [["spectrum", *source, "--depth", "5", *exact],
                ["verify", *source, "--depth", "4", *exact],
                ["verify", *source, "--depth", "4", "--backend", "approx:100", "--s", s],
                ["dense", *source, "--depth", "3", *exact],
                ["strip", *source, "--depth", "6", "--s", s],
                ["zeta", *source, "--depth", "12", *exact]]
    return out


def write_files(files: dict[str, tuple[dict, str]], directory: str) -> None:
    for name, (payload, _) in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def run(argv: list[str]) -> tuple[str, str, int | str]:
    """(stdout, stderr, exit code) of one in-process run; the exit code is
    "traceback", with the traceback on stderr, when an exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:       # noqa: BLE001 - a traceback is what the corpus looks for
            code = "traceback"
            err.write(traceback.format_exc())
    return out.getvalue(), err.getvalue(), code


def digest(result: tuple[str, str, int | str]) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


def sample(corpus: list[list[str]], size: int, seed: int) -> list[list[str]]:
    """A seeded sample of the corpus, in corpus order."""
    picked = random.Random(seed).sample(range(len(corpus)), min(size, len(corpus)))
    return [corpus[i] for i in sorted(picked)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", type=int, help="run a seeded sample of this many argvs")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    files = matrix_files()
    corpus = argvs(files)
    if args.sample is not None:
        corpus = sample(corpus, args.sample, args.seed)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_files(files, directory)
        os.chdir(directory)
        try:
            for argv in corpus:
                print(digest(run(argv)), " ".join(argv), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
