"""The CLI in a fresh interpreter: each command's bytes, and what it imports.

`cli` imports each layer (`laplacian`, `cuntz`, `asymptotics`) in the
commands that read it, and `scalar` imports mpmath with the first
approximate value.  In-process tests cannot catch a missing import of that
kind: an earlier test has already loaded every module.  These tests run one
command per process, as a user does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import bratlap
from test_cli import _outputs

_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bratlap.__file__))}
_LAZY = ("bratlap.laplacian", "bratlap.cuntz", "bratlap.asymptotics", "mpmath")

# a small call of every command, and two that reach approximate values from
# an exact start: penrose's approx:200 records, and the fractional power
# that leaves Q(sqrt5) mid-walk
_CALLS = [
    ["presets"],
    ["spectrum", "--preset", "fibonacci", "--depth", "4"],
    ["spectrum", "--preset", "penrose", "--depth", "3"],
    ["dense", "--preset", "thue-morse", "--depth", "3"],
    ["verify", "--preset", "fibonacci", "--depth", "5", "--s", "1"],
    ["verify", "--preset", "fibonacci-conjugate", "--depth", "5", "--s", "3/2"],
    ["zeta", "--preset", "fibonacci", "--depth", "8"],
    ["weyl", "--preset", "dyadic-odometer", "--depth", "8"],
    ["heat", "--preset", "dyadic-odometer", "--points", "3"],
    ["strip", "--preset", "fibonacci", "--depth", "6", "--s", "1"],
    ["ck-check", "--preset", "penrose", "--depth", "3"],
    ["complexity", "--preset", "thue-morse", "--nmax", "20"],
]

# a refusal raised inside a lazily imported layer: LaplacianError,
# AsymptoticsError and cuntz's record cap
_REFUSALS = [
    (["dense", "--preset", "penrose", "--depth", "6"],
     "dense restriction needs more than 4096 paths"),
    (["weyl", "--preset", "fibonacci", "--s", "3"], "Weyl count needs Lambda > 1"),
    (["strip", "--preset", "penrose", "--depth", "40", "--s", "0"],
     "recursion would produce more than the 10000000-record cap"),
]


def _fresh(argv):
    proc = subprocess.run([sys.executable, "-m", "bratlap.cli", *argv], capture_output=True,
                          text=True, env=_ENV, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", _CALLS, ids=" ".join)
def test_every_command_prints_the_same_in_a_fresh_process(argv):
    fresh = _fresh(argv)
    assert fresh[0] == 0, fresh[2]
    assert fresh == _outputs(argv)


@pytest.mark.parametrize("argv, message", _REFUSALS, ids=[argv[0] for argv, _ in _REFUSALS])
def test_a_lazy_layer_refusal_is_a_usage_error_in_a_fresh_process(argv, message):
    code, out, err = _fresh(argv)
    assert (code, out) == (2, ""), err
    assert f"bratlap: error: {message}" in err and "Traceback" not in err


_LOADED = """
import contextlib, io, json, sys
from bratlap import cli
from bratlap.presets import load_preset
argv = sys.argv[1:]
if argv and argv[0] in cli._COMMANDS:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
else:
    for name in argv:
        load_preset(name)
print(json.dumps([name in sys.modules for name in {lazy!r}]))
""".format(lazy=_LAZY)


def _loaded(argv) -> set[str]:
    """Which of _LAZY a fresh interpreter holds after importing the CLI and
    running argv: a command, or else the presets to load."""
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True,
                          text=True, env=_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {name for name, held in zip(_LAZY, json.loads(proc.stdout)) if held}


@pytest.mark.parametrize("argv, expected", [
    # importing the CLI, and building the exact presets, loads no layer and
    # no mpmath
    ([], set()),
    (["thue-morse", "fibonacci", "fibonacci-conjugate", "dyadic-odometer"], set()),
    (["verify", "--preset", "fibonacci", "--depth", "5", "--s", "1"], {"bratlap.laplacian"}),
    (["complexity", "--preset", "thue-morse"], {"bratlap.asymptotics"}),
    (["spectrum", "--preset", "penrose", "--depth", "3"], {"bratlap.laplacian", "mpmath"}),
    # ck-check reads neither the walk nor the preset's approx:200 backend
    (["ck-check", "--preset", "penrose", "--depth", "4"], {"bratlap.cuntz"}),
], ids=["import", "exact-presets", "verify", "complexity", "approx-spectrum", "ck-check"])
def test_a_call_imports_only_the_layers_it_reads(argv, expected):
    assert _loaded(argv) == expected
