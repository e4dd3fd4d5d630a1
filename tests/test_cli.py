"""CLI behaviour: exit codes, output determinism, formats, file input."""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bratlap
from bratlap import cli, cuntz, laplacian, measure
from bratlap.asymptotics import magnitude_table
from bratlap.cli import _fmt, _fmt_exact, main
from bratlap.diagram import build_diagram
from bratlap.presets import PRESETS, load_preset, preset_names
from oracles import distance_to_unstable, full_spectrum, recursive_spectrum


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_spectrum_thue_morse_rows(capsys):
    code, out = run_cli(["spectrum", "--preset", "thue-morse", "--depth", "3",
                         "--s", "1", "--backend", "rational"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "label,generation,path,multiplicity,value_exact,value_float"
    body = lines[1:]
    assert 'zero,0,"zero",1,"0",0' in body
    assert 'root,0,"root",1,"-4",-4' in body
    assert sum(1 for l in body if ',"-18",' in l) == 2
    assert sum(1 for l in body if ',"-74",' in l) == 4
    assert '"total_multiplicity":8' in out


def test_verify_fibonacci_exit_zero_with_notes(capsys):
    code, out = run_cli(["verify", "--preset", "fibonacci", "--depth", "3",
                         "--s", "1", "--backend", "quadratic:5"], capsys)
    assert code == 0
    assert "PASS" in out
    assert "NOTES" in out
    assert "2*phi^2-1" in out and "1+2*phi^2" in out


# an exact operator and its float twin, whose float deviation exceeds the
# 1e-8 tolerance: about 4x at thue-morse depth 8 (magnitude 9e6), about 3000x
# at fibonacci depth 12, s = -1 (magnitude 7e9)
_LARGE_DEVIATION = [["--preset", "thue-morse", "--depth", "8", "--s", "0"],
                    ["--preset", "fibonacci", "--depth", "12", "--s", "-1"]]


@pytest.mark.parametrize("argv", _LARGE_DEVIATION, ids=lambda argv: argv[1])
def test_verify_exact_operator_passes_on_its_exact_proof(argv, capsys):
    """The exact eigen-relations prove the whole spectrum, so the float
    deviation is printed but cannot fail an exact operator."""
    report = laplacian.verify_spectrum(load_preset(argv[1]).weight_system,
                                       int(argv[3]), Fraction(argv[5]))
    assert report.exact_ok is True and report.max_abs_deviation > 1e-8
    code, out = run_cli(["verify", *argv], capsys)
    assert code == 0
    assert f"verify generation={argv[3]} s={argv[5]}: PASS" in out
    assert (f"  max |dense - closed-form| = {report.max_abs_deviation:.3e}"
            f" (tolerance 1.0e-08)") in out
    assert "exact eigen-relations: ok" in out
    assert "mismatch:" not in out and '"ok":true' in out


@pytest.mark.parametrize("argv", _LARGE_DEVIATION, ids=lambda argv: argv[1])
def test_verify_float_operator_fails_on_its_deviation(argv, capsys):
    code, out = run_cli(["verify", *argv, "--backend", "approx:100"], capsys)
    assert code == 1
    assert f"verify generation={argv[3]} s={argv[5]}: FAIL" in out
    assert '"  mismatch: eigenvalue #' in out
    assert "exact eigen-relations" not in out and '"ok":false' in out
    # both sides print alike at 12 digits, so the line names their gap; its
    # digits follow the BLAS build
    gap = re.search(r'"  mismatch: eigenvalue #\d+: dense \S+ vs closed-form \S+, '
                    r'\|dense - closed-form\| = (\S+) > tolerance 1\.0e-08"', out)
    assert gap is not None and float(gap.group(1)) > 1e-8


def test_exact_string_format(capsys):
    code, out = run_cli(["spectrum", "--preset", "fibonacci", "--depth", "2",
                         "--s", "1"], capsys)
    assert code == 0
    assert '"(-1) + (-2)*phi"' in out          # root eigenvalue -(2 phi + 1)
    assert "field=Q(sqrt5) basis=1,phi" in out


def test_usage_error_depth_zero():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--preset", "fibonacci", "--depth", "0", "--s", "1"])
    assert exc.value.code == 2


def test_usage_error_preset_and_file():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--preset", "fibonacci", "--matrix-file", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--depth", "2"])
    assert exc.value.code == 2


def test_usage_error_bad_backend():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--preset", "fibonacci", "--backend", "sexagesimal"])
    assert exc.value.code == 2


def test_usage_error_bad_precision_environment(monkeypatch, capsys):
    monkeypatch.setenv("BRATLAP_PRECISION", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--preset", "fibonacci"])
    assert exc.value.code == 2
    assert "BRATLAP_PRECISION" in capsys.readouterr().err


def test_usage_error_precision_below_minimum(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--preset", "fibonacci", "--s", "1/2", "--precision", "10"])
    assert exc.value.code == 2
    assert ">= 53 bits" in capsys.readouterr().err


def test_ck_check_exit_zero(capsys):
    code, out = run_cli(["ck-check", "--preset", "thue-morse", "--depth", "4"], capsys)
    assert code == 0
    assert "PASS" in out


def test_json_round_trip(capsys):
    code, out = run_cli(["spectrum", "--preset", "thue-morse", "--depth", "3",
                         "--s", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    again = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                       default=str) + "\n"
    assert again == out


def test_determinism_across_runs(capsys):
    for args in (["weyl", "--preset", "fibonacci", "--depth", "10", "--s", "1"],
                 # the 20 root slots share recursion states
                 ["strip", "--preset", "penrose", "--depth", "5", "--s", "2"],
                 # so do the two parallel a -> a edges
                 ["strip", "--preset", "fibonacci-conjugate", "--depth", "6", "--s", "1"]):
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second, args


def test_matrix_file_input(tmp_path, capsys):
    spec = tmp_path / "golden.json"
    spec.write_text(json.dumps({
        "letters": ["a", "b"],
        "matrix": [[1, 1], [1, 0]],
        "dimension": 1,
        "symmetry_order": 1,
    }))
    code, out = run_cli(["spectrum", "--matrix-file", str(spec), "--depth", "2",
                         "--s", "1", "--backend", "quadratic:5"], capsys)
    assert code == 0
    assert '"(-1) + (-2)*phi"' in out


def test_ck_check_reads_only_the_diagram(tmp_path, capsys):
    # ck-check builds no Perron data, so an irrational theta is no obstacle
    spec = tmp_path / "golden.json"
    spec.write_text(json.dumps({"letters": ["a", "b"], "matrix": [[1, 1], [1, 0]]}))
    code, out = run_cli(["ck-check", "--matrix-file", str(spec), "--depth", "4"], capsys)
    assert code == 0
    assert "# backend=rational" in out


@pytest.mark.parametrize("argv", [
    ["zeta", "--preset", "fibonacci", "--depth", "5", "--precision", "64"],
    ["strip", "--preset", "fibonacci", "--precision", "64"],
    pytest.param(["strip", "--preset", "fibonacci", "--backend", "quadratic:5"],
                 id="strip --backend"),
    ["ck-check", "--preset", "fibonacci", "--backend", "rational"],
    ["complexity", "--preset", "thue-morse", "--backend", "rational"],
    ["presets", "--preset", "penrose"],
], ids=lambda argv: argv[0])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_matrix_file_ragged_rejected(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text('{"letters": ["a", "b"], "matrix": [[1, 1], [1]]}')
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--matrix-file", str(spec), "--depth", "2"])
    assert exc.value.code == 2


def test_complexity_needs_rule():
    with pytest.raises(SystemExit) as exc:
        main(["complexity", "--preset", "penrose", "--nmax", "10"])
    assert exc.value.code == 2


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "zeta.csv"
    code, _ = run_cli(["zeta", "--preset", "fibonacci", "--s", "2",
                       "--depth", "5", "--output", str(target)], capsys)
    assert code == 0
    text = target.read_text()
    assert "generation,increment,cumulative,ratio" in text


def test_weyl_margins_emitted_for_thue_morse(capsys):
    code, out = run_cli(["weyl", "--preset", "thue-morse", "--depth", "8"], capsys)
    assert code == 0
    assert "# section=margins" in out
    margin_rows = [l for l in out.splitlines()
                   if l and not l.startswith("#") and l.count(",") == 5]
    assert any(l.startswith("4,2,") for l in margin_rows)


def test_weyl_grid_inside_the_window(capsys):
    """A --grid inside the covered window (fibonacci depth 10: 15.6 to
    182888) prints its geomspace thresholds with N(t) at each."""
    code, out = run_cli(["weyl", "--preset", "fibonacci", "--depth", "10",
                         "--grid", "20:150000:5"], capsys)
    assert code == 0
    rows = out.split("threshold,count\n")[1].split("# summary")[0].splitlines()
    grid = np.geomspace(20, 150000, 5)
    ws = load_preset("fibonacci").weight_system
    counts = magnitude_table(cuntz.affine_table(ws, 1), 10).count(grid)
    assert rows == [f"{_fmt(t)},{c}" for t, c in zip(grid, counts)]
    assert counts.tolist() == sorted(set(counts.tolist()))


def test_heat_command(capsys):
    code, out = run_cli(["heat", "--preset", "fibonacci", "--tmin", "1e-5",
                         "--tmax", "1e-3", "--points", "4"], capsys)
    assert code == 0
    assert '"target":"-0.5"' in out


def _rendering(command: str, config: dict, sections: list[dict],
               summary: dict) -> tuple[str, str]:
    """A command's CSV and JSON stdout, written out from its config, its
    sections (name, columns, rows, comments) and its summary."""
    dump = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    csv = [f"# bratlap {command}", *(f"# {key}={config[key]}" for key in sorted(config))]
    for sec in sections:
        # CSV quotes the free-text columns; JSON holds their raw strings
        quoted = [c in ("path", "value_exact", "line", "description") for c in sec["columns"]]
        csv += [f"# {line}" for line in sec["comments"]]
        csv += [f"# section={sec['name']}", ",".join(sec["columns"]),
                *(",".join(f'"{v}"' if q else str(v) for v, q in zip(row, quoted))
                  for row in sec["rows"])]
    csv.append("# summary " + dump(summary))
    payload = {"command": command, "config": config,
               "sections": [*sections, {"name": "summary", "data": summary}]}
    return "\n".join(csv) + "\n", dump(payload) + "\n"


def _strip_rendering(preset: str, depth: int, s: str) -> tuple[str, str]:
    """strip's CSV and JSON stdout rendered path by path: each record of
    recursive_spectrum labelled by format_path, at the per-vector distance
    of its value's field expansion; only the bound, pisot and stable norm
    are read off strip_check's report."""
    spec = PRESETS[preset]
    diagram = build_diagram(spec.matrix, symmetry_order=spec.symmetry_order,
                            letters=spec.letters)
    pdata = measure.field_perron(diagram, spec.dimension)
    table = cuntz.affine_table(measure.WeightSystem(diagram, pdata), Fraction(s))
    emb = cuntz.companion_embedding(pdata, Fraction(s))
    rows, per_gen = [], {}
    for rec in recursive_spectrum(table, depth):
        label = rec.label if rec.path is None else diagram.format_path(rec.path)
        dist = distance_to_unstable(emb, cuntz.lattice_coords(emb, rec.value))
        rows.append([label, _fmt(dist)])
        per_gen[rec.generation] = max(per_gen.get(rec.generation, 0.0), dist)
    report = cuntz.strip_check(emb, table, depth)
    config = {"backend": pdata.backend.kind, "depth": str(depth),
              "dimension": spec.dimension, "preset": preset, "s": s}
    gen_rows = [[gen, _fmt(dist)] for gen, dist in sorted(per_gen.items())]
    summary = {"bound": _fmt(report.bound), "max_distance": _fmt(max(per_gen.values())),
               "pisot": report.pisot, "stable_norm": _fmt(report.stable_norm)}
    return _rendering("strip", config, [
        {"name": "distances", "columns": ["path", "distance"], "rows": rows, "comments": []},
        {"name": "per_generation", "columns": ["generation", "max_distance"],
         "rows": gen_rows, "comments": []}], summary)


def _spectrum_rendering(preset: str, depth: int, s: str) -> tuple[str, str]:
    """spectrum's CSV and JSON stdout rendered record by record: each record
    of full_spectrum labelled by format_path of its own path."""
    bundle = load_preset(preset)
    ws, diagram = bundle.weight_system, bundle.diagram
    rows = []
    records = full_spectrum(ws, depth - 1, Fraction(s))
    for rec in records:
        label = rec.label if rec.path is None else diagram.format_path(rec.path)
        rows.append([rec.label, rec.generation, label, rec.multiplicity,
                     _fmt_exact(ws.backend, rec.value), _fmt(rec.value_float)])
    config = {"backend": bundle.backend.kind, "depth": str(depth),
              "dimension": bundle.dimension, "preset": preset, "s": s}
    columns = ["label", "generation", "path", "multiplicity", "value_exact", "value_float"]
    return _rendering("spectrum", config, [
        {"name": "records", "columns": columns, "rows": rows,
         "comments": [ws.backend.header()]}],
        {"total_multiplicity": sum(rec.multiplicity for rec in records)})


@pytest.mark.parametrize("preset, depth, s", [("penrose", 5, "1"),
                                              ("fibonacci-conjugate", 7, "1/2"),
                                              ("dyadic-odometer", 6, "2"),
                                              ("ammann-a2", 8, "3/2"),
                                              ("fibonacci", 9, "0"),
                                              ("thue-morse", 7, "5/2")])
def test_spectrum_stdout_matches_a_per_record_rendering(preset, depth, s, capsys):
    # spectrum reads its labels from split_labels, one generation at a time;
    # in walk order they must be format_path of each record's own path
    csv, json_text = _spectrum_rendering(preset, depth, s)
    argv = ["spectrum", "--preset", preset, "--depth", str(depth), "--s", s]
    assert run_cli(argv, capsys) == (0, csv)
    assert run_cli([*argv, "--format", "json"], capsys) == (0, json_text)


@pytest.mark.parametrize("preset, depth, s", [("penrose", 6, "0"),
                                              ("fibonacci-conjugate", 8, "1"),
                                              ("thue-morse", 8, "1")])
def test_strip_stdout_matches_a_per_path_rendering(preset, depth, s, capsys):
    # strip works by recursion state and batches its distances; its stdout
    # must be what a path-by-path rendering prints, byte for byte.  The
    # distances' last digits depend on the BLAS, so no digest is pinned.
    csv, json_text = _strip_rendering(preset, depth, s)
    argv = ["strip", "--preset", preset, "--depth", str(depth), "--s", s]
    assert run_cli(argv, capsys) == (0, csv)
    assert run_cli([*argv, "--format", "json"], capsys) == (0, json_text)


@pytest.mark.parametrize("preset, depth, s", [("penrose", 5, "1"),
                                              ("ammann-a2", 8, "3/2"),
                                              ("thue-morse", 7, "5/2")])
def test_spectrum_rendering_across_block_boundaries(preset, depth, s, monkeypatch, capsys):
    # seven rows to a block: the JSON rows' commas and the CSV lines must
    # not show where one block ends and the next begins
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    test_spectrum_stdout_matches_a_per_record_rendering(preset, depth, s, capsys)


@pytest.mark.parametrize("preset, depth, s", [("penrose", 6, "0"),
                                              ("thue-morse", 8, "1")])
def test_strip_rendering_across_block_boundaries(preset, depth, s, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    test_strip_stdout_matches_a_per_path_rendering(preset, depth, s, capsys)


def test_strip_command_penrose_uses_exact_coordinates(capsys):
    code, out = run_cli(["strip", "--preset", "penrose", "--depth", "4",
                         "--s", "2"], capsys)
    assert code == 0
    summary = json.loads(out.splitlines()[-1].split("# summary ")[1])
    assert summary["pisot"] is True
    assert float(summary["max_distance"]) <= float(summary["bound"])


def test_dense_broken_slot_symmetry_exits_one(monkeypatch, capsys):
    build = laplacian.dense_restriction

    def perturbed(*args, **kwargs):
        op = build(*args, **kwargs)
        op.values += (op.values[op.index[0, 0]] + 1.0,)
        op.index[0, 0] = len(op.values) - 1
        return op

    monkeypatch.setattr(laplacian, "dense_restriction", perturbed)
    code = main(["dense", "--preset", "penrose", "--depth", "2", "--s", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "slot symmetry" in captured.err


@pytest.mark.parametrize("preset", ["penrose", "ammann-a2"])
def test_strip_refusal_names_s_and_field(preset, capsys):
    # at s=1 (2-s)/d = 1/2 takes some betas out of Q(sqrt5)
    with pytest.raises(SystemExit) as exc:
        main(["strip", "--preset", preset, "--depth", "4", "--s", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "s=1" in err and "Q(sqrt5)" in err
    assert "accumulate" not in err


def _outputs(argv):
    """main's exit code, stdout and stderr; any exception but SystemExit
    escapes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _exit_code(argv):
    """main's exit code and stderr; any exception but SystemExit escapes."""
    code, _, err = _outputs(argv)
    return code, err


@pytest.mark.parametrize("command", ["spectrum", "dense", "verify", "zeta", "weyl", "strip"])
@pytest.mark.parametrize("s", ["-3/2", "-1e-3"])
def test_negative_fraction_after_s(command, s):
    """argparse reads -3/2 or -1e-3 as a flag, not as the value of --s; main
    hands it over whole, as --s=-3/2 is."""
    argv = [command, "--preset", "fibonacci", "--depth", "3"]
    spaced = _outputs(argv + ["--s", s])
    assert spaced == _outputs(argv + [f"--s={s}"])
    code, out, err = spaced
    assert "expected one argument" not in err
    assert f"# s={s}\n" in out if code == 0 else f"s={Fraction(s)} " in err


_LIBC = ctypes.CDLL(None)
_LIBC.fflush.argtypes = [ctypes.c_void_p]
_LIBC.fflush.restype = ctypes.c_int


def _checked_run(argv):
    """main's exit code and all it printed outside stdout: its stderr, any
    Python warning, and what native code (LAPACK's error handler) wrote to
    file descriptors 1 and 2."""
    with tempfile.TemporaryFile() as native, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        saved = os.dup(1), os.dup(2)
        os.dup2(native.fileno(), 1)
        os.dup2(native.fileno(), 2)
        try:
            code, err = _exit_code(argv)
        finally:
            _LIBC.fflush(None)
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            os.close(saved[0])
            os.close(saved[1])
        native.seek(0)
        err += native.read().decode(errors="replace")
    err += "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, err


def _assert_clean(code, err, argv, codes=(0, 1, 2)):
    assert code in codes, (argv, err)
    for text in ("Traceback", "Warning", "DLASCL"):
        assert text not in err, (argv, err)


# far beyond every path cap: each depth check must refuse it at once
HUGE_DEPTH = 100_000


@given(preset=st.sampled_from(preset_names()),
       depth=st.one_of(st.integers(0, 6), st.just(HUGE_DEPTH)),
       s=st.sampled_from(["-1", "0", "1/2", "1", "2", "3"]))
@settings(max_examples=60, deadline=None)
def test_strip_exit_codes(preset, depth, s):
    # strip either succeeds or refuses its input as a usage error: it has no
    # verification to fail, and no input may end in a traceback
    argv = ["strip", "--preset", preset, "--depth", str(depth), "--s", s]
    _assert_clean(*_checked_run(argv), argv, codes=(0, 2))


@given(command=st.sampled_from(["spectrum", "dense", "verify", "zeta", "weyl"]),
       preset=st.sampled_from(preset_names()),
       depth=st.one_of(st.integers(0, 4), st.just(HUGE_DEPTH)),
       s=st.sampled_from(["-1000", "-1", "0", "1/2", "1", "3", "7/2"]),
       backend=st.sampled_from([None, "rational", "quadratic:5", "approx:64"]))
@settings(max_examples=60, deadline=None)
def test_command_exit_codes(command, preset, depth, s, backend):
    # success, a failed verification or a usage error; never a traceback.
    # The exact dense oracle on the g = 20 and g = 4 diagrams is left out
    # above depth 3, where it takes tens of seconds.
    assume(not (command in ("verify", "dense") and preset in ("penrose", "ammann-a2")
                and backend in ("rational", "quadratic:5") and depth > 3))
    argv = [command, "--preset", preset, "--depth", str(depth), "--s", s]
    if backend is not None:
        argv += ["--backend", backend]
    _assert_clean(*_checked_run(argv), argv)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--preset", "fibonacci", "--s", "-1000", "--depth", "4"],
    ["weyl", "--preset", "thue-morse", "--s", "-2000", "--depth", "4"],
    ["dense", "--preset", "penrose", "--s", "-1000", "--depth", "2"],
], ids=lambda argv: argv[0])
def test_values_beyond_float_range_are_usage_errors(argv):
    # eigenvalues at a large negative s do not fit a float
    code, err = _checked_run(argv)
    _assert_clean(code, err, argv, codes=(2,))
    assert "float range" in err


@pytest.mark.parametrize("command", ["spectrum", "dense", "verify", "strip", "ck-check",
                                     "weyl"])
def test_huge_depth_refused_at_once(command):
    # the path counts stop at the first generation past the cap, so no
    # command grows generations toward it or formats a count of thousands
    # of digits; a subprocess, so that a hang fails instead of stalling
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bratlap.__file__))}
    argv = [sys.executable, "-m", "bratlap.cli", command, "--preset", "fibonacci",
            "--depth", str(HUGE_DEPTH)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "more than" in proc.stderr or "int64" in proc.stderr


def test_closed_stdout_ends_quietly():
    """A reader that stops after 100 bytes closes the pipe while the command
    still writes its blocks: it keeps its own exit code and prints nothing
    on stderr, at the write or at interpreter exit."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bratlap.__file__))}
    for argv in (["spectrum", "--preset", "thue-morse", "--depth", "12"],
                 ["strip", "--preset", "penrose", "--depth", "8", "--s", "0"]):
        with subprocess.Popen([sys.executable, "-m", "bratlap.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            _, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, (argv, err)
        assert err == b"", argv


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["strip", "--preset", "fibonacci", "--depth", "40", "--s", "1"],
    ["spectrum", "--preset", "fibonacci", "--depth", "40"],
    ["strip", "--preset", "penrose", "--depth", "8", "--s", "0", "--output", "/nonexistent/x"],
    ["spectrum", "--preset", "penrose", "--depth", "8", "--output", "/nonexistent/x"]],
    ids=["strip-cap", "spectrum-cap", "strip-output", "spectrum-output"])
def test_refusals_write_nothing(argv, fmt, monkeypatch):
    # the record and path caps refuse inside the command, and a bad --output
    # before the first block: no row reaches stdout, whatever the block size
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    code, out, err = _outputs([*argv, "--format", fmt])
    assert (code, out) == (2, ""), err
    assert ("more than" in err) != ("cannot write --output" in err), err


def _subparser(parser, command):
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices[command]


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_one_command_parser_keeps_the_help(command, monkeypatch):
    # main adds the arguments of the invoked command only: its help, and the
    # top-level listing, must read as with every command's arguments added
    monkeypatch.setenv("COLUMNS", "100")
    full, one = cli._build_parser(cli._COMMANDS), cli._build_parser([command])
    if command:
        full, one = _subparser(full, command), _subparser(one, command)
    assert one.format_help() == full.format_help()
    assert _outputs([command, "-h"] if command else ["-h"]) == (0, full.format_help(), "")


@pytest.mark.parametrize("command", ["zeta", "heat"])
@pytest.mark.parametrize("depth", [2000, HUGE_DEPTH])
def test_float_range_depth_refusal_names_depth(command, depth):
    # zeta's path counts and heat's Lambda^n leave the float range near
    # generation 1476 and 738 on fibonacci; the refusal names --depth and
    # the largest depth that runs, and heat, which has no --s, does not
    # advise changing it
    argv = [command, "--preset", "fibonacci", "--depth", str(depth)]
    argv += ["--points", "3"] if command == "heat" else []
    code, err = _checked_run(argv)
    _assert_clean(code, err, argv, codes=(2,))
    assert f"--depth {depth}:" in err and "--s" not in err
    largest = int(err.rsplit("the largest usable depth is ", 1)[1])
    argv[4] = str(largest)
    assert _checked_run(argv) == (0, "")


def test_weyl_multiplicities_never_wrap(capsys):
    # |Pi_62| = 2**62 still fits the int64 weights; |Pi_65| = 2**65 does not
    code = main(["weyl", "--preset", "thue-morse", "--s", "1", "--depth", "61",
                 "--format", "json"])
    summary = json.loads(capsys.readouterr().out)["sections"][-1]["data"]
    assert code == 0
    assert summary["total_multiplicity"] == 2 ** 62
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--preset", "thue-morse", "--s", "1", "--depth", "64"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "2**63 - 1" in captured.err
    assert "int64 bound for this diagram is depth 61" in captured.err


_MATRICES = {
    "golden": {"letters": ["a", "b"], "matrix": [[1, 1], [1, 0]]},
    # theta = 1 + sqrt2
    "silver": {"letters": ["a", "b"], "matrix": [[2, 1], [1, 0]]},
    # theta^3 = theta + 1: a cubic Perron eigenvalue, approximate backends only
    "plastic": {"letters": ["a", "b", "c"], "matrix": [[0, 1, 0], [0, 0, 1], [1, 1, 0]]},
    "non-primitive": {"letters": ["a", "b"], "matrix": [[1, 1], [0, 1]]},
    "one": {"letters": ["a"], "matrix": [[1]]},
}
_MALFORMED = {
    "truncated": '{"letters": ["a", "b"], "matrix": [[1, 1]',
    "not-an-object": "5",
    "wrong-types": '{"letters": 5, "matrix": 5}',
    "null-dimension": '{"letters": ["a", "b"], "matrix": [[1, 1], [1, 0]], "dimension": null}',
    # numbers that int() would truncate or read as the golden matrix
    "float-entry": '{"letters": ["a"], "matrix": [[2.5]]}',
    "string-entries": '{"letters": ["a", "b"], "matrix": [["1", "1"], ["1", "0"]]}',
    "bool-entries": '{"letters": ["a", "b"], "matrix": [[true, true], [true, false]]}',
    "float-symmetry-order":
        '{"letters": ["a", "b"], "matrix": [[1, 1], [1, 0]], "symmetry_order": 2.5}',
    "bool-dimension": '{"letters": ["a", "b"], "matrix": [[1, 1], [1, 0]], "dimension": true}',
}


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    files = {}
    texts = {name: json.dumps(payload) for name, payload in _MATRICES.items()}
    for name, text in {**texts, **_MALFORMED}.items():
        files[name] = root / f"{name}.json"
        files[name].write_text(text)
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("backend", ["approx:53", "approx:200"])
def test_plastic_matrix_verifies_on_approximate_backend(backend, matrix_files):
    argv = ["verify", "--matrix-file", matrix_files["plastic"], "--backend", backend,
            "--depth", "5"]
    code, err = _checked_run(argv)
    assert code == 0, err


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_matrix_files_are_refused(name, matrix_files):
    argv = ["ck-check", "--matrix-file", matrix_files[name], "--depth", "3"]
    _assert_clean(*_checked_run(argv), argv, codes=(2,))


def test_symmetry_order_beyond_the_path_cap_is_refused_at_once(tmp_path):
    # g root edges per letter are built before anything is enumerated
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({**_MATRICES["golden"], "symmetry_order": 10 ** 9}))
    start = time.perf_counter()
    code, err = _exit_code(["ck-check", "--matrix-file", str(spec), "--depth", "3"])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("command", ["zeta", "ck-check", "strip"])
def test_generation_2_beyond_the_path_cap_is_refused_at_once(command, tmp_path):
    # one edge model per unit of matrix entry would be built before any
    # enumeration: 10**7 + 2 of them here
    spec = tmp_path / "heavy.json"
    spec.write_text(json.dumps({"letters": ["a", "b"],
                                "matrix": [[5_000_000, 1], [1, 5_000_000]]}))
    start = time.perf_counter()
    code, err = _exit_code([command, "--matrix-file", str(spec), "--depth", "3"])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "10000002 generation-2 paths" in err and "cap" in err


@pytest.mark.parametrize("matrix, field", [("golden", "quadratic:5"),
                                           ("silver", "quadratic:2")])
def test_strip_takes_the_field_of_theta(matrix, field, matrix_files, capsys):
    # strip has no --backend: it works in the exact field that holds theta
    code, out = run_cli(["strip", "--matrix-file", matrix_files[matrix],
                         "--depth", "4"], capsys)
    assert code == 0
    assert f"# backend={field}\n" in out


def test_strip_refuses_a_cubic_theta(matrix_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["strip", "--matrix-file", matrix_files["plastic"], "--depth", "4"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "degree > 2" in err and "approx" not in err


@pytest.mark.parametrize("argv", [["strip", "--preset", "fibonacci", "--depth", "4"],
                                  ["weyl", "--preset", "fibonacci"]])
def test_theta_is_certified_once_per_command(argv, monkeypatch, capsys):
    # strip reads its field and its Perron data off one certificate
    calls = []
    certify = measure._theta_certificate

    def counted(matrix):
        calls.append(matrix)
        return certify(matrix)

    monkeypatch.setattr(measure, "_theta_certificate", counted)
    code, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["weyl", "--preset", "fibonacci", "--grid", "1:10:0"],
    ["weyl", "--preset", "fibonacci", "--grid", "nan:10:5"],
    # past the cap heat's --points has, refused before the grid is allocated
    ["weyl", "--preset", "fibonacci", "--grid", "1:2:10001"],
    ["weyl", "--preset", "fibonacci", "--grid", "1:2:1000000000000"],
    ["heat", "--preset", "fibonacci", "--tmin", "nan"],
    ["heat", "--preset", "fibonacci", "--tmax", "inf"],
    ["zeta", "--preset", "fibonacci", "--s", "1000", "--depth", "5"],
    ["weyl", "--preset", "thue-morse", "--s", "-100", "--depth", "12"],
], ids=" ".join)
def test_bad_numbers_are_clean_usage_errors(argv):
    code, err = _checked_run(argv)
    _assert_clean(code, err, argv, codes=(2,))
    assert "error: " in err


def test_presets_lists_every_preset(capsys):
    code, out = run_cli(["presets"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["# bratlap presets", "# section=presets",
                         "name,dimension,symmetry_order,backend,transversal_faithful,"
                         "description"]
    assert [line.split(",")[0] for line in lines[3:]] == preset_names()
    assert lines[3] == ('fibonacci,1,1,quadratic:5,False,'
                        '"uncollared golden-mean substitution a->ab, b->a"')


_USAGE_ERRORS = [
    (["spectrum", "--preset", "fibonacci", "--s", "abc"], "--s must be rational, got 'abc'"),
    (["weyl", "--preset", "fibonacci", "--grid", "1:2"], "--grid must look like a:b:steps"),
    # at s >= d+2 Lambda_s <= 1 and no Weyl law holds: s = 3 is Lambda = 1
    # exactly on thue-morse, and s = 100 underflowed the coverage cap
    (["weyl", "--preset", "thue-morse", "--s", "3"], "Weyl count needs Lambda > 1 (s < d+2)"),
    (["weyl", "--preset", "thue-morse", "--s", "100"], "Weyl count needs Lambda > 1 (s < d+2)"),
    # factor_complexity's AsymptoticsError reaches the user through main
    (["complexity", "--preset", "fibonacci", "--nmax", "600000"],
     "fixed-point prefix exceeded 2000000 letters"),
    # exit 1 would read as a failed verification
    (["spectrum", "--preset", "fibonacci", "--output", "/nonexistent/x.csv"],
     "cannot write --output: [Errno 2] No such file or directory: '/nonexistent/x.csv'"),
]


@pytest.mark.parametrize("argv, message", _USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in _USAGE_ERRORS])
def test_usage_errors_name_their_cause(argv, message):
    code, err = _exit_code(argv)
    assert code == 2
    assert err.endswith(f"bratlap: error: {message}\n")


def test_self_calibration_failure_is_a_usage_error(monkeypatch):
    prove = cuntz._prove_recursion
    monkeypatch.setattr(cuntz, "_prove_recursion", lambda cache, levels, paths, lam, betas:
                        prove(cache, levels, paths, lam, [betas[0] + 1, *betas[1:]]))
    code, err = _exit_code(["weyl", "--preset", "fibonacci", "--depth", "4"])
    assert code == 2
    assert "bratlap: error: affine-table self-calibration failed on edge 0 over " in err


@pytest.mark.parametrize("s", ["100000000", "1e400"])
def test_huge_s_refused_without_exact_powers(s):
    start = time.perf_counter()
    code, err = _exit_code(["spectrum", "--preset", "fibonacci", "--depth", "4", "--s", s])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "float range" in err and "large and positive" in err


_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "1e-8", "1e-5",
                            "1e-3", "1", "1e6", "1e300"])


@st.composite
def _flag_argv(draw):
    command = draw(st.sampled_from(["heat", "ck-check", "complexity", "weyl", "zeta"]))
    argv = [command, "--preset", draw(st.sampled_from(preset_names()))]
    if command == "heat":
        for flag in ("--tmin", "--tmax"):
            if draw(st.booleans()):
                argv += [flag, draw(_NUMBERS)]
        points = draw(st.one_of(st.integers(-1, 6), st.sampled_from([10_001, 10 ** 12])))
        argv += ["--points", str(points)]
        if draw(st.booleans()):
            argv += ["--depth", str(draw(st.one_of(st.integers(0, 30), st.just(HUGE_DEPTH))))]
    elif command == "ck-check":
        argv += ["--depth", str(draw(st.one_of(st.integers(0, 5), st.just(HUGE_DEPTH))))]
    elif command == "complexity":
        argv += ["--nmax", str(draw(st.integers(-1, 60)))]
    elif command == "weyl":
        grid = f"{draw(_NUMBERS)}:{draw(_NUMBERS)}:{draw(st.integers(-1, 6))}"
        argv += ["--depth", str(draw(st.one_of(st.integers(1, 8), st.just(HUGE_DEPTH)))),
                 "--grid", grid]
    else:
        argv += ["--depth", str(draw(st.one_of(st.integers(1, 8), st.just(HUGE_DEPTH)))),
                 "--s", draw(st.sampled_from(["1000", "-1000", "100000000"]))]
    return argv


@given(argv=_flag_argv())
@settings(max_examples=80, deadline=None)
def test_flag_exit_codes(argv):
    # every command and numeric flag: exit 0, 1 or 2, and nothing on stderr
    # but a message
    _assert_clean(*_checked_run(argv), argv)


@given(command=st.sampled_from(["spectrum", "dense", "verify", "zeta", "weyl", "heat",
                                "strip", "ck-check"]),
       matrix=st.sampled_from(sorted(_MATRICES) + sorted(_MALFORMED)),
       backend=st.sampled_from([None, "rational", "quadratic:5", "approx:64"]))
@settings(max_examples=60, deadline=None)
def test_matrix_file_exit_codes(matrix_files, command, matrix, backend):
    argv = [command, "--matrix-file", matrix_files[matrix]]
    argv += ["--points", "3"] if command == "heat" else ["--depth", "3"]
    if backend is not None and command not in ("ck-check", "strip"):
        argv += ["--backend", backend]
    _assert_clean(*_checked_run(argv), argv)


# at s = 1/2 the splitting weights of some paths stay in Q(sqrt5) and those
# of the others fall back: both kinds of exact string, the field basis and
# 25 significant digits, in one section
FIB_CONJ_HALF = """\
# bratlap spectrum
# backend=quadratic:5
# depth=4
# dimension=1
# preset=fibonacci-conjugate
# s=1/2
# field=Q(sqrt5) basis=1,phi phi=(1+sqrt5)/2
# section=records
label,generation,path,multiplicity,value_exact,value_float
zero,0,"zero",1,"(0) + (0)*phi",0
root,0,"root",1,"(-1) + (-2)*phi",-4.2360679774997898
path,1,"a",2,"-11.82589291585821867071905",-11.825892915858219
path,2,"a.a(1)",2,"-121.1337280215183624322908",-121.13372802151837
path,3,"a.a(1).a(1)",2,"-1333.376195526634124703607",-1333.3761955266341
path,3,"a.a(1).a(2)",2,"-1333.376195526634124703607",-1333.3761955266341
path,3,"a.a(1).b",1,"-5872.409033327713023047252",-5872.4090333277127
path,2,"a.a(2)",2,"-121.1337280215183624322908",-121.13372802151837
path,3,"a.a(2).a(1)",2,"-1333.376195526634124703607",-1333.3761955266341
path,3,"a.a(2).a(2)",2,"-1333.376195526634124703607",-1333.3761955266341
path,3,"a.a(2).b",1,"-5872.409033327713023047252",-5872.4090333277127
path,2,"a.b",1,"-530.4180636830580831235787",-530.41806368305811
path,3,"a.b.a",2,"-1463.904821128147917722302",-1463.9048211281479
path,3,"a.b.b",1,"-6109.412865614045729394023",-6109.4128656140456
path,1,"b",1,"(-14) + (-22)*phi",-49.596747752497691
path,2,"b.a",2,"-133.7691961622005417172657",-133.76919616220053
path,3,"b.a.a(1)",2,"-1346.011663667316303988582",-1346.0116636673163
path,3,"b.a.a(2)",2,"-1346.011663667316303988582",-1346.0116636673163
path,3,"b.a.b",1,"-5885.044501468395202332227",-5885.0445014683955
path,2,"b.b",1,"(-153) + (-247)*phi",-552.65439522122404
path,3,"b.b.a",2,"-1486.141152666313862105256",-1486.1411526663139
path,3,"b.b.b",1,"(-1695) + (-2742)*phi",-6131.6491971522119
# summary {"total_multiplicity":34}
"""


def test_spectrum_prints_field_and_fallback_strings(capsys):
    code, out = run_cli(["spectrum", "--preset", "fibonacci-conjugate", "--depth", "4",
                         "--s", "1/2"], capsys)
    assert code == 0
    assert out == FIB_CONJ_HALF


# sha256 of `spectrum --depth 4` stdout per (preset, backend, s): every
# preset on its default backend and on quadratic:5.  spectrum prints exact or
# mpmath values and their float casts only, so no digest rests on the BLAS
SPECTRUM_DEPTH_4_SHA256 = {
    ("fibonacci", "quadratic:5", "1/2"):
        "2a35b702ca1f2f199c321439a8533d566269f94728969cd3cebf299075260487",
    ("fibonacci", "quadratic:5", "1"):
        "9e05867201c3f90d1638b424d24bb17d01446c471dd071a297dfe5962d930e5e",
    ("fibonacci", "quadratic:5", "2"):
        "09db980e7c5573e941de3465364206c07bf61b0aa0a90010bc28ed5174b6b5dd",
    ("fibonacci-conjugate", "quadratic:5", "1/2"):
        "83c07e92aa5b632ad7e59ebca680ce215bd40993cccb2c48870e6fbcf737d935",
    ("fibonacci-conjugate", "quadratic:5", "1"):
        "5a5a84736cddc5692c87e56b04c3d55280f49edc017998cc50a59283feab0370",
    ("fibonacci-conjugate", "quadratic:5", "2"):
        "2bf32f51c6290624a7260a42a1b44034172ba659b779700148e886a3c51467ad",
    ("thue-morse", "rational", "1/2"):
        "cde62310bc41a864ce5910b87cf25af47c0710c7eb439ca172011ff14254ce5b",
    ("thue-morse", "rational", "1"):
        "fb1bc26e56e69b23dae19f8b9ab5dc954e4454adef1ee04a50c096fc154796b8",
    ("thue-morse", "rational", "2"):
        "9b7b42231bfd2ad6bb826d65562d4804d230f31821ba7039c37b0beae1f58fc2",
    ("thue-morse", "quadratic:5", "1/2"):
        "03f4adc8a335171f5aa90e99e2966d1f1653d81427c4380156a20cde37a62ae7",
    ("thue-morse", "quadratic:5", "1"):
        "57ac026ab097f7ad05d70f8ecb99f4db24f8ec75dbc42c22a913fb642c842a2f",
    ("thue-morse", "quadratic:5", "2"):
        "c5d0e0480239222157ddd1672adff016cb0451b2f94309917256cbf695102fbf",
    ("dyadic-odometer", "rational", "1/2"):
        "968ed6960f79459d77954b0ef39ac9604ad30fedf37d56cce4c95a664da30485",
    ("dyadic-odometer", "rational", "1"):
        "71b211719d2ad9d29ee4c9fffe10681ce93a24f720c0e4920c88afdb159946ac",
    ("dyadic-odometer", "rational", "2"):
        "069605ba87fef007eac264519bf6dc02d73a842478bad3bba91e092444d7b6d4",
    ("dyadic-odometer", "quadratic:5", "1/2"):
        "ad0ea3f72dcade0189bf6b6f909233d55335eb489def3fe0bd12d3fb1255da37",
    ("dyadic-odometer", "quadratic:5", "1"):
        "051af4aecd064724e9809d3a20b45409a0ac882e3660b2cd7b14e242161896f9",
    ("dyadic-odometer", "quadratic:5", "2"):
        "c3159c98746258228004fab45ac610d95d9dff919f4f5b608415a87b4e676540",
    ("penrose", "approx:200", "1/2"):
        "c5c6753841a25cfe159bed71b793607fa32cc861ef27e8b19ffa70eea30d6fcf",
    ("penrose", "approx:200", "1"):
        "ad3d75b692709abf8ef8503fff7fa77349afb84f8a23a55997b8c43de845d77b",
    ("penrose", "approx:200", "2"):
        "288fb17f62d8eaf480019da4dea2968445bc0797b69dbb8f10b745b941fba68d",
    ("penrose", "quadratic:5", "1/2"):
        "1691bc8904cc018c3ad9b9cdc229e9bb2171f71a639c3c2e0cb91630969c7a59",
    ("penrose", "quadratic:5", "1"):
        "4b9b271769c90b735ccd338b9881d5f51e7987812e8e979b6222a04b3298e315",
    ("penrose", "quadratic:5", "2"):
        "aff01013e35131a6764cf621f6447dbb1c2799c02fae16406f96286603e7eb1e",
    ("ammann-a2", "approx:200", "1/2"):
        "4432d8ecdb515a2e9f7f77307bf3415858d69fd2b6628be51e75abeea572807d",
    ("ammann-a2", "approx:200", "1"):
        "cc46e5195210ed9c29e942ae5306a9b971f7c2e4d49d09837fbe7d5a4563daab",
    ("ammann-a2", "approx:200", "2"):
        "08a601b9963d0f539cd064c2caf2ad343e0726bcc7df4101bc5b319b72abeb56",
    ("ammann-a2", "quadratic:5", "1/2"):
        "d0ddc6d02b783840114e71df4f737c55a2cde45407c0ef5f37735a7cc655ead7",
    ("ammann-a2", "quadratic:5", "1"):
        "5839d11b33e2c88c2df14180fb6d32e58c928e219e6fe460c3c6deff2b17e04b",
    ("ammann-a2", "quadratic:5", "2"):
        "e48a1939b45c1494cb54a5af20cfabb0d421d7ced7e7a9db78c42f689f85eaa9",
}


@pytest.mark.parametrize("preset, backend, s", sorted(SPECTRUM_DEPTH_4_SHA256))
def test_spectrum_depth_4_stdout_is_pinned(preset, backend, s, capsys):
    code, out = run_cli(["spectrum", "--preset", preset, "--depth", "4", "--s", s,
                         "--backend", backend], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        SPECTRUM_DEPTH_4_SHA256[preset, backend, s]


# sha256 of `spectrum --depth 7` stdout on the folded diagrams, on approx:200,
# per (preset, s, format): 19,722 and 10,334 records at depth 8 carry only
# 256 and 512 values, and these pins hold every record's strings to the ones
# the path-by-path walk printed; JSON rows hold the raw strings, without
# the quotes CSV puts around the path and value_exact columns
SPECTRUM_DEPTH_7_SHA256 = {
    ("penrose", "1/2", "csv"):
        "4d853630d1712a91e2ab7b0679b0247192c87bdb9e0c4dea4eaf5964da768867",
    ("penrose", "2", "csv"):
        "eb9aee944cee0fe0510dc9612e48ed2a8f0e227c623521e3df979719c6a0b017",
    ("ammann-a2", "1/2", "csv"):
        "e01d8a1f43f1d35acb97bf32612cb98b425dd4c02f260343562c17d5ca04a44f",
    ("ammann-a2", "2", "csv"):
        "6f5f27d3664254a838541ce13c6b8f270b17809b0dadd18913816c44181cf1f1",
    ("ammann-a2", "1", "json"):
        "3b0f3bb55308a0ae2d9702e4ba37aaa0eb2ecbaf10a38c3dbb691fd84a515077",
}


@pytest.mark.parametrize("preset, s, fmt", sorted(SPECTRUM_DEPTH_7_SHA256))
def test_spectrum_depth_7_stdout_is_pinned(preset, s, fmt, capsys):
    code, out = run_cli(["spectrum", "--preset", preset, "--depth", "7", "--s", s,
                         "--backend", "approx:200", "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        SPECTRUM_DEPTH_7_SHA256[preset, s, fmt]


@pytest.mark.parametrize("letters, refused", [(["a", "a"], "a"), (["", "b"], ""),
                                             (["a", "b.c"], "b.c")])
def test_ambiguous_letters_exit_2(letters, refused, tmp_path):
    spec = tmp_path / "letters.json"
    spec.write_text(json.dumps({"letters": letters, "matrix": [[1, 1], [1, 0]]}))
    code, err = _exit_code(["spectrum", "--matrix-file", str(spec), "--depth", "2"])
    assert code == 2
    assert f"letter {refused!r} is empty, repeated" in err
