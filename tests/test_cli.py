"""CLI behaviour: exit codes, output determinism, formats, file input."""

from __future__ import annotations

import ctypes
import io
import json
import os
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bratlap import laplacian
from bratlap.cli import main
from bratlap.presets import preset_names


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
    args = ["weyl", "--preset", "fibonacci", "--depth", "10", "--s", "1"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


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


def test_heat_command(capsys):
    code, out = run_cli(["heat", "--preset", "fibonacci", "--tmin", "1e-5",
                         "--tmax", "1e-3", "--points", "4"], capsys)
    assert code == 0
    assert '"target":"-0.5"' in out


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
        op.matrix[0, 0] += 1.0
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


def _exit_code(argv):
    """main's exit code and stderr; any exception but SystemExit escapes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


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


@given(preset=st.sampled_from(preset_names()),
       depth=st.integers(0, 6),
       s=st.sampled_from(["-1", "0", "1/2", "1", "2", "3"]))
@settings(max_examples=60, deadline=None)
def test_strip_exit_codes(preset, depth, s):
    # strip either succeeds or refuses its input as a usage error: it has no
    # verification to fail, and no input may end in a traceback
    argv = ["strip", "--preset", preset, "--depth", str(depth), "--s", s]
    _assert_clean(*_checked_run(argv), argv, codes=(0, 2))


@given(command=st.sampled_from(["spectrum", "dense", "verify", "zeta", "weyl"]),
       preset=st.sampled_from(preset_names()),
       depth=st.integers(0, 4),
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
    assert "largest depth for this diagram is 61" in captured.err


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


@pytest.mark.parametrize("argv", [
    ["weyl", "--preset", "fibonacci", "--grid", "1:10:0"],
    ["weyl", "--preset", "fibonacci", "--grid", "nan:10:5"],
    ["heat", "--preset", "fibonacci", "--tmin", "nan"],
    ["heat", "--preset", "fibonacci", "--tmax", "inf"],
    ["zeta", "--preset", "fibonacci", "--s", "1000", "--depth", "5"],
    ["weyl", "--preset", "thue-morse", "--s", "-100", "--depth", "12"],
], ids=" ".join)
def test_bad_numbers_are_clean_usage_errors(argv):
    code, err = _checked_run(argv)
    _assert_clean(code, err, argv, codes=(2,))
    assert "error: " in err


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
            argv += ["--depth", str(draw(st.integers(0, 30)))]
    elif command == "ck-check":
        argv += ["--depth", str(draw(st.integers(0, 5)))]
    elif command == "complexity":
        argv += ["--nmax", str(draw(st.integers(-1, 60)))]
    elif command == "weyl":
        grid = f"{draw(_NUMBERS)}:{draw(_NUMBERS)}:{draw(st.integers(-1, 6))}"
        argv += ["--depth", str(draw(st.integers(1, 8))), "--grid", grid]
    else:
        argv += ["--depth", str(draw(st.integers(1, 8))),
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
