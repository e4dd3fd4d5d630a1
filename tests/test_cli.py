"""CLI behaviour: exit codes, output determinism, formats, file input."""

from __future__ import annotations

import json

import pytest

from bratlap import laplacian
from bratlap.cli import main


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
        main(["presets"])
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


def test_determinism_across_runs_and_parallel(capsys):
    args = ["weyl", "--preset", "fibonacci", "--depth", "10", "--s", "1"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    _, parallel = run_cli(args + ["--parallel", "4"], capsys)
    assert first == second
    assert [l for l in first.splitlines() if "parallel" not in l] == \
        [l for l in parallel.splitlines() if "parallel" not in l]


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
