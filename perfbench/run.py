"""bratlap benchmark: CLI sessions timed end to end, and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

A run measures set-up in fresh interpreters, then runs passes over the
workload's CLI jobs in one more fresh interpreter: a fixed number of passes,
budgeted at about S seconds (workloads.BLOCKS).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` interleaves
untraced and traced passes and reports the per-layer metrics.  The last line
of stdout is one JSON object; the lines before it are the readable report.
``--record-digests`` rewrites reference_digests.json from the current code.
See README.md for the workloads, the metrics and the seed semantics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_digests.json"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 8
# One BLAS thread.  A threaded BLAS spins while it waits for its other
# threads, so on a small machine any other runnable thread stalls it: with two
# threads on two CPUs, eigvalsh ran ten times slower while a second process
# was busy.  One thread keeps its time proportional to its work.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150

TAIL_PERCENTILES = (99.9, 99.0, 90.0)

# Per-layer times of the traced run: metric -> (inclusive or self, span name
# or layer).  These run on every workload.
LAYER_TIMES = {
    "measure.perron_s": ("inclusive", "measure.perron"),
    "diagram.enumerate_paths_s": ("inclusive", "diagram.enumerate_paths"),
    "laplacian.full_spectrum_s": ("inclusive", "laplacian.full_spectrum"),
    "cli.self_s": ("self", "cli"),
}
# Printed only: each of these layers sits idle on some workload, where its
# time would read exactly 0 on every run.
IDLE_LAYER_TIMES = {
    "laplacian.dense_restriction_s": ("inclusive", "laplacian.dense_restriction"),
    "laplacian.eigvalsh_s": ("inclusive", "numpy.linalg.eigvalsh"),
    "laplacian.verify_self_s": ("self", "laplacian.verify_spectrum"),
    "cuntz.affine_table_s": ("inclusive", "cuntz.affine_table"),
    "cuntz.recursive_spectrum_s": ("inclusive", "cuntz.recursive_spectrum"),
    "cuntz.strip_check_s": ("inclusive", "cuntz.strip_check"),
    "cuntz.companion_embedding_s": ("inclusive", "cuntz.companion_embedding"),
    "asymptotics.magnitude_table_s": ("inclusive", "asymptotics.magnitude_table"),
    "asymptotics.heat_trace_s": ("inclusive", "asymptotics.heat_trace"),
}
LAYER_COUNTS = {
    "scalar.approx_ops": "count",
    "scalar.quadratic_ops": "count",
    "diagram.paths_enumerated": "count",
    "laplacian.records": "count",
    "laplacian.dense_dim_max": "count",
    "laplacian.eigvalsh_flops": "flop",
    "cuntz.calibration_checks": "count",
    "cuntz.recursive_records": "count",
    "asymptotics.magnitude_values": "count",
    "asymptotics.heat_depth": "count",
    "cli.bytes_out": "B",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BRATLAP_PRECISION", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS, "cpu": cpu,
            "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
            "mpmath": metadata.version("mpmath")}


def python(script: str, *args: str, timeout: float) -> str:
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for p in TAIL_PERCENTILES:
        if len(values) * (1 - p / 100) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{p:g}={q[round(p * 10) - 1]:.6g}"
    return "no tail percentile (n < 100)"


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def judge(jobs: list[dict], reference: dict[str, str]) -> dict:
    """Failure accounting and the checks that decide ``correct``."""
    failures, wrong, digests = [], [], {}
    for job in jobs:
        key = argv_key(job["argv"])
        reasons = job["bad"] + job["reported"]
        if job["crash"]:
            reasons.append(job["crash"])
        elif job["rc"] != 0 and not job["reported"]:
            reasons.append(f"exit {job['rc']}: {job['stderr'].strip()[-200:]}")
        if reasons:
            failures.append(f"{key}: {'; '.join(reasons)}")
        # wrong output: a benchmark-computed check failed, the job crashed, or
        # it exited with a code that is neither success nor "verification failed"
        if job["bad"] or job["crash"] or job["rc"] not in (0, 1) or \
                (job["rc"] == 1 and not job["reported"]):
            wrong.append(f"{key}: {'; '.join(reasons)}")
        if digests.setdefault(key, job["sha256"]) != job["sha256"]:
            wrong.append(f"{key}: stdout differs between runs of the same argv")
    changed = sorted(k for k, d in digests.items() if reference.get(k) != d)
    return {"failures": failures, "wrong": wrong, "changed": changed}


def pass_samples(result: dict, workload: str) -> dict[str, list[float]]:
    """Per-pass samples of the session and of each command group it has."""
    passes = result["passes"]
    samples = {"session_cal": [p["cal"] for p in passes],
               "session_s": [p["s"] for p in passes]}
    present = {job.group for job in workloads.WORKLOADS[workload]}
    for group in workloads.GROUPS:
        if group in present:
            samples[f"{group}_s"] = [
                sum(j["s"] for j in p["jobs"] if workloads.group_of(j["argv"][0]) == group)
                for p in passes]
    return samples


def end_to_end(result: dict, setups: list[float], workload: str) -> tuple[dict, list[str]]:
    samples = {"setup_s": setups, **pass_samples(result, workload)}
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in (("setup_s", "s"), ("session_cal", "cal"))}
    metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    lines = [f"  {name:<14} {statistics.median(v):>12.6f} {'cal' if name == 'session_cal' else 's':<3} "
             f"n={len(v):<3} {tail(v)}" for name, v in samples.items()]
    lines.append(f"  {'peak_rss_mb':<14} {result['peak_rss_mb']:>12.3f} MB  n=1")
    return metrics, lines


def per_layer(result: dict, changed: int) -> tuple[dict, list[str]]:
    traced = result["traced"]
    values: dict[str, tuple[float, str]] = {}
    for name, (kind, key) in {**LAYER_TIMES, **IDLE_LAYER_TIMES}.items():
        values[name] = (statistics.median(t["layers"][kind].get(key, 0.0)
                                          for t in traced), "s")
    for name, unit in LAYER_COUNTS.items():
        if name == "cli.bytes_out":
            per_pass = [sum(j["bytes"] for j in t["jobs"]) for t in traced]
        else:
            per_pass = [t["counts"].get(name, 0) for t in traced]
        values[name] = (statistics.median(per_pass), unit)
    ratios = [t["counts"].get("laplacian.distinct_values", 0) /
              t["counts"]["laplacian.records"]
              for t in traced if t["counts"].get("laplacian.records")]
    values["laplacian.distinct_ratio"] = (statistics.median(ratios) if ratios else 0.0,
                                          "ratio")
    overhead = [t["s"] - p["s"] for p, t in zip(result["passes"], traced)]
    values["trace.overhead_s"] = (statistics.median(overhead), "s")
    values["cli.output_changed"] = (changed, "count")
    lines = [f"  {name:<32} {value:>16.6g} {unit:<5} n={len(traced)}"
             for name, (value, unit) in values.items()]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}, lines


def record_digests() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        out = python("worker.py", "--workload", name, "--digests", "--src", str(SRC),
                     timeout=600)
        digests[name] = json.loads(out)
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if not (SRC / "bratlap" / "cli.py").is_file():
        return fail(f"no bratlap sources under {SRC}")
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        return fail("--workload is required")
    if not REFERENCE.is_file():
        return fail(f"missing {REFERENCE.name}")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]

    try:
        return measure(args, reference)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))


def set_up(workload: str, probes: int) -> list[float]:
    return [float(python("setup_probe.py", *workloads.presets_used(workload), timeout=60))
            for _ in range(probes)]


def measure(args, reference: dict[str, str]) -> int:
    env = environment()
    # set-up is timed only with tracing off; half the probes run before the
    # passes and half after, so one slow phase of a shared machine does not
    # decide setup_s alone
    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = set_up(args.workload, probes)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--src", str(SRC)]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"spans-{stem}.jsonl"
    if args.trace:
        worker_args += ["--spans", str(spans_path)]
    raw = python("worker.py", *worker_args, timeout=WORKER_TIMEOUT_S)
    (OUT / f"result-{stem}.json").write_text(raw + "\n", encoding="utf-8")
    result = json.loads(raw)
    setups += set_up(args.workload, probes)

    jobs = [j for p in result["passes"] + result["traced"] for j in p["jobs"]]
    verdict = judge(jobs, reference)
    wrong = verdict["wrong"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result['passes'])} traced_passes={len(result['traced'])}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("pass seconds: " + " ".join(f"{p['s']:.3f}" for p in result["passes"]))
    if args.trace:
        print("traced pass seconds: " + " ".join(f"{p['s']:.3f}" for p in result["traced"]))
        for p, t in zip(result["passes"], result["traced"]):
            if [j["sha256"] for j in p["jobs"]] != [j["sha256"] for j in t["jobs"]]:
                wrong.append("traced stdout differs from untraced stdout")
            if t["layers"]["self_sum_error_s"] > 1e-6:
                wrong.append("per-job self times do not sum to the job span")
        metrics, lines = per_layer(result, len(verdict["changed"]))
        metrics = {k: v for k, v in metrics.items() if k not in IDLE_LAYER_TIMES}
        print(f"per-layer metrics (medians over traced passes; {result['spans']} spans "
              f"written to {spans_path.relative_to(ROOT)})")
    else:
        metrics, lines = end_to_end(result, setups, args.workload)
        print("end-to-end metrics (medians; n = samples)")
    print("\n".join(lines))
    print(f"failed_ops {len(verdict['failures'])}/{len(jobs)} "
          f"(base: every job run in this process, traced or not)")
    for line in verdict["failures"]:
        print(f"  failed: {line}")
    print(f"cli.output_changed {len(verdict['changed'])} of "
          f"{len({argv_key(j['argv']) for j in jobs})} distinct jobs "
          f"(reference digests in {REFERENCE.name}; reported, not gated)")
    for line in wrong:
        print(f"  WRONG: {line}")
    print(json.dumps({"correct": not wrong, "attempted": len(jobs),
                      "failed": len(verdict["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
