"""Run one workload's passes in a fresh interpreter and report as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  Each
job calls ``bratlap.cli.main`` in-process with its stdout captured; a pass
runs every job of the workload once, in order, each after the previous one
ends (a closed loop with one client).  A run is a fixed number of passes,
``workloads.pass_count``, which ``--seconds`` sizes.

Untraced passes also time a calibration kernel between jobs (see
``calibrate``).  With ``--trace 1`` passes come in pairs: an untraced pass
and the same argv list again with the tracer installed.  The pair gives the
tracing overhead and lets the traced stdout be compared with the untraced
one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy

import workloads

# Size of the calibration kernel's eigvalsh, per workload.  A slow phase of a
# shared machine slows interpreted Python far more than BLAS on large
# matrices, so the kernel slows like the workload only if its BLAS share
# matches.  The exact workloads spend next to nothing in eigvalsh (96x96: 5%
# of the kernel).  approx_symmetric's verify jobs, dense eigvalsh of size 1780
# and 2440, barely slow at all; a 512x512 eigvalsh, about three quarters of
# the kernel, made the kernel slow as much as a pass (320 and 448 still
# over-corrected the slow phase).
CAL_EIGVALSH_N = {"approx_symmetric": 512, "exact_oracle": 96, "exact_lattice": 96}


def calibration_matrix(n: int):
    return numpy.add.outer(numpy.arange(float(n)), numpy.arange(float(n))) % 7


def calibrate(matrix) -> float:
    """Median seconds of three runs of ``kernel``.

    The CPUs of a shared machine switch between fast and slow phases that
    last from seconds to minutes and change pass times by up to 1.75x.  The
    kernel runs in the same phase as the job next to it, so dividing by it
    takes the phase out.  The median keeps one interrupted run of the kernel
    from halving a job's figure."""
    return statistics.median(kernel(matrix) for _ in range(3))


def kernel(matrix) -> float:
    """Seconds for a fixed kernel of the kinds of arithmetic bratlap spends
    its time in: Fraction, 200-bit mpmath and an eigvalsh of ``matrix``."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    with mpmath.workprec(200):
        x = mpmath.mpf(1)
        for i in range(1, 600):
            x = x * (i + 1) / (i + 3) + 1
    numpy.linalg.eigvalsh(matrix)
    return time.perf_counter() - start


def run_job(cli, argv: list[str], check) -> dict:
    out, err = io.StringIO(), io.StringIO()
    crash = None
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed job, not a failed run
        rc, crash = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    bad, reported = ([], []) if crash else check(argv, text, digest)
    return {"argv": argv, "rc": rc, "s": elapsed, "sha256": digest,
            "bytes": len(text.encode()), "crash": crash, "bad": bad,
            "reported": reported, "stderr": err.getvalue()[-300:]}


def run_pass(cli, argvs, check, cal_matrix, tracer=None, first_job=0) -> dict:
    """Run every argv once, in order.

    An untraced pass also times the calibration kernel before the first job
    and after every job.  A job's ``cal`` is its time over the mean of the
    two kernel times around it, so a shared machine's slow and fast phases
    cancel out of it."""
    jobs = []
    if tracer:
        span0 = tracer.span_count()
        tracer.install()
        try:
            for k, argv in enumerate(argvs):
                tracer.job_id = first_job + k
                jobs.append(run_job(cli, argv, check))
        finally:
            tracer.uninstall()
        return {"jobs": jobs, "s": sum(j["s"] for j in jobs),
                "counts": tracer.take_counts(),
                "layers": tracer.summarize(span0, tracer.span_count())}
    kernels = [calibrate(cal_matrix)]
    for argv in argvs:
        jobs.append(run_job(cli, argv, check))
        kernels.append(calibrate(cal_matrix))
    for job, before, after in zip(jobs, kernels, kernels[1:]):
        job["cal"] = job["s"] / ((before + after) / 2)
    return {"jobs": jobs, "s": sum(j["s"] for j in jobs),
            "cal": sum(j["cal"] for j in jobs)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="sizes the run: see workloads.pass_count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced spans here")
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--digests", action="store_true",
                    help="run every drawable argv once and print its stdout digest")
    args = ap.parse_args()

    from bratlap import cli
    from bratlap.presets import PRESETS

    if Path(cli.__file__).resolve().parents[1] != Path(args.src).resolve():
        print(f"bratlap imported from {cli.__file__}, not {args.src}", file=sys.stderr)
        return 2

    if args.digests:
        json.dump({" ".join(argv): run_job(cli, argv, lambda *a: ([], []))["sha256"]
                   for argv in workloads.all_argvs(args.workload)}, sys.stdout)
        sys.stdout.write("\n")
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    checked: dict[tuple[str, ...], tuple[list[str], list[str]]] = {}

    def check(argv, text, digest):
        key = (digest, *argv)
        if key not in checked:
            checked[key] = workloads.check_job(argv, text, PRESETS)
        return checked[key]

    cal_matrix = calibration_matrix(CAL_EIGVALSH_N[args.workload])
    draws = workloads.PassDraws(workloads.WORKLOADS[args.workload], args.seed)
    passes, traced = [], []
    start = time.perf_counter()
    for k in range(workloads.pass_count(args.workload, args.seconds)):
        argvs = draws.next_pass()
        if tracer and k % 2:
            # alternate which side of a pair runs first, so warm-up and drift
            # do not land on one side
            traced.append(run_pass(cli, argvs, check, cal_matrix, tracer,
                                   first_job=len(traced) * len(argvs)))
            passes.append(run_pass(cli, argvs, check, cal_matrix))
        else:
            passes.append(run_pass(cli, argvs, check, cal_matrix))
            if tracer:
                traced.append(run_pass(cli, argvs, check, cal_matrix, tracer,
                                       first_job=len(traced) * len(argvs)))
        if k == 0:
            # the first pass alone: later passes only add the heap growth of a
            # long-lived process, which a CLI user never sees
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer and args.spans:
        tracer.write(args.spans)
    json.dump({"passes": passes, "traced": traced, "peak_rss_mb": peak_rss_mb,
               "spans": tracer.span_count() if tracer else 0,
               "elapsed_s": time.perf_counter() - start}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
