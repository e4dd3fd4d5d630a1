"""Run every workload over several seeds and write a BENCH_<n>.json baseline.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --out perfbench/BENCH_1.json --seeds 1-10

For each workload it makes one ``--trace 0`` run per seed and one
``--trace 1`` run on the first seed, one run at a time.  For each
end-to-end metric, and for the per-pass timings run.py prints but does not
gate on, it records the median, the quartiles and their spread as a share
of the median.  The per-layer metrics come from the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's JSON line, and the medians of the per-pass samples it prints
    (with ``trace``, every per-layer value it prints)."""
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=run.ROOT, check=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    result = json.loads((run.OUT / f"result-{stem}.json").read_text(encoding="utf-8"))
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        layers, _ = run.per_layer(result, line["metrics"]["cli.output_changed"]["value"])
        return line, {name: v["value"] for name, v in layers.items()}
    return line, {name: statistics.median(v)
                  for name, v in run.pass_samples(result, workload).items()}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    args = ap.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    out = {"environment": run.environment(), "run_seconds": seconds, "seeds": seeds,
           "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs, printed = zip(*(one_run(workload, seed, seconds, 0) for seed in seeds))
        traced, layers = one_run(workload, seeds[0], seconds, 1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "end_to_end": {m["name"]: spread([r["metrics"][m["name"]]["value"]
                                              for r in runs])
                           for m in bench["end_to_end"]},
            "printed": {name: spread([p[name] for p in printed]) for name in printed[0]},
            "per_layer": layers,
        }
        print(workload, json.dumps({k: round(v["iqr_share"], 4) for k, v in
                                    out["workloads"][workload]["end_to_end"].items()}),
              flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
