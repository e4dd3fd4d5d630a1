"""Workload definitions, seeded draws and per-job output checks.

A workload is a fixed list of CLI jobs.  A job names the command, its fixed
flags and the set its ``--s`` is drawn from; the program only ever sees the
resulting argv.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

HALVES = ("1/2", "1", "3/2", "2", "5/2")
INTEGERS = ("0", "1", "2")


@dataclass(frozen=True)
class Job:
    command: str
    preset: str
    flags: tuple[str, ...] = ()
    s_choices: tuple[str, ...] = ()

    @property
    def group(self) -> str:
        return group_of(self.command)

    def argv(self, s: str | None) -> list[str]:
        out = [self.command, "--preset", self.preset, *self.flags]
        if s is not None:
            out += ["--s", s]
        return out


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "approx_symmetric": (
        Job("spectrum", "penrose", ("--depth", "8"), HALVES),
        Job("spectrum", "ammann-a2", ("--depth", "9"), HALVES),
        Job("verify", "penrose", ("--depth", "5"), HALVES),
        Job("verify", "ammann-a2", ("--depth", "7"), HALVES),
        Job("weyl", "penrose", ("--depth", "16"), HALVES),
    ),
    "exact_oracle": (
        Job("verify", "thue-morse", ("--depth", "8"), INTEGERS),
        Job("verify", "fibonacci", ("--depth", "9"), INTEGERS),
        Job("verify", "fibonacci-conjugate", ("--depth", "5"), INTEGERS),
        # non-integer s: the exact backend falls back to approximate scalars
        Job("verify", "fibonacci-conjugate", ("--depth", "5"), ("1/2", "3/2")),
        Job("dense", "fibonacci", ("--depth", "8")),
        Job("spectrum", "dyadic-odometer", ("--depth", "14")),
        Job("spectrum", "thue-morse", ("--depth", "12")),
    ),
    "exact_lattice": (
        # s = 3 is left out: strip refuses it by design (coordinates not exact)
        Job("strip", "penrose", ("--depth", "8"), ("0", "2")),
        Job("strip", "fibonacci-conjugate", ("--depth", "11"), INTEGERS),
        Job("strip", "fibonacci", ("--depth", "16"), INTEGERS),
        Job("weyl", "fibonacci-conjugate", ("--depth", "14"), INTEGERS),
        Job("heat", "penrose"),
        Job("heat", "fibonacci"),
        Job("zeta", "fibonacci", ("--s", "2", "--depth", "30")),
        Job("ck-check", "penrose", ("--depth", "4")),
        Job("complexity", "thue-morse", ("--nmax", "2000")),
    ),
}

# A run is a fixed amount of work: a whole number of blocks of passes, never
# "as many passes as fit", so `attempted` and `failed` do not depend on how
# fast the machine happens to be.  A block is as many passes as it takes for
# every s value that makes a job fail (see README.md) to be drawn a fixed
# number of times, whatever the seed: 5 for the five-value sets of
# approx_symmetric, 3 for the three-value sets of exact_oracle;
# exact_lattice has no failing job.  The seconds are what a block is budgeted
# at when --seconds is turned into blocks.  They are near what one block took
# on the 2-CPU Xeon this benchmark was sized on, whose pass times vary up to
# 1.75x with the machine's phase.  exact_lattice's is at the low end, to give
# it a fourth pass: its long jobs' calibrated times scatter most.
BLOCKS: dict[str, tuple[int, float]] = {
    "approx_symmetric": (5, 28.0),
    "exact_oracle": (3, 10.0),
    "exact_lattice": (1, 6.0),
}

GROUPS = ("spectrum", "verify", "weyl", "strip", "aux")


def pass_count(workload: str, seconds: float) -> int:
    """Passes in one run: the whole blocks closest to ``seconds``, at least one."""
    passes, block_s = BLOCKS[workload]
    return passes * max(1, round(seconds / block_s))


def group_of(command: str) -> str:
    """The per-command timing a job of this command is summed into."""
    return command if command in GROUPS else "aux"


def presets_used(workload: str) -> list[str]:
    return sorted({job.preset for job in WORKLOADS[workload]})


class PassDraws:
    """Seeded ``--s`` draws, one per job and pass.

    Each job cycles through seeded shuffles of its set, so every run sees
    each value about equally often and its medians do not hinge on one draw.
    """

    def __init__(self, jobs: tuple[Job, ...], seed: int):
        self._jobs = jobs
        self._rng = random.Random(seed)
        self._queues: list[list[str]] = [[] for _ in jobs]

    def next_pass(self) -> list[list[str]]:
        argvs = []
        for job, queue in zip(self._jobs, self._queues):
            if not job.s_choices:
                argvs.append(job.argv(None))
                continue
            if not queue:
                queue.extend(self._rng.sample(job.s_choices, len(job.s_choices)))
            argvs.append(job.argv(queue.pop()))
        return argvs


def all_argvs(workload: str) -> list[list[str]]:
    """Every argv a run of this workload can draw."""
    out = []
    for job in WORKLOADS[workload]:
        for s in job.s_choices or (None,):
            out.append(job.argv(s))
    return out


def path_count(matrix, symmetry_order: int, n: int) -> int:
    """|Pi_n| = g * (sum of the entries of A^(n-1)), by integer matrix powers."""
    r = len(matrix)
    power = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(n - 1):
        power = [[sum(power[i][k] * matrix[k][j] for k in range(r))
                  for j in range(r)] for i in range(r)]
    return symmetry_order * sum(map(sum, power))


def perron_root(matrix) -> float:
    """Largest eigenvalue of a primitive integer matrix, by power iteration."""
    v = [1.0] * len(matrix)
    theta = 0.0
    for _ in range(200):
        w = [sum(row[j] * v[j] for j in range(len(v))) for row in matrix]
        theta, v = max(w), [x / max(w) for x in w]
    return theta


def thue_morse_complexity(n: int) -> int:
    """Factor complexity of the Thue-Morse word (Brlek; de Luca-Varricchio)."""
    if n <= 2:
        return (1, 2, 4)[n]
    r = (n - 1).bit_length() - 1
    q = n - 1 - 2 ** r
    if q < 2 ** (r - 1):
        return 6 * 2 ** (r - 1) + 4 * q
    return 8 * 2 ** (r - 1) + 2 * q


def _summary(text: str) -> dict:
    for line in text.splitlines():
        if line.startswith("# summary "):
            return json.loads(line[len("# summary "):])
    raise ValueError("no summary line")


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def check_job(argv: list[str], text: str, presets) -> tuple[list[str], list[str]]:
    """Check one job's stdout against values computed here, not by bratlap.

    Returns (check failures, program-reported failures).  A check failure
    means the output is wrong; a program-reported failure is the program
    itself declaring a failed verification.
    """
    command, preset = argv[0], argv[2]
    spec = presets[preset]
    depth = _flag(argv, "--depth")

    def paths(n: int) -> int:
        return path_count(spec.matrix, spec.symmetry_order, n)

    try:
        summ = _summary(text)
    except ValueError as exc:
        return [str(exc)], []
    bad: list[str] = []
    reported: list[str] = []
    if command == "spectrum" and summ["total_multiplicity"] != paths(int(depth)):
        bad.append(f"multiplicity total {summ['total_multiplicity']} != "
                   f"|Pi_{depth}| = {paths(int(depth))}")
    elif command == "verify":
        if summ["dense_size"] != paths(int(depth)):
            bad.append(f"dense size {summ['dense_size']} != |Pi_{depth}|")
        if summ["ok"] is not True:
            reported.append(f"verify not ok (max deviation {summ['max_abs_deviation']})")
    elif command == "dense" and summ["size"] != paths(int(depth)):
        bad.append(f"dense size {summ['size']} != |Pi_{depth}|")
    elif command == "weyl" and summ["total_multiplicity"] != paths(int(depth) + 1):
        bad.append(f"weyl multiplicity {summ['total_multiplicity']} != "
                   f"|Pi_{int(depth) + 1}|")
    elif command == "strip" and float(summ["max_distance"]) > float(summ["bound"]):
        bad.append(f"strip distance {summ['max_distance']} exceeds bound {summ['bound']}")
    elif command == "heat" and abs(float(summ["slope"]) + spec.dimension / 2) > 0.05:
        bad.append(f"heat slope {summ['slope']} far from -d/2 = {-spec.dimension / 2}")
    elif command == "zeta":
        # the partial-sum ratio tends to theta^(1 - s/d)
        s = float(Fraction(_flag(argv, "--s")))
        expected = perron_root(spec.matrix) ** (1 - s / spec.dimension)
        final = float(summ["final_ratio"])
        if abs(final - expected) > 1e-6 * expected:
            bad.append(f"zeta ratio {final} != theta^(1-s/d) = {expected}")
    elif command == "ck-check" and not (summ["ok"] is True and summ["paths_checked"] > 0):
        bad.append("ck relations not ok")
    elif command == "complexity":
        rows = [line.split(",") for line in text.splitlines()
                if line and line[0].isdigit()]
        nmax = int(_flag(argv, "--nmax"))
        if len(rows) != nmax:
            bad.append(f"{len(rows)} complexity rows, expected {nmax}")
        elif preset == "thue-morse":
            wrong = [row[0] for row in rows
                     if int(row[1]) != thue_morse_complexity(int(row[0]))]
            if wrong:
                bad.append(f"complexity wrong at n={wrong[0]}")
    return bad, reported
