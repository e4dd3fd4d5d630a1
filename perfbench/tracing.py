"""Spans around the calls into each bratlap layer, installed from outside.

The tracer replaces every public function of the layer modules, in its
defining module and in every module that re-imports it, with a wrapper that
records a span: name, start, end, parent span and job id.  It also wraps
``numpy.linalg.eigvalsh`` and counts the arithmetic operator calls on
``ApproxReal`` and ``QuadraticNumber``.  Spans stay in flat in-memory
arrays until ``write`` saves them; nothing inside bratlap changes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

import numpy

LAYERS = ("scalar", "diagram", "measure", "laplacian", "cuntz", "asymptotics",
          "presets", "cli")
EIGVALSH = "numpy.linalg.eigvalsh"
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__")


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("l")
        self.parent: array = array("l")
        self.job: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self.job_id = -1
        self.ops = {"approx": [0], "quadratic": [0]}
        # counters read off results at the layer boundary, keyed by metric
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] = []

    def install(self) -> None:
        if not self._plan:
            self._plan = self._build_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)

    def _build_plan(self) -> list[tuple[object, str, object, object]]:
        modules = {name: importlib.import_module(f"bratlap.{name}") for name in LAYERS}
        scalar = modules["scalar"]
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") \
                        and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._span_wrapper(obj, f"{layer}.{attr}")
        plan = [(mod, attr, obj, wrappers[obj])
                for mod in modules.values()
                for attr, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj in wrappers]
        eig = numpy.linalg.eigvalsh
        plan.append((numpy.linalg, "eigvalsh", eig, self._span_wrapper(eig, EIGVALSH)))
        for cls, key in ((scalar.ApproxReal, "approx"),
                         (scalar.QuadraticNumber, "quadratic")):
            for attr in ARITHMETIC:
                fn = cls.__dict__[attr]
                plan.append((cls, attr, fn, _counting(fn, self.ops[key])))
        return plan

    def _span_wrapper(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        observe = _OBSERVERS.get(name)
        name_of, parent, job = self.name_of, self.parent, self.job
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def take_counts(self) -> dict[str, float]:
        """Counters since the last call, then reset them."""
        out = dict(self.counts)
        out["scalar.approx_ops"] = self.ops["approx"][0]
        out["scalar.quadratic_ops"] = self.ops["quadratic"][0]
        self.counts = {}
        for cell in self.ops.values():
            cell[0] = 0
        return out

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def span_count(self) -> int:
        return len(self.start)

    def summarize(self, first: int, last: int) -> dict:
        """Layer times over spans [first, last), one pass of jobs.

        Inclusive times count outermost spans of a name only; a layer's self
        time is its spans' durations minus their direct children's."""
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        inclusive: dict[str, float] = {}
        self_time: dict[str, float] = {}
        roots: dict[int, float] = {}
        job_self: dict[int, float] = {}
        for i in range(first, last):
            name = self.names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            own = dur - child[i - first]
            layer = "eigvalsh" if name == EIGVALSH else name.split(".")[0]
            self_time[layer] = self_time.get(layer, 0.0) + own
            self_time[name] = self_time.get(name, 0.0) + own
            p = self.parent[i]
            if p < first:
                roots[self.job[i]] = roots.get(self.job[i], 0.0) + dur
            if p < first or self.names[self.name_of[p]] != name:
                # a nested call of the same function is already counted
                inclusive[name] = inclusive.get(name, 0.0) + dur
            job_self[self.job[i]] = job_self.get(self.job[i], 0.0) + own
        worst = max((abs(job_self[j] - roots.get(j, 0.0)) for j in job_self),
                    default=0.0)
        return {"inclusive": inclusive, "self": self_time,
                "self_sum_error_s": worst}

    def write(self, path) -> None:
        """JSON lines: a header naming the columns, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "start", "end", "parent", "job"]}))
            fh.write("\n")
            for row in zip(self.name_of, self.start, self.end, self.parent, self.job):
                fh.write(json.dumps(row))
                fh.write("\n")


def _counting(fn, cell: list):
    def wrapper(*args):
        cell[0] += 1
        return fn(*args)

    wrapper.__wrapped__ = fn
    return wrapper


# Counters read off results at the layer boundary, so ratios are measured
# where the work happens.
def _full_spectrum(tracer, args, records):
    tracer.add("laplacian.records", len(records))
    tracer.add("laplacian.distinct_values", len({r.value_float for r in records}))


def _dense(tracer, args, op):
    tracer.maximum("laplacian.dense_dim_max", len(op.table))


def _eigvalsh(tracer, args, result):
    n = numpy.shape(args[0])[-1]
    tracer.add("laplacian.eigvalsh_flops", 4.0 / 3.0 * n ** 3)


_OBSERVERS = {
    "laplacian.full_spectrum": _full_spectrum,
    "laplacian.dense_restriction": _dense,
    EIGVALSH: _eigvalsh,
    "diagram.enumerate_paths":
        lambda t, a, r: t.add("diagram.paths_enumerated", len(r)),
    "cuntz.affine_table":
        lambda t, a, r: t.add("cuntz.calibration_checks", r.calibration_checks),
    "cuntz.recursive_spectrum":
        lambda t, a, r: t.add("cuntz.recursive_records", len(r)),
    "asymptotics.magnitude_table":
        lambda t, a, r: t.add("asymptotics.magnitude_values",
                              sum(int(m.size) for m in r.magnitudes)),
    "asymptotics.heat_trace":
        lambda t, a, r: t.add("asymptotics.heat_depth", r.depth),
}
