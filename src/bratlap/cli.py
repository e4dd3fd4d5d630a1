"""Deterministic command-line front end.

Every command emits CSV (default) or JSON on stdout or to --output; floats are
printed with 17 significant digits and exact scalars additionally as canonical
strings in the field declared by the header.  Output is byte-identical across
runs and across --parallel settings, except for the float digits that come
from the eigensolver (numpy.linalg.eigvalsh): the `verify` max deviation and
the `dense` spectrum.  Their last digits depend on the BLAS build and its
thread count, and so can the `verify` verdict when a deviation sits at the
tolerance.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import mpmath
import numpy as np

from . import asymptotics, cuntz, laplacian
from .diagram import DiagramError, load_diagram_file
from .measure import MeasureError, WeightSystem, perron, zeta_partial
from .presets import PRESETS, load_preset, preset_names
from .scalar import MIN_PRECISION, ApproxReal, parse_backend

DEFAULT_PRECISION_ENV = "BRATLAP_PRECISION"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_exact(backend, value) -> str:
    if isinstance(value, ApproxReal):
        return mpmath.nstr(value.value, 25)
    return backend.format_exact(value)


class _Emitter:
    def __init__(self, command: str, config: dict, fmt: str, out):
        self.command = command
        self.config = config
        self.fmt = fmt
        self.out = out
        self.sections: list[dict] = []

    def section(self, name: str, columns: list[str], rows: list[list],
                comments: list[str] | None = None) -> None:
        self.sections.append({"name": name, "columns": columns,
                              "rows": rows, "comments": comments or []})

    def summary(self, data: dict) -> None:
        self.sections.append({"name": "summary", "data": data})

    def flush(self) -> None:
        if self.fmt == "json":
            payload = {"command": self.command, "config": self.config,
                       "sections": self.sections}
            self.out.write(json.dumps(payload, sort_keys=True,
                                      separators=(",", ":"), default=str))
            self.out.write("\n")
            return
        self.out.write(f"# bratlap {self.command}\n")
        for key in sorted(self.config):
            self.out.write(f"# {key}={self.config[key]}\n")
        for sec in self.sections:
            if sec["name"] == "summary":
                self.out.write("# summary " +
                               json.dumps(sec["data"], sort_keys=True,
                                          separators=(",", ":"), default=str) + "\n")
                continue
            for line in sec["comments"]:
                self.out.write(f"# {line}\n")
            self.out.write(f"# section={sec['name']}\n")
            self.out.write(",".join(sec["columns"]) + "\n")
            for row in sec["rows"]:
                self.out.write(",".join(str(v) for v in row) + "\n")


def _precision_bits(text: str) -> int:
    """argparse type of --precision, whose default is read from
    $BRATLAP_PRECISION: a bad value of either is a usage error."""
    try:
        bits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"precision must be an integer number of bits, got {text!r} "
            f"(from --precision or ${DEFAULT_PRECISION_ENV})") from None
    if bits < MIN_PRECISION:
        raise argparse.ArgumentTypeError(
            f"precision must be >= {MIN_PRECISION} bits, got {bits}")
    return bits


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bratlap",
        description="Spectra of Laplace-Beltrami operators on stationary "
                    "Bratteli diagram path spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, depth_default=None, wants_s=True):
        p.add_argument("--preset", choices=preset_names())
        p.add_argument("--matrix-file", help="JSON diagram description")
        p.add_argument("--backend",
                       help="rational | quadratic:D | approx:BITS "
                            "(default: preset recommendation)")
        # argparse runs a string default through the type when the flag is
        # absent, so a bad $BRATLAP_PRECISION exits like a bad flag
        p.add_argument("--precision", type=_precision_bits,
                       default=os.environ.get(DEFAULT_PRECISION_ENV, "212"),
                       help="bits used when exact arithmetic must fall back")
        if depth_default is not None:
            p.add_argument("--depth", type=int, default=depth_default)
        if wants_s:
            p.add_argument("--s", default=None,
                           help="spectral parameter (rational; default: d)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="write here instead of stdout")
        p.add_argument("--parallel", type=int, default=1,
                       help="worker hint; output is independent of it")

    common(sub.add_parser("presets", help="list built-in diagrams"),
           depth_default=None, wants_s=False)
    common(sub.add_parser("spectrum", help="closed-form eigenvalue records"),
           depth_default=4)
    common(sub.add_parser("dense", help="dense restriction and its spectrum"),
           depth_default=3)
    common(sub.add_parser("verify", help="dense oracle vs closed form"),
           depth_default=3)
    z = sub.add_parser("zeta", help="zeta partial sums")
    common(z, depth_default=30)
    w = sub.add_parser("weyl", help="eigenvalue counting fit")
    common(w, depth_default=14)
    w.add_argument("--grid", help="a:b:steps threshold grid (floats)")
    h = sub.add_parser("heat", help="heat-trace scaling")
    common(h, depth_default=None, wants_s=False)
    h.add_argument("--tmin", type=float, default=1e-8)
    h.add_argument("--tmax", type=float, default=1e-3)
    h.add_argument("--points", type=int, default=21)
    h.add_argument("--depth", type=int, default=None)
    st = sub.add_parser("strip", help="eigenvalue lattice strip analysis")
    common(st, depth_default=10)
    ck = sub.add_parser("ck-check", help="partial isometry relations")
    common(ck, depth_default=5, wants_s=False)
    cx = sub.add_parser("complexity", help="1D factor complexity")
    common(cx, depth_default=None, wants_s=False)
    cx.add_argument("--nmax", type=int, default=100)
    return parser


def _resolve_system(args, parser):
    """(bundle-or-None, diagram, dimension, backend, weight system, metadata)."""
    if bool(args.preset) == bool(args.matrix_file):
        parser.error("exactly one of --preset and --matrix-file is required")
    if args.preset:
        backend = args.backend or PRESETS[args.preset].recommended_backend
        try:
            backend = parse_backend(backend)
        except ValueError as exc:
            parser.error(str(exc))
        bundle = load_preset(args.preset, backend=backend)
        ws = WeightSystem(bundle.diagram, bundle.perron,
                          approx_bits=args.precision)
        return bundle, bundle.diagram, bundle.dimension, backend, ws, bundle.metadata
    try:
        diagram, dimension = load_diagram_file(args.matrix_file)
        backend = parse_backend(args.backend or "rational")
        pdata = perron(diagram.matrix, backend,
                       symmetry_order=diagram.symmetry_order, dimension=dimension)
    except (DiagramError, MeasureError, OSError, ValueError) as exc:
        parser.error(str(exc))
    ws = WeightSystem(diagram, pdata, approx_bits=args.precision)
    return None, diagram, dimension, backend, ws, {"notes": []}


def _resolve_s(args, dimension, parser) -> Fraction:
    raw = getattr(args, "s", None)
    if raw is None:
        return Fraction(dimension)
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        parser.error(f"--s must be rational, got {raw!r}")


def _check_depth(args, parser, minimum=1):
    depth = getattr(args, "depth", None)
    if depth is not None and depth < minimum:
        parser.error(f"--depth must be >= {minimum}")
    return depth


def _open_output(args):
    if args.output:
        return open(args.output, "w", encoding="utf-8"), True
    return sys.stdout, False


def _config_dict(args, backend, dimension, extra=None) -> dict:
    cfg = {"backend": backend.kind, "dimension": dimension}
    for key in ("preset", "matrix_file", "depth", "s", "parallel"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = str(val)
    cfg.update(extra or {})
    return cfg


def cmd_presets(args, parser) -> int:
    out, close = _open_output(args)
    em = _Emitter("presets", {}, args.format, out)
    rows = []
    for name in preset_names():
        spec = PRESETS[name]
        rows.append([name, spec.dimension, spec.symmetry_order,
                     spec.recommended_backend,
                     spec.metadata.get("transversal_faithful"),
                     '"' + spec.metadata.get("description", "") + '"'])
    em.section("presets",
               ["name", "dimension", "symmetry_order", "backend",
                "transversal_faithful", "description"], rows)
    em.flush()
    if close:
        out.close()
    return 0


def cmd_spectrum(args, parser) -> int:
    bundle, diagram, dim, backend, ws, meta = _resolve_system(args, parser)
    depth = _check_depth(args, parser)
    s = _resolve_s(args, dim, parser)
    # depth N reports every splitting above generation N: total
    # multiplicity equals the generation-N path count
    records = laplacian.full_spectrum(ws, depth - 1, s)
    out, close = _open_output(args)
    em = _Emitter("spectrum", _config_dict(args, backend, dim), args.format, out)
    rows = []
    for rec in records:
        path = diagram.format_path(rec.path) if rec.path is not None else rec.label
        rows.append([rec.label, rec.generation, '"' + path + '"', rec.multiplicity,
                     '"' + _fmt_exact(backend, rec.value) + '"',
                     _fmt(rec.value_float)])
    em.section("records",
               ["label", "generation", "path", "multiplicity",
                "value_exact", "value_float"],
               rows, comments=[backend.header()])
    em.summary({"total_multiplicity": sum(r.multiplicity for r in records)})
    em.flush()
    if close:
        out.close()
    return 0


def cmd_dense(args, parser) -> int:
    bundle, diagram, dim, backend, ws, meta = _resolve_system(args, parser)
    depth = _check_depth(args, parser)
    s = _resolve_s(args, dim, parser)
    try:
        op = laplacian.dense_restriction(ws, depth, s)
    except laplacian.LaplacianError as exc:
        parser.error(str(exc))
    try:
        eigs = laplacian.dense_spectrum(op)
    except laplacian.SlotSymmetryError as exc:
        print(f"bratlap dense: slot symmetry: {exc}", file=sys.stderr)
        return 1
    m = op.as_float()
    out, close = _open_output(args)
    em = _Emitter("dense", _config_dict(args, backend, dim), args.format, out)
    em.section("matrix", ["row"] + [f"c{j}" for j in range(len(op.table))],
               [[i] + [_fmt(v) for v in m[i]] for i in range(len(op.table))],
               comments=["paths: " + " ".join(diagram.format_path(p)
                                              for p in op.table.paths)])
    em.section("spectrum", ["index", "eigenvalue"],
               [[i, _fmt(v)] for i, v in enumerate(eigs)])
    em.summary({"size": len(op.table), "exact": op.exact})
    em.flush()
    if close:
        out.close()
    return 0


def cmd_verify(args, parser) -> int:
    bundle, diagram, dim, backend, ws, meta = _resolve_system(args, parser)
    depth = _check_depth(args, parser)
    s = _resolve_s(args, dim, parser)
    report = laplacian.verify_spectrum(ws, depth, s, notes=meta.get("notes", []))
    out, close = _open_output(args)
    em = _Emitter("verify", _config_dict(args, backend, dim), args.format, out)
    em.section("report", ["line"], [['"' + line + '"'] for line in report.lines()])
    em.summary({"ok": report.ok, "max_abs_deviation": _fmt(report.max_abs_deviation),
                "dense_size": report.dense_size})
    em.flush()
    if close:
        out.close()
    return 0 if report.ok else 1


def cmd_zeta(args, parser) -> int:
    bundle, diagram, dim, backend, ws, meta = _resolve_system(args, parser)
    depth = _check_depth(args, parser)
    s = _resolve_s(args, dim, parser)
    try:
        rows = zeta_partial(ws, float(s), depth)
    except OverflowError as exc:
        parser.error(str(exc))
    out, close = _open_output(args)
    em = _Emitter("zeta", _config_dict(args, backend, dim), args.format, out)
    em.section("zeta", ["generation", "increment", "cumulative", "ratio"],
               [[r.generation, _fmt(r.increment), _fmt(r.cumulative),
                 "" if r.ratio is None else _fmt(r.ratio)] for r in rows])
    target = float(ws.perron.theta_float) ** (1 - float(s) / dim)
    em.summary({"expected_ratio": _fmt(target),
                "final_ratio": _fmt(rows[-1].ratio) if rows[-1].ratio else None})
    em.flush()
    if close:
        out.close()
    return 0


def _table_and_seeds(ws, s):
    table = cuntz.affine_table(ws, s)
    seeds = cuntz.seed_records(ws, s)
    return table, seeds


def cmd_weyl(args, parser) -> int:
    bundle, diagram, dim, backend, ws, meta = _resolve_system(args, parser)
    depth = _check_depth(args, parser)
    s = _resolve_s(args, dim, parser)
    table, seeds = _table_and_seeds(ws, s)
    spec = asymptotics.magnitude_table(table, seeds, depth)
    grid = None
    if getattr(args, "grid", None):
        try:
            a, b, steps = args.grid.split(":")
            grid = np.geomspace(float(a), float(b), int(steps))
        except ValueError:
            parser.error("--grid must look like a:b:steps")
    try:
        result = asymptotics.weyl_count(spec, table.lam_float, grid=grid)
    except asymptotics.AsymptoticsError as exc:
        parser.error(str(exc))
    out, close = _open_output(args)
    em = _Emitter("weyl", _config_dict(args, backend, dim), args.format, out)
    em.section("counting", ["threshold", "count"],
               [[_fmt(t), c] for t, c in result.samples])
    bounds = meta.get("reference", {}).get("weyl_bounds") if meta else None
    if bounds:
        margins = asymptotics.weyl_margins(spec, {
            "lower": tuple(float(v) for v in bounds["lower"]),
            "upper": tuple(float(v) for v in bounds["upper"])})
        em.section("margins",
                   ["magnitude", "count", "lower", "upper", "lower_ok", "upper_ok"],
                   [[_fmt(r.magnitude), r.count, _fmt(r.lower), _fmt(r.upper),
                     r.lower_ok, r.upper_ok] for r in margins])
    em.summary({"slope": _fmt(result.fit.slope),
                "intercept": _fmt(result.fit.intercept),
                "residual": _fmt(result.fit.residual),
                "target": _fmt(dim / (dim - float(s) + 2)),
                "cap": _fmt(result.cap),
                "total_multiplicity": result.total_multiplicity})
    em.flush()
    if close:
        out.close()
    return 0


def cmd_heat(args, parser) -> int:
    bundle, diagram, dim, backend, ws, meta = _resolve_system(args, parser)
    s = Fraction(dim)  # Seeley scaling concerns s = d
    if args.points < 1 or args.tmin <= 0 or args.tmax < args.tmin:
        parser.error("need 0 < tmin <= tmax and points >= 1")
    if args.depth is not None and args.depth < 2:
        parser.error("--depth must be >= 2")
    table, seeds = _table_and_seeds(ws, s)
    grid = np.geomspace(args.tmin, args.tmax, args.points)
    try:
        result = asymptotics.heat_trace(table, seeds, grid, depth=args.depth)
    except asymptotics.AsymptoticsError as exc:
        parser.error(str(exc))
    out, close = _open_output(args)
    em = _Emitter("heat", _config_dict(args, backend, dim,
                                       {"tmin": _fmt(args.tmin),
                                        "tmax": _fmt(args.tmax)}),
                  args.format, out)
    em.section("trace", ["t", "trace", "tail_bound"],
               [[_fmt(t), _fmt(tr), _fmt(tail)] for t, tr, tail in result.samples])
    em.summary({"slope": _fmt(result.fit.slope), "target": _fmt(-dim / 2),
                "depth": result.depth, "residual": _fmt(result.fit.residual)})
    em.flush()
    if close:
        out.close()
    return 0


def cmd_strip(args, parser) -> int:
    bundle, diagram, dim, backend, ws, meta = _resolve_system(args, parser)
    depth = _check_depth(args, parser)
    s = _resolve_s(args, dim, parser)
    exact_field = (meta or {}).get("exact_field")
    coord_backend = backend
    coord_ws = ws
    if not backend.is_exact:
        try:
            coord_backend = parse_backend(
                f"quadratic:{exact_field}" if exact_field else "rational")
            coord_ws = WeightSystem(diagram, perron(
                diagram.matrix, coord_backend,
                symmetry_order=diagram.symmetry_order, dimension=dim))
        except (MeasureError, ValueError) as exc:
            parser.error(f"strip needs exact coordinates: {exc}")
    try:
        table, seeds = _table_and_seeds(coord_ws, s)
        field_backend = coord_backend if getattr(coord_backend, "disc", None) else None
        emb = cuntz.companion_embedding(diagram.matrix, dim,
                                        field_backend=field_backend)
        records = cuntz.recursive_spectrum(table, seeds, depth, embedding=emb)
        report = cuntz.strip_check(emb, records, table, seeds)
    except cuntz.CuntzError as exc:
        parser.error(str(exc))
    out, close = _open_output(args)
    em = _Emitter("strip", _config_dict(args, coord_backend, dim), args.format, out)
    em.section("distances", ["path", "distance"],
               [['"' + label + '"', _fmt(d)] for label, d in report.distances])
    em.section("per_generation", ["generation", "max_distance"],
               [[g, _fmt(v)] for g, v in report.per_generation])
    em.summary({"max_distance": _fmt(report.max_distance),
                "bound": _fmt(report.bound), "pisot": report.pisot,
                "stable_norm": _fmt(report.stable_norm)})
    em.flush()
    if close:
        out.close()
    return 0


def cmd_ck_check(args, parser) -> int:
    bundle, diagram, dim, backend, ws, meta = _resolve_system(args, parser)
    depth = _check_depth(args, parser, minimum=3)
    report = cuntz.ck_relations_check(diagram, depth)
    out, close = _open_output(args)
    em = _Emitter("ck-check", _config_dict(args, backend, dim), args.format, out)
    em.section("report", ["line"], [['"' + line + '"'] for line in report.lines()])
    em.summary({"ok": report.ok, "paths_checked": report.paths_checked})
    em.flush()
    if close:
        out.close()
    return 0 if report.ok else 1


def cmd_complexity(args, parser) -> int:
    bundle, diagram, dim, backend, ws, meta = _resolve_system(args, parser)
    if args.nmax < 1:
        parser.error("--nmax must be >= 1")
    rule = bundle.rule if bundle else None
    if rule is None:
        parser.error("complexity needs a preset backed by a 1D substitution rule")
    try:
        result = asymptotics.factor_complexity(rule, args.nmax)
    except asymptotics.AsymptoticsError as exc:
        parser.error(str(exc))
    out, close = _open_output(args)
    em = _Emitter("complexity", _config_dict(args, backend, dim), args.format, out)
    em.section("complexity", ["n", "p", "nu"],
               [[n, result.p(n), "" if n < 2 else _fmt(result.nu(n))]
                for n in range(1, args.nmax + 1)])
    em.summary({"word_length": result.word_length, "rounds": result.rounds,
                "nu_final": _fmt(result.nu(args.nmax)) if args.nmax >= 2 else None})
    em.flush()
    if close:
        out.close()
    return 0


_COMMANDS = {
    "presets": cmd_presets,
    "spectrum": cmd_spectrum,
    "dense": cmd_dense,
    "verify": cmd_verify,
    "zeta": cmd_zeta,
    "weyl": cmd_weyl,
    "heat": cmd_heat,
    "strip": cmd_strip,
    "ck-check": cmd_ck_check,
    "complexity": cmd_complexity,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "parallel", 1) < 1:
        parser.error("--parallel must be >= 1")
    try:
        return _COMMANDS[args.command](args, parser)
    except (DiagramError, MeasureError, laplacian.LaplacianError,
            cuntz.CuntzError, asymptotics.AsymptoticsError) as exc:
        parser.error(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
