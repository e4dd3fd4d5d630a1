"""Deterministic command-line front end.

Every command emits CSV (default) or JSON on stdout or to --output; floats are
printed with 17 significant digits and exact scalars additionally as canonical
strings in the field declared by the header.  Output is byte-identical across
runs, except for the float digits that come from the eigensolver
(numpy.linalg.eigvalsh): the `verify` max deviation and the `dense` spectrum.
Their last digits depend on the BLAS build and its thread count, and so can
a float operator's `verify` verdict.  `--s -3/2` reads as `--s=-3/2`.

Each command accepts only the flags it reads; `_COMMANDS` lists them.  `main`
resolves the diagram, weight system, --s and --depth once, runs the command
against a buffered emitter, and writes the emitter's sections in one place.
`strip` takes no --backend: its lattice coordinates live in the exact field
of the Perron eigenvalue, which the diagram fixes, and its header names it.
Each command imports the layers it runs (`laplacian`, `cuntz`,
`asymptotics`) itself, so a call, one per process, loads no other.

Exit codes: 0 success, 1 verification failure, 2 usage error: `main` maps
every `BratlapError` to the last.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain, count
from typing import NamedTuple

import numpy as np

from .diagram import (BratlapError, BratteliDiagram, SubstitutionRule, build_diagram,
                      load_diagram_file)
from .measure import (DEFAULT_APPROX_BITS, MeasureError, WeightSystem, field_perron, perron,
                      zeta_partial)
from .presets import PRESETS, preset_names
from .scalar import MIN_PRECISION, ApproxReal, parse_backend

DEFAULT_PRECISION_ENV = "BRATLAP_PRECISION"
# the most points heat samples the trace at and weyl the count at: heat sums
# each generation over the whole grid at once, and either grid asks for
# memory in proportion to its size
MAX_GRID_POINTS = 10_000
# columns of free text, which CSV quotes and JSON writes as they are
_TEXT_COLUMNS = frozenset(("path", "value_exact", "line", "description"))
# rows per write: the text of a whole section would sit beside its cells
_BLOCK_ROWS = 8192


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_exact(backend, value) -> str:
    if isinstance(value, ApproxReal):
        import mpmath
        return mpmath.nstr(value.value, 25)
    return backend.format_exact(value)


class _Emitter:
    """Holds a command's sections until `flush` writes them in one go.  A column
    is a list of per-row values, or (cells, index): per-state values and each row's state.
    A section's `blocks`, (heads, rows) pairs, write each block's rows once per head."""

    def __init__(self, command: str, fmt: str):
        self.command = command
        self.config: dict = {}
        self.fmt = fmt
        self.sections: list[dict] = []

    def section(self, name: str, columns: list[str], data: list,
                comments: list[str] | None = None, blocks: list | None = None) -> None:
        self.sections.append({"name": name, "columns": columns, "rows": (data, blocks),
                              "comments": comments or []})

    def summary(self, data: dict) -> None:
        self.sections.append({"name": "summary", "data": data})

    def flush(self, out) -> None:
        """For JSON, write what json.dumps(payload, sort_keys=True, separators=(",",
        ":"), default=str) gives.  A dict whose last key holds [] dumps to text
        that ends in "[]}": that list's items are written in place of "]}"."""
        csv = self.fmt == "csv"
        dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str).encode
        out.write("".join([f"# bratlap {self.command}\n",
                           *(f"# {key}={self.config[key]}\n" for key in sorted(self.config))])
                  if csv else dump({"command": self.command, "config": self.config,
                                    "sections": []})[:-2])
        for i, sec in enumerate(self.sections):
            if sec["name"] == "summary":
                out.write(f"# summary {dump(sec['data'])}\n" if csv else "," * bool(i) + dump(sec))
                continue
            out.write("".join([*(f"# {line}\n" for line in sec["comments"]),
                               f"# section={sec['name']}\n", ",".join(sec["columns"]) + "\n"])
                      if csv else "," * bool(i) + dump({**sec, "rows": []})[:-2])
            _write_rows(out, sec["columns"], *sec["rows"], csv, dump)
            out.write("" if csv else "]}")
        out.write("" if csv else "]}\n")


def _escaped(cells) -> list | None:
    """json.dumps(c)[1:-1] for every cell when each is a str, else None, from
    the encoder's C escaper.  Path tails and formatted values hold nothing it
    escapes, and then one call on their concatenation, which it lengthens
    by its two quotes only, shows that the cells are their own escapes."""
    try:
        text = "".join(cells)
    except TypeError:
        return None
    escape = json.encoder.encode_basestring_ascii
    return list(cells) if len(escape(text)) == len(text) + 2 else \
        [escape(c)[1:-1] for c in cells]


def _write_rows(out, columns: list[str], data: list, blocks, csv: bool, dump) -> None:
    """Write a section's rows, a run of at most _BLOCK_ROWS rows to a write.
    A row concatenates its pieces [form, columns, index]: the neighbouring
    columns of one index make one piece, each state's cells formatted once
    into its form.  A form without columns is constant, and per-row free
    text, such as the tails of the "path" column, is its own piece; a piece
    before the tails stands for the head.  A block of one head is rendered
    with it; one of several is rendered once with a mark there and split at
    the marks, and its rows under each head are head.join(pieces).  A run
    is one list of its rows' pieces, filled one piece at a time by slice
    assignment, and one join.  JSON escapes character by character, so its
    head is dump(head)[1:-1]."""
    blocks = blocks or [(("",), len(data[0][1] if isinstance(data[0], tuple) else data[0]))]
    # a mark no row holds: rows hold printable ASCII, newlines and letters
    used = {*map(chr, range(10, 127)), *"".join(chain.from_iterable(h for h, _ in blocks))}
    mark = next(c for c in map(chr, count()) if c not in used)
    pieces = [["" if csv else "[", [], None]]
    for j, (column, values) in enumerate(zip(columns, data)):
        cells, index = values if isinstance(values, tuple) else (values, None)
        quote = '"' if csv and column in _TEXT_COLUMNS else ""
        if column == "path" or quote and index is None:
            pieces[-1][0] += f"{',' * bool(j)}\""
            pieces += [[mark, [], None]] * (column == "path") + [
                [None, cells if csv else _escaped(cells) or [dump(c)[1:-1] for c in cells],
                 None], ['"', [], None]]
            continue
        if pieces[-1][1] and (index is None or pieces[-1][2] is not index):
            pieces.append(["", [], None])
        piece = pieces[-1]
        escaped = None if csv else _escaped(cells)
        quote = '"' if escaped is not None else quote
        piece[0] += f"{',' * bool(j)}{quote}%s{quote}"
        piece[1].append(cells if csv else map(dump, cells) if escaped is None else escaped)
        piece[2] = index
    # a row ends in a newline, or in "]," for JSON, whose last row drops the comma
    pieces[-1][0] += "\n" if csv else "],"
    pieces = [(cells, None) if form is None else form if not cells else
              (np.array([form % row for row in zip(*cells)], object), index)
              for form, cells, index in pieces]

    def render(start: int, stop: int, head: str):
        for lo in range(start, stop, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, stop)
            # piece j of row i is parts[i * k + j]
            k = len(pieces)
            parts = [""] * (k * (hi - lo))
            for j, piece in enumerate(pieces):
                parts[j::k] = ([head if piece is mark else piece] * (hi - lo)
                             if isinstance(piece, str) else
                             piece[0][lo:hi] if piece[1] is None else
                             piece[0][piece[1][lo:hi]].tolist())
            yield "".join(parts)

    run, stop = "", 0
    for heads, size in blocks:
        start, stop = stop, stop + size
        heads = heads if csv else [dump(head)[1:-1] for head in heads]
        runs = render(start, stop, heads[0])
        if len(heads) > 1:
            splits = [text.split(mark) for text in render(start, stop, mark)]
            runs = (head.join(split) for head in heads for split in splits)
        for text in runs:
            out.write(run)
            run = text
    out.write(run if csv else run[:-1])


def _columns(rows) -> list[list]:
    return [list(column) for column in zip(*rows)]


class _Inputs(NamedTuple):
    """What `main` resolved for a command.  `ws` is None for a command that
    builds no weight system; `s` is d for one that does not read --s."""

    diagram: BratteliDiagram
    ws: WeightSystem | None
    s: Fraction
    meta: dict
    rule: SubstitutionRule | None


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


def _build_parser(commands, alone: bool = False) -> argparse.ArgumentParser:
    """The parser with the arguments of only those in `commands`: argparse
    reads no other command's.  It has every command's subparser, or with
    `alone` only theirs; its usage line names every command either way."""
    parser = argparse.ArgumentParser(
        prog="bratlap",
        description="Spectra of Laplace-Beltrami operators on stationary "
                    "Bratteli diagram path spaces")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if alone else None)
    # in the order of the usage lines
    inputs = {
        "--preset": {"choices": preset_names()},
        "--matrix-file": {"help": "JSON diagram description"},
        "--backend": {"help": "rational | quadratic:D | approx:BITS "
                              "(default: preset recommendation)"},
        # argparse runs a string default through the type when the flag is
        # absent, so a bad $BRATLAP_PRECISION exits like a bad flag
        "--precision": {"type": _precision_bits,
                        "default": os.environ.get(DEFAULT_PRECISION_ENV, str(DEFAULT_APPROX_BITS)),
                        "help": "bits used when exact arithmetic must fall back"},
        "--depth": {},  # per command, from _COMMANDS
        "--s": {"default": None, "help": "spectral parameter (rational; default: d)"},
    }
    for name in commands if alone else _COMMANDS:
        _, help_text, reads, depth, extra = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if name not in commands:
            continue
        for flag, kwargs in inputs.items():
            if flag in reads:
                p.add_argument(flag, **kwargs)
            elif flag == "--depth" and depth:
                p.add_argument(flag, type=int, default=depth[0])
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="write here instead of stdout")
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
    return parser


def _resolve_system(args, parser, reads):
    """(preset spec or None, diagram, dimension, backend kind, weight system
    or None).  A command that reads --backend gets its weight system on that
    backend, and `strip` on the exact field of theta, where its lattice
    lives; the others get none and print the default backend's kind in
    their header.  That kind is the preset's spec string, which names it as
    the parsed backend would: the backend itself is not built, as an
    approximate one imports mpmath."""
    if bool(args.preset) == bool(getattr(args, "matrix_file", None)):
        parser.error("exactly one of --preset and --matrix-file is required")
    spec = PRESETS.get(args.preset)
    try:
        if spec:
            diagram = build_diagram(spec.matrix, symmetry_order=spec.symmetry_order,
                                    letters=spec.letters)
            dimension = spec.dimension
        else:
            diagram, dimension = load_diagram_file(args.matrix_file)
        default = spec.recommended_backend if spec else "rational"
        if args.command == "strip":
            pdata = field_perron(diagram, dimension)
        elif "--backend" not in reads:
            return spec, diagram, dimension, default, None
        else:
            pdata = perron(diagram, parse_backend(args.backend or default), dimension=dimension)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    ws = WeightSystem(diagram, pdata,
                      approx_bits=getattr(args, "precision", DEFAULT_APPROX_BITS))
    return spec, diagram, dimension, pdata.backend.kind, ws


def _resolve_s(args, dimension, parser) -> Fraction:
    raw = getattr(args, "s", None)
    if raw is None:
        return Fraction(dimension)
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        parser.error(f"--s must be rational, got {raw!r}")


def _check_depth(args, parser, minimum: int) -> None:
    if args.depth < minimum:
        parser.error(f"--depth must be >= {minimum}")


def _config_dict(args, backend_kind: str, dimension) -> dict:
    cfg = {"backend": backend_kind, "dimension": dimension}
    for key in ("preset", "matrix_file", "depth", "s"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = str(val)
    return cfg


def cmd_presets(args, parser, em, inputs) -> int:
    specs = [(name, PRESETS[name]) for name in preset_names()]
    em.section("presets",
               ["name", "dimension", "symmetry_order", "backend",
                "transversal_faithful", "description"],
               _columns([name, spec.dimension, spec.symmetry_order, spec.recommended_backend,
                         spec.metadata.get("transversal_faithful"),
                         spec.metadata.get("description", "")] for name, spec in specs))
    return 0


def cmd_spectrum(args, parser, em, inputs) -> int:
    from . import laplacian
    ws, backend, diagram = inputs.ws, inputs.ws.backend, inputs.diagram
    # depth N reports every splitting above generation N: total
    # multiplicity equals the generation-N path count
    levels = laplacian.walk_states(laplacian.StationaryCache(ws, inputs.s), args.depth - 1)
    tails, g = diagram.split_tails(args.depth - 1), diagram.symmetry_order
    # the records in pre-order: the zero and the root's, then under each root
    # edge (v, k) those under (v, 0) with another head, so in blocks, the
    # kernel's and per vertex those under (v, 0).  Cells but the path are
    # formatted once per (vertex, value object) of a level, the zero's first
    cells = [("zero", 0, 1, _fmt_exact(backend, backend.zero), _fmt(0.0))]
    placed, shift, total, sizes = [([0], [0], ["zero"])], [0], 1, [1] + [0] * diagram.n_letters
    for level in levels:
        k, splits, cell_of = level.generation, level.splits, {}
        cell = len(cells) + np.array([
            cell_of.setdefault((u, id(v)), (len(cell_of), u, v))[0] if v else -1
            for u, v in zip(level.state_vertex, level.values)])
        cells += [("path" if k else "root", k, len(diagram.targets[u]) - 1,
                   _fmt_exact(backend, v[0]), _fmt(v[1])) for _, u, v in cell_of.values()]
        if k == 1:
            # (v, 0)'s records follow g times those of each earlier vertex
            shift = (g - 1) * (level.rank[::g] - level.rank[0]) // g
        start = 0
        for v, names in enumerate(next(tails) if k else [["root"] * len(splits)]):
            mine = splits[start:start + len(names)]
            placed.append((level.rank[mine] - shift[v], cell[level.state[mine]], names))
            sizes[bool(k) + v] += len(names)
            start += g * len(names)
        total += int(level.multiplicity.sum())
    # int32 holds any cell index below the path cap, in half the bytes
    state, paths = np.empty(sum(sizes), np.int32), np.empty(sum(sizes), object)
    for rows, cell, names in placed:
        state[rows], paths[rows] = cell, np.array(names, object)
    columns = [(column, state) for column in _columns(cells)]
    em.section("records",
               ["label", "generation", "path", "multiplicity",
                "value_exact", "value_float"],
               [*columns[:2], paths.tolist(), *columns[2:]], comments=[backend.header()],
               blocks=[(diagram.heads[(b - 1) * g:b * g] if b else ("",), size)
                       for b, size in enumerate(sizes) if size])
    em.summary({"total_multiplicity": total})
    return 0


def cmd_dense(args, parser, em, inputs) -> int:
    from . import laplacian
    op = laplacian.dense_restriction(inputs.ws, args.depth, inputs.s)
    try:
        eigs = laplacian.dense_spectrum(op)
    except laplacian.SlotSymmetryError as exc:
        print(f"bratlap dense: slot symmetry: {exc}", file=sys.stderr)
        return 1
    text = [_fmt(v) for v in op.values]
    em.section("matrix", ["row"] + [f"c{j}" for j in range(len(op.table))],
               [list(range(len(op.table))), *((text, col) for col in op.index.T)],
               comments=["paths: " + " ".join(op.table)])
    em.section("spectrum", ["index", "eigenvalue"],
               _columns([i, _fmt(v)] for i, v in enumerate(eigs)))
    em.summary({"size": len(op.table), "exact": op.exact})
    return 0


def cmd_verify(args, parser, em, inputs) -> int:
    from . import laplacian
    report = laplacian.verify_spectrum(inputs.ws, args.depth, inputs.s,
                                       notes=inputs.meta.get("notes", []))
    em.section("report", ["line"], [report.lines()])
    em.summary({"ok": report.ok, "max_abs_deviation": _fmt(report.max_abs_deviation),
                "dense_size": report.dense_size})
    return 0 if report.ok else 1


def cmd_zeta(args, parser, em, inputs) -> int:
    ws, s = inputs.ws, inputs.s
    try:
        rows = zeta_partial(ws, float(s), args.depth)
    except OverflowError as exc:
        parser.error(str(exc))
    except MeasureError as exc:
        parser.error(f"--depth {args.depth}: {exc}")
    em.section("zeta", ["generation", "increment", "cumulative", "ratio"],
               _columns([r.generation, _fmt(r.increment), _fmt(r.cumulative),
                         "" if r.ratio is None else _fmt(r.ratio)] for r in rows))
    target = float(ws.perron.theta_float) ** (1 - float(s) / ws.dimension)
    em.summary({"expected_ratio": _fmt(target),
                "final_ratio": _fmt(rows[-1].ratio) if rows[-1].ratio else None})
    return 0


def cmd_weyl(args, parser, em, inputs) -> int:
    from . import asymptotics, cuntz
    ws, s, dim = inputs.ws, inputs.s, inputs.ws.dimension
    grid = None
    if args.grid:
        try:
            a, b, steps = args.grid.split(":")
            a, b, steps = float(a), float(b), int(steps)
        except ValueError:
            parser.error("--grid must look like a:b:steps")
        if not (0 < a < b < math.inf and steps >= 1):
            parser.error("--grid needs finite 0 < a < b and steps >= 1")
        if steps > MAX_GRID_POINTS:
            parser.error(f"--grid steps must be <= {MAX_GRID_POINTS}")
        grid = np.geomspace(a, b, steps)
    table = cuntz.affine_table(ws, s)
    spec = asymptotics.magnitude_table(table, args.depth)
    result = asymptotics.weyl_count(spec, table.lam_float, grid=grid)
    em.section("counting", ["threshold", "count"],
               _columns([_fmt(t), c] for t, c in result.samples))
    bounds = inputs.meta.get("reference", {}).get("weyl_bounds")
    if bounds:
        margins = asymptotics.weyl_margins(spec, bounds)
        em.section("margins",
                   ["magnitude", "count", "lower", "upper", "lower_ok", "upper_ok"],
                   _columns([_fmt(r.magnitude), r.count, _fmt(r.lower), _fmt(r.upper),
                             r.lower_ok, r.upper_ok] for r in margins))
    em.summary({"slope": _fmt(result.fit.slope),
                "intercept": _fmt(result.fit.intercept),
                "residual": _fmt(result.fit.residual),
                "target": _fmt(dim / (dim - float(s) + 2)),
                "cap": _fmt(result.cap),
                "total_multiplicity": result.total_multiplicity})
    return 0


def cmd_heat(args, parser, em, inputs) -> int:
    from . import asymptotics, cuntz
    # Seeley scaling concerns s = d: heat has no --s, so inputs.s is d
    ws, dim = inputs.ws, inputs.ws.dimension
    if not (math.isfinite(args.tmin) and math.isfinite(args.tmax)):
        parser.error("--tmin and --tmax must be finite")
    if args.points < 1 or args.tmin <= 0 or args.tmax < args.tmin:
        parser.error("need 0 < tmin <= tmax and points >= 1")
    if args.points > MAX_GRID_POINTS:
        parser.error(f"--points must be <= {MAX_GRID_POINTS}")
    if args.depth is not None:
        _check_depth(args, parser, 2)
    table = cuntz.affine_table(ws, inputs.s)
    # the tail bound reads Lambda^n through n = depth + 2, and Lambda > 1 at s = d
    first = math.ceil(sys.float_info.max_exp / math.log2(table.lam_float))
    if args.depth is not None and args.depth + 2 >= first:
        parser.error(f"--depth {args.depth}: Lambda^{first} leaves the float "
                     f"range; the largest usable depth is {first - 3}")
    grid = np.geomspace(args.tmin, args.tmax, args.points)
    result = asymptotics.heat_trace(table, grid, depth=args.depth)
    em.config.update(tmin=_fmt(args.tmin), tmax=_fmt(args.tmax))
    em.section("trace", ["t", "trace", "tail_bound"],
               _columns([_fmt(t), _fmt(tr), _fmt(tail)] for t, tr, tail in result.samples))
    em.summary({"slope": _fmt(result.fit.slope), "target": _fmt(-dim / 2),
                "depth": result.depth, "residual": _fmt(result.fit.residual)})
    return 0


def cmd_strip(args, parser, em, inputs) -> int:
    from . import cuntz
    ws, s = inputs.ws, inputs.s
    table = cuntz.affine_table(ws, s)
    constants = (table.lam, *table.betas,
                 *(seed[0] for seed in (table.root_seed, *table.seeds) if seed))
    if any(isinstance(x, ApproxReal) for x in constants):
        disc = getattr(ws.backend, "disc", None)
        parser.error(f"strip needs exact coordinates, but at s={s} the recursion "
                     f"constants leave {f'Q(sqrt{disc})' if disc else 'Q'}")
    emb = cuntz.companion_embedding(ws.perron, s)
    report = cuntz.strip_check(emb, table, args.depth)
    # the paths of one recursion state share its distance
    heads, tails, index = zip(*report.blocks)
    distances = [_fmt(d) for d in report.state_distances.tolist()]
    em.section("distances", ["path", "distance"],
               [list(chain.from_iterable(tails)), (distances, np.concatenate(index))],
               blocks=list(zip(heads, map(len, tails))))
    em.section("per_generation", ["generation", "max_distance"],
               _columns([g, _fmt(v)] for g, v in report.per_generation))
    em.summary({"max_distance": _fmt(report.max_distance),
                "bound": _fmt(report.bound), "pisot": report.pisot,
                "stable_norm": _fmt(report.stable_norm)})
    return 0


def cmd_ck_check(args, parser, em, inputs) -> int:
    from . import cuntz
    report = cuntz.ck_relations_check(inputs.diagram, args.depth)
    em.section("report", ["line"], [report.lines()])
    em.summary({"ok": report.ok, "paths_checked": report.paths_checked})
    return 0 if report.ok else 1


def cmd_complexity(args, parser, em, inputs) -> int:
    from . import asymptotics
    if args.nmax < 1:
        parser.error("--nmax must be >= 1")
    if inputs.rule is None:
        parser.error("complexity needs a preset backed by a 1D substitution rule")
    result = asymptotics.factor_complexity(inputs.rule, args.nmax)
    em.section("complexity", ["n", "p", "nu"],
               _columns([n, result.p(n), "" if n < 2 else _fmt(result.nu(n))]
                        for n in range(1, args.nmax + 1)))
    em.summary({"word_length": result.word_length, "rounds": result.rounds,
                "nu_final": _fmt(result.nu(args.nmax)) if args.nmax >= 2 else None})
    return 0


_SOURCE = ("--preset", "--matrix-file")
_NUMERIC = (*_SOURCE, "--backend", "--precision", "--s")
# command: (function, help, input flags it reads, (--depth default, minimum)
# or None for no --depth, extra flags)
_COMMANDS = {
    "presets": (cmd_presets, "list built-in diagrams", (), None, ()),
    "spectrum": (cmd_spectrum, "closed-form eigenvalue records", _NUMERIC, (4, 1), ()),
    "dense": (cmd_dense, "dense restriction and its spectrum", _NUMERIC, (3, 1), ()),
    "verify": (cmd_verify, "dense oracle vs closed form", _NUMERIC, (3, 1), ()),
    "zeta": (cmd_zeta, "zeta partial sums", (*_SOURCE, "--backend", "--s"), (30, 1), ()),
    "weyl": (cmd_weyl, "eigenvalue counting fit", _NUMERIC, (14, 1),
             (("--grid", {"help": "a:b:steps threshold grid (floats)"}),)),
    # heat's optional --depth bounds the trace; it is checked by cmd_heat
    "heat": (cmd_heat, "heat-trace scaling", (*_SOURCE, "--backend", "--precision"),
             None, (("--tmin", {"type": float, "default": 1e-8}),
                    ("--tmax", {"type": float, "default": 1e-3}),
                    ("--points", {"type": int, "default": 21}),
                    ("--depth", {"type": int, "default": None}))),
    # strip builds its weight system on the exact field of theta
    "strip": (cmd_strip, "eigenvalue lattice strip analysis", (*_SOURCE, "--s"), (10, 1), ()),
    "ck-check": (cmd_ck_check, "partial isometry relations", _SOURCE, (5, 3), ()),
    "complexity": (cmd_complexity, "1D factor complexity", ("--preset",), None,
                   (("--nmax", {"type": int, "default": 100}),)),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes an --s value such as -3/2 or -1e-3 for a flag
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] == "--s" and not argv[i].startswith("--"):
            argv[i - 1:i + 1] = ["--s=" + argv[i]]
    # the command is the first word that names one, as only -h may precede
    # it.  A call that starts with it needs no other command's subparser:
    # only the top-level help and choice errors list them
    command = next((word for word in argv if word in _COMMANDS), None)
    parser = _build_parser([command], alone=argv[:1] == [command])
    args = parser.parse_args(argv)
    run, _, reads, depth, _ = _COMMANDS[args.command]
    em = _Emitter(args.command, args.format)
    try:
        inputs = None
        if reads:
            spec, diagram, dim, backend_kind, ws = _resolve_system(args, parser, reads)
            if depth:
                _check_depth(args, parser, depth[1])
            inputs = _Inputs(diagram, ws, _resolve_s(args, dim, parser),
                             spec.metadata if spec else {}, spec and spec.rule)
            em.config = _config_dict(args, backend_kind, dim)
        code = run(args, parser, em, inputs)
    except BratlapError as exc:
        parser.error(str(exc))
    except OverflowError as exc:
        # exact values beyond the float range, e.g. eigenvalues at a large
        # negative or positive s, fail where they are converted to floats
        parser.error(f"a value leaves the float range ({exc}); try a smaller "
                     f"--s if it is large and positive, a larger one if it is "
                     f"large and negative, or a smaller --depth")
    # stdout is looked up here, not bound at import: callers redirect it
    if em.sections:
        try:
            out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
        except OSError as exc:
            parser.error(f"cannot write --output: {exc}")
        try:
            em.flush(out)
            out.flush()
        except BrokenPipeError:
            # a closed reader: what is left goes to null at interpreter exit
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, out.fileno())
            os.close(null)
        finally:
            if args.output:
                out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
