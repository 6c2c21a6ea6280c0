"""Command-line front end.

Subcommands: exact (count tables), asym (smooth formulas), saddle (numeric
stationary-point densities), compare (exact vs smooth), fluct (residual and
amplitude-ratio report), audit (exact identity suite), figure (the six
standard comparison datasets).  Output is CSV (with one #-prefixed metadata
line) or JSON matching docs/output_schema.json.  Exit codes: 0 success,
1 identity failure, 2 usage error, 3 resource cap, 4 numeric solver failure.

argparse checks how the flags combine (choices, the required --energies or
--max of asym and saddle, --shift against --parts); partition_dos.limits
checks their values, so a bad value reads "--flag=value ...".  Options
shared by a family of subcommands are declared once, in
_add_table_options and _add_grid_options.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__, asymptotic, counting, series
from .errors import ConvergenceError, DomainError, PrecisionLossError, ResourceLimitError
from .limits import integer, positive, table_size

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# output


def _csv_cell(value) -> str:
    return "" if value is None else str(value)


def _json_cell(value):
    if value is None or isinstance(value, (float, str)):
        return value
    return str(value)  # exact integers as decimal strings, no precision loss


def write_dataset(meta: dict, columns: list[str], rows: list[tuple], args) -> None:
    """Write the dataset to --output as CSV or JSON.

    A CSV row is one `%` format of str cells, done in C; a row holding None
    (an empty cell) is joined cell by cell instead.
    """
    if args.format == "csv":
        lines = ["# " + " ".join(f"{k}={v}" for k, v in meta.items())]
        lines.append(",".join(columns))
        fmt = ",".join(["%s"] * len(columns))
        lines.extend(",".join(map(_csv_cell, row)) if None in row else fmt % row
                     for row in rows)
        text_rows = "\n".join(lines) + "\n"
    else:
        payload = {
            "meta": {k: str(v) for k, v in meta.items()},
            "columns": columns,
            "rows": [[_json_cell(v) for v in row] for row in rows],
        }
        text_rows = json.dumps(payload) + "\n"
    if args.output == "-":
        sys.stdout.write(text_rows)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text_rows)
        except OSError as exc:
            raise DomainError(
                f"--output={args.output!r} cannot be written: {exc.strerror}"
            ) from exc


def _meta(command: str, **fields) -> dict:
    meta = {"command": command}
    meta.update({k: v for k, v in fields.items() if v is not None})
    meta["version"] = __version__
    return meta


# ---------------------------------------------------------------------------
# grids


def _energy_grid(args) -> list[float]:
    if args.energies is not None:
        for flag, value in (("--min", args.min), ("--step", args.step)):
            if value is not None:
                raise DomainError(f"{flag}={value!r} goes with --max, not with --energies")
        try:
            grid = [float(tok) for tok in args.energies.split(",") if tok.strip()]
        except ValueError as exc:
            raise DomainError(
                f"--energies={args.energies!r} is not a comma-separated list of numbers"
            ) from exc
        if not grid:
            raise DomainError(f"--energies={args.energies!r} lists no energy")
        table_size("energy grid length", len(grid))
        return grid
    lo = 1.0 if args.min is None else args.min
    step = positive("--step", 1.0 if args.step is None else args.step)
    if not -math.inf < lo <= args.max < math.inf:
        raise DomainError(
            f"--min={lo!r} --max={args.max!r} is not a finite range with --min <= --max"
        )
    span = (args.max - lo) / step + 1e-9  # inf once the range overflows
    rows = math.floor(span) + 1 if math.isfinite(span) else span
    table_size("energy grid length", rows)
    return [lo + k * step for k in range(rows)]


def _validity_grid(n_parts: int) -> range:
    """The n inside validity_region(n_parts); the exact table behind a figure
    runs to the last of them, so a window past the float range is over its cap."""
    lo, hi = asymptotic.validity_region(n_parts)
    grid = range(math.floor(lo) + 1, math.ceil(hi) if hi < math.inf else table_size("n_max", hi))
    if not grid:
        raise DomainError(
            f"--parts={n_parts!r} leaves no integer n in the validity region ({lo}, {hi})"
        )
    return grid


# ---------------------------------------------------------------------------
# commands


def cmd_exact(args) -> int:
    spec = counting.SpectrumSpec(args.s, args.distinct, args.parts)
    integer("--min", args.min, 0, integer("--max", args.max, 0))
    table = counting.build_table(spec, args.max)
    rows = list(zip(range(args.min, args.max + 1), table.counts[args.min :]))
    meta = _meta(
        "exact",
        s=args.s,
        distinct=args.distinct,
        parts=args.parts if args.parts is not None else "unbounded",
        min=args.min,
        max=args.max,
    )
    write_dataset(meta, ["n", "count"], rows, args)
    return EXIT_OK


def cmd_asym(args) -> int:
    stats = args.statistics
    if args.drop_half_term and args.parts is None:
        raise DomainError("--drop-half-term applies only to restricted formulas; add --parts")
    grid = _energy_grid(args)
    if args.parts is not None:
        if args.s != 1:
            raise DomainError(f"--s={args.s!r} has no restricted formula; --parts needs --s 1")
        keep = not args.drop_half_term
        if stats == asymptotic.BOSE:
            lo, hi = asymptotic.validity_region(args.parts)
            rows = [(e, smooth, int(lo < e < hi)) for e, smooth in
                    zip(grid, asymptotic.rho_restricted_bose_grid(grid, args.parts, keep))]
            columns = ["E", "density", "in_validity"]
        else:
            rows = list(zip(grid, asymptotic.rho_restricted_fermi_grid(grid, args.parts, keep)))
            columns = ["E", "density"]
    else:
        model = asymptotic.make_model(args.s, stats, args.shift)
        rows = list(zip(grid, asymptotic.rho_unrestricted_grid(model, grid)))
        columns = ["E", "density"]
    meta = _meta(
        "asym",
        s=args.s,
        statistics=stats,
        shift=args.shift,
        parts=args.parts,
        drop_half_term=args.drop_half_term if args.parts is not None else None,
    )
    write_dataset(meta, columns, rows, args)
    return EXIT_OK


def cmd_saddle(args) -> int:
    from . import saddle  # saddle and fluctuation import numpy: load them on use

    spec = saddle.ThermoSpec(args.s, args.statistics, args.parts)
    rows = []
    for e in _energy_grid(args):
        r = saddle.find_saddle(spec, e)
        rows.append((e, r.beta0, r.entropy, r.curvature, r.density, r.residual))
    meta = _meta("saddle", s=args.s, statistics=args.statistics, parts=args.parts)
    write_dataset(
        meta, ["E", "beta0", "entropy", "curvature", "density", "residual"], rows, args
    )
    return EXIT_OK


def _table_and_model(s: int, distinct: bool, n_max: int, shift: bool = False):
    """Exact counts up to n_max and the smooth model they are compared with.

    Spec and model are checked first, so a bad argument fails before the
    costly table is built.
    """
    spec = counting.SpectrumSpec(s, distinct)
    stats = asymptotic.FERMI if distinct else asymptotic.BOSE
    model = asymptotic.make_model(s, stats, shift)
    return counting.build_table(spec, n_max), model


def _exact_rows(table, model, n_min: int, n_max: int):
    """(n, exact, asymptote) for n = n_min .. n_max, one row at a time: the
    rows where the exact counts meet the smooth curve, in compare and
    figures 1-4."""
    grid = range(n_min, n_max + 1)
    smooth = asymptotic.rho_unrestricted_grid(model, map(float, grid))
    return zip(grid, table.counts[n_min : n_max + 1], smooth)


def cmd_compare(args) -> int:
    integer("--min", args.min, 1, integer("--max", args.max, 1))
    table, model = _table_and_model(args.s, args.distinct, args.max, args.shift)
    rows = [(n, exact, smooth, (smooth - exact) / exact)
            for n, exact, smooth in _exact_rows(table, model, args.min, args.max)]
    meta = _meta("compare", s=args.s, distinct=args.distinct, shift=args.shift,
                 min=args.min, max=args.max)
    write_dataset(meta, ["n", "exact", "asymptote", "rel_err"], rows, args)
    return EXIT_OK


def cmd_fluct(args) -> int:
    from . import fluctuation

    table, model = _table_and_model(args.s, args.distinct, args.max)
    report = fluctuation.analyze(
        table, model, window=args.window, n_min=args.min, spectrum=args.spectrum
    )
    # ratio[i] is the window that starts at n_grid[i], printed at that window's centre.
    ratio = [None] * (args.window // 2) + report.ratio.tolist()
    ratio += [None] * (len(report.n_grid) - len(ratio))
    rows = list(zip(report.n_grid.tolist(), report.residual.tolist(), ratio))
    meta = _meta(
        "fluct",
        s=args.s,
        distinct=args.distinct,
        window=args.window,
        min=args.min,
        max=args.max,
        first_ratio=repr(report.summary["first_ratio"]),
        last_ratio=repr(report.summary["last_ratio"]),
        decreasing=report.summary["decreasing"],
    )
    if args.spectrum:
        for rank, (freq, power) in enumerate(report.summary.get("peaks", []), start=1):
            meta[f"peak{rank}"] = f"{freq!r}:{power!r}"
    write_dataset(meta, ["n", "residual", "ratio"], rows, args)
    return EXIT_OK


def cmd_audit(args) -> int:
    rows = []
    failed = False
    for k, (name, lhs, rhs) in enumerate(series.identities(args.degree)):
        if args.inject_fault and k == 0:
            rhs = list(rhs)
            rhs[min(3, args.degree)] += 1
        bad = series.first_mismatch(lhs, rhs)
        rows.append((name, "ok" if bad is None else "mismatch", bad))
        failed = failed or bad is not None
    meta = _meta("audit", degree=args.degree, inject_fault=args.inject_fault)
    write_dataset(meta, ["identity", "status", "first_mismatch"], rows, args)
    return EXIT_IDENTITY if failed else EXIT_OK


def cmd_figure(args) -> int:
    fid = args.id
    if fid <= 4:
        if args.parts is not None:
            raise DomainError(f"--parts applies only to figures 5 and 6, not to figure {fid}")
        s = 1 if fid in (1, 3) else 2
        distinct = fid in (3, 4)
        n_max = integer("--max", args.max if args.max is not None else 1000, 1)
        table, model = _table_and_model(s, distinct, n_max)
        meta = _meta("figure", id=fid, s=s, distinct=distinct, max=n_max)
        write_dataset(meta, ["n", "exact", "asymptote"],
                      list(_exact_rows(table, model, 1, n_max)), args)
        return EXIT_OK

    if args.max is not None:
        raise DomainError(f"--max applies only to figures 1-4, not to figure {fid}")
    n_parts = 20 if args.parts is None else args.parts
    grid = _validity_grid(n_parts)
    top = grid.stop - 1
    table = counting.build_table(counting.SpectrumSpec(1, fid == 6, n_parts), top).counts
    if fid == 5:
        free = asymptotic.bose_density_s1
        capped = asymptotic.rho_restricted_bose_grid(map(float, grid), n_parts)
    else:
        free = asymptotic.fermi_density_s1
        capped = asymptotic.rho_restricted_fermi_grid(map(float, grid), n_parts)
    rows = [(n, free(float(n)) - exact, smooth - exact)
            for n, smooth, exact in zip(grid, capped, map(float, table[grid.start :]))]
    meta = _meta("figure", id=fid, parts=n_parts, min=grid.start, max=top)
    write_dataset(meta, ["n", "diff_unrestricted", "diff_restricted"], rows, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point


def _add_io_options(sp) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", default="-", help="output path, or - for stdout")


def _add_table_options(sp, s: int, n_min: int) -> None:
    """The exact-table options of exact, compare and fluct."""
    sp.add_argument("--s", type=int, default=s, help="part values are m**s")
    sp.add_argument("--distinct", action="store_true")
    sp.add_argument("--min", type=int, default=n_min)
    sp.add_argument("--max", type=int, required=True)


def _add_grid_options(sp) -> None:
    """The model and energy-grid options of asym and saddle: the grid is
    either the --energies list or --min..--max in steps of --step (--min and
    --step default to 1.0 and go with --max only)."""
    sp.add_argument("--s", type=float, default=1.0)
    sp.add_argument("--statistics", choices=(asymptotic.BOSE, asymptotic.FERMI),
                    default=asymptotic.BOSE)
    grid = sp.add_mutually_exclusive_group(required=True)
    grid.add_argument("--energies", help="comma-separated E values")
    grid.add_argument("--max", type=float)
    sp.add_argument("--min", type=float)
    sp.add_argument("--step", type=float)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-dos",
        description="Exact partition counts and their smooth density asymptotics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exact", help="exact count table for a spec")
    _add_table_options(sp, s=1, n_min=0)
    sp.add_argument("--parts", type=int, help="at most N parts")
    _add_io_options(sp)
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("asym", help="smooth closed-form density")
    _add_grid_options(sp)
    shift_or_parts = sp.add_mutually_exclusive_group()
    shift_or_parts.add_argument("--shift", action="store_true",
                                help="use E - 1/24 (s=1 bose)")
    shift_or_parts.add_argument("--parts", type=int,
                                help="restricted formula with at most N parts (s=1)")
    sp.add_argument("--drop-half-term", action="store_true",
                    help="drop the -1/2 inside the restricted exponent")
    _add_io_options(sp)
    sp.set_defaults(func=cmd_asym)

    sp = sub.add_parser("saddle", help="numeric stationary-point density")
    _add_grid_options(sp)
    sp.add_argument("--parts", type=int, help="finite level count (bose s=1 only)")
    _add_io_options(sp)
    sp.set_defaults(func=cmd_saddle)

    sp = sub.add_parser("compare", help="exact counts next to the smooth curve")
    _add_table_options(sp, s=1, n_min=1)
    sp.add_argument("--shift", action="store_true")
    _add_io_options(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("fluct", help="residuals and windowed amplitude ratios")
    _add_table_options(sp, s=2, n_min=1)
    sp.add_argument("--window", type=int, default=50)
    sp.add_argument("--spectrum", action="store_true", help="append spectral peaks")
    _add_io_options(sp)
    sp.set_defaults(func=cmd_fluct)

    sp = sub.add_parser("audit", help="run the exact identity suite")
    sp.add_argument("--degree", type=int, default=200)
    sp.add_argument("--inject-fault", action="store_true",
                    help="corrupt one coefficient to demonstrate detection")
    _add_io_options(sp)
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("figure", help="standard comparison datasets 1..6")
    sp.add_argument("id", type=int, choices=range(1, 7))
    sp.add_argument("--parts", type=int, help="N for figures 5 and 6 (default 20)")
    sp.add_argument("--max", type=int, help="n range for figures 1-4")
    _add_io_options(sp)
    sp.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, PrecisionLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
