"""Command-line front end.

Subcommands: exact (count tables), asym (smooth formulas), saddle (numeric
stationary-point densities), compare (exact vs smooth), fluct (residual and
amplitude-ratio report), audit (exact identity suite), figure (the six
standard comparison datasets).  Output is CSV (with one #-prefixed metadata
line) or JSON matching docs/output_schema.json.  Exit codes: 0 success,
1 identity failure, 2 usage error, 3 resource cap, 4 numeric solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__, asymptotic, counting, fluctuation, saddle, series
from .errors import ConvergenceError, DomainError, PrecisionLossError, ResourceLimitError

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# output


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64 reprs as np.float64(x)
    return str(value)


def _json_cell(value):
    if value is None or isinstance(value, (float, str)):
        return value
    return str(value)  # exact integers as decimal strings, no precision loss


def write_dataset(meta: dict, columns: list[str], rows: list[tuple], args) -> None:
    if args.format == "csv":
        lines = ["# " + " ".join(f"{k}={v}" for k, v in meta.items())]
        lines.append(",".join(columns))
        lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
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
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text_rows)


def _meta(command: str, **fields) -> dict:
    meta = {"command": command}
    meta.update({k: v for k, v in fields.items() if v is not None})
    meta["version"] = __version__
    return meta


# ---------------------------------------------------------------------------
# grids


def _energy_grid(args) -> list[float]:
    bounds = (("--min", args.min), ("--max", args.max), ("--step", args.step))
    for flag, value in bounds:
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value!r}")
    if args.energies:
        try:
            grid = [float(tok) for tok in args.energies.split(",") if tok.strip()]
        except ValueError as exc:
            raise DomainError(f"bad --energies list: {exc}") from exc
        for e in grid:
            if not math.isfinite(e):
                raise DomainError(f"--energies values must be finite, got {e!r}")
        return grid
    if args.max is None:
        raise DomainError("either --energies or --max is required")
    if args.max < args.min:
        raise DomainError("--max must be at least --min")
    if args.step <= 0:
        raise DomainError("--step must be positive")
    n_steps = int(math.floor((args.max - args.min) / args.step + 1e-9))
    return [args.min + k * args.step for k in range(n_steps + 1)]


def _validity_grid(n_parts: int) -> range:
    lo, hi = asymptotic.validity_region(n_parts)
    return range(int(math.floor(lo)) + 1, int(math.ceil(hi)))


# ---------------------------------------------------------------------------
# commands


def cmd_exact(args) -> int:
    spec = counting.SpectrumSpec(args.s, args.distinct, args.parts)
    if args.min < 0 or args.min > args.max:
        raise DomainError("need 0 <= --min <= --max")
    table = counting.build_table(spec, args.max)
    rows = [(n, table.counts[n]) for n in range(args.min, args.max + 1)]
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
            raise DomainError("restricted formulas are available only for s=1")
        keep = not args.drop_half_term
        if stats == asymptotic.BOSE:
            lo, hi = asymptotic.validity_region(args.parts)
            rows = [(e, asymptotic.rho_restricted_bose(e, args.parts, keep), int(lo < e < hi))
                    for e in grid]
            columns = ["E", "density", "in_validity"]
        else:
            rows = [(e, asymptotic.rho_restricted_fermi(e, args.parts, keep)) for e in grid]
            columns = ["E", "density"]
    else:
        model = asymptotic.make_model(args.s, stats, args.shift)
        rows = [(e, asymptotic.rho_unrestricted(model, e)) for e in grid]
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


def cmd_compare(args) -> int:
    if args.min < 1 or args.min > args.max:
        raise DomainError("need 1 <= --min <= --max")
    table, model = _table_and_model(args.s, args.distinct, args.max, args.shift)
    rows = []
    for n in range(args.min, args.max + 1):
        exact = table.counts[n]
        smooth = asymptotic.rho_unrestricted(model, float(n))
        try:
            rel = (smooth - exact) / exact
        except OverflowError as exc:
            raise DomainError(
                f"count at n={n} is too large for a float comparison"
            ) from exc
        rows.append((n, exact, smooth, rel))
    meta = _meta("compare", s=args.s, distinct=args.distinct, shift=args.shift,
                 min=args.min, max=args.max)
    write_dataset(meta, ["n", "exact", "asymptote", "rel_err"], rows, args)
    return EXIT_OK


def cmd_fluct(args) -> int:
    table, model = _table_and_model(args.s, args.distinct, args.max)
    report = fluctuation.analyze(
        table, model, window=args.window, n_min=args.min, spectrum=args.spectrum
    )
    offset = args.window // 2
    rows = []
    for idx, n in enumerate(report.n_grid):
        j = idx - offset
        ratio = report.ratio[j] if 0 <= j < len(report.ratio) else None
        rows.append((int(n), float(report.residual[idx]), ratio))
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
    if fid in (1, 2, 3, 4):
        s = 1 if fid in (1, 3) else 2
        distinct = fid in (3, 4)
        n_max = args.max if args.max is not None else 1000
        table, model = _table_and_model(s, distinct, n_max)
        rows = [
            (n, table.counts[n], asymptotic.rho_unrestricted(model, float(n)))
            for n in range(1, n_max + 1)
        ]
        meta = _meta("figure", id=fid, s=s, distinct=distinct, max=n_max)
        write_dataset(meta, ["n", "exact", "asymptote"], rows, args)
        return EXIT_OK

    if fid in (5, 6):
        n_parts = args.parts
        grid = _validity_grid(n_parts)
        top = grid.stop - 1
        if fid == 5:
            table = counting.conjugate_restricted_table(n_parts, top)
            free, capped = asymptotic.bose_density_s1, asymptotic.rho_restricted_bose
        else:
            table = counting.distinct_restricted_table(n_parts, top)
            free, capped = asymptotic.fermi_density_s1, asymptotic.rho_restricted_fermi
        rows = [(n, free(float(n)) - float(table[n]),
                 capped(float(n), n_parts) - float(table[n])) for n in grid]
        meta = _meta("figure", id=fid, parts=n_parts, min=grid.start, max=top)
        write_dataset(meta, ["n", "diff_unrestricted", "diff_restricted"], rows, args)
        return EXIT_OK

    raise DomainError(f"unknown figure id {fid}; expected 1..6")


# ---------------------------------------------------------------------------
# parser / entry point


def _add_io_options(sp) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", default="-", help="output path, or - for stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-dos",
        description="Exact partition counts and their smooth density asymptotics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exact", help="exact count table for a spec")
    sp.add_argument("--s", type=int, default=1, help="part values are m**s")
    sp.add_argument("--distinct", action="store_true")
    sp.add_argument("--parts", type=int, default=None, help="at most N parts")
    sp.add_argument("--min", type=int, default=0)
    sp.add_argument("--max", type=int, required=True)
    _add_io_options(sp)
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("asym", help="smooth closed-form density")
    sp.add_argument("--s", type=float, default=1.0)
    sp.add_argument("--statistics", choices=(asymptotic.BOSE, asymptotic.FERMI),
                    default=asymptotic.BOSE)
    sp.add_argument("--shift", action="store_true", help="use E - 1/24 (s=1 bose)")
    sp.add_argument("--parts", type=int, default=None,
                    help="restricted formula with at most N parts (s=1)")
    sp.add_argument("--drop-half-term", action="store_true",
                    help="drop the -1/2 inside the restricted exponent")
    sp.add_argument("--energies", default=None, help="comma-separated E values")
    sp.add_argument("--min", type=float, default=1.0)
    sp.add_argument("--max", type=float, default=None)
    sp.add_argument("--step", type=float, default=1.0)
    _add_io_options(sp)
    sp.set_defaults(func=cmd_asym)

    sp = sub.add_parser("saddle", help="numeric stationary-point density")
    sp.add_argument("--s", type=float, default=1.0)
    sp.add_argument("--statistics", choices=(asymptotic.BOSE, asymptotic.FERMI),
                    default=asymptotic.BOSE)
    sp.add_argument("--parts", type=int, default=None,
                    help="finite level count (bose s=1 only)")
    sp.add_argument("--energies", default=None, help="comma-separated E values")
    sp.add_argument("--min", type=float, default=1.0)
    sp.add_argument("--max", type=float, default=None)
    sp.add_argument("--step", type=float, default=1.0)
    _add_io_options(sp)
    sp.set_defaults(func=cmd_saddle)

    sp = sub.add_parser("compare", help="exact counts next to the smooth curve")
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--distinct", action="store_true")
    sp.add_argument("--shift", action="store_true")
    sp.add_argument("--min", type=int, default=1)
    sp.add_argument("--max", type=int, required=True)
    _add_io_options(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("fluct", help="residuals and windowed amplitude ratios")
    sp.add_argument("--s", type=int, default=2)
    sp.add_argument("--distinct", action="store_true")
    sp.add_argument("--window", type=int, default=50)
    sp.add_argument("--min", type=int, default=1)
    sp.add_argument("--max", type=int, required=True)
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
    sp.add_argument("id", type=int)
    sp.add_argument("--parts", type=int, default=20, help="N for figures 5 and 6")
    sp.add_argument("--max", type=int, default=None, help="n range for figures 1-4")
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
    except ConvergenceError as exc:  # BracketingError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
