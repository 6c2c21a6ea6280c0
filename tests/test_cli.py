import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import jsonschema
import pytest

import partition_dos as pd
from partition_dos import cli, counting, errors

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "output_schema.json").read_text())


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def last_row(out):
    return out.strip().splitlines()[-1]


def test_exact_worked_examples(capsys):
    code, out = run(capsys, ["exact", "--s", "1", "--max", "5"])
    assert code == 0
    assert last_row(out) == "5,7"
    code, out = run(capsys, ["exact", "--s", "1", "--distinct", "--max", "5"])
    assert code == 0
    assert last_row(out) == "5,3"
    code, out = run(capsys, ["exact", "--s", "1", "--parts", "4", "--max", "5"])
    assert code == 0
    assert last_row(out) == "5,6"


def test_exact_with_a_huge_exponent_counts_only_ones(capsys):
    # Only the part 1**s fits under --max, so m**s is never built for m >= 2.
    code, out = run(capsys, ["exact", "--s", "1000000000000", "--max", "5"])
    assert code == 0
    assert out.splitlines()[2:] == [f"{n},1" for n in range(6)]


def test_exact_with_an_exponent_past_the_float_range(capsys):
    # 10**400 overflows a float, so nothing on these routes may convert s.
    s = str(10**400)
    code, out = run(capsys, ["exact", "--s", s, "--max", "5"])
    assert code == 0
    assert out.splitlines()[2:] == [f"{n},1" for n in range(6)]
    code, out = run(capsys, ["exact", "--s", s, "--distinct", "--max", "5"])
    assert code == 0
    assert out.splitlines()[2:] == ["0,1", "1,1"] + [f"{n},0" for n in range(2, 6)]


def test_csv_has_metadata_and_header(capsys):
    for argv in (
        ["exact", "--max", "3"],
        ["asym", "--energies", "10,20"],
        ["audit", "--degree", "10"],
        ["figure", "1", "--max", "20"],
        ["compare", "--max", "10"],
        ["fluct", "--s", "2", "--distinct", "--max", "80", "--window", "10"],
        ["saddle", "--energies", "50"],
    ):
        code, out = run(capsys, argv)
        assert code == 0, argv
        lines = out.splitlines()
        assert lines[0].startswith("# command=")
        assert "version=" in lines[0]
        assert "," in lines[1] and not lines[1].startswith("#")


def test_deterministic_output(capsys):
    argv = ["figure", "4", "--max", "150"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_json_outputs_validate_against_schema(capsys):
    for argv in (
        ["exact", "--max", "6", "--format", "json"],
        ["asym", "--energies", "10,30", "--format", "json"],
        ["audit", "--degree", "20", "--format", "json"],
        ["figure", "5", "--parts", "20", "--format", "json"],
        ["fluct", "--s", "2", "--distinct", "--max", "80", "--window", "10",
         "--format", "json"],
    ):
        code, out = run(capsys, argv)
        assert code == 0, argv
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)


def test_counts_serialized_as_decimal_strings(capsys):
    _, out = run(capsys, ["exact", "--min", "900", "--max", "900", "--format", "json"])
    payload = json.loads(out)
    n, count = payload["rows"][0]
    assert count == str(pd.count(pd.SpectrumSpec(1), 900))
    assert isinstance(count, str)


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = run(capsys, ["exact", "--max", "4", "--output", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[-1] == "4,5"


def test_csv_rows_match_the_cell_join(capsys):
    # Each row is one "%s,%s,..." format; the per-cell join it replaced is
    # the reference, and a row holding None still takes that join.
    rows = [
        (1, 10**80 + 7, 1e-05, 1e16, "ok"),
        (-2, 0, -0.0, math.inf, "mismatch"),
        (3, None, 2.5e-300, 1.7976931348623157e308, None),
        (None, None, None, None, None),
        (True, pd.count(pd.SpectrumSpec(1), 2000), 0.1 + 0.2, 1e22, ""),
    ]
    columns = ["a", "b", "c", "d", "e"]
    args = types.SimpleNamespace(format="csv", output="-")
    cli.write_dataset({"command": "test"}, columns, rows, args)
    body = capsys.readouterr().out.splitlines()[2:]
    assert body == [",".join(cli._csv_cell(v) for v in row) for row in rows]
    assert body[0] == "1," + str(10**80 + 7) + ",1e-05,1e+16,ok"
    assert body[2] == "3,,2.5e-300,1.7976931348623157e+308,"


@pytest.mark.parametrize("where, reason", [("missing/x.csv", "No such file or directory"),
                                           (".", "Is a directory")])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, where, reason):
    target = str(tmp_path / where)
    assert cli.main(["exact", "--max", "5", "--output", target]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: --output={target!r} cannot be written: {reason}\n")


def test_asym_matches_library(capsys):
    _, out = run(capsys, ["asym", "--s", "1", "--statistics", "bose",
                          "--energies", "10"])
    value = float(last_row(out).split(",")[1])
    assert value == pytest.approx(pd.bose_density_s1(10.0), rel=1e-12)
    _, out = run(capsys, ["asym", "--s", "1", "--statistics", "bose", "--parts", "20",
                          "--energies", "100"])
    e, value, valid = last_row(out).split(",")
    assert float(value) == pytest.approx(pd.rho_restricted_bose(100.0, 20), rel=1e-12)
    assert valid == "1"
    _, out = run(capsys, ["asym", "--statistics", "bose", "--parts", "20",
                          "--energies", "70000"])
    e, value, valid = last_row(out).split(",")
    assert float(value) == pytest.approx(pd.rho_restricted_bose(7e4, 20), rel=1e-12)
    assert valid == "0"


def _log_rho(model, E):
    """ln of rho_unrestricted(model, E), summed in logs so it cannot overflow."""
    s = model.s
    if model.statistics == pd.BOSE:
        k = model.kappa
        return (math.log(k) - (s + 1) / 2 * math.log(2 * math.pi)
                + 0.5 * math.log(s / (s + 1)) - (3 * s + 1) / (2 * (s + 1)) * math.log(E)
                + k * (s + 1) * E ** (1 / (1 + s)))
    lam = model.lam
    return (0.5 * math.log(s * lam) + (1 + s) * lam * E ** (1 / (1 + s)) - math.log(2)
            - 0.5 * math.log(math.pi * (1 + s)) - (2 * s + 1) / (2 * (s + 1)) * math.log(E))


@pytest.mark.parametrize(
    "s, statistics, energy",
    # (2 pi)**(801/2) alone overflows; E**(5/3) underflows to 0 at E = 1e-300.
    [("800", "bose", 3.0), ("2", "fermi", 1e-300)],
)
def test_finite_density_next_to_an_overflowing_part(capsys, s, statistics, energy):
    code, out = run(capsys, ["asym", "--s", s, "--statistics", statistics,
                             "--energies", repr(energy)])
    assert code == 0
    value = float(last_row(out).split(",")[1])
    assert math.isfinite(value)
    expected = math.exp(_log_rho(pd.make_model(float(s), statistics), energy))
    assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("statistics", ["bose", "fermi"])
def test_asym_drop_half_term(capsys, statistics):
    _, out = run(capsys, ["asym", "--statistics", statistics, "--parts", "20",
                          "--max", "600", "--drop-half-term"])
    meta, _, *rows = out.splitlines()
    assert "drop_half_term=True" in meta.split()
    assert len(rows) == 600
    _, kept = run(capsys, ["asym", "--statistics", statistics, "--parts", "20",
                           "--max", "600"])
    assert rows != kept.splitlines()[2:]
    for row in rows:
        e, density = row.split(",")[:2]
        if statistics == "bose":
            value = pd.rho_restricted_bose(float(e), 20, keep_half_term=False)
        else:
            value = pd.rho_restricted_fermi(float(e), 20, keep_half_term=False)
        assert density == repr(value)
    # Without --parts the flag has nothing to act on: a usage error, not a no-op.
    code = cli.main(["asym", "--statistics", statistics, "--max", "5", "--drop-half-term"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--drop-half-term" in captured.err and "--parts" in captured.err


def test_saddle_command_row(capsys):
    _, out = run(capsys, ["saddle", "--s", "2", "--statistics", "fermi",
                          "--energies", "100"])
    fields = last_row(out).split(",")
    assert len(fields) == 6
    res = pd.find_saddle(pd.ThermoSpec(2, pd.FERMI), 100.0)
    assert float(fields[1]) == pytest.approx(res.beta0, rel=1e-9)
    assert float(fields[4]) == pytest.approx(res.density, rel=1e-9)


def test_compare_rel_err_column(capsys):
    _, out = run(capsys, ["compare", "--max", "100", "--min", "100"])
    n, exact, asym, rel = last_row(out).split(",")
    assert exact == "190569292"
    assert float(rel) == pytest.approx((float(asym) - 190569292) / 190569292, rel=1e-9)


@pytest.mark.parametrize("window", [3, 10, 11])
def test_fluct_ratio_alignment(capsys, window):
    _, out = run(capsys, ["fluct", "--s", "2", "--distinct", "--min", "5", "--max", "60",
                          "--window", str(window)])
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    # 56 rows; ratio[i] covers n = 5 + i .. 5 + i + window - 1, printed at its centre.
    assert [int(r[0]) for r in rows] == list(range(5, 61))
    filled = [r for r in rows if r[2] != ""]
    assert len(filled) == 56 - window + 1
    first = 5 + window // 2
    assert [int(r[0]) for r in filled] == list(range(first, first + len(filled)))
    table = pd.build_table(pd.SpectrumSpec(2, True), 60)
    ratio = pd.analyze(table, pd.make_model(2, pd.FERMI), window=window, n_min=5).ratio
    # plain reprs, not numpy ones such as np.float64(x)
    assert [r[2] for r in filled] == [repr(float(x)) for x in ratio]
    assert "first_ratio=" in lines[0] and "last_ratio=" in lines[0]


def audit_statuses(out):
    return [line.split(",")[1] for line in out.strip().splitlines()[2:]]


@pytest.mark.parametrize("degree", [2, 60])
def test_audit_green_and_fault_injection(capsys, degree):
    code, out = run(capsys, ["audit", "--degree", str(degree)])
    assert code == 0
    assert set(audit_statuses(out)) == {"ok"}
    code, out = run(capsys, ["audit", "--degree", str(degree), "--inject-fault"])
    assert code == 1
    line = next(l for l in out.splitlines() if ",mismatch," in l)
    assert line.split(",")[2] == str(min(3, degree))  # corrupted index reported


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_audit_degree_zero_trivially_passes(capsys, degree):
    code, out = run(capsys, ["audit", "--degree", str(degree)])
    assert code == 0
    assert set(audit_statuses(out)) == {"ok"}


def test_figure_datasets(capsys):
    code, out = run(capsys, ["figure", "1", "--max", "30"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n,exact,asymptote"
    assert len(lines) == 2 + 30
    code, out = run(capsys, ["figure", "6", "--parts", "20"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n,diff_unrestricted,diff_restricted"
    assert len(lines) == 2 + 656  # integers strictly inside the validity window
    assert run(capsys, ["figure", "6"]) == (code, out)  # N = 20 by default


def test_exit_codes(capsys):
    assert run(capsys, ["figure", "9"])[0] == 2
    assert cli.main(["exact"]) == 2  # missing required --max
    assert cli.main(["nonsense"]) == 2
    assert run(capsys, ["asym", "--s", "2", "--parts", "5", "--energies", "10"])[0] == 2
    assert run(capsys, ["saddle", "--statistics", "fermi", "--parts", "5",
                        "--energies", "10"])[0] == 2


def test_resource_cap_exit_code(capsys, monkeypatch):
    # At the default cap, a --min..--max range that overflows a float is an
    # infinitely long grid, not a crash.
    assert run(capsys, ["asym", "--min=-1e308", "--max=1e308"])[0] == 3
    monkeypatch.setenv("PARTITION_DOS_MAX_N", "100")
    assert run(capsys, ["exact", "--max", "101"])[0] == 3
    # Figures 5 and 6 build their exact table up to the top of the validity
    # grid: n = 657 for 20 parts, n = 80 for 7 parts.
    assert run(capsys, ["figure", "5", "--parts", "20"])[0] == 3
    assert run(capsys, ["figure", "6", "--parts", "20"])[0] == 3
    assert run(capsys, ["figure", "5", "--parts", "7"])[0] == 0
    assert run(capsys, ["asym", "--max", "500"])[0] == 3
    assert run(capsys, ["asym", "--max", "100"])[0] == 0
    monkeypatch.setenv("PARTITION_DOS_MAX_DEGREE", "50")
    assert run(capsys, ["audit", "--degree", "51"])[0] == 3


@pytest.mark.parametrize("fid", ["5", "6"])
@pytest.mark.parametrize("n_parts", [10**200, 10**400], ids=["1e200", "1e400"])
def test_figure_with_a_huge_part_cap_is_over_the_table_cap(capsys, fid, n_parts):
    # Past N ~ 1.05e154, C(1) N**2 is past the float range: over any cap.
    assert cli.main(["figure", fid, "--parts", str(n_parts)]) == cli.EXIT_RESOURCE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("resource limit: n_max=inf exceeds the cap ")


@pytest.mark.parametrize(
    "stats, n_parts",
    [("fermi", 10**200), ("fermi", 10**400), ("bose", 10**200), ("bose", 10**400)],
    ids=["fermi-1e200", "fermi-1e400", "bose-1e200", "bose-1e400"],
)
def test_asym_with_a_huge_part_cap_gives_the_uncapped_density(capsys, stats, n_parts):
    # A cap that binds no term leaves the unrestricted s = 1 curve.
    code, out = run(capsys, ["asym", "--statistics", stats, "--parts", str(n_parts),
                             "--energies", "5,300"])
    assert code == 0
    free = pd.fermi_density_s1 if stats == "fermi" else pd.bose_density_s1
    cells = [line.split(",") for line in out.splitlines()[2:]]
    assert [float(row[1]) for row in cells] == [free(5.0), free(300.0)]


@pytest.mark.parametrize(
    "degree, code, err",
    [
        ("300000", cli.EXIT_RESOURCE, "resource limit: degree=300000 exceeds the cap 20000 "
                                      "(override with PARTITION_DOS_MAX_DEGREE)\n"),
        ("-1", cli.EXIT_USAGE, "error: degree=-1 is not an integer >= 0\n"),
    ],
    ids=["over-cap", "negative"],
)
def test_audit_checks_its_degree_before_any_table(capsys, monkeypatch, degree, code, err):
    monkeypatch.delenv("PARTITION_DOS_MAX_DEGREE", raising=False)

    def no_table(*args):
        raise AssertionError("a table was built before the degree check")

    monkeypatch.setattr(counting, "build_table", no_table)
    assert cli.main(["audit", "--degree", degree]) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "env, argv",
    [
        ("PARTITION_DOS_MAX_N", ["exact", "--max", "300000"]),
        ("PARTITION_DOS_MAX_DEGREE", ["audit", "--degree", "10"]),
    ],
)
@pytest.mark.parametrize("raw", ["1e6", "abc", "-5"])
def test_malformed_cap_override_is_usage_error(capsys, monkeypatch, env, argv, raw):
    monkeypatch.setenv(env, raw)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {env} must be a nonnegative integer, got {raw!r}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--max", "100", "--min", "200"], "error: n_min=200 is not an integer in 1..100\n"),
        (["--max", "10"], "error: window=50 is not an integer in 3..10\n"),
    ],
    ids=["min-above-max", "window-above-length"],
)
def test_fluct_range_errors_name_the_argument(capsys, argv, err):
    assert cli.main(["fluct", "--s", "2", "--distinct", *argv]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", err)


# Each value check the command line makes itself, and its exact stderr line.
USAGE_ERRORS = [
    (["exact", "--max", "-1"], "--max=-1 is not an integer >= 0"),
    (["exact", "--min", "5", "--max", "3"], "--min=5 is not an integer in 0..3"),
    (["compare", "--max", "0"], "--max=0 is not an integer >= 1"),
    (["compare", "--min", "0", "--max", "5"], "--min=0 is not an integer in 1..5"),
    (["figure", "2", "--max", "-5"], "--max=-5 is not an integer >= 1"),
    (["asym", "--energies", "1,x"],
     "--energies='1,x' is not a comma-separated list of numbers"),
    (["saddle", "--energies", ",,"], "--energies=',,' lists no energy"),
    (["asym", "--max", "5", "--step", "0"], "--step=0.0 is not a finite number > 0"),
    (["saddle", "--min", "4", "--max", "3"],
     "--min=4.0 --max=3.0 is not a finite range with --min <= --max"),
    (["saddle", "--max", "-3"], "--min=1.0 --max=-3.0 is not a finite range with --min <= --max"),
    (["asym", "--energies", "10", "--min", "5", "--step", "nan"],
     "--min=5.0 goes with --max, not with --energies"),
    (["saddle", "--energies", "10", "--step", "3"],
     "--step=3.0 goes with --max, not with --energies"),
    (["asym", "--energies", "10", "--min", "1"], "--min=1.0 goes with --max, not with --energies"),
    (["figure", "6", "--parts", "1"], "--parts=1 leaves no integer n in the validity region "
                                      f"({math.pi**2 / 6}, {math.pi**2 / 6})"),
    (["asym", "--energies", "3", "--drop-half-term"],
     "--drop-half-term applies only to restricted formulas; add --parts"),
    (["asym", "--s", "3", "--parts", "5", "--max", "2"],
     "--s=3.0 has no restricted formula; --parts needs --s 1"),
    (["figure", "5", "--parts", "8", "--max", "3"],
     "--max applies only to figures 1-4, not to figure 5"),
    (["figure", "6", "--max", "100"], "--max applies only to figures 1-4, not to figure 6"),
    (["figure", "2", "--parts", "3"], "--parts applies only to figures 5 and 6, not to figure 2"),
    (["figure", "4", "--max", "-5", "--parts", "20"],
     "--parts applies only to figures 5 and 6, not to figure 4"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error_names_the_flag(capsys, argv, message):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


# Each rule argparse enforces, and the flags its last stderr line names.
PARSER_RULES = [
    (["figure", "7"], ["argument id", "7"]),
    (["asym", "--energies", "10", "--max", "3"], ["--max", "--energies"]),
    (["saddle", "--energies", "10", "--max", "3"], ["--max", "--energies"]),
    (["asym", "--min", "2"], ["--energies", "--max"]),
    (["saddle"], ["--energies", "--max"]),
    (["asym", "--parts", "20", "--shift", "--max", "5"], ["--shift", "--parts"]),
]


@pytest.mark.parametrize("argv, flags", PARSER_RULES,
                         ids=[" ".join(argv) for argv, _ in PARSER_RULES])
def test_parser_rule_is_usage_error(capsys, argv, flags):
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    last = err.splitlines()[-1]
    assert all(flag in last for flag in flags), last


IO = {"format": "csv", "output": "-"}

# The namespace of a minimal argv for each subcommand, func left out.
PARSED = [
    (["exact", "--max", "5"], {"command": "exact", "s": 1, "distinct": False, "parts": None,
                               "min": 0, "max": 5, **IO}),
    (["asym", "--max", "5"], {"command": "asym", "s": 1.0, "statistics": "bose",
                              "shift": False, "parts": None, "drop_half_term": False,
                              "energies": None, "min": None, "max": 5.0, "step": None, **IO}),
    (["saddle", "--energies", "5"], {"command": "saddle", "s": 1.0, "statistics": "bose",
                                     "parts": None, "energies": "5", "min": None,
                                     "max": None, "step": None, **IO}),
    (["compare", "--max", "5"], {"command": "compare", "s": 1, "distinct": False,
                                 "shift": False, "min": 1, "max": 5, **IO}),
    (["fluct", "--max", "5"], {"command": "fluct", "s": 2, "distinct": False, "window": 50,
                               "min": 1, "max": 5, "spectrum": False, **IO}),
    (["audit"], {"command": "audit", "degree": 200, "inject_fault": False, **IO}),
    (["figure", "1"], {"command": "figure", "id": 1, "parts": None, "max": None, **IO}),
]


@pytest.mark.parametrize("argv, expected", PARSED, ids=[argv[0] for argv, _ in PARSED])
def test_parser_defaults(capsys, argv, expected):
    parsed = vars(cli.build_parser().parse_args(argv))
    assert parsed.pop("func") is getattr(cli, f"cmd_{argv[0]}")
    assert parsed == expected
    # argparse checks some group declarations only when it formats help.
    assert cli.main([argv[0], "--help"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith(f"usage: partition-dos {argv[0]} ")


def test_asym_shift_uses_the_shifted_model(capsys):
    _, out = run(capsys, ["asym", "--shift", "--max", "2"])
    meta, _, *rows = out.splitlines()
    assert "shift=True" in meta.split()
    shifted = pd.make_model(1, pd.BOSE, rademacher_shift=True)
    assert rows == [f"{e!r},{pd.rho_unrestricted(shifted, e)!r}" for e in (1.0, 2.0)]


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == pd.__version__


@pytest.mark.parametrize(
    "argv",
    [
        ["asym", "--energies", "nan"],
        ["asym", "--energies", "inf"],
        ["saddle", "--energies", "inf"],
        ["saddle", "--energies", "1e400"],
        ["asym", "--max", "nan"],
        ["asym", "--max", "10", "--step", "nan"],
        ["asym", "--max", "inf"],
    ],
)
def test_non_finite_energies_are_usage_errors(capsys, argv):
    code, out = run(capsys, argv)
    assert code == cli.EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize("argv", [["asym", "--s", "0.005", "--max", "5"],
                                  ["asym", "--s", "0.005862", "--max", "5"]])
def test_overflowing_model_constants_are_usage_errors(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("s", ["1e20", "inf"])
def test_exponent_too_large_for_the_model_is_usage_error(capsys, s):
    # 1 + 1/s rounds to 1, where zeta(1 + 1/s) has its pole.
    code = cli.main(["asym", "--s", s, "--max", "3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "s=" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["figure", "5", "--parts", "1"], ["figure", "6", "--parts", "1"]]
    + [["figure", fid, "--max", "0"] for fid in ("1", "2", "3", "4")]
    + [["asym", "--energies", ","], ["saddle", "--energies", ","]],
)
def test_empty_figure_dataset_is_usage_error(capsys, argv):
    # C1 < n < C1 * 1**2 holds no integer; --max 0 leaves n = 1..0; the
    # energy list "," names no energy.
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def saddle_row(out):
    e, beta0, entropy, curvature, density, residual = map(float, last_row(out).split(","))
    return e, beta0, density, residual


def test_saddle_tiny_energy_has_one_level_saddle(capsys):
    # Only the level m = 1 is inside the cutoff: beta0 = log(1 + 1/E).
    code, out = run(capsys, ["saddle", "--energies", "1e-15"])
    assert code == 0
    _, beta0, _, _ = saddle_row(out)
    assert beta0 == pytest.approx(math.log1p(1e15), rel=1e-12)


def test_saddle_below_the_one_level_floor_is_solver_failure(capsys):
    # E < exp(-37): the saddle lies past the level-sum cutoff.
    code = cli.main(["saddle", "--energies", "1e-17"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_saddle_curvature_past_the_float_range_is_solver_failure(capsys):
    # Ten levels at E = 1e300: beta0 ~ 1e-299, and S'' ~ 10 / beta0**2.
    code = cli.main(["saddle", "--parts", "10", "--energies", "1e300"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--s", "3", "--statistics", "fermi", "--energies", "1e8"],
        ["--parts", "5", "--energies", "1e8"],
        ["--s", "5", "--energies", "1e9"],
    ],
)
def test_saddle_solves_far_from_unit_beta(capsys, argv):
    code, out = run(capsys, ["saddle", *argv])
    assert code == 0
    e, _, density, residual = saddle_row(out)
    assert residual <= 1e-12 * e
    if "fermi" in argv:
        code, out = run(capsys, ["asym", *argv])
        assert code == 0
        closed = float(last_row(out).split(",")[1])
        assert abs(density - closed) <= 1e-6 * closed


def test_solver_failure_exit_code(capsys):
    code = cli.main(["saddle", "--s", "0.001", "--energies", "100"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("s", ["0.0001", "0.001"])
def test_tiny_exponent_solver_failure(capsys, s):
    code = cli.main(["saddle", "--s", s, "--energies", "100"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC
    assert captured.out == ""
    assert captured.err == "error: level sum at beta=12.018580815753095 needs more than 5000000 terms\n"


def test_parser_is_built_once_and_reusable(capsys):
    assert cli.build_parser() is cli.build_parser()
    argvs = [["exact"], ["--version"], ["exact", "--max", "5"]]
    alone = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        code = cli.main(argv)
        alone.append((code, *capsys.readouterr()))
    cli.build_parser.cache_clear()
    in_sequence = []
    for argv in argvs:
        code = cli.main(argv)
        in_sequence.append((code, *capsys.readouterr()))
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_OK]


# Each exception type of partition_dos.errors and the exit code cli.main
# gives it.
EXIT_CODE_OF = {
    errors.DomainError: cli.EXIT_USAGE,
    errors.PrecisionLossError: cli.EXIT_USAGE,
    errors.ResourceLimitError: cli.EXIT_RESOURCE,
    errors.ConvergenceError: cli.EXIT_NUMERIC,
}
ERROR_TYPES = [value for value in vars(errors).values()
               if isinstance(value, type) and value.__module__ == errors.__name__]


def test_errors_defines_one_type_per_exit_code_class():
    assert set(ERROR_TYPES) == set(EXIT_CODE_OF)


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda error: error.__name__)
def test_every_error_type_maps_to_an_exit_code(capsys, monkeypatch, error):
    def raising(*args):
        raise error("raised inside a command")

    monkeypatch.setattr(counting, "build_table", raising)
    code = cli.main(["exact", "--max", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_CODE_OF.get(error)
    assert captured.out == ""
    assert captured.err.endswith(": raised inside a command\n")
    assert captured.err.count("\n") == 1


class ExactlyKReached(Exception):
    pass


CAPPED_S1_COMMANDS = [
    ["exact", "--parts", "30", "--max", "400"],
    ["exact", "--distinct", "--parts", "12", "--max", "400"],
    ["exact", "--parts", "400", "--max", "400"],
    ["figure", "5", "--parts", "12"],
    ["figure", "6", "--parts", "12"],
]


def test_capped_s1_commands_never_reach_the_exactly_k_recurrence(capsys, monkeypatch):
    # The bytes each command writes when build_table counts a capped s = 1
    # spec by the exactly-k recurrence, as it once did, are the reference.
    build, exactly_k = counting.build_table, counting._at_most_parts

    def by_exactly_k(spec, n_max):
        if spec.s == 1 and spec.max_parts is not None:
            counts = exactly_k(spec.max_parts, spec.distinct, n_max)
            return counting.PartitionTable(spec, tuple(counts))
        return build(spec, n_max)

    with monkeypatch.context() as patch:
        patch.setattr(counting, "build_table", by_exactly_k)
        expected = [run(capsys, argv) for argv in CAPPED_S1_COMMANDS]
        tables = [by_exactly_k(pd.SpectrumSpec(1, d, 25), 300).counts for d in (False, True)]

    def unreachable(*args):
        raise ExactlyKReached

    monkeypatch.setattr(counting, "_at_most_parts", unreachable)
    assert [run(capsys, argv) for argv in CAPPED_S1_COMMANDS] == expected
    assert [build(pd.SpectrumSpec(1, d, 25), 300).counts for d in (False, True)] == tables
    # Only the audit holds the capped tables to the recurrence.
    with pytest.raises(ExactlyKReached):
        cli.main(["audit", "--degree", "40"])


def readme_commands() -> list[list[str]]:
    """The argv of each `partition-dos ...` line in README's Command line block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("partition-dos ")]


def test_readme_command_lines_run(capsys):
    commands = readme_commands()
    assert commands
    failed = []
    for argv in commands:
        code = cli.main(argv)
        captured = capsys.readouterr()
        if code != cli.EXIT_OK or not captured.out or captured.err:
            failed.append((argv, code, captured.err))
    assert failed == []


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


# Runs cli.main on its argv (or only imports the package, given none) and
# prints whether numpy was imported on the last line.
COLD_START = """\
import sys
import partition_dos
if sys.argv[1:]:
    from partition_dos import cli
    assert cli.main(sys.argv[1:]) == 0
print("numpy" in sys.modules)
"""

COLD_STARTS = [
    ([], False),
    (["exact", "--max", "5"], False),
    (["compare", "--max", "30"], False),
    (["audit", "--degree", "20"], False),
    (["asym", "--max", "5"], False),
    (["figure", "1", "--max", "50"], False),
    (["saddle", "--energies", "100"], True),
    (["fluct", "--s", "2", "--distinct", "--max", "300"], True),
]


@pytest.mark.parametrize("argv, loads_numpy", COLD_STARTS,
                         ids=[" ".join(argv) or "import" for argv, _ in COLD_STARTS])
def test_cold_start_loads_numpy_only_for_numeric_commands(argv, loads_numpy):
    done = fresh_python(COLD_START, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(loads_numpy)


# Every name the package exports, by the module it lives in.  The numpy
# modules, saddle and fluctuation, load with their names on first use.
EXPORTS = {
    "asymptotic": ("BOSE", "FERMI", "AsymptoticModel", "bose_density_s1",
                   "erdos_lehner_factor", "eta", "fermi_density_s1", "make_model",
                   "rho_restricted_bose", "rho_restricted_fermi", "rho_unrestricted",
                   "validity_region", "zeta"),
    "counting": ("PartitionTable", "SpectrumSpec", "build_table",
                 "conjugate_restricted_table", "count", "distinct_restricted_table",
                 "enumerate_partitions", "odd_parts_table"),
    "errors": ("ConvergenceError", "DomainError", "PrecisionLossError",
               "ResourceLimitError"),
    "series": ("IdentityReport", "IntSeries", "bose_gf", "distinct_restricted_gf",
               "fermi_gf", "geometric_factor", "identities", "one_minus_power",
               "verify_identity"),
    "saddle": ("DosSplit", "PoissonEntropy", "SaddleResult", "ThermoSpec",
               "entropy_poisson_s2", "find_saddle", "log_z", "single_particle_dos_s2"),
    "fluctuation": ("FluctuationReport", "amplitude_ratio", "analyze", "beat_spectrum",
                    "residuals", "smooth_curve"),
}


@pytest.mark.parametrize("module_name", ["saddle", "fluctuation"])
def test_lazy_exports_are_the_home_module_objects(module_name):
    home = importlib.import_module(f"partition_dos.{module_name}")
    assert getattr(pd, module_name) is home
    listed = dir(pd)
    assert module_name in listed
    assert set(vars(pd)) <= set(listed)


def test_exports_are_exactly_the_pinned_names():
    """A name leaves or joins the package only by an edit to EXPORTS, and
    each is its home module's object, the lazy ones included."""
    public = {name for name in dir(pd) if not name.startswith("_")
              and not isinstance(getattr(pd, name), types.ModuleType)}
    assert public == {name for names in EXPORTS.values() for name in names}
    for module_name, names in EXPORTS.items():
        home = importlib.import_module(f"partition_dos.{module_name}")
        for name in names:
            assert getattr(pd, name) is getattr(home, name), name


def test_unknown_package_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(pd, "no_such_name")


def test_readme_quick_start_runs():
    """README's Quick start block, each `# <integer>` comment asserted, in a
    fresh interpreter so its names load through the package's lazy path."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    lines, checked = [], 0
    for line in block.splitlines():
        expected = re.fullmatch(r"(\S.*?)\s+#\s*(-?\d+)\s*", line)
        if expected:
            expr, value = expected.groups()
            line = f"assert ({expr}) == {value}, {expr!r}"
            checked += 1
        lines.append(line)
    assert checked
    done = fresh_python("\n".join(lines))
    assert done.returncode == 0, done.stderr
