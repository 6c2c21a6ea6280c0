import json
from pathlib import Path

import jsonschema
import pytest

import partition_dos as pd
from partition_dos import cli

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output_schema.json").read_text()
)


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


def test_fluct_ratio_alignment(capsys):
    _, out = run(capsys, ["fluct", "--s", "2", "--distinct", "--max", "60",
                          "--window", "10"])
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    # 60 rows; ratio defined for window centers only.
    assert len(rows) == 60
    blank = [r for r in rows if r[2] == ""]
    filled = [r for r in rows if r[2] != ""]
    assert len(filled) == 60 - 10 + 1
    assert len(blank) == 9
    for r in filled:
        float(r[2])  # a plain number, not a numpy repr such as np.float64(x)
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


def test_exit_codes(capsys):
    assert run(capsys, ["figure", "9"])[0] == 2
    assert cli.main(["exact"]) == 2  # missing required --max
    assert cli.main(["nonsense"]) == 2
    assert run(capsys, ["asym", "--s", "2", "--parts", "5", "--energies", "10"])[0] == 2
    assert run(capsys, ["saddle", "--statistics", "fermi", "--parts", "5",
                        "--energies", "10"])[0] == 2


def test_resource_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("PARTITION_DOS_MAX_N", "100")
    assert run(capsys, ["exact", "--max", "101"])[0] == 3
    monkeypatch.setenv("PARTITION_DOS_MAX_DEGREE", "50")
    assert run(capsys, ["audit", "--degree", "51"])[0] == 3


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
    assert captured.err == "error: level sum at beta=31.25 needs more than 5000000 terms\n"


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
