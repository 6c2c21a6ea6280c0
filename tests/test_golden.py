"""Golden digests: every CLI dataset below is pinned byte for byte.

tests/golden.json maps each argv to the SHA-256 of the stdout that
``cli.main`` writes for it, its exit code and its row count (lines of
stdout, or the rows of a JSON dataset).  A change that moves a dataset fails
here with the argv and the row counts, so "the output is byte-identical" is
a checked fact rather than a claim.

A change that means to move a dataset regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

and names each changed digest, and why it changed, in CHANGES.md.

Float cells are printed with ``repr`` from values that the host's libm (and,
for saddle and fluct, numpy) computes, so another libm may move the last
digit of a float cell; the manifest records the Python version and platform
it was made on.  The exact-integer columns do not depend on either.  Inputs
that fail today (ROADMAP item 3) are kept out of the manifest.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
from pathlib import Path
from unittest import mock

import numpy
import pytest

from partition_dos import cli

MANIFEST = Path(__file__).resolve().parent / "golden.json"

ARGVS = [
    "figure 1",
    "figure 2",
    "figure 3",
    "figure 4",
    "figure 5",
    "figure 6",
    "figure 6 --parts 30",
    "audit --degree 200",
    "compare --s 2 --max 2000",
    "fluct --s 2 --distinct --spectrum --max 4000",
    "saddle --s 2 --statistics fermi --min 100 --max 5000 --step 100",
    "asym --s 1 --parts 20 --min 10 --max 700 --step 10",
    "exact --s 2 --distinct --parts 8 --max 1500",
    "--help",
    "compare --s 1 --distinct --max 300 --format json",
    "exact --s 2 --max 4900",
    "compare --s 1 --max 2200",
    "compare --s 1 --distinct --max 2200",
    "asym --s 0.5 --statistics fermi --min 900 --max 1440 --step 9",
    "figure 6 --parts 40",
    "figure 6 --parts 3",
    "asym --s 1 --parts 25 --statistics fermi --min 2.5 --max 1200 --step 3.7",
    "asym --s 1 --parts 20 --statistics fermi --drop-half-term --min 1 --max 700",
    "exact --distinct --parts 12 --max 3000",
    "audit --degree 560",
    "audit --degree 0",
    "audit --degree 1",
    "audit --degree 256",
    "audit --degree 400 --inject-fault",
    "figure 5 --parts 40",
    "figure 5 --parts 3",
    "asym --s 1 --parts 20 --drop-half-term --min 1 --max 700",
    "asym --s 1 --parts 12 --energies 700,2.5,90",
    "exact --s 2 --distinct --max 15000",
]


def run(argv: str) -> dict:
    """Run cli.main on argv in process; its stdout's digest, exit code and
    row count.  argparse wraps --help to COLUMNS, so that is fixed."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(shlex.split(argv))
    text = out.getvalue()
    try:
        rows = len(json.loads(text)["rows"])
    except ValueError:
        rows = text.count("\n")
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), "exit": code,
            "rows": rows}


def regenerate() -> None:
    """Rewrite tests/golden.json from the current outputs of ARGVS."""
    manifest = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": f"{platform.system()} {platform.machine()} "
                    + " ".join(platform.libc_ver()),
        "cases": {argv: run(argv) for argv in ARGVS},
    }
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")


def load_cases() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))["cases"]


def test_manifest_lists_every_argv():
    assert list(load_cases()) == ARGVS


@pytest.mark.parametrize("argv", ARGVS)
def test_dataset_matches_its_digest(argv):
    want = load_cases()[argv]
    got = run(argv)
    assert got == want, (
        f"`partition-dos {argv}` moved: {got['rows']} rows, exit {got['exit']} "
        f"(golden: {want['rows']} rows, exit {want['exit']})"
    )


if __name__ == "__main__":
    regenerate()
