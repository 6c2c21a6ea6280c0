"""The names the benchmark in perfbench/ looks up in the package, and its
self-test.

The layer tracer patches every function named in layertrace.TRACED, and the
audit oracle expects the identity names in oracle.AUDIT_IDENTITIES.  A renamed
or removed name would otherwise surface only in a traced benchmark run.  The
self-test runs every workload at a smoke size through the benchmark's
oracles, so output they reject, or an excused exception turned into a typed
exit, fails here rather than in a benchmark run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import partition_dos
from partition_dos import cli, fluctuation, saddle, series  # noqa: F401  (traced layers)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """What every package-module attribute and IntSeries.__mul__ point at."""
    out = {(key, attr): id(value)
           for key, mod in list(sys.modules.items())
           if mod is not None and key.split(".")[0] == "partition_dos"
           for attr, value in vars(mod).items()}
    out["IntSeries.__mul__"] = id(series.IntSeries.__mul__)
    return out


def test_traced_names_resolve_and_are_restored():
    layertrace = load("layertrace")
    before = bindings()
    with layertrace.patched(layertrace.Tracer(), partition_dos) as tracer:
        during = bindings()
        list(series.identities(10))
        series.IntSeries([1, 1]) * series.IntSeries([1, -1])  # IntSeries.__mul__ is wrapped
    assert during != before
    assert bindings() == before
    assert {"series.bose_gf", "series.fermi_gf", "series.mul",
            "counting.build_table"} <= {span[0] for span in tracer.spans}


def test_identity_names_match_the_audit_oracle():
    oracle = load("oracle")
    assert [name for name, *_ in series.identities(60)] == oracle.AUDIT_IDENTITIES


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
