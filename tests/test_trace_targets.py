"""The benchmark tracer wraps library functions by module and name from the
outside: each one it names must still exist, with the parameters its work
counters read, or a traced run silently loses that metric."""
import importlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from entroscope.cli import OutFile, render_table

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"

# Parameters each counter reads from a call's bound arguments.
COUNTER_PARAMS = {
    "spectral.diagonalize": {"op"},
    "spectral.save_spectrum": {"path"},
    "spectral.load_spectrum": {"path"},
    "cli.render_table": set(),
    "experiments.subsystem_entropies": {"spec", "indices"},
}


@pytest.fixture(scope="module")
def tracing():
    # Executed from its source text, so nothing is written beside it.
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def _resolve(short: str, name: str):
    return getattr(importlib.import_module(f"entroscope.{short}"), name, None)


def test_every_traced_function_exists(tracing):
    missing = [
        f"{short}.{func}"
        for short, funcs in tracing["TARGETS"].items()
        for func in funcs
        if not callable(_resolve(short, func))
    ]
    assert missing == []


def test_every_traced_method_exists(tracing):
    missing = [
        f"{short}.{cls}.{meth}"
        for short, methods in tracing["METHODS"].items()
        for cls, meth in methods
        if not callable(getattr(_resolve(short, cls), meth, None))
    ]
    assert missing == []


def test_every_counter_binds_its_parameters(tracing):
    assert set(tracing["COUNTERS"]) == set(COUNTER_PARAMS)
    for name, wanted in COUNTER_PARAMS.items():
        short, func = name.split(".")
        params = set(inspect.signature(_resolve(short, func)).parameters)
        assert wanted <= params, (name, wanted - params)


def test_render_table_result_has_content():
    out = render_table("t", {"a": [1]}, "csv")
    assert isinstance(out, OutFile)
    assert out.content == "a\n1\n"


def test_traced_repetition_reports_every_layer(tmp_path):
    # One traced sweep-n12 repetition, run as the benchmark runs it: a
    # result without a per-layer metric, or with a NaN one, is malformed.
    work = tmp_path / "work"
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "worker.py"), "--mode", "rep",
         "--workload", "sweep-n12", "--seed", "42", "--work", str(work),
         "--cache", str(tmp_path / "cache"), "--t0", str(time.time()), "--trace"],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        check=True,
        timeout=300,
    )
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    assert result["codes"] and set(result["codes"]) == {0}
    layers = result["layers"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_s"}
    assert sorted(wanted - set(layers)) == []
    json.dumps(layers, allow_nan=False)
    for name in ("spectral.save_spectrum.calls", "spectral.load_spectrum.calls",
                 "cli.obtain_spectrum.calls"):
        assert layers[name] > 0, name
    # About 3.4 if every table experiment recomputed the scan.
    assert layers["experiments.svn_kets_per_eigenket"] < 2


TRACED_PROPERTY_SUITE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import entroscope.cli
import tracing
tracer = tracing.install()
rc = entroscope.cli.main(["property-suite", "--seed", "42", "--out", sys.argv[3]])
print(json.dumps({"rc": rc, "metrics": tracer.metrics()}))
"""


def test_traced_property_suite_counts_every_entropy(tmp_path):
    # desk-cold is the one workload that runs the property suite: its traced
    # run must still see every von_neumann call the checks make.  Each call
    # takes one stack of same-shape states, so seed 42 makes 210 of them:
    # subadditivity 6 bipartitions x 3, measurement and unitary invariance
    # 15 dims x 2, the two infima 15 x 1, complement symmetry 6 x 2, and
    # mixing concavity 45 (dim, k) pairs x 2.
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PROPERTY_SUITE, str(ROOT / "benchmarks"),
         str(ROOT / "src"), str(tmp_path / "out")],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
             "ENTROSCOPE_CACHE_DIR": str(tmp_path / "cache")},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    result = json.loads(proc.stdout)
    assert result["rc"] == 0
    metrics = result["metrics"]
    json.dumps(metrics, allow_nan=False)
    assert metrics["properties.run_property_suite.calls"] == 1
    assert metrics["entropy.von_neumann.calls"] == 210
