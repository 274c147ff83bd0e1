"""The benchmark tracer wraps library functions by module and name from the
outside: each one it names must still exist, with the parameters its work
counters read, or a traced run silently loses that metric."""
import importlib
import inspect
from pathlib import Path

import pytest

from entroscope.cli import OutFile, render_table

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

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
    out = render_table("t", ["a"], [(1,)], "csv")
    assert isinstance(out, OutFile)
    assert out.content == "a\n1\n"
