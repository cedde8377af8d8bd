"""The benchmark's tracer wraps package functions by name: every name it
lists must still resolve in liebialg, or `bench/run.py --trace 1` stops with
an AttributeError."""

import importlib
import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench_run():
    # import without writing byte code next to the benchmark's sources
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, BENCH)
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return module


def _resolve(dotted):
    mod, *attrs = dotted.split(".")
    obj = importlib.import_module(f"liebialg.{mod}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_traced_name_resolves(bench_run):
    names = [f"{mod}.{fn}" for mod, fns in bench_run.SPANNED.items() for fn in fns]
    names += list(bench_run.COUNTED)
    assert len(names) > 30
    for name in names:
        assert callable(_resolve(name)), name
