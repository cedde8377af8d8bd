"""Source-level guards.  The benchmark's tracer wraps package functions by
name: every name it lists must still resolve in liebialg, or
`bench/run.py --trace 1` stops with an AttributeError.  Only `core` writes the
cached forms of a `StructureConstants`.  The frame path inverts one matrix by
adjugate per frame and none per double, which the trace's
`closedfun.cfm_inverse_unitdet.calls` counts.  A frame computes its four
exponentials through the module global `closedfun.cf_matexp`, each from a
dense Fraction matrix, which the trace's `closedfun.cf_matexp4.calls` and
`closedfun.cf_matexp.distinct_ratio` count and key."""

import glob
import importlib
import importlib.util
import os
import sys
from fractions import Fraction

import pytest

from liebialg import closedfun, groupgeom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
PACKAGE = os.path.join(ROOT, "src", "liebialg")


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


def test_only_core_touches_the_cached_forms():
    # a second writer of `_nonzero` could leave the nonzero list and the
    # integer form stale after an edit of `.f`
    paths = sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True))
    assert os.path.join(PACKAGE, "core.py") in paths
    for path in paths:
        if os.path.basename(path) == "core.py":
            continue
        with open(path, encoding="utf-8") as fh:
            assert "._nonzero" not in fh.read(), os.path.relpath(path, ROOT)


def test_one_adjugate_per_frame_and_none_per_double(reg, monkeypatch):
    calls = []
    exact = groupgeom.cfm_inverse_unitdet

    def counted(a):
        calls.append(len(a))
        return exact(a)

    monkeypatch.setattr(groupgeom, "cfm_inverse_unitdet", counted)
    for g, dual in (("A_4_7", "A_4_7.i"), ("VII0+R", "II+R.xiv"), ("A_4_1", "A_4_1.i")):
        binding = reg.grid_bindings(g, dual, cap=1)[0]
        f, fd = reg.instantiate(g, binding), reg.instantiate(dual, binding)
        frame = groupgeom.invariant_frame(groupgeom.GroupChart(f))
        assert calls == [4], g
        groupgeom.double_adjoint(frame, f, fd)
        assert calls == [4], (g, dual)
        calls.clear()


def test_four_dense_exponentials_per_frame(reg, monkeypatch):
    calls = []
    exact = closedfun.cf_matexp

    def counted(m, coord):
        calls.append((m, coord))
        return exact(m, coord)

    monkeypatch.setattr(closedfun, "cf_matexp", counted)
    for g in ("A_4_7", "VII0+R", "A_4_1", "A_4_12"):
        f = reg.instantiate(g, reg.grid_bindings(g, cap=1)[0])
        groupgeom.invariant_frame(groupgeom.GroupChart(f))
        assert [coord for _, coord in calls] == [1, 2, 3, 4], g
        for m, _ in calls:
            assert type(m) is list and len(m) == 4, g
            assert all(type(row) is list and len(row) == 4 for row in m), g
            assert all(type(x) is Fraction for row in m for x in row), g
        calls.clear()
