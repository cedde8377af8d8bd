"""Source-level guards.  The benchmark's tracer wraps package functions by
name: every name it lists must still resolve in liebialg, or
`bench/run.py --trace 1` stops with an AttributeError.  Only `core` writes the
cached forms of a `StructureConstants`.  The frame path inverts one matrix by
adjugate per frame and none per double, which the trace's
`closedfun.cfm_inverse_unitdet.calls` counts.  A frame computes its four
exponentials exp(-x_i Xadj_i) through the sparse core `cf_matexp_sparse`,
each from the map of an adjoint's nonzero CRat entries read off the integer
form of the structure constants: it builds no dense adjoint and converts none
(`closedfun._sparse`), so it never enters the dense adapter
`closedfun.cf_matexp` that the trace spans.  Only `closedfun` builds
term maps or touches the derivative cache of a `ClosedFunction`; only it
tests a zero by identity with the shared CR_ZERO or _ZRATE or calls
`tuple.__new__`, and it adds CRat maps with its own accumulator, not
`ratlinalg._bump`.  One verify pass differentiates each function at most
once per coordinate and never differentiates the zero function.  A verify pass decides every Lie
bialgebra on its two 4-dimensional halves: no 8-dimensional tensor reaches
`jacobi_check`, and no campaign builds the double, whose pairing is
ad-invariant by construction; the mixed identity has one evaluator in the
package.  The derive path does only nonzero work: a 4 x 4 inverse computes
each minor once, the elimination gets each distinct nonzero coboundary
equation once, as a sparse int row, the solve, the membership test and the
classification of an r-matrix reach the one coboundary kernel,
`cfm_mul` multiplies no zero factor, and `double_adjoint` builds no factor
whose dual slice is zero.  The Poisson-Lie check and the Sklyanin bracket
read their transports off 2 x 2 minors of the frame: neither multiplies
closed-function matrices or makes a constant closed function, and only
`pi_bivector` transports by `cfm_mul`.  The frame path multiplies by no identity factor,
the exp(0) of a zero adjoint, and a frame whose adjoints have only 1 x 1
diagonal blocks builds no characteristic polynomial.  An exponential whose
components are all 1 x 1 builds no characteristic polynomial, finds no
spectrum and multiplies no two closed functions, its checks included.  A
frame keeps its prefix products for every dual: `double_adjoint` forms
none, and never forms Ad(g), the product of the exp(x_k Xadj_k).  A frame
builds exp(x_k Xadj_k) and XL only where they are read: a fields derivation
and a Sklyanin bivector reflect no 4 x 4 exponential and check none on a
+ad map, and an adjoint-block bivector forms no XL and builds and checks
exactly the exp(x_k Xadj_k) of its nonzero dual slices B_k, each once.
Only the campaigns' entry enumerations choose the parameter bindings, and
only the binding driver reads an entry's status."""

import ast
import functools
import glob
import importlib
import importlib.util
import os
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

import liebialg
from liebialg import cli, closedfun, core, groupgeom, harness, poisson, ratlinalg, rmatrix
from liebialg.harness import verify_tables

from evalref import blocks, cf_matexp_pm, coboundary_system

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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# {"module.name": "one-line reason"}: top-level definitions that may stay in
# the package with nothing below reaching them
UNREACHED_ALLOWED = {}


def _bound_names(node):
    if isinstance(node, DEFINITIONS):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unreached(sources, roots):
    """The top-level definitions (`def`, `class`, assignment) of `sources`,
    {module: text}, that nothing reaches from the dotted names `roots`, as
    sorted dotted names.  Also roots: every module-level statement that is
    not a definition or an import, every dunder such as `__version__`, and
    every definition handed to one of the package's own decorators, which
    may register it (the campaigns).  A definition, or a method, reaches the
    top-level definition that each `Name` it mentions resolves to: one of
    its own module, or one that a `from .m import n [as a]` line of its
    module brings in, followed through re-exports.  It also reaches every
    top-level definition and method named by an attribute it mentions.
    Matching attributes by name alone over-approximates reach, so code that
    is used is never reported."""
    defs, methods, imports, todo, tops = {}, {}, {}, [], []
    for mod, text in sources.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                imports.update(((mod, a.asname or a.name), (node.module, a.name)) for a in node.names)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = _bound_names(node)
            if not names:
                todo.append((mod, node))
            for name in names:
                dotted = f"{mod}.{name}"
                defs.setdefault(name, {}).setdefault(dotted, []).append(node)
                if dotted in roots or name.startswith("__"):
                    todo.append(dotted)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFINITIONS):
                        methods.setdefault(item.name, []).append((mod, item))
            tops.append((mod, node))
    nodes = {dotted: ns for by_module in defs.values() for dotted, ns in by_module.items()}

    def resolve(mod, name):
        # an import cycle ends the walk after one step per module
        for _ in sources:
            if f"{mod}.{name}" in nodes:
                return [f"{mod}.{name}"]
            if (mod, name) not in imports:
                break
            mod, name = imports[mod, name]
        return []

    for mod, node in tops:
        for dec in getattr(node, "decorator_list", ()):
            called = dec.func if isinstance(dec, ast.Call) else dec
            if isinstance(called, ast.Name) and resolve(mod, called.id):
                todo.append(f"{mod}.{node.name}")
    seen = set()
    while todo:
        unit = todo.pop()
        if isinstance(unit, str):
            key, mod, units = unit, unit.partition(".")[0], nodes[unit]
        else:
            (mod, node), key = unit, id(unit[1])
            units = [node]
        if key in seen:
            continue
        seen.add(key)
        for node in units:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    todo += resolve(mod, sub.id)
                elif isinstance(sub, ast.Attribute):
                    todo += defs.get(sub.attr, {})
                    todo += methods.get(sub.attr, ())
    return sorted(d for d in nodes if d not in seen)


def _package_roots(bench_run):
    roots = {"cli.main"}
    roots |= {f"{getattr(liebialg, n).__module__.rpartition('.')[2]}.{n}" for n in liebialg.__all__}
    # traced by name in bench/run.py until the bench reads a trace that the
    # package writes itself (ROADMAP item 6)
    traced = [f"{mod}.{fn}" for mod, fns in bench_run.SPANNED.items() for fn in fns]
    roots |= {".".join(name.split(".")[:2]) for name in traced + list(bench_run.COUNTED)}
    return roots


def test_every_top_level_definition_is_reached(bench_run):
    # a command, the stated API or the bench's tracer reaches every
    # definition in the package; code that only tests use lives in tests/
    sources = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)[:-3]] = fh.read()
    assert {"cli", "core", "closedfun", "__init__"} <= set(sources)
    found = unreached(sources, _package_roots(bench_run))
    assert [d for d in found if d not in UNREACHED_ALLOWED] == []
    assert all(reason.strip() for reason in UNREACHED_ALLOWED.values())
    assert sorted(UNREACHED_ALLOWED) == found  # no stale entry


def test_the_reachability_guard_flags_a_planted_definition():
    sources = {
        "a": (
            "from . import b\n"
            "from .b import register as enrol\n"
            "def main():\n"
            "    return b.helper(b.Engine().start())\n"
            "@enrol\n"
            "def campaign():\n"
            "    return LIMIT\n"
            "LIMIT = 3\n"
            "__version__ = '1'\n"
        ),
        "b": (
            "REGISTRY = []\n"
            "def register(fn):\n"
            "    REGISTRY.append(fn)\n"
            "    return fn\n"
            "class Engine:\n"
            "    def start(self):\n"
            "        return _started()\n"
            "def _started():\n"
            "    return 1\n"
            "def helper(x):\n"
            "    return x\n"
            "def planted():\n"
            "    return helper(_started())\n"
        ),
    }
    # `helper` and the method `start` are reached through attributes,
    # `_started` through the method, `campaign` through a renamed package
    # decorator and `LIMIT` through `campaign`
    assert unreached(sources, {"a.main"}) == ["b.planted"]
    assert unreached(sources, {"a.main", "b.planted"}) == []
    assert unreached(sources, set()) == ["a.main", "b.Engine", "b._started", "b.helper", "b.planted"]
    # a `Name` reaches what its own module defines or imports under it, not
    # every definition that shares the name: b's `run` and `step` shadow
    # nothing that `a` calls, whether renamed on import or re-exported by `c`
    shadowed = {
        "a": "from .c import run as go, step\ndef main():\n    return go() + step()\n",
        "b": "def run():\n    return 0\ndef step():\n    return 3\n",
        "c": "from .d import step\ndef run():\n    return 1\n",
        "d": "def step():\n    return 2\n",
    }
    assert unreached(shadowed, {"a.main"}) == ["b.run", "b.step"]


def test_readme_python_api_names_all():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    paragraph = section.strip().split("\n\n", 1)[0]
    named = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert len(named) == len(set(named))
    assert set(named) == set(liebialg.__all__)
    assert len(liebialg.__all__) == len(set(liebialg.__all__)) == 23


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


# an identity test against the shared zero or zero rates, or a call of
# `tuple.__new__`, which makes a CRat past its canonical constructor
SHARED_ZERO_IDENTITY = re.compile(
    r"\bis\s+(not\s+)?(CR_ZERO|_ZRATE)\b|\b(CR_ZERO|_ZRATE)\s+is\b"
    r"|\btuple\.__new__\b"
)


def test_only_closedfun_tests_zeros_by_identity():
    # the shared zero is a fast path of the closed-function kernel alone: a
    # zero made elsewhere need not be CR_ZERO, and one accumulator adds CRat
    # maps, on their int triples, so closedfun takes no `_bump` from ratlinalg
    paths = sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True))
    assert os.path.join(PACKAGE, "closedfun.py") in paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if os.path.basename(path) == "closedfun.py":
            assert SHARED_ZERO_IDENTITY.search(text)  # the pattern still names them
            assert not re.search(r"\b_bump\b", text)
        else:
            assert not SHARED_ZERO_IDENTITY.search(text), os.path.relpath(path, ROOT)


def test_no_module_reads_the_dense_bivector_view():
    # `PoissonBivector.P` is built on each read for the bench and the tests;
    # the package reads the sparse map `.p`
    paths = sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True))
    assert os.path.join(PACKAGE, "poisson.py") in paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            assert not re.search(r"\.P\b", fh.read()), os.path.relpath(path, ROOT)


def _is_campaign(node):
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_campaign"
        for d in node.decorator_list
    )


def test_only_campaigns_choose_bindings_and_only_the_driver_reads_a_flag():
    # a check that chose its own bindings, or read its entry's status or
    # note, would step around the one binding policy (the campaigns' entry
    # enumerations) or the one verdict policy (`_each_binding`)
    with open(os.path.join(PACKAGE, "harness.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    binders, readers = set(), set()
    for top in tree.body:
        scope = getattr(top, "name", None)  # None: a module-level statement
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "grid_bindings":
                assert _is_campaign(top), (scope, node.lineno)
                binders.add(scope)
            if isinstance(node, ast.Attribute) and node.attr in ("status", "note"):
                # RunReport tallies the statuses of its results, not of entries
                assert (scope, node.attr) in (
                    ("_each_binding", "status"), ("_each_binding", "note"), ("RunReport", "status")
                ), (scope, node.lineno)
                readers.add(scope)
    # the guard is not vacuous: six campaigns state bindings, the driver reads
    assert binders == {f"verify_table{t}" for t in ("1", "2", "34", "5", "67", "89")}
    assert "_each_binding" in readers


# a ClosedFunction built from a term map, the helpers that fill or derive
# term maps (the CRat accumulator `_acc` among them), the derivative cache,
# or an edit of a `terms` map, through the sparse accumulator `_bump` too
TERM_MAP_ACCESS = re.compile(
    r"\bClosedFunction\(|\b(_mul_into|_derivative|_acc|_set_terms|_set_cache)\b"
    r"|\b_bump\([^,]*\.terms\b"
    r"|\._d\b|\.terms\s*(\[[^\]]*\]\s*)?=[^=]|\.terms\.(update|pop|popitem|clear|setdefault)\("
    r"|\bdel\b[^\n]*\.terms\b"
)


def test_only_closedfun_touches_term_maps_and_the_derivative_cache():
    # a term map edited after construction would leave its cached
    # derivatives stale
    paths = sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True))
    assert os.path.join(PACKAGE, "closedfun.py") in paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        hits = TERM_MAP_ACCESS.findall(text)
        if os.path.basename(path) == "closedfun.py":
            assert hits  # the pattern still names what closedfun does
        else:
            assert not hits, (os.path.relpath(path, ROOT), hits)


def test_a_verify_pass_differentiates_each_function_once(reg, monkeypatch):
    seen, zeros = {}, []
    derive = closedfun._derivative

    def counted(f, idx):
        if not f.terms:
            zeros.append(f)
        key = (id(f), idx)
        assert key not in seen, f"{f!r} differentiated twice in x{idx + 1}"
        seen[key] = f  # holds f, so its id is not reused during the pass
        return derive(f, idx)

    monkeypatch.setattr(closedfun, "_derivative", counted)
    reports = verify_tables(reg, "all")
    assert sum(len(r.results) for r in reports) == 512 + 15
    assert not zeros
    assert len(seen) > 1000


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


def test_four_sparse_exponentials_per_frame(reg, monkeypatch):
    calls = []
    exact = groupgeom.cf_matexp_sparse

    def counted(mc, n, coord):
        calls.append((mc, n, coord))
        return exact(mc, n, coord)

    def dense(*args):
        raise AssertionError("the frame path read or converted a dense adjoint")

    monkeypatch.setattr(groupgeom, "cf_matexp_sparse", counted)
    for attr in ("adjoints", "adjoint"):
        monkeypatch.setattr(core.StructureConstants, attr, dense)
    for attr in ("_sparse", "cf_matexp"):
        monkeypatch.setattr(closedfun, attr, dense)
    for g in ("A_4_7", "VII0+R", "A_4_1", "A_4_12"):
        f = reg.instantiate(g, reg.grid_bindings(g, cap=1)[0])
        groupgeom.invariant_frame(groupgeom.GroupChart(f))
        assert [(n, coord) for _, n, coord in calls] == [(4, 1), (4, 2), (4, 3), (4, 4)], g
        for mc, _, _ in calls:
            assert type(mc) is dict, g
            assert all(type(v) is closedfun.CRat and v for v in mc.values()), g
        assert any(mc for mc, _, _ in calls), g
        calls.clear()


def test_a_verify_pass_builds_no_double(reg, monkeypatch):
    sizes, builders = [], []
    jacobi, build = core.jacobi_check, core.build_double

    def jacobi_counted(sc):
        sizes.append(sc.dim)
        return jacobi(sc)

    def build_counted(f, fd):
        builders.append(sys._getframe(1).f_code.co_name)
        return build(f, fd)

    for name, mod in sorted(sys.modules.items()):
        if name.split(".")[0] == "liebialg":
            for attr, counted in (("jacobi_check", jacobi_counted), ("build_double", build_counted)):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, counted)
    reports = verify_tables(reg, "all")
    assert sum(len(r.results) for r in reports) == 512 + 15
    assert sizes and set(sizes) == {4}
    assert builders == []
    assert not hasattr(core, "_matrix_residual")


def _recording_exponential_builds(monkeypatch):
    """Records the row count of every reflected matrix and the (map,
    coordinate) of every exact exponential check in `closedfun`."""
    reflected, checked = [], []
    reflect, verify = closedfun.cfm_reflect, closedfun._verify_matexp

    def reflect_recorded(a, i):
        reflected.append(len(a))
        return reflect(a, i)

    def verify_recorded(e, mc, coord):
        checked.append((frozenset(mc.items()), coord))
        return verify(e, mc, coord)

    monkeypatch.setattr(closedfun, "cfm_reflect", reflect_recorded)
    monkeypatch.setattr(closedfun, "_verify_matexp", verify_recorded)
    return reflected, checked


def _plus_ad_checks(reg, name, binding):
    """The (map, coordinate) of each nonzero +ad X_i of `name`, the check of
    exp(x_i Xadj_i)."""
    maps = groupgeom.adjoint_maps(reg.instantiate(name, binding))
    return {(frozenset(mc.items()), i + 1) for i, mc in enumerate(maps) if mc}


def test_fields_and_sklyanin_bivectors_build_no_exp_pos(reg, monkeypatch, capsys):
    # only the adjoint-block construction reads exp(x Xadj): a fields
    # derivation and a Sklyanin bivector reflect no 4 x 4 exponential (the
    # only reflections left are of diagonal blocks inside `cf_matexp_sparse`)
    # and run no exact check on a +ad map
    reflected, checked = _recording_exponential_builds(monkeypatch)
    for name in ("A_4_7", "VII0+R", "A_4_1", "A_4_12", "A2+A2"):
        assert cli.main(["derive", "fields", "--algebra", name]) == 0
        assert "XL_1" in capsys.readouterr().out
        assert checked and not set(checked) & _plus_ad_checks(reg, name, {}), name
        assert all(n < 4 for n in reflected), name
        reflected.clear()
        checked.clear()
    rows = [(pe.g, pe.dual) for pe in reg.poisson if pe.method == "sklyanin"]
    assert ("VII0+R", "II+R.xiv") in rows  # a 2 x 2 rotation block
    for g, dual in rows[::4] + [("VII0+R", "II+R.xiv")]:
        b = reg.grid_bindings(g, dual, cap=1)[0]
        harness.Workbench(reg).bivector(g, dual, "sklyanin", b)
        assert checked and not set(checked) & _plus_ad_checks(reg, g, b), (g, dual)
        assert all(n < 4 for n in reflected), (g, dual)
        reflected.clear()
        checked.clear()


def test_pi_bivectors_form_no_left_fields(reg, monkeypatch):
    # XL = P_n XR is read by fields, Sklyanin bivectors and the Poisson-Lie
    # check, not by the adjoint-block construction
    mul = groupgeom.cfm_mul
    right = []

    def recorded(a, b):
        right.append(b)
        return mul(a, b)

    monkeypatch.setattr(groupgeom, "cfm_mul", recorded)
    _, checked = _recording_exponential_builds(monkeypatch)
    rows = [(pe.g, pe.dual) for pe in reg.poisson if pe.method == "pi"]
    assert len(rows) == 81
    skipped = 0
    for g, dual in rows[::4]:
        b = reg.grid_bindings(g, dual, cap=1)[0]
        bench = harness.Workbench(reg)
        bench.bivector(g, dual, "pi", b)
        frame = bench.frame(g, b)
        assert "XL" not in vars(frame), (g, dual)
        assert not any(x is frame.XR for x in right), (g, dual)
        # exactly the factors exp(x_k Xadj_k) of the nonzero dual slices B_k
        # are read, and each one is checked once, on its +ad map
        slices = sorted({k for _, _, k, _ in reg.instantiate(dual, b).nonzero()})
        assert sorted(frame._exp_pos) == slices, (g, dual)
        maps = groupgeom.adjoint_maps(reg.instantiate(g, b))
        want = {(frozenset(maps[k].items()), k + 1) for k in slices if maps[k]}
        plus = _plus_ad_checks(reg, g, b)
        assert Counter(c for c in checked if c in plus) == Counter(want), (g, dual)
        skipped += len(plus) - len(want)
        right.clear()
        checked.clear()
    assert skipped  # some nonzero +ad factor is left unbuilt


def _first_frames(reg, bench, names):
    return [bench.frame(g, reg.grid_bindings(g, cap=1)[0]) for g in names]


FRAME_SAMPLE = ("A_4_7", "VII0+R", "A_4_1", "A_4_12", "A_4_9_m12.iv", "4A_1")


def test_a_4x4_inverse_computes_each_minor_once(reg, bench, monkeypatch):
    computed, sums = [], []
    minor, sum_products = closedfun._minor, closedfun.cf_sum_products

    def minor_counted(a, rows, cols, memo):
        if len(rows) > 1 and (rows, cols) not in memo:
            computed.append((rows, cols))
        return minor(a, rows, cols, memo)

    def sum_counted(products, scaled=()):
        sums.append(1)
        return sum_products(products, scaled)

    def no_det(a):
        raise AssertionError("the inverse expands its determinant through cfm_det")

    monkeypatch.setattr(closedfun, "_minor", minor_counted)
    monkeypatch.setattr(closedfun, "cf_sum_products", sum_counted)
    monkeypatch.setattr(closedfun, "cfm_det", no_det)
    for fr in _first_frames(reg, bench, FRAME_SAMPLE):
        computed.clear()
        sums.clear()
        closedfun.cfm_inverse_unitdet(fr.Rmat)
        assert len(computed) == len(set(computed)) == len(sums)
        assert sum(len(rows) == 3 for rows, _ in computed) == 16  # every cofactor
        assert sum(len(rows) == 4 for rows, _ in computed) == 1  # the determinant


def test_solve_affine_gets_each_nonzero_coboundary_equation_once(reg, monkeypatch):
    # `solve_coboundary` hands its equations to `solve_sparse` as int rows
    # {column: int}
    systems = []
    solve = ratlinalg.solve_sparse

    def recorded(rows, cols):
        rows = list(rows)
        systems.append((rows, cols))
        return solve(rows, cols)

    monkeypatch.setattr(ratlinalg, "solve_sparse", recorded)
    for g, dual in sorted(reg.rmatrices):
        binding = reg.grid_bindings(g, dual, cap=1)[0]
        f, fd = reg.instantiate(g, binding), reg.instantiate(dual, binding)
        rmatrix.solve_coboundary(f, fd)
        rows, cols = systems[-1]
        assert cols == 16
        for row in rows:
            assert type(row) is dict and row, (g, dual)
            assert all(type(x) is int and x for x in row.values()), (g, dual)
        # each distinct nonzero equation of the full system, once
        received = [frozenset(row.items()) for row in rows]
        full = {frozenset((c, x) for c, x in enumerate(eq) if x) for eq in coboundary_system(f, fd)}
        assert len(received) == len(set(received)), (g, dual)
        assert set(received) == full - {frozenset()}, (g, dual)
    assert len(systems) == len(reg.rmatrices)
    assert sum(len(rows) for rows, _ in systems) < 32 * len(systems)


def test_the_r_matrix_checks_reach_the_one_coboundary_kernel(reg, monkeypatch):
    # `rmatrix._ad_terms` states the action Xadj_i^T m + m Xadj_i once: the
    # solve reads its rows off the all-ones m, the membership test sums it
    # on r, and the classification requires it to vanish on r + r^T
    reached = []
    terms = rmatrix._ad_terms

    def recorded(m, f):
        reached.append(dict(m))
        return terms(m, f)

    monkeypatch.setattr(rmatrix, "_ad_terms", recorded)
    e = reg.rmatrices["A_4_1", "A_4_1.iii"]
    f, fd = reg.instantiate("A_4_1"), reg.instantiate("A_4_1.iii")
    # a = b = c = 1: X1(x)X1 + X1(x)X3 + X3(x)X1 - X2(x)X2 and three wedges
    r = e.tensor({p: Fraction(1) for p in e.rfree})
    rmatrix.solve_coboundary(f, fd)
    assert reached == [{(p, b): 1 for p in range(4) for b in range(4)}]
    reached.clear()
    assert rmatrix.generates_cocommutator(r, f, fd)
    assert reached == [ratlinalg._int_map(r.entries.items())[0]]
    reached.clear()
    assert rmatrix.classify_r(r, f).kind == "triangular"
    assert reached == [{(0, 0): 2, (0, 2): 2, (2, 0): 2, (1, 1): -2}]  # r + r^T


def test_cfm_mul_multiplies_no_zero_factor(reg, bench, monkeypatch):
    calls = []
    mul_into = closedfun._mul_into

    def checked(t, f, g, neg=False):
        assert f.terms and g.terms
        calls.append(1)
        return mul_into(t, f, g, neg)

    monkeypatch.setattr(closedfun, "_mul_into", checked)
    for fr in _first_frames(reg, bench, FRAME_SAMPLE):
        for a, b in ((fr.exp_neg[1], fr.exp_neg[0]), (fr.Rmat, fr.XR), (fr.XL, fr.XR)):
            calls.clear()
            closedfun.cfm_mul(a, b)
            pairs = sum(1 for arow in a for x, brow in zip(arow, b) for y in brow if x and y)
            assert len(calls) == pairs


def test_only_pi_bivector_transports_by_cfm_mul(reg, monkeypatch):
    inside, muls, consts = [], [], []
    called = {"multiplicative_check": 0, "sklyanin_bivector": 0, "pi_bivector": 0}

    def entered(name, fn):
        def wrapped(*args):
            called[name] += 1
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapped

    for name in called:
        monkeypatch.setattr(harness, name, entered(name, getattr(poisson, name)))
    mul = closedfun.cfm_mul

    def recorded_mul(a, b):
        muls.append(inside[-1] if inside else None)
        return mul(a, b)

    for mod in (closedfun, groupgeom, poisson):
        monkeypatch.setattr(mod, "cfm_mul", recorded_mul)
    # a frame builds XL = P_n XR on its first read, which may come inside
    # either check: that product is the frame's, not a transport
    left_fields = groupgeom.InvariantFrame.XL.func

    def frame_xl(frame):
        inside.append("XL")
        try:
            return left_fields(frame)
        finally:
            inside.pop()

    lazy = functools.cached_property(frame_xl)
    lazy.__set_name__(groupgeom.InvariantFrame, "XL")
    monkeypatch.setattr(groupgeom.InvariantFrame, "XL", lazy)
    const = closedfun.ClosedFunction.const.__func__

    def recorded_const(cls, c):
        consts.append(inside[-1] if inside else None)
        return const(cls, c)

    monkeypatch.setattr(closedfun.ClosedFunction, "const", classmethod(recorded_const))
    assert verify_tables(reg, "6")[0].ok
    assert called == {"multiplicative_check": 166, "sklyanin_bivector": 85, "pi_bivector": 81}
    # one product pi XR per row; the upper entries of XR^T (pi XR) are sums
    assert muls.count("pi_bivector") == 81
    assert set(muls) <= {None, "pi_bivector", "XL"}
    # one XL product per frame the rows read, none for an abelian g (P_n = I)
    bench = harness.Workbench(reg)
    frames = {}
    for _name, _key, _check, (_bench, pe, (b,)) in harness.verify_table67.entries(reg, bench):
        fr = bench.frame(pe.g, b)
        frames[id(fr)] = fr.prefix[-1] is not None
    assert muls.count("XL") == sum(frames.values()) > 0
    assert not {"multiplicative_check", "sklyanin_bivector"} & set(consts)


def test_double_adjoint_builds_no_factor_of_a_zero_dual_slice(reg, bench, monkeypatch):
    built = []
    exact = groupgeom.double_exp_factor

    def recorded(frame, fd, i):
        built.append(i)
        return exact(frame, fd, i)

    monkeypatch.setattr(groupgeom, "double_exp_factor", recorded)
    seen = set()
    for g, dual in (("A_4_7", "A_4_7.i"), ("VII0+R", "II+R.xiv"), ("A_4_1", "A_4_1.i"),
                    ("A_4_12", "A_4_12.ii"), ("A_4_7", None)):
        binding = reg.grid_bindings(g, dual, cap=1)[0] if dual else {}
        f = reg.instantiate(g, binding)
        fd = reg.instantiate(dual, binding) if dual else core.StructureConstants(4)
        built.clear()
        groupgeom.double_adjoint(bench.frame(g, binding), f, fd)
        nonzero = [k for k in range(4) if any(fd.f[i][j][k] for i in range(4) for j in range(4))]
        assert built == nonzero, (g, dual)
        seen.add(len(nonzero))
    assert 0 in seen and len(seen) > 2


def test_the_frame_path_multiplies_no_identity_factor(reg, monkeypatch):
    mul = groupgeom.cfm_mul
    products, identity = [], []

    def checked(a, b):
        ident = closedfun.cfm_identity(len(a))
        if closedfun.cfm_eq(a, ident) or closedfun.cfm_eq(b, ident):
            identity.append((a, b))
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(groupgeom, "cfm_mul", checked)
    pairs = []
    for g, dual in sorted({(pe.g, pe.dual) for pe in reg.poisson}):
        binding = reg.grid_bindings(g, dual, cap=1)[0]
        pairs.append((reg.instantiate(g, binding), reg.instantiate(dual, binding)))
    # an abelian g with any Lie algebra as its dual is a Lie bialgebra
    pairs.append((reg.instantiate("4A_1"), reg.instantiate("A_4_7")))
    central = []
    for f, fd in pairs:
        frame = groupgeom.invariant_frame(groupgeom.GroupChart(f))
        groupgeom.double_adjoint(frame, f, fd)
        central.append(sum(not any(map(any, a)) for a in f.adjoints()))
    assert identity == []
    assert products and 0 in central and central[-1] == 4
    assert sum(0 < c < 4 for c in central) > 10


def test_double_adjoint_forms_no_prefix_product_and_no_ad_g(reg, monkeypatch):
    # the 11 duals of A_4_3 with no r-matrix row all get adjoint-block
    # bivectors; X_2 is central, so Ad(g) would be E_1 E_3 E_4
    g = "A_4_3"
    duals = sorted(e.dual for e in reg.bialgebras if e.g == g and (g, e.dual) not in reg.rmatrices)
    assert len(duals) == 11
    f = reg.instantiate(g)
    frame = groupgeom.invariant_frame(groupgeom.GroupChart(f))
    assert [not any(map(any, a)) for a in f.adjoints()] == [False, True, False, False]
    mul = groupgeom.cfm_mul
    prefix, ad, products = [], [], []

    def recorded(a, b):
        out = mul(a, b)
        products.append(out)
        if any(a is e for e in frame.exp_neg):  # E_-k P_(k-1)
            prefix.append(out)
        if any(b is e for e in frame.exp_pos) and any(a is x for x in frame.exp_pos + ad):
            ad.append(out)  # E_1 ... E_k
        return out

    monkeypatch.setattr(groupgeom, "cfm_mul", recorded)
    for dual in duals:
        fd = reg.instantiate(dual, reg.grid_bindings(g, dual, cap=1)[0])
        groupgeom.double_adjoint(frame, f, fd)
    assert products  # the guard watches the products that are made
    assert not prefix and not ad


ONE_BY_ONE = ("A_4_2_m1", "A_4_3", "A2+A2")


def test_frames_with_only_1x1_blocks_build_no_characteristic_polynomial(reg, monkeypatch):
    def no_char_poly(m, n):
        raise AssertionError("a characteristic polynomial was built")

    monkeypatch.setattr(closedfun, "_char_poly", no_char_poly)
    for name in ONE_BY_ONE:
        f = reg.instantiate(name, reg.grid_bindings(name, cap=1)[0])
        assert any(a[i][i] for a in f.adjoints() for i in range(4))  # a nonzero eigenvalue
        groupgeom.invariant_frame(groupgeom.GroupChart(f))
    f = reg.instantiate("VII0+R", reg.grid_bindings("VII0+R", cap=1)[0])
    with pytest.raises(AssertionError, match="characteristic polynomial"):
        groupgeom.invariant_frame(groupgeom.GroupChart(f))  # a 2 x 2 rotation block


def test_an_exponential_of_1x1_components_makes_no_polynomial_and_no_product(reg, monkeypatch):
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        return call

    cases = {}
    for name in sorted(reg.algebras):
        for i, m in enumerate(reg.instantiate(name, reg.grid_bindings(name, cap=1)[0]).adjoints()):
            if all(len(b) == 1 for b in blocks(closedfun._sparse(m), 4)):
                cases.setdefault((tuple(map(tuple, m)), i + 1), m)
    # nilpotent ones, and ones with nonzero eigenvalues, some of them equal
    assert any(all(not m[i][i] for i in range(4)) and any(map(any, m)) for m in cases.values())
    assert any(len({m[i][i] for i in range(4) if m[i][i]}) < sum(1 for i in range(4) if m[i][i])
               for m in cases.values())
    for name in ("_char_poly", "_spectrum", "_mul_into"):
        monkeypatch.setattr(closedfun, name, forbidden(name))
    for (_, coord), m in cases.items():
        cf_matexp_pm(m, coord)
    rotation = [[Fraction(0)] * 4 for _ in range(4)]
    rotation[0][1], rotation[1][0] = Fraction(-1), Fraction(1)
    with pytest.raises(AssertionError, match="_char_poly was called"):
        cf_matexp_pm(rotation, 1)
