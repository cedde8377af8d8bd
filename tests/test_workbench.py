"""The Workbench memos and the verdicts that values keep: one computation
per distinct input in a verify pass, none for a request that raised, and
the same results as direct calls."""

from fractions import Fraction

import pytest

from liebialg import core, exprtree, groupgeom, harness, poisson, ratlinalg
from liebialg.closedfun import CRat, _sparse, cfm_eq
from liebialg.errors import InputError, InvariantError
from liebialg.harness import Workbench


def _counted(monkeypatch, owner, attr, record):
    exact = getattr(owner, attr)

    def counted(*args, **kwargs):
        record.append(args + tuple(sorted(kwargs.items())))
        return exact(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_a_verify_pass_computes_each_shared_intermediate_once(reg, monkeypatch):
    matexps, solves, mixed, lie, jacobi, doubles, adjoints = [], [], [], [], [], [], []
    _counted(monkeypatch, harness, "cf_matexp_sparse", matexps)
    _counted(monkeypatch, harness, "solve_coboundary", solves)
    _counted(monkeypatch, core, "mixed_jacobi_check", mixed)
    # each Jacobi check, counted in every module that may call it by name
    for attr, owners, record in (
        ("jacobi_check", (core, harness, groupgeom), lie),
        ("poisson_jacobi_check", (poisson, harness), jacobi),
    ):
        exact = getattr(owners[0], attr)
        for owner in owners:
            if getattr(owner, attr, None) is exact:
                _counted(monkeypatch, owner, attr, record)
    _counted(monkeypatch, core, "build_double", doubles)
    _counted(monkeypatch, harness, "double_adjoint", adjoints)
    runs = harness.verify_tables(reg, "all")
    assert all(rep.ok for rep in runs)

    keys = [(frozenset(mc.items()), n, coord) for mc, n, coord in matexps]
    assert keys and len(keys) == len(set(keys))
    # structure constants compare by value, so equal tensors of two names
    # at one binding would count as one input
    assert solves and len(solves) == len(set(solves))
    assert mixed and len(mixed) == len(set(mixed))
    # one Jacobi check per tensor the Workbench holds, and one
    # Poisson-Jacobi check per bivector
    assert len(lie) == len({id(sc) for (sc,) in lie}) == 229
    assert len(jacobi) == len({id(P) for (P,) in jacobi}) == 174
    # no double at all: its pairing is ad-invariant by construction
    assert doubles == [] and not hasattr(harness, "build_double")
    # every adjoint-block bivector is of a pair the Workbench has certified
    assert adjoints and all(args[3:] == (("certified", True),) for args in adjoints)


def test_table67_builds_one_bivector_per_row_by_its_own_method(reg, monkeypatch):
    builds, adjoints = [], []
    _counted(monkeypatch, Workbench, "_build_bivector", builds)
    _counted(monkeypatch, harness, "double_adjoint", adjoints)
    assert harness.verify_tables(reg, "6")[0].ok
    rows = [
        (pe.g, pe.dual, pe.method, harness._bkey(bindings[0]))
        for _name, _key, _check, (_bench, pe, bindings) in harness.verify_table67.entries(
            reg, Workbench(reg)
        )
    ]
    assert [(g, d, m, harness._bkey(b)) for _wb, g, d, m, b in builds] == rows
    assert len(rows) == 166
    assert len(adjoints) == sum(m == "pi" for _g, _d, m, _b in rows) == 81


def test_table34_solves_only_the_systems_it_reads(reg, monkeypatch):
    # the dual direction (dual, g) is solved only where it has a row
    solves = []
    _counted(monkeypatch, harness, "solve_coboundary", solves)
    assert harness.verify_tables(reg, "3")[0].ok
    needed = set()
    for _name, _key, _check, args in harness.verify_table34.entries(reg, Workbench(reg)):
        e, bindings = args[2], args[3]  # the row and the bindings table34 states for it
        for b in bindings:
            needed.add((e.g, e.dual, harness._bkey(b)))
            if (e.dual, e.g) in reg.rmatrices:
                needed.add((e.dual, e.g, harness._bkey(b)))
    assert len(solves) == len(needed) == 127


def _a47(bench):
    return bench.bivector("A_4_7", "A_4_7.i", "sklyanin", {})


# (owner, attribute, request): the request's memo, or the verdict its value
# keeps, computes through the attribute, and a request that returns counts
# as a success
MEMOS = {
    "sc": ("reg", "instantiate", lambda b: b.sc("A_4_7", {})),
    "frame": (harness, "invariant_frame", lambda b: b.frame("A_4_7", {})),
    "matexp": (
        harness,
        "cf_matexp_sparse",
        lambda b: b.matexp(groupgeom.adjoint_maps(b.reg.instantiate("A_4_7"))[3], 4, 4),
    ),
    "coboundary": (
        harness, "solve_coboundary", lambda b: b.coboundary("A_4_7", "A_4_7.i", {})
    ),
    "lie": (core, "jacobi_check", lambda b: b.sc("A_4_7", {}).is_lie()),
    "double": (harness, "bialgebra_failure", lambda b: b.double("A_4_7", "A_4_7.i", {})),
    "bivector": (harness, "sklyanin_bivector", _a47),
    "jacobi": (poisson, "poisson_jacobi_check", lambda b: _a47(b).is_poisson),
    "symplectic": (
        poisson, "poisson_jacobi_check", lambda b: harness.symplectic_classify(_a47(b))
    ),
}


@pytest.mark.parametrize("memo", sorted(MEMOS))
def test_a_memo_that_raised_raises_again(reg, memo, monkeypatch):
    owner, attr, request = MEMOS[memo]
    owner = reg if owner == "reg" else owner
    exact = getattr(owner, attr)
    calls = []

    def flaky(*args):
        calls.append(args)
        if len(calls) <= 2:
            raise InvariantError("planted")
        return exact(*args)

    bench = Workbench(reg)
    monkeypatch.setattr(owner, attr, flaky)
    for n in (1, 2):
        with pytest.raises(InvariantError, match="planted"):
            request(bench)
        assert len(calls) == n  # nothing was cached in between
    first = request(bench)
    assert request(bench) == first
    assert len(calls) == 3  # the success is cached


def test_a_failed_double_verdict_is_kept_and_fails_the_bivector(reg, monkeypatch):
    calls = []

    def fails(f, fd):
        calls.append((f, fd))
        return core.JacobiReport(False, {(1, 2, 3, 4): Fraction(1)})

    monkeypatch.setattr(core, "mixed_jacobi_check", fails)
    bench = Workbench(reg)
    for _ in range(2):
        assert bench.double("A_4_1", "A_4_1.i", {}) == "mixed Jacobi"
    with pytest.raises(InputError, match="pair fails the mixed Jacobi identity"):
        bench.bivector("A_4_1", "A_4_1.i", "pi", {})
    assert len(calls) == 1


def test_memoized_frames_and_bivectors_equal_direct_ones(reg):
    bench = Workbench(reg)
    for g, dual in (("A_4_7", "A_4_7.i"), ("A_4_1", "A_4_1.i"), ("VII0+R", "II+R.xiv")):
        b = reg.grid_bindings(g, dual, cap=1)[0]
        f, fd = reg.instantiate(g, b), reg.instantiate(dual, b)
        direct = groupgeom.invariant_frame(groupgeom.GroupChart(f))
        frame = bench.frame(g, b)
        assert cfm_eq(frame.XL, direct.XL) and cfm_eq(frame.XR, direct.XR), g
        P = harness.pi_bivector(groupgeom.double_adjoint(direct, f, fd), direct)
        assert cfm_eq(bench.bivector(g, dual, "pi", b).P, P.P), (g, dual)


def test_matexp_memo_key_is_the_matrix_value(reg):
    bench = Workbench(reg)
    mc = groupgeom.adjoint_maps(reg.instantiate("A_4_7"))[3]
    e = bench.matexp(mc, 4, 4)
    # a fresh map of equal entries, in another order, and the dense route's
    same = {ij: CRat(c.re, c.im) for ij, c in reversed(mc.items())}
    assert bench.matexp(same, 4, 4) is e
    assert bench.matexp(_sparse(reg.instantiate("A_4_7").adjoint(3)), 4, 4) is e
    assert bench.matexp(mc, 4, 3) is not e
    assert bench.matexp({ij: c * 2 for ij, c in mc.items()}, 4, 4) is not e
    # one exponential per map: a frame's exp(-x Xadj) is the memo's entry for
    # the negated map, and its exp(x Xadj) is no memo entry
    before = len(bench._matexps)
    frame = bench.frame("A_4_7", {})
    neg = {ij: -c for ij, c in mc.items()}
    assert frame.exp_neg[3] is bench.matexp(neg, 4, 4) is not e
    assert frame.exp_pos[3] is not e and frame.exp_pos[3] == e
    assert len(bench._matexps) == before + 4


def test_structure_constants_and_frames_are_keyed_on_the_algebras_own_parameters(reg):
    # A_4_1 has no parameter and its dual A_4_9_0.i has q: the pair's
    # bindings differ in q alone, so they share A_4_1's tensor and frame
    g, dual = "A_4_1", "A_4_9_0.i"
    assert not reg.algebra(g).params and reg.algebra(dual).params == ["q"]
    bindings = reg.grid_bindings(g, dual)
    assert len(bindings) > 1
    bench = Workbench(reg)
    sc, frame = bench.sc(g, bindings[0]), bench.frame(g, bindings[0])
    for b in bindings[1:]:
        assert bench.sc(g, b) is sc and bench.frame(g, b) is frame
    assert len({id(bench.sc(dual, b)) for b in bindings}) == len(bindings)
    assert bench.sc(g, {}) is sc


def test_a_verify_pass_instantiates_each_algebra_once_per_value_of_its_parameters(
    reg, monkeypatch
):
    calls, frames = [], []
    _counted(monkeypatch, reg, "instantiate", calls)
    _counted(monkeypatch, harness, "invariant_frame", frames)
    assert all(rep.ok for rep in harness.verify_tables(reg, "all"))
    # the Workbench passes a binding; integrable instantiates its fixture's
    # symmetry algebra itself, with none
    own = [
        (name, tuple((p, b[0][p]) for p in reg.algebra(name).params))
        for name, *b in calls
        if b
    ]
    assert own and len(own) == len(set(own))
    # one frame per tensor: each frame's structure constants are built once
    bases = [chart.base for (chart, _matexp) in frames]
    assert bases and len({id(f) for f in bases}) == len(bases)


def test_table34_builds_no_dense_r(reg, monkeypatch):
    # each printed r is its sparse map from the text on: no dense 4 x 4
    # matrix on the way to the checks
    dense = []
    _counted(monkeypatch, ratlinalg, "zeros", dense)
    assert harness.verify_tables(reg, "3-4")[0].ok
    assert dense == []


def test_tables_5_to_7_rebuild_no_expression_tree(reg, monkeypatch):
    # printed frame fields and brackets are converted in one walk of their
    # parsed trees, reading each parameter from the binding
    built = []
    _counted(monkeypatch, exprtree.Expr, "__init__", built)
    assert all(rep.ok for rep in harness.verify_tables(reg, "5-7"))
    assert built == []
