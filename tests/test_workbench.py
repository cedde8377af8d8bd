"""The Workbench memos: one computation per distinct input in a verify pass,
none for a request that raised, and the same results as direct calls."""

from fractions import Fraction

import pytest

from liebialg import closedfun, core, groupgeom, harness
from liebialg.closedfun import cfm_eq
from liebialg.errors import InputError, InvariantError
from liebialg.harness import Workbench


def _counted(monkeypatch, owner, attr, record):
    exact = getattr(owner, attr)

    def counted(*args):
        record.append(args)
        return exact(*args)

    monkeypatch.setattr(owner, attr, counted)


def test_a_verify_pass_computes_each_shared_intermediate_once(reg, monkeypatch):
    matexps, solves, mixed, doubles, adjoints = [], [], [], [], []
    _counted(monkeypatch, closedfun, "cf_matexp", matexps)
    _counted(monkeypatch, harness, "solve_coboundary", solves)
    _counted(monkeypatch, harness, "mixed_jacobi_check", mixed)
    _counted(monkeypatch, harness, "build_double", doubles)
    _counted(monkeypatch, harness, "double_adjoint", adjoints)
    runs = harness.verify_tables(reg, "all")
    assert all(rep.ok for rep in runs)

    keys = [(tuple(map(tuple, m)), coord) for m, coord in matexps]
    assert keys and len(keys) == len(set(keys))
    # structure constants compare by value, so equal tensors of two names
    # at one binding would count as one input
    assert solves and len(solves) == len(set(solves))
    assert mixed and len(mixed) == len(set(mixed))
    # one double per table2 binding and one per adjoint-block bivector
    table2 = sum(len(reg.grid_bindings(be.g, be.dual)) for be in reg.bialgebras)
    assert adjoints and len(doubles) <= table2 + len(adjoints)
    # every adjoint-block bivector gets a double the Workbench has checked
    assert all(len(args) == 4 and args[3] is not None for args in adjoints)


def _a47(bench):
    return bench.bivector("A_4_7", "A_4_7.i", "sklyanin", {})


# (owner, attribute, request): the request's memo computes through the
# attribute, and a request that returns counts as a success
MEMOS = {
    "sc": ("reg", "instantiate", lambda b: b.sc("A_4_7", {})),
    "frame": (harness, "invariant_frame", lambda b: b.frame("A_4_7", {})),
    "matexp_pm": (
        harness,
        "cf_matexp_pm",
        lambda b: b.matexp_pm(b.reg.instantiate("A_4_7").adjoint(3), 4),
    ),
    "coboundary": (
        harness, "solve_coboundary", lambda b: b.coboundary("A_4_7", "A_4_7.i", {})
    ),
    "double": (harness, "mixed_jacobi_check", lambda b: b.double("A_4_7", "A_4_7.i", {})[1]),
    "bivector": (harness, "sklyanin_bivector", _a47),
    "jacobi": (harness, "poisson_jacobi_check", lambda b: b.jacobi(_a47(b))),
    "symplectic": (harness, "symplectic_classify", lambda b: b.symplectic(_a47(b))),
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

    monkeypatch.setattr(harness, "mixed_jacobi_check", fails)
    bench = Workbench(reg)
    for _ in range(2):
        assert bench.double("A_4_1", "A_4_1.i", {}) == (None, "mixed Jacobi")
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
        blocks = groupgeom.double_adjoint(direct, f, fd)
        P = harness.pi_bivector(blocks, direct, f)
        assert cfm_eq(bench.bivector(g, dual, "pi", b).P, P.P), (g, dual)


def test_matexp_memo_key_is_the_matrix_value(reg):
    bench = Workbench(reg)
    m = reg.instantiate("A_4_7").adjoint(3)
    e = bench.matexp_pm(m, 4)
    same = [[Fraction(x.numerator, x.denominator) for x in row] for row in m]
    assert bench.matexp_pm(same, 4) is e
    assert bench.matexp_pm(m, 3) is not e
    assert bench.matexp_pm([[2 * x for x in row] for row in m], 4) is not e
