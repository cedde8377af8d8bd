"""The sparse Schouten kernel against the retired dense loops of
`evalref`: vector-field brackets and frame residuals on every corpus frame,
Poisson-Jacobi, the linearization and the Poisson bracket of functions on
every table67 bivector, each at its first grid binding."""

import pytest

import evalref
from liebialg.closedfun import ClosedFunction, cf_coord
from liebialg.core import StructureConstants
from liebialg.groupgeom import frame_bracket_residuals
from liebialg.multivec import bracket, jacobiator, lie_derivative, vector
from liebialg.poisson import PoissonBivector, linearization_check, poisson_jacobi_check

ZERO = ClosedFunction.zero()


@pytest.fixture(scope="module")
def frames(reg, bench):
    return [
        (name, b, bench.frame(name, b), bench.sc(name, b))
        for name in sorted(reg.frames)
        for b in reg.grid_bindings(name, cap=1)
    ]


@pytest.fixture(scope="module")
def bivectors(reg, bench):
    return [
        (pe.name, bench.bivector(pe.g, pe.dual, pe.method, b), bench.sc(pe.dual, b))
        for pe in reg.poisson
        for b in reg.grid_bindings(pe.g, pe.dual, cap=1)
    ]


def _dense(v):
    return [v.get(k, ZERO) for k in range(4)]


def test_vector_brackets_match_the_dense_commutator_on_every_frame(frames):
    assert len(frames) == 47
    for name, _, fr, _ in frames:
        fields = [(row, vector(row)) for row in fr.XL + fr.XR]
        for i, (v, sv) in enumerate(fields):
            for w, sw in fields[i + 1:]:
                assert _dense(bracket(sv, sw)) == evalref.vf_commutator(v, w), name


def test_frame_residuals_match_the_dense_loop(frames):
    for name, _, fr, f in frames:
        assert frame_bracket_residuals(fr, f) == evalref.frame_bracket_residuals(fr, f) == [], name
    # against the constants of another algebra every kind of label shows up
    by_name = {name: (fr, f) for name, _, fr, f in frames}
    for name, other in (("A_4_7", "A_4_1"), ("A_4_12", "VII0+R"), ("A_4_1", "A_4_7")):
        fr, f = by_name[name][0], by_name[other][1]
        bad = frame_bracket_residuals(fr, f)
        assert bad and bad == evalref.frame_bracket_residuals(fr, f), (name, other)
    fr, f = by_name["A_4_7"]
    bad = frame_bracket_residuals(fr, StructureConstants(4))
    assert {label[0] for label in bad} == {"LL", "RR"}


def _corrupted(P):
    """P with 2 P^12 + x3^2 for P^12: still zero at e."""
    p12 = P.bracket(1, 2)
    return PoissonBivector({**P.p, (0, 1): p12 + p12 + cf_coord(3, 2)})


def test_jacobi_and_linearization_match_the_dense_loops_on_every_table67_bivector(bivectors):
    assert len(bivectors) == 166
    failing = 0
    for name, P, fd in bivectors:
        assert poisson_jacobi_check(P).residuals == evalref.poisson_jacobi_residuals(P.P) == {}, name
        assert linearization_check(P, fd) is evalref.linearization_matches(P.P, fd) is True, name
        bad = _corrupted(P)
        res = poisson_jacobi_check(bad).residuals
        assert res == evalref.poisson_jacobi_residuals(bad.P), name
        assert list(res) == sorted(res)
        failing += bool(res)
        assert linearization_check(bad, fd) is evalref.linearization_matches(bad.P, fd), name
        zero = StructureConstants(4)
        assert linearization_check(P, zero) is evalref.linearization_matches(P.P, zero), name
    assert failing > 50, failing


def test_poisson_bracket_matches_the_dense_triple_products(bivectors):
    f = cf_coord(1) * cf_coord(2) + cf_coord(3, -1)
    for name, P, _ in bivectors:
        g = P.P[0][2] + cf_coord(4)
        assert evalref.jet_bracket(P, f, g) == evalref.poisson_bracket(P.P, f, g), name
        assert evalref.jet_bracket(P, g, P.P[1][3]) == evalref.poisson_bracket(P.P, g, P.P[1][3]), name


def test_kernel_skips_zero_fields():
    x1 = cf_coord(1)
    assert bracket({}, {}) == {} and lie_derivative({}, {}) == {} and jacobiator({}) == {}
    assert PoissonBivector({(0, 1): ZERO, (2, 3): ZERO}).p == {}
    # [x1 d2, d3] has no component, and L_{x1 d1} (x1 d1 ^ d2) = 0
    assert bracket({1: x1}, {2: cf_coord(1, 0)}) == {}
    assert lie_derivative({0: x1}, {(0, 1): x1}) == {}
