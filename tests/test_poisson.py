"""Bivector construction, verification, and symplectic classification."""

from fractions import Fraction

import pytest

from liebialg.closedfun import ClosedFunction, cfm_eq
from liebialg.core import StructureConstants
from liebialg.exprtree import parse_expr
from liebialg.groupgeom import GroupChart, double_adjoint, invariant_frame
from liebialg.poisson import (
    PoissonBivector,
    linearization_check,
    pi_bivector,
    poisson_jacobi_check,
    sklyanin_bivector,
    symplectic_classify,
)
from liebialg.rmatrix import TensorElement, solve_coboundary


def _cf(text):
    return parse_expr(text).to_closed()


@pytest.fixture(scope="module")
def a47_setup(reg):
    f = reg.instantiate("A_4_7")
    fd = reg.instantiate("A_4_7.i")
    fr = invariant_frame(GroupChart(f))
    r = TensorElement.from_terms(
        [(Fraction(-1, 2), 1, 4, "wedge"), (-1, 2, 3, "wedge")]
    )
    return f, fd, fr, r


def test_sklyanin_zero_r_gives_zero(a47_setup):
    f, fd, fr, _ = a47_setup
    P = sklyanin_bivector(fr, TensorElement.zero(), f)
    assert all(x.is_zero() for row in P.P for x in row)


def test_sklyanin_a47_brackets(a47_setup):
    f, fd, fr, r = a47_setup
    P = sklyanin_bivector(fr, r, f)
    assert P.bracket(1, 4) == _cf("(1 - exp(-2*x4))/2")
    assert P.bracket(2, 3) == _cf("1 - exp(-2*x4)")
    assert P.bracket(1, 2) == _cf("(x2 - x3)/2")
    assert P.bracket(1, 3) == _cf("-x3/2 + exp(-2*x4)*x3")


def test_sklyanin_phase_space_example(reg, bench):
    P = bench.bivector("A_4_9_m12", "A_4_9_1.ii", "sklyanin", {})
    assert P.bracket(1, 2) == _cf("-2*x2^2")
    assert P.bracket(3, 4) == _cf("-2 + 2*exp(x4/2)")


def test_pi_zero_dual_gives_zero(reg):
    f = reg.instantiate("A_4_7")
    fr = invariant_frame(GroupChart(f))
    blocks = double_adjoint(fr, f, StructureConstants(4))
    P = pi_bivector(blocks, fr, f)
    assert all(x.is_zero() for row in P.P for x in row)


def test_pi_a41_brackets(reg, bench):
    P = bench.bivector("A_4_1", "A_4_1.i", "pi", {})
    assert P.bracket(1, 2) == _cf("x3 + x4^3/6")
    assert P.bracket(1, 3) == _cf("-x4^2/2")
    assert P.bracket(2, 3) == _cf("x4")


def test_pi_a43_brackets(reg, bench):
    P = bench.bivector("A_4_3", "A2+A2.i", "pi", {})
    assert P.bracket(1, 3) == _cf("x1")
    assert P.bracket(2, 4) == _cf("x4")


def test_method_agreement_on_coboundary_rows(reg, bench):
    for g, dual in (("A_4_7", "A_4_7.i"), ("A_4_12", "A_4_12.ii"), ("A2+A2", "A2+A2.v")):
        binding = reg.grid_bindings(g, dual, cap=1)[0]
        P1 = bench.bivector(g, dual, "sklyanin", binding)
        P2 = bench.bivector(g, dual, "pi", binding)
        assert cfm_eq(P1.P, P2.P)


def test_jacobi_passes_on_derived(a47_setup):
    f, fd, fr, r = a47_setup
    P = sklyanin_bivector(fr, r, f)
    assert poisson_jacobi_check(P).passed


def test_jacobi_detects_corruption(a47_setup):
    f, fd, fr, r = a47_setup
    P = sklyanin_bivector(fr, r, f)
    mat = [row[:] for row in P.P]
    mat[0][1] = -mat[0][1]
    mat[1][0] = -mat[1][0]
    corrupted = PoissonBivector(mat, f, "corrupted")
    rep = poisson_jacobi_check(corrupted)
    assert not rep.passed
    assert (1, 2, 3) in rep.residuals
    cl = symplectic_classify(corrupted)
    assert cl.symplectic
    assert cl.closed_ok is False


def test_linearization_worked_values(a47_setup):
    f, fd, fr, r = a47_setup
    P = sklyanin_bivector(fr, r, f)
    assert linearization_check(P, fd)
    v = P.bracket(1, 2).diff(2).eval_at_zero()
    assert v.re == Fraction(1, 2) and not v.im


def test_linearization_full_tensor_comparison(reg, bench):
    P = bench.bivector("A_4_1", "A_4_1.i", "pi", {})
    fd = reg.instantiate("A_4_1.i")
    assert linearization_check(P, fd)
    wrong = reg.instantiate("A_4_1.ii")
    assert not linearization_check(P, wrong)


def test_zero_bivector_properties(reg):
    f = reg.instantiate("A_4_7")
    zero = PoissonBivector(
        [[ClosedFunction.zero()] * 4 for _ in range(4)], f, "zero"
    )
    assert poisson_jacobi_check(zero).passed
    assert linearization_check(zero, StructureConstants(4))
    cl = symplectic_classify(zero)
    assert not cl.symplectic
    assert cl.max_rank == 0


def test_symplectic_worked_pairs(reg, bench):
    P = bench.bivector("A_4_7", "A_4_7.i", "sklyanin", {})
    cl = symplectic_classify(P)
    assert cl.symplectic
    assert cl.closed_ok
    P2 = bench.bivector_any("A_4_1", "A_4_9_0.i", reg.grid_bindings("A_4_1", "A_4_9_0.i", cap=1)[0])
    assert symplectic_classify(P2).symplectic


def test_symplectic_classify_reads_a_known_jacobi_verdict(reg, bench):
    asked = []

    def verdict():
        asked.append(1)
        return False

    P = bench.bivector("A_4_7", "A_4_7.i", "sklyanin", {})
    cl = symplectic_classify(P, verdict)
    assert (cl.symplectic, cl.closed_ok, asked) == (True, False, [1])
    # a degenerate bivector needs no verdict
    P = bench.bivector("A_4_1", "A_4_1.i", "pi", {})
    assert symplectic_classify(P, verdict).max_rank == 2
    assert asked == [1]


def test_degenerate_pair_reports_rank(reg, bench):
    P = bench.bivector("A_4_1", "A_4_1.i", "pi", {})
    cl = symplectic_classify(P)
    assert not cl.symplectic
    assert cl.max_rank == 2


def test_bivector_constructor_enforces_antisymmetry(reg):
    f = reg.instantiate("A_4_7")
    mat = [[ClosedFunction.zero()] * 4 for _ in range(4)]
    mat[0][1] = _cf("x3")
    from liebialg.errors import InputError

    with pytest.raises(InputError):
        PoissonBivector(mat, f, "bad")


def test_bivector_constructor_enforces_vanishing_at_origin(reg):
    f = reg.instantiate("A_4_7")
    mat = [[ClosedFunction.zero()] * 4 for _ in range(4)]
    mat[0][1] = _cf("1 + x3")
    mat[1][0] = _cf("-1 - x3")
    from liebialg.errors import InputError

    with pytest.raises(InputError):
        PoissonBivector(mat, f, "bad")


def test_rank_reported_for_every_bracket_table_row(reg, bench):
    from liebialg.harness import verify_table67

    rep = verify_table67(reg, bench)
    assert all("rank" in r.detail for r in rep.results if r.status != "fail")
    t8 = set(reg.memberships["table8"].pairs)
    t9 = set(reg.memberships["table9"].pairs)
    covered = t8 | t9 | {(d, g) for (g, d) in t8}
    for r, pe in zip(rep.results, reg.poisson):
        if "rank 4" in r.detail:
            assert (pe.g, pe.dual) in covered
