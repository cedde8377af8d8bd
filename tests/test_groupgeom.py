"""Invariant frames and the adjoint blocks of the double."""

import random
import re
from fractions import Fraction

import pytest

from evalref import cfm_is_zero, derivative_is_by_matrices, double_adjoint_blocks, left_fields_by_adjugate
from liebialg import groupgeom
from liebialg.closedfun import (
    CR_ZERO,
    _sparse,
    cf_matexp,
    cfm_eq,
    cfm_eval,
    cfm_identity,
    cfm_inverse_unitdet,
    cfm_mul,
    cfm_transpose,
    cfm_zeros,
)
from liebialg.core import StructureConstants, build_double
from liebialg.errors import InputError, InvariantError, NonUnitDeterminant
from liebialg.exprtree import parse_expr
from liebialg.render import render_closed_function
from liebialg.groupgeom import (
    GroupChart,
    double_adjoint,
    double_exp_factor,
    frame_bracket_residuals,
    invariant_frame,
)

A41 = StructureConstants.from_brackets(4, {(2, 4): [(1, 1)], (3, 4): [(1, 2)]})


def _cf(text):
    return parse_expr(text).to_closed()


def test_chart_rejects_non_lie_base():
    bad = StructureConstants.from_brackets(4, {(1, 2): [(1, 1)], (2, 3): [(1, 2)]})
    with pytest.raises(InputError):
        GroupChart(bad)


def test_abelian_frame_is_identity():
    fr = invariant_frame(GroupChart(StructureConstants(4)))
    for i in range(4):
        for k in range(4):
            want = _cf("1") if i == k else _cf("0")
            assert fr.XL[i][k] == want
            assert fr.XR[i][k] == want


def test_a41_frame_matches_reference_fields():
    fr = invariant_frame(GroupChart(A41))
    assert fr.XR[3] == [_cf("-x2"), _cf("-x3"), _cf("0"), _cf("1")]
    assert fr.XL[2] == [_cf("x4^2/2"), _cf("-x4"), _cf("1"), _cf("0")]


def test_one_forms_are_identity_at_origin():
    fr = invariant_frame(GroupChart(A41))
    for mat in (fr.Rmat, fr.XL):
        for i in range(4):
            for j in range(4):
                v = mat[i][j].eval_at_zero()
                assert v == (1 if i == j else 0)


def test_frame_bracket_relations_on_sample(reg):
    for name in ("A_4_7", "VII0+R", "A_4_12", "A_4_9_m12.iv"):
        binding = reg.grid_bindings(name, cap=1)[0]
        sc = reg.instantiate(name, binding)
        fr = invariant_frame(GroupChart(sc))
        assert frame_bracket_residuals(fr, sc) == []


def _pairs_to_identity(a, d):
    """Whether a d^T = I, the invariance of the pairing on the double."""
    return cfm_eq(cfm_mul(a, cfm_transpose(d)), cfm_identity(len(a)))


def test_double_adjoint_block_structure(reg):
    # -b a^-1 from `double_adjoint`, a and d from the block accumulation
    f = reg.instantiate("A_4_1")
    fd = reg.instantiate("A_4_1.i")
    frame = invariant_frame(GroupChart(f))
    pi = double_adjoint(frame, f, fd)
    a, _, d = double_adjoint_blocks(frame, fd)
    assert _pairs_to_identity(a, d)
    for i in range(4):
        for j in range(4):
            assert a[i][j].eval_at_zero() == (1 if i == j else 0)
            assert d[i][j].eval_at_zero() == (1 if i == j else 0)
            assert pi[i][j].eval_at_zero() == 0


def test_double_adjoint_with_trivial_dual_is_plain_adjoint(reg):
    f, fd = reg.instantiate("A_4_7"), StructureConstants(4)
    frame = invariant_frame(GroupChart(f))
    assert cfm_is_zero(double_adjoint(frame, f, fd))
    a, b, d = double_adjoint_blocks(frame, fd)
    assert cfm_is_zero(b)
    assert _pairs_to_identity(a, d)


def test_double_adjoint_rejects_incompatible_pair():
    fd = StructureConstants.from_brackets(4, {(3, 4): [(1, 1)]})
    with pytest.raises(InputError):
        double_adjoint(invariant_frame(GroupChart(A41)), A41, fd)


# one pair per kind of spectrum the factors are built on
FACTOR_SAMPLE = (
    ("A_4_7", "A_4_7.i"),  # real
    ("VII0+R", "II+R.xiv"),  # +-i on x3, where the dual acts: trigonometric
    ("A_4_12", "A_4_12.ii"),  # complex and real rates on one coordinate
    ("A_4_1", "A_4_1.i"),  # nilpotent
    ("A_4_2_m1", "A_4_2_m1.i"),  # a Jordan block at a nonzero eigenvalue
    ("A_4_7", None),  # trivial dual
)


@pytest.mark.parametrize("g, dual", FACTOR_SAMPLE)
def test_double_exp_factors_match_matexp_of_double_adjoint(reg, bench, g, dual):
    binding = reg.grid_bindings(g, dual, cap=1)[0] if dual else {}
    f = reg.instantiate(g, binding)
    fd = reg.instantiate(dual, binding) if dual else StructureConstants(4)
    frame = bench.frame(g, binding)
    dbl = build_double(f, fd)
    for i in range(4):
        want = cf_matexp(dbl.sc.adjoint(i), i + 1)
        e, low, et = double_exp_factor(frame, fd, i)
        got = [r + z for r, z in zip(e, cfm_zeros(4, 4))] + [r + t for r, t in zip(low, et)]
        assert cfm_eq(got, want), (g, dual, i)


def _dual_block(fd, i):
    """B[j][k] = -ft^jk_{i+1}, the dual-to-g block of the double's adjoint."""
    return [[-fd.f[j][k][i] for k in range(4)] for j in range(4)]


def test_double_adjoint_matrices_are_block_lower_triangular_on_the_corpus(reg):
    # the layout [[A, 0], [B, -A^T]] that `double_exp_factor` reads off g and
    # its dual, against the double that `build_double` assembles
    checked = 0
    for be in reg.bialgebras:
        for binding in reg.grid_bindings(be.g, be.dual):
            f, fd = reg.instantiate(be.g, binding), reg.instantiate(be.dual, binding)
            dbl = build_double(f, fd)
            for i in range(4):
                a, b = f.adjoint(i), _dual_block(fd, i)
                want = [row + [0] * 4 for row in a]
                want += [b[j] + [-a[k][j] for k in range(4)] for j in range(4)]
                assert dbl.sc.adjoint(i) == want, (be.name, binding, i)
            checked += 1
    assert checked == 321


def test_direct_double_adjoint_names_a_dual_that_fails_jacobi():
    # with g abelian mixed Jacobi holds for any dual, so the failure is the
    # dual's own Jacobi identity, which the double inherits
    non_lie = StructureConstants.from_brackets(4, {(1, 2): [(1, 1)], (2, 3): [(1, 2)]})
    f = StructureConstants(4)
    with pytest.raises(InputError, match="pair fails the double Jacobi identity"):
        double_adjoint(invariant_frame(GroupChart(f)), f, non_lie)


def test_double_adjoint_rejects_foreign_frame(reg):
    f = reg.instantiate("A_4_7")
    with pytest.raises(InputError):
        double_adjoint(invariant_frame(GroupChart(A41)), f, reg.instantiate("A_4_7.i"))


def test_a_block_homomorphism_surrogate(reg):
    # Full points x and -x are NOT mutually inverse on this chart (group
    # inversion reverses the exponential factor order); along a single
    # coordinate axis they are, and determinants always cancel.
    import numpy as np

    rng = random.Random(9)
    f = reg.instantiate("A_4_7")
    a = double_adjoint_blocks(invariant_frame(GroupChart(f)), reg.instantiate("A_4_7.i"))[0]
    for _ in range(10):
        axis = rng.randrange(4)
        t = rng.uniform(-0.9, 0.9)
        p = [0.0] * 4
        p[axis] = t
        q = [0.0] * 4
        q[axis] = -t
        m = np.array(cfm_eval(a, p))
        minv = np.array(cfm_eval(a, q))
        assert np.allclose(m @ minv, np.eye(4), atol=1e-9)
        full = [rng.uniform(-0.8, 0.8) for _ in range(4)]
        d1 = np.linalg.det(np.array(cfm_eval(a, full)))
        d2 = np.linalg.det(np.array(cfm_eval(a, [-x for x in full])))
        assert abs(d1 * d2 - 1.0) < 1e-9


def test_all_corpus_frames_satisfy_bracket_relations(reg, bench):
    names = sorted(reg.frames)
    rng = random.Random(1)
    sample = names[:6] + rng.sample(names, 6)
    for name in set(sample):
        binding = reg.grid_bindings(name, cap=1)[0]
        sc = reg.instantiate(name, binding)
        assert frame_bracket_residuals(bench.frame(name, binding), sc) == []


def test_left_fields_match_the_adjugate_of_the_left_one_forms(reg, bench):
    checked = 0
    for name in sorted(reg.algebras):
        binding = reg.grid_bindings(name, cap=1)[0]
        try:
            frame = bench.frame(name, binding)
        except NonUnitDeterminant:
            continue  # R has no unit determinant, so neither does L
        assert cfm_eq(frame.XL, left_fields_by_adjugate(frame)), name
        checked += 1
    assert checked > 90


def test_dual_block_transpose_is_the_adjugate_inverse(reg, bench):
    pairs = sorted({(e.g, e.dual) for e in reg.bialgebras})
    for g, dual in random.Random(4).sample(pairs, 12):
        binding = reg.grid_bindings(g, dual, cap=1)[0]
        a, _, d = double_adjoint_blocks(bench.frame(g, binding), reg.instantiate(dual, binding))
        assert cfm_eq(cfm_transpose(d), cfm_inverse_unitdet(a)), (g, dual)


def test_derivative_is_agrees_on_every_double_factor_of_the_poisson_rows(reg, bench, monkeypatch):
    # the lower block's check map [B | -A^T] against [E; F], as the factor
    # hands it over, and with B negated, which F solves only when B = 0
    handed = []
    check = groupgeom.derivative_is

    def recorded(x, coord, mc, y):
        handed.append((x, coord, mc, y))
        return check(x, coord, mc, y)

    monkeypatch.setattr(groupgeom, "derivative_is", recorded)
    rows = factors = 0
    for pe in reg.poisson:
        binding = reg.grid_bindings(pe.g, pe.dual, cap=1)[0]
        frame, fd = bench.frame(pe.g, binding), reg.instantiate(pe.dual, binding)
        for i in range(4):
            b = _dual_block(fd, i)
            if not any(map(any, b)):
                continue
            handed.clear()
            e, low, _ = double_exp_factor(frame, fd, i)
            minus_at = [[-x for x in row] for row in zip(*frame.base.adjoint(i))]
            want = _sparse([rb + ra for rb, ra in zip(b, minus_at)])
            assert len(handed) == 1 and handed[0][2] == want, (pe.name, i)
            x, coord, mc, y = handed[0]
            assert x is low and coord == i + 1 and y == e + low
            wrong = {(j, k): -c if k < 4 else c for (j, k), c in mc.items()}
            assert check(x, coord, mc, y) and derivative_is_by_matrices(x, coord, mc, y)
            assert not check(x, coord, wrong, y)
            assert not derivative_is_by_matrices(x, coord, wrong, y)
            factors += 1
        rows += 1
    assert rows == 166 and factors > 166


@pytest.mark.parametrize("side", ["B E", "B^T E"])
def test_corrupted_constant_product_fails_the_lower_block_check(reg, bench, monkeypatch, side):
    # the check's B E, part of the map [B | -A^T] that F' is decided against,
    # and the integrand's E^T B = (B^T E)^T are separate, so a wrong one of
    # either makes F' differ from B E - A^T F
    fd = reg.instantiate("A_4_7.i")
    frame = bench.frame("A_4_7", {})
    check, integrand = groupgeom.derivative_is, groupgeom.cfm_const_mul_sparse
    checked = []
    for i in range(4):
        b = _dual_block(fd, i)
        if not any(map(any, b)):
            continue
        double_exp_factor(frame, fd, i)  # passes with the exact products
        minus_at = [[-x for x in row] for row in zip(*frame.base.adjoint(i))]
        bt = [list(col) for col in zip(*b)]
        seen = []

        def corrupted_check(x, coord, mc, y, _want=_sparse([rb + ra for rb, ra in zip(b, minus_at)])):
            assert mc == _want  # the check's map is [B | -A^T]
            seen.append(mc)
            wrong = dict(mc)
            wrong[0, 0] = wrong.get((0, 0), CR_ZERO) + 1  # B[0][0] off by one
            return check(x, coord, {k: c for k, c in wrong.items() if c}, y)

        def corrupted_integrand(mc, rows, a, _want=_sparse(bt), _coord=i + 1):
            assert mc == _want  # the integrand's map is B^T
            seen.append(mc)
            out = integrand(mc, rows, a)
            out[0][0] = out[0][0] + _cf(f"x{_coord}")
            return out

        with monkeypatch.context() as mp:
            if side == "B E":
                mp.setattr(groupgeom, "derivative_is", corrupted_check)
            else:
                mp.setattr(groupgeom, "cfm_const_mul_sparse", corrupted_integrand)
            with pytest.raises(InvariantError, match="F' = B E - A\\^T F"):
                double_exp_factor(frame, fd, i)
        assert len(seen) == 1
        checked.append(i)
    assert len(checked) >= 2


# R of VII0+R.iii has determinant 1 - q x2 at each grid value of q: a pole of
# the frame at x2 = 1/q, outside the closed class of unit determinants
VII0_R_III_DETERMINANTS = {
    Fraction(-2): "1 + 2*x2",
    Fraction(-1, 2): "1 + 1/2*x2",
    Fraction(1, 3): "1 - 1/3*x2",
    Fraction(2): "1 - 2*x2",
}


def test_the_vii0_r_iii_chart_has_the_determinant_1_minus_q_x2(reg):
    bindings = reg.grid_bindings("VII0+R.iii")
    assert sorted(b["q"] for b in bindings) == sorted(VII0_R_III_DETERMINANTS)
    for b in bindings:
        text = VII0_R_III_DETERMINANTS[b["q"]]
        assert render_closed_function(_cf("1") - _cf("x2").scale(b["q"])) == text
        with pytest.raises(NonUnitDeterminant, match=re.escape(f"determinant {text} is not")):
            invariant_frame(GroupChart(reg.instantiate("VII0+R.iii", b)))
