"""Witness verification and the exact inequivalence invariants."""

import random
from fractions import Fraction

import pytest

import liebialg.ratlinalg as rl
from evalref import cocommutator, inverse
from liebialg.core import StructureConstants
from liebialg.equivalence import (
    invariants,
    verify_automorphism,
    verify_bialgebra_equivalence,
    verify_isomorphism,
)
from liebialg.errors import InputError

A41 = StructureConstants.from_brackets(4, {(2, 4): [(1, 1)], (3, 4): [(1, 2)]})
IIR = StructureConstants.from_brackets(4, {(2, 3): [(1, 1)]})
# the worked-example dual solution at beta = gamma = 1 equals (II+R).i
SOLUTION = StructureConstants.from_brackets(4, {(1, 2): [(1, 3), (1, 4)]})


def _rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_identity_isomorphism():
    assert verify_isomorphism(rl.identity(4), IIR, IIR)


def test_worked_isomorphism_witness(reg):
    fx = reg.fixtures["iso_a41_dual"]
    c = [[x.eval_exact() for x in row] for row in fx.matrices["C"]]
    src = reg.instantiate(fx.refs["src"])
    dst = reg.instantiate(fx.refs["dst"])
    assert verify_isomorphism(c, src, dst)
    cinv = inverse(c)
    assert verify_isomorphism(cinv, dst, src)


def test_isomorphism_scaling_counterexample():
    # rescaling the last dual generator alone is not a self-isomorphism of
    # [X1,X2] = X4; it identifies the doubled-constant presentation instead
    src = StructureConstants.from_brackets(4, {(1, 2): [(1, 4)]})
    doubled = StructureConstants.from_brackets(4, {(1, 2): [(2, 4)]})
    c = _rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    assert not verify_isomorphism(c, src, src)
    assert verify_isomorphism(c, doubled, src)


def test_singular_witness_rejected():
    c = rl.zeros(4, 4)
    with pytest.raises(InputError):
        verify_isomorphism(c, IIR, IIR)


def test_identity_automorphism_any_algebra(reg):
    ident = rl.identity(4)
    for name in ("A_4_1", "A_4_7", "VII0+R"):
        assert verify_automorphism(ident, reg.instantiate(name))


def test_worked_automorphism_family_member(reg):
    fx = reg.fixtures["auto_a41"]
    a = [[x.eval_exact() for x in row] for row in fx.matrices["A"]]
    assert verify_automorphism(a, A41)
    ident = [[x.eval_exact() for x in row] for row in fx.matrices["A_identity"]]
    assert verify_automorphism(ident, A41)


def test_scaling_x1_alone_is_not_an_automorphism():
    a = _rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not verify_automorphism(a, A41)


def _a41_automorphism(rng):
    a22 = Fraction(rng.randint(1, 3))
    a44 = Fraction(rng.choice([1, 2]))
    a32 = Fraction(rng.randint(-2, 2))
    a31 = Fraction(rng.randint(-2, 2))
    a41 = Fraction(rng.randint(-2, 2))
    a42 = Fraction(rng.randint(-2, 2))
    a43 = Fraction(rng.randint(-2, 2))
    return [
        [a22 * a44, Fraction(0), Fraction(0), Fraction(0)],
        [a32 * a44, a22, Fraction(0), Fraction(0)],
        [a31, a32, a22 / a44, Fraction(0)],
        [a41, a42, a43, a44],
    ]


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def test_automorphisms_closed_under_product_and_inverse():
    rng = random.Random(13)
    for _ in range(20):
        a = _a41_automorphism(rng)
        b = _a41_automorphism(rng)
        assert verify_automorphism(a, A41)
        assert verify_automorphism(b, A41)
        assert verify_automorphism(_mat_mul(a, b), A41)
        assert verify_automorphism(inverse(a), A41)


def test_identity_bialgebra_equivalence():
    t = rl.identity(4)
    assert verify_bialgebra_equivalence(t, A41, SOLUTION, SOLUTION)


def test_worked_scaling_equivalence(reg):
    fx = reg.fixtures["equiv_a41_q"]
    t = [[x.eval_exact() for x in row] for row in fx.matrices["T"]]
    qalt = fx.vals["qalt"].eval_exact()
    fd_q = StructureConstants.from_brackets(4, {(1, 2): [(qalt, 3), (qalt, 4)]})
    assert verify_bialgebra_equivalence(t, A41, fd_q, SOLUTION)


def test_equivalence_relates_cocommutators():
    # T maps fd1 to fd2, so the cocommutator tensors match after the change
    # of dual basis: T^i_k T^j_l d1[m][k][l] = d2[n][i][j] T^n_m.
    fx_t = [
        [Fraction(1, 2), 0, 0, 0],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, Fraction(1, 2), Fraction(-1, 2)],
        [0, 0, 0, Fraction(1)],
    ]
    fd1 = StructureConstants.from_brackets(4, {(1, 2): [(2, 3), (2, 4)]})
    fd2 = SOLUTION
    t = [[Fraction(x) for x in row] for row in fx_t]
    assert verify_bialgebra_equivalence(t, A41, fd1, fd2)
    d1 = cocommutator(fd1)
    d2 = cocommutator(fd2)
    for i in range(4):
        for j in range(4):
            for m in range(4):
                lhs = sum(
                    t[i][k] * t[j][l] * d1.d[m][k][l]
                    for k in range(4)
                    for l in range(4)
                )
                rhs = sum(d2.d[n][i][j] * t[n][m] for n in range(4))
                assert lhs == rhs


def _image(t, fd):
    """The dual bracket that T carries fd onto: T^i_k T^j_l fd^kl_m (T^-1)^m_n."""
    tinv = inverse(t)
    brackets = {}
    for i in range(4):
        for j in range(i + 1, 4):
            w = [Fraction(0)] * 4
            for k, l, m, v in fd.nonzero():
                w[m] += t[i][k] * t[j][l] * v
            terms = [(x, n + 1) for n, x in enumerate(_mat_mul([w], tinv)[0]) if x]
            if terms:
                brackets[(i + 1, j + 1)] = terms
    return StructureConstants.from_brackets(4, brackets)


FD_II = StructureConstants.from_brackets(4, {(1, 2): [(1, 4)]})
FD_IV = StructureConstants.from_brackets(4, {(1, 3): [(1, 4)]})


def test_invariants_refute_distinct_classes():
    # ann([g,g]) = span(X~3, X~4): [g*, ann] is 0 under (ii) and span(X~4)
    # under (iv), so no equivalence relates the two
    assert invariants(A41, FD_II) != invariants(A41, FD_IV)


# printed Table 2 classes of one g that each part of the invariants alone
# separates: the g-side half, the dual-side half ([g*,g*]), [g,[g,g]] and
# the centre
@pytest.mark.parametrize(
    "g, dual1, dual2",
    [
        ("A_4_1", "A_4_1.i", "A_4_1.iii"),
        ("A_4_1", "II+R.i", "II+R.ii"),
        ("A_4_3", "II+R.vi", "II+R.iv"),
        ("A_4_3", "II+R.iii", "II+R.vi"),
    ],
)
def test_invariants_separate_printed_classes(reg, g, dual1, dual2):
    f = reg.instantiate(g)
    assert invariants(f, reg.instantiate(dual1)) != invariants(f, reg.instantiate(dual2))


def test_invariants_agree_under_a41_automorphisms(reg):
    duals = [FD_II, FD_IV, SOLUTION] + [
        reg.instantiate(e.dual, reg.grid_bindings("A_4_1", e.dual, cap=1)[0])
        for e in reg.bialgebras
        if e.g == "A_4_1"
    ]
    rng = random.Random(7)
    for _ in range(6):
        t = rl.transpose(_a41_automorphism(rng))
        for fd in duals:
            image = _image(t, fd)
            assert verify_bialgebra_equivalence(t, A41, fd, image)
            assert invariants(A41, image) == invariants(A41, fd)


def test_invariants_agree_on_witnessed_pair(reg):
    fx = reg.fixtures["equiv_a41_q"]
    f = reg.instantiate(fx.refs["algebra"])
    qalt = fx.vals["qalt"].eval_exact()
    fd_q = StructureConstants.from_brackets(4, {(1, 2): [(qalt, 3), (qalt, 4)]})
    assert invariants(f, fd_q) == invariants(f, reg.instantiate(fx.refs["dual"]))
