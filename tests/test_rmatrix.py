"""Coboundary machinery: solving, Schouten brackets, classification."""

import random
from fractions import Fraction
from itertools import product

import pytest

from evalref import (
    ad_invariant_rank3_dense,
    ad_invariant_symmetric,
    cocommutator_from_r,
    generates_dense,
    rank3_dense,
    rank3_map,
    symmetric_part,
    tensor_of,
    wedge3_dense,
)
from liebialg import corpus as corpus_mod
from liebialg.core import StructureConstants
from liebialg.errors import InputError
from liebialg.rmatrix import (
    TensorElement,
    ad_invariant_rank3,
    classify_r,
    generates_cocommutator,
    is_totally_antisymmetric,
    schouten,
    solve_coboundary,
    wedge3,
)

A41 = StructureConstants.from_brackets(4, {(2, 4): [(1, 1)], (3, 4): [(1, 2)]})
A47 = StructureConstants.from_brackets(
    4, {(1, 4): [(2, 1)], (2, 3): [(1, 1)], (2, 4): [(1, 2)], (3, 4): [(1, 2), (1, 3)]}
)
A47I = StructureConstants.from_brackets(
    4,
    {
        (1, 2): [(Fraction(1, 2), 2), (Fraction(-1, 2), 3)],
        (1, 3): [(Fraction(1, 2), 3)],
        (1, 4): [(1, 4)],
        (2, 3): [(2, 4)],
    },
)
R47 = TensorElement.from_terms([(Fraction(-1, 2), 1, 4, "wedge"), (-1, 2, 3, "wedge")])
ABELIAN = StructureConstants(4)


def test_solution_contains_printed_r():
    sol = solve_coboundary(A47, A47I)
    assert not sol.empty
    assert generates_cocommutator(R47, A47, A47I)
    assert generates_cocommutator(sol.particular, A47, A47I)


def test_abelian_kernel_is_everything():
    sol = solve_coboundary(ABELIAN, ABELIAN)
    assert not sol.empty
    assert len(sol.kernel_basis) == 16


def test_inconsistent_pair_reports_empty():
    fd = StructureConstants.from_brackets(4, {(1, 2): [(1, 3)], (2, 3): [(1, 4)]})
    assert solve_coboundary(A41, fd).empty


def test_kernel_elements_solve_homogeneous_system():
    reg = corpus_mod.load()
    for g, dual in (("A_4_1", "A_4_1.iii"), ("A_4_7", "A_4_7.i"), ("VI0+R", "VI0+R.ix")):
        f = reg.instantiate(g)
        fd = reg.instantiate(dual)
        sol = solve_coboundary(f, fd)
        zero = StructureConstants(4)
        for k in sol.kernel_basis:
            assert generates_cocommutator(k, f, zero)
            assert ad_invariant_symmetric(symmetric_part(k), f)


def test_schouten_zero_on_abelian():
    r = TensorElement.from_terms([(3, 1, 2, "wedge"), (2, 2, 4, "tensor"), (2, 4, 2, "tensor")])
    assert schouten(r.antisymmetric_part(), ABELIAN) == {}


def test_schouten_triangular_worked_row():
    assert schouten(R47, A47) == {}


def test_schouten_quasitriangular_row():
    g = StructureConstants.from_brackets(4, {(1, 2): [(-1, 4)], (1, 4): [(-1, 2)]})
    r = TensorElement.from_terms([(-1, 1, 2, "wedge"), (1, 3, 4, "wedge")])
    s = schouten(r, g)
    assert is_totally_antisymmetric(s)
    assert s == wedge3(1, 2, 4, -1)
    assert ad_invariant_rank3(s, g)


def test_wedge3_is_the_map_of_the_dense_wedge():
    t = wedge3(2, 4, 1, Fraction(-2, 3))
    assert len(t) == 6 and t[(1, 3, 0)] == Fraction(-2, 3) and t[(3, 1, 0)] == Fraction(2, 3)
    assert t == rank3_map(wedge3_dense(2, 4, 1, Fraction(-2, 3)))
    assert is_totally_antisymmetric(t)
    # a repeated index or a zero coefficient is the zero tensor, the empty map
    assert wedge3(1, 1, 2, 3) == wedge3(1, 2, 3, 0) == {}
    assert not is_totally_antisymmetric({(0, 1, 2): 1, (1, 0, 2): -1})


def test_schouten_requires_antisymmetric_input():
    r = TensorElement.from_terms([(1, 1, 1, "tensor")])
    with pytest.raises(InputError):
        schouten(r, A47)


def test_schouten_antisymmetric_whenever_classification_succeeds():
    rng = random.Random(11)
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 4)):
            terms.append(
                (
                    Fraction(rng.randint(-2, 2)),
                    rng.randint(1, 4),
                    rng.randint(1, 4),
                    "wedge",
                )
            )
        r = TensorElement.from_terms(terms)
        cl = classify_r(r, A47)
        if cl.kind in ("triangular", "quasitriangular"):
            assert is_totally_antisymmetric(cl.schouten)


def test_classify_zero_is_triangular():
    cl = classify_r(TensorElement.zero(), A47)
    assert cl.kind == "triangular"


def test_classify_quasitriangular_dual_side(reg):
    # dual side of the modified Yang-Baxter row: base (VI_0+R).v,
    # skew part -X1^X4 + X2^X3 + free (c-d)/2 X2^X4
    f = reg.instantiate("VI0+R.v")
    r = TensorElement.from_terms(
        [(-1, 1, 4, "wedge"), (1, 2, 3, "wedge"), (1, 2, 4, "tensor"), (0, 4, 2, "tensor")]
    )
    cl = classify_r(r, f)
    assert cl.kind == "quasitriangular"
    assert cl.schouten == wedge3(2, 3, 4, 1)


def test_classify_flags_noninvariant_symmetric_part():
    r = TensorElement.from_terms([(1, 2, 2, "tensor")])
    cl = classify_r(r, A47)
    assert cl.kind == "invalid"
    assert not cl.symmetric_invariant


def test_cocommutator_from_r_zero():
    fd = cocommutator_from_r(TensorElement.zero(), A47)
    assert not fd.nonzero()


def test_cocommutator_from_r_worked_row():
    assert cocommutator_from_r(R47, A47) == A47I


def test_cocommutator_from_r_rejects_bad_symmetric_part():
    r = TensorElement.from_terms([(1, 2, 2, "tensor")])
    with pytest.raises(InputError):
        cocommutator_from_r(r, A47)


def test_roundtrip_on_corpus_rows(reg):
    count = 0
    for (g, dual), e in sorted(reg.rmatrices.items()):
        binding = reg.grid_bindings(g, dual, cap=1)[0]
        f = reg.instantiate(g, binding)
        fd = reg.instantiate(dual, binding)
        sol = solve_coboundary(f, fd)
        assert not sol.empty
        assert cocommutator_from_r(sol.particular, f) == fd
        count += 1
    assert count > 90


def test_bi_r_matrix_rows_solve_both_ways(reg):
    pairs = {(g, d) for (g, d) in reg.rmatrices if (d, g) in reg.rmatrices}
    assert pairs
    for (g, d) in sorted(pairs):
        binding = reg.grid_bindings(g, d, cap=1)[0]
        assert not solve_coboundary(
            reg.instantiate(g, binding), reg.instantiate(d, binding)
        ).empty
        assert not solve_coboundary(
            reg.instantiate(d, binding), reg.instantiate(g, binding)
        ).empty


def test_free_parameters_stay_in_solution_set(reg):
    e = reg.rmatrices[("A_4_1", "A_4_1.iii")]
    f = reg.instantiate("A_4_1")
    fd = reg.instantiate("A_4_1.iii")
    for combo in product((Fraction(0), Fraction(1), Fraction(-2)), repeat=len(e.rfree)):
        r = e.tensor(dict(zip(e.rfree, combo)))
        assert generates_cocommutator(r, f, fd)


# --- the integer-scaled checks against brute-force Fraction sums ----------


def _random_algebra(rng):
    """A41, A47 or A47I with one antisymmetric pair of entries moved by a rational
    whose denominator is 2, 3 or 6 (the Jacobi identity may fail)."""
    base = rng.choice((A41, A47, A47I))
    f = [[row[:] for row in p] for p in base.f]
    i, j = rng.sample(range(4), 2)
    k = rng.randrange(4)
    delta = Fraction(rng.choice((-1, 1)), rng.choice((2, 3, 6)))
    f[i][j][k] += delta
    f[j][i][k] -= delta
    return StructureConstants(4, f)


def _random_r(rng, antisymmetric=True):
    r = [[Fraction(0)] * 4 for _ in range(4)]
    for _ in range(rng.randint(1, 5)):
        i, j = rng.randrange(4), rng.randrange(4)
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6)))
        r[i][j] += c
        if antisymmetric:
            r[j][i] -= c
    return tensor_of(r)


def _bruteforce_schouten(r, f):
    """S^abc = f_ik^a r^ib r^kc + f_jk^b r^aj r^kc + f_jl^c r^aj r^bl."""
    ff, rr, n = f.f, r.r, range(4)
    return [
        [
            [
                sum(
                    (
                        ff[i][k][a] * rr[i][b] * rr[k][c]
                        + ff[i][k][b] * rr[a][i] * rr[k][c]
                        + ff[i][k][c] * rr[a][i] * rr[b][k]
                        for i in n
                        for k in n
                    ),
                    Fraction(0),
                )
                for c in n
            ]
            for b in n
        ]
        for a in n
    ]


def test_schouten_matches_bruteforce():
    rng = random.Random(17)
    for _ in range(60):
        f = _random_algebra(rng)
        r = _random_r(rng)
        s = schouten(r, f)
        assert s == rank3_map(_bruteforce_schouten(r, f))
        assert all(type(x) is Fraction and x for x in s.values())
        assert ad_invariant_rank3(s, f) is ad_invariant_rank3_dense(rank3_dense(s), f)


def test_rank3_invariance_matches_bruteforce_on_certificates():
    rng = random.Random(19)
    g = StructureConstants.from_brackets(4, {(1, 2): [(-1, 4)], (1, 4): [(-1, 2)]})
    for _ in range(40):
        t = wedge3(*rng.sample((1, 2, 3, 4), 3), Fraction(rng.randint(1, 3), rng.choice((2, 3, 6))))
        for f in (g, _random_algebra(rng)):
            assert ad_invariant_rank3(t, f) is ad_invariant_rank3_dense(rank3_dense(t), f)
    assert ad_invariant_rank3(wedge3(1, 2, 4, Fraction(-1, 6)), g)


def test_coboundary_and_invariance_checks_match_bruteforce():
    rng = random.Random(23)
    for _ in range(60):
        f = _random_algebra(rng)
        r = _random_r(rng, antisymmetric=rng.random() < 0.5)
        fd = cocommutator_from_r(r, f) if r.is_antisymmetric() else _random_algebra(rng)
        assert generates_cocommutator(r, f, fd) is generates_dense(r, f, fd)
        # the classification's check of the symmetric part
        assert classify_r(r, f).symmetric_invariant is ad_invariant_symmetric(symmetric_part(r), f)
