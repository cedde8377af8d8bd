"""Exact-core checks: Jacobi identities, doubles, cocommutators, two-forms."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from evalref import (
    ce_differential,
    cocommutator,
    mixed_matrix_dense,
    mixed_matrix_residual,
    two_form,
    two_form_det,
)
from liebialg.core import (
    StructureConstants,
    bialgebra_failure,
    build_double,
    closed_two_forms,
    find_symplectic,
    jacobi_check,
    mixed_jacobi_check,
    pairing_ad_invariant,
)
from liebialg.errors import InputError

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
ABELIAN = StructureConstants(4)


def test_jacobi_abelian_passes():
    assert jacobi_check(ABELIAN).passed


def test_jacobi_a41_passes():
    assert jacobi_check(A41).passed


def test_jacobi_failure_locates_residual():
    bad = StructureConstants.from_brackets(4, {(1, 2): [(1, 1)], (2, 3): [(1, 2)]})
    rep = jacobi_check(bad)
    assert not rep.passed
    assert any(key[:3] == (1, 2, 3) for key in rep.residual)


def test_jacobi_residual_antisymmetric_in_first_pair():
    bad = StructureConstants.from_brackets(
        4, {(1, 2): [(1, 1)], (2, 3): [(1, 2)], (1, 4): [(2, 3)]}
    )
    rep = jacobi_check(bad)
    for (i, j, m, n), v in rep.residual.items():
        assert rep.residual.get((j, i, m, n), Fraction(0)) == -v


def test_jacobi_rejects_nonantisymmetric_input():
    sc = StructureConstants(4)
    sc.f[0][1][0] = Fraction(1)
    with pytest.raises(InputError):
        jacobi_check(sc)


def test_mixed_jacobi_trivial_dual():
    assert mixed_jacobi_check(A41, ABELIAN).passed


def test_mixed_jacobi_worked_pair():
    fd = StructureConstants.from_brackets(4, {(1, 2): [(1, 3), (1, 4)]})
    assert mixed_jacobi_check(A41, fd).passed


def test_mixed_jacobi_failure_residual_location():
    fd = StructureConstants.from_brackets(4, {(3, 4): [(1, 1)]})
    rep = mixed_jacobi_check(A41, fd)
    assert not rep.passed
    assert rep.residual[(3, 4, 2, 4)] == 1


def test_mixed_jacobi_dimension_mismatch():
    with pytest.raises(InputError):
        mixed_jacobi_check(A41, StructureConstants(8))


def test_build_double_abelian():
    dbl = build_double(ABELIAN, ABELIAN)
    assert not dbl.sc.nonzero()
    assert jacobi_check(dbl.sc).passed


def test_build_double_a47_passes_jacobi():
    dbl = build_double(A47, A47I)
    assert jacobi_check(dbl.sc).passed
    assert pairing_ad_invariant(dbl)


def test_build_double_fails_for_incompatible_pair():
    fd = StructureConstants.from_brackets(4, {(3, 4): [(1, 1)]})
    assert not mixed_jacobi_check(A41, fd).passed
    assert not jacobi_check(build_double(A41, fd).sc).passed


def _random_perturbations():
    """100 seeded draws of (A41, ...) or (A47, A47I) with one antisymmetric
    pair of entries of the algebra or of the dual moved by an int in
    [-2, 2]; a draw with i == j yields nothing."""
    rng = random.Random(7)
    base_pairs = [(A41, StructureConstants.from_brackets(4, {(1, 2): [(1, 3), (1, 4)]})),
                  (A47, A47I)]
    for _ in range(100):
        f0, fd0 = base_pairs[rng.randrange(len(base_pairs))]
        f = StructureConstants(4, [[row[:] for row in p] for p in f0.f])
        fd = StructureConstants(4, [[row[:] for row in p] for p in fd0.f])
        target = f if rng.random() < 0.5 else fd
        i, j = rng.randrange(4), rng.randrange(4)
        if i == j:
            continue
        k = rng.randrange(4)
        delta = Fraction(rng.randint(-2, 2))
        target.f[i][j][k] += delta
        target.f[j][i][k] -= delta
        target._nonzero = None
        yield f, fd


def test_double_jacobi_iff_parts_pass_random_perturbations():
    checked = 0
    for f, fd in _random_perturbations():
        parts_ok = (
            jacobi_check(f).passed
            and jacobi_check(fd).passed
            and mixed_jacobi_check(f, fd).passed
        )
        dbl_ok = jacobi_check(build_double(f, fd).sc).passed
        assert parts_ok == dbl_ok
        checked += 1
    assert checked > 60


def test_bialgebra_failure_names_the_first_identity_the_double_fails():
    # with one side abelian mixed Jacobi holds, so only the other side's
    # Jacobi identity can fail
    non_lie = StructureConstants.from_brackets(4, {(1, 2): [(1, 1)], (2, 3): [(1, 2)]})
    labels = []
    for f, fd in [*_random_perturbations(), (ABELIAN, non_lie), (non_lie, ABELIAN)]:
        failed = bialgebra_failure(f, fd)
        if not mixed_jacobi_check(f, fd).passed:
            assert failed == "mixed Jacobi"
        else:
            assert failed == (None if jacobi_check(build_double(f, fd).sc).passed
                              else "double Jacobi")
        # the halves keep their Jacobi verdicts, and the label reads them
        assert [sc.is_lie() for sc in (f, fd)] == [jacobi_check(sc).passed for sc in (f, fd)]
        assert bialgebra_failure(f, fd) == failed
        labels.append(failed)
    assert {None, "mixed Jacobi", "double Jacobi"} <= set(labels)


def test_the_pairing_is_ad_invariant_on_every_table2_double(reg, bench):
    bindings = 0
    for be in reg.bialgebras:
        for b in reg.grid_bindings(be.g, be.dual):
            dbl = build_double(bench.sc(be.g, b), bench.sc(be.dual, b))
            assert pairing_ad_invariant(dbl), (be.name, b)
            bindings += 1
    assert bindings == 321


def test_the_pairing_is_ad_invariant_on_drawn_pairs_lie_or_not():
    # the mixed bracket of `build_double` is the coadjoint one, so the
    # canonical pairing is invariant whether or not the pair is a Lie
    # bialgebra; table 2 relies on this and checks no double
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    brackets = st.dictionaries(
        st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda p: p[0] < p[1]),
        st.lists(st.tuples(st.fractions(-2, 2, max_denominator=2), st.integers(1, 4)), max_size=2),
        max_size=4,
    ).map(lambda b: StructureConstants.from_brackets(4, b))
    non_lie = StructureConstants.from_brackets(4, {(1, 2): [(1, 1)], (2, 3): [(1, 2)]})
    lie = []

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(brackets, brackets)
    @hyp.example(A47, A47I)
    @hyp.example(non_lie, ABELIAN)
    def check(f, fd):
        assert pairing_ad_invariant(build_double(f, fd))
        lie.append(bialgebra_failure(f, fd) is None)

    check()
    assert True in lie and False in lie


def test_cocommutator_components_and_roundtrip():
    fd = StructureConstants.from_brackets(
        4,
        {
            (1, 2): [(2, 1)],
            (1, 4): [(1, 3)],
            (2, 3): [(-1, 3)],
            (2, 4): [(1, 4)],
        },
    )
    t = cocommutator(fd)
    assert t.is_antisymmetric()
    # delta(X_4) component on X_1 (x) X_4 equals ft^14_4
    assert t.d[3][0][3] == fd.f[0][3][3]
    # the tensor carries every dual structure constant back: d[i][j][k] = ft^jk_i
    assert all(
        t.d[i][j][k] == fd.f[j][k][i]
        for i in range(4)
        for j in range(4)
        for k in range(4)
    )


def test_cocommutator_zero():
    t = cocommutator(ABELIAN)
    assert all(not x for p in t.d for row in p for x in row)


def test_ce_differential_abelian_always_closed():
    w = two_form({(1, 2): 1, (3, 4): Fraction(5, 7)})
    dw = ce_differential(w, ABELIAN)
    assert all(not x for p in dw for row in p for x in row)


def test_ce_differential_closed_witness_a41():
    w = two_form({(1, 4): 1, (2, 3): 1})
    dw = ce_differential(w, A41)
    assert all(not x for p in dw for row in p for x in row)


def test_ce_differential_nonclosed_value():
    w = two_form({(1, 2): 1})
    dw = ce_differential(w, A41)
    assert dw[0][2][3] == 1


def test_ce_differential_matches_bruteforce_antisymmetrization():
    rng = random.Random(3)
    for _ in range(20):
        pairs = {}
        for (i, j) in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
            pairs[(i, j)] = Fraction(rng.randint(-3, 3))
        w = two_form(pairs)
        dw = ce_differential(w, A47)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    v = dw[i][j][k]
                    assert dw[j][i][k] == -v
                    assert dw[i][k][j] == -v


def test_ce_differential_linear_in_form():
    w1 = two_form({(1, 2): 1, (2, 4): 3})
    w2 = two_form({(1, 3): 2, (3, 4): -1})
    wsum = two_form({(1, 2): 1, (2, 4): 3, (1, 3): 2, (3, 4): -1})
    d1 = ce_differential(w1, A47)
    d2 = ce_differential(w2, A47)
    ds = ce_differential(wsum, A47)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert ds[i][j][k] == d1[i][j][k] + d2[i][j][k]


def test_find_symplectic_abelian():
    rep = find_symplectic(ABELIAN)
    assert rep.found
    assert len(rep.closed_basis) == 6
    assert two_form_det(rep.witness) != 0


def test_find_symplectic_a41_witness():
    rep = find_symplectic(A41)
    assert rep.found
    candidate = two_form({(1, 4): 1, (2, 3): 1})
    dw = ce_differential(candidate, A41)
    assert all(not x for p in dw for row in p for x in row)
    assert two_form_det(candidate) == 1


def test_find_symplectic_so3_plus_r_has_rank_two():
    # so(3) + R has closed two-forms, but none is nondegenerate
    so3r = StructureConstants.from_brackets(4, {(1, 2): [(1, 3)], (2, 3): [(1, 1)], (3, 1): [(1, 2)]})
    rep = find_symplectic(so3r)
    assert not rep.found and rep.max_rank == 2 and rep.closed_basis


def test_find_symplectic_needs_dimension_four():
    for dim in (2, 3, 6):
        with pytest.raises(InputError, match="dimension 4"):
            find_symplectic(StructureConstants(dim))


def test_closed_two_forms_are_closed():
    for form in closed_two_forms(A47):
        dw = ce_differential(form, A47)
        assert all(not x for p in dw for row in p for x in row)


def test_adjoint_set_definitions():
    fd = StructureConstants.from_brackets(4, {(1, 2): [(1, 3), (1, 4)]})
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert A47.adjoint(i)[j][k] == -A47.f[i][j][k]
                assert fd.adjoint(i)[j][k] == -fd.f[i][j][k]


# --- the integer-scaled checks against brute-force Fraction sums ----------


def _copy(sc):
    return StructureConstants(sc.dim, [[row[:] for row in p] for p in sc.f])


def _perturbed(rng, sc):
    """sc with one antisymmetric pair of entries moved by a rational whose
    denominator is 2, 3 or 6."""
    out = _copy(sc)
    i, j = rng.sample(range(sc.dim), 2)
    k = rng.randrange(sc.dim)
    delta = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((2, 3, 6)))
    out.f[i][j][k] += delta
    out.f[j][i][k] -= delta
    out._nonzero = None
    return out


def _bruteforce_jacobi(sc):
    """J_ijm^n = sum_k (f_ij^k f_km^n + f_ik^n f_mj^k + f_jk^n f_im^k)."""
    f, r = sc.f, range(sc.dim)
    res = {}
    for i, j, m, n in product(r, repeat=4):
        v = sum(
            (f[i][j][k] * f[k][m][n] + f[i][k][n] * f[m][j][k] + f[j][k][n] * f[i][m][k] for k in r),
            Fraction(0),
        )
        if v:
            res[(i + 1, j + 1, m + 1, n + 1)] = v
    return res


def _bruteforce_mixed(f, fd):
    """f_kl^m ft^ij_m - (f_mk^i ft^jm_l - f_ml^i ft^jm_k - f_mk^j ft^im_l + f_ml^j ft^im_k)."""
    a, g, r = f.f, fd.f, range(f.dim)
    res = {}
    for i, j, k, l in product(r, repeat=4):
        v = sum(
            (
                a[k][l][m] * g[i][j][m]
                - a[m][k][i] * g[j][m][l]
                + a[m][l][i] * g[j][m][k]
                + a[m][k][j] * g[i][m][l]
                - a[m][l][j] * g[i][m][k]
                for m in r
            ),
            Fraction(0),
        )
        if v:
            res[(i + 1, j + 1, k + 1, l + 1)] = v
    return res


def _bruteforce_pairing_ok(dbl):
    """<[Z,W],V> + <W,[Z,V]> = 0 over all basis triples, pairing as a matrix."""
    f, p, r = dbl.sc.f, dbl.pairing, range(dbl.sc.dim)
    return all(
        sum((f[z][w][u] * p[u][v] + p[w][u] * f[z][v][u] for u in r), Fraction(0)) == 0
        for z, w, v in product(r, repeat=3)
    )


def _assert_fraction_dict(got, want):
    assert got == want
    assert all(type(v) is Fraction for v in got.values())


PAIRS = (
    (A41, StructureConstants.from_brackets(4, {(1, 2): [(1, 3), (1, 4)]})),
    (A47, A47I),
    (A41, ABELIAN),
)


def test_jacobi_and_mixed_residuals_match_bruteforce_on_perturbed_pairs():
    rng = random.Random(5)
    for trial in range(40):
        f0, fd0 = PAIRS[trial % len(PAIRS)]
        f, fd = _copy(f0), _copy(fd0)
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                f = _perturbed(rng, f)
            else:
                fd = _perturbed(rng, fd)
        for sc in (f, fd):
            _assert_fraction_dict(jacobi_check(sc).residual, _bruteforce_jacobi(sc))
        _assert_fraction_dict(mixed_jacobi_check(f, fd).residual, _bruteforce_mixed(f, fd))
        if trial % 10 == 0:  # the 8-dimensional sums are slow
            dbl = build_double(f, fd)
            _assert_fraction_dict(jacobi_check(dbl.sc).residual, _bruteforce_jacobi(dbl.sc))
            assert pairing_ad_invariant(dbl) is _bruteforce_pairing_ok(dbl) is True


def test_is_antisymmetric_rejects_any_single_entry_corruption():
    rng = random.Random(9)
    for sc in (A41, A47, A47I):
        assert sc.is_antisymmetric()
        for i, j, k in product(range(4), repeat=3):
            bad = _copy(sc)
            bad.f[i][j][k] += Fraction(rng.choice((-1, 1)), rng.choice((2, 3, 6)))
            assert not bad.is_antisymmetric(), (i, j, k)  # i == j: a nonzero f_ii^k


def test_pairing_ad_invariant_rejects_any_single_entry_corruption():
    rng = random.Random(13)
    dbl = build_double(A47, A47I)
    n = dbl.sc.dim
    assert pairing_ad_invariant(dbl)
    triples = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(20)]
    for z in range(n):
        triples.append((z, z, rng.randrange(n)))  # a diagonal f_zz^k
        a = rng.randrange(n)
        triples.append((z, a, (a + n // 2) % n))  # an entry that is its own partner
    for z, a, b in triples:
        bad = build_double(A47, A47I)
        bad.sc.f[z][a][b] += Fraction(rng.choice((-1, 1)), rng.choice((2, 3, 6)))
        bad.sc._nonzero = None
        assert not _bruteforce_pairing_ok(bad)
        assert not pairing_ad_invariant(bad), (z, a, b)


# --- the sparse matrix form against the dense reference --------------------


def _scaled_cases():
    """The random perturbations above, then those of `PAIRS` with rational
    entries, each pair in both orders, so that the algebra and the dual both
    play f and ft."""
    rng = random.Random(11)
    cases = list(_random_perturbations())
    for trial in range(30):
        f, fd = (_copy(sc) for sc in PAIRS[trial % len(PAIRS)])
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                f = _perturbed(rng, f)
            else:
                fd = _perturbed(rng, fd)
        cases.append((f, fd))
    for f, fd in cases:
        yield f, fd
        yield fd, f


def test_sparse_matrix_residual_matches_dense_and_index_form():
    failing = 0
    for f, fd in _scaled_cases():
        d1, fnz = f.scaled_nonzero()
        d2, gnz = fd.scaled_nonzero()
        dense = mixed_matrix_dense(4, fnz, gnz)
        assert mixed_matrix_residual(fnz, gnz) == dense
        index = {
            (i + 1, j + 1, k + 1, l + 1): Fraction(v, d1 * d2)
            for (i, j, k, l), v in dense.items()
        }
        assert mixed_jacobi_check(f, fd).residual == index
        failing += bool(dense)
    assert 40 < failing < 250  # both verdicts are drawn


# --- the cached nonzero list and integer form -------------------------------


def _fresh_forms(sc):
    """(nonzero list, integer form) recomputed from the dense tensor."""
    nz = [
        (i, j, k, sc.f[i][j][k])
        for i, j, k in product(range(sc.dim), repeat=3)
        if sc.f[i][j][k]
    ]
    den = math.lcm(*[v.denominator for (_, _, _, v) in nz])
    return nz, (den, [(i, j, k, int(v * den)) for (i, j, k, v) in nz])


def _assert_coherent(sc, rng):
    assert (sc.nonzero(), sc.scaled_nonzero()) == _fresh_forms(sc)
    assert sc.is_lie() == jacobi_check(sc).passed
    i, j = rng.sample(range(sc.dim), 2)
    k = rng.randrange(sc.dim)
    delta = Fraction(rng.choice((-1, 1)), rng.choice((2, 3, 5)))
    sc.f[i][j][k] += delta
    sc.f[j][i][k] -= delta
    sc._nonzero = None
    assert (sc.nonzero(), sc.scaled_nonzero()) == _fresh_forms(sc)
    assert sc.is_antisymmetric()
    # the reset cleared the kept Jacobi verdict with the forms
    assert sc.is_lie() == jacobi_check(sc).passed


def test_cached_forms_follow_the_tensor_on_the_corpus(reg):
    rng = random.Random(17)
    for name in reg.algebras:
        binding = reg.grid_bindings(name, cap=1)[0]
        _assert_coherent(reg.instantiate(name, binding), rng)
    for be in reg.bialgebras:
        binding = reg.grid_bindings(be.g, be.dual, cap=1)[0]
        dbl = build_double(reg.instantiate(be.g, binding), reg.instantiate(be.dual, binding))
        _assert_coherent(dbl.sc, rng)
