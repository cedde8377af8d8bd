"""Differential tests of the derive path's kernels against the dense paths
they replaced, kept in `evalref` as oracles: the sparse `cfm_mul` against
the sum of every product, the memoized minors of `cfm_det` and
`cfm_inverse_unitdet` against cofactor expansions made afresh,
`double_adjoint`'s -b a^-1 over the nonzero dual slices against the (a, b, d)
block accumulation, with the pairing relation a d^T = I that the retired
path checked at run time shown as Ad(g) P_n = I on the frame's own
factors, `solve_coboundary` on the distinct nonzero equations, eliminated
on sparse int rows, against the full system under the retired dense
elimination (also on every pair-binding of Table 2, both orders, and of the
r-matrix rows), the frame's adjoint maps and exponentials against the dense
adjoints and `cf_matexp` (on every corpus algebra at every grid binding),
and `render_closed_function` on int triples against
the Fraction renderer.  Each runs on every corpus frame or pair at its first
binding and on hypothesis draws.  Term maps compare as dicts, which ignores
the order of their keys.  The integer term-product kernel `_mul_into` is
compared with the CRat kernel it replaced on hypothesis draws, both as dicts
and in insertion order, and so are `cf_sum_products`, `_derivative_into`,
`integral`, `eval_at_zero` and `derivative_is`, which add on int triples,
with the CRat-operator loops they replaced; the draws hold zeros and zero
rate tuples that are not the shared `CR_ZERO` and `_ZRATE`.
`find_symplectic`'s integer system and Pfaffian quadratic form are compared
with the Fraction system and grid search they replaced, on every corpus
algebra at every grid binding and on drawn lists of two-forms, degenerate
ones included.  The block-triangular `cf_matexp`
is compared with Putzer's recursion on the whole matrix, on every distinct
adjoint of every corpus algebra over the full grid and on drawn
block-triangular matrices.  The r-matrix layer's sparse maps are compared
with the dense tensors it replaced: `schouten`, `generates_cocommutator`,
`ad_invariant_rank3` and `classify_r` against the retired three-loop
Schouten bracket, the dense adjoint action from
`StructureConstants.adjoint` and the dense rank-3 checks, on every corpus
r-matrix row at its first binding, where the printed certificate is also
summed densely, and on drawn tensors r, antisymmetric and general, over
drawn corpus algebras; `is_totally_antisymmetric` and `ad_invariant_rank3`
also on drawn rank-3 maps, sums of wedges with entries that break their
antisymmetry."""

from fractions import Fraction
from itertools import combinations

import pytest

from evalref import (
    ad_action_dense,
    ad_invariant_rank3_dense,
    ce_differential,
    central_coords,
    cfm_mul_sum,
    classify_r_dense,
    closed_two_forms_by_fractions,
    det_by_cofactors,
    generates_dense,
    grid_symplectic,
    is_totally_antisymmetric_dense,
    inverse_by_cofactors,
    matexp_by_putzer,
    minus_b_ainv,
    derivative_into_by_crats,
    derivative_is_by_crats,
    eval_at_zero_by_crats,
    integral_by_crats,
    mul_into_by_crats,
    rank3_add,
    rank3_dense,
    rank3_map,
    render_by_fractions,
    schouten_dense,
    sum_products_by_crats,
    tensor_of,
    solve_coboundary_full,
    two_form_det,
    wedge3_dense,
)
from liebialg.closedfun import (
    _ZEXP,
    _ZRATE,
    CR_ZERO,
    ClosedFunction,
    CRat,
    _derivative_into,
    _mul_into,
    _sparse,
    cf_coord,
    cf_exp,
    cf_matexp,
    cfm_det,
    cfm_eq,
    cfm_identity,
    cfm_inverse_unitdet,
    cfm_mul,
    cfm_reflect,
    cfm_transpose,
    cf_sum_products,
    derivative_is,
)
from liebialg.core import (
    StructureConstants,
    TwoFormLA,
    _pfaffian_witness,
    find_symplectic,
)
from liebialg.errors import NonUnitDeterminant
from liebialg.groupgeom import GroupChart, adjoint_maps, double_adjoint, invariant_frame
from liebialg.harness import _bkey
from liebialg.render import render_closed_function
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

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies


def _maps(m):
    return [[x.terms for x in row] for row in m]


def _first(reg, g, dual=None):
    return reg.grid_bindings(g, dual, cap=1)[0]


@pytest.fixture(scope="module")
def frames(reg, bench):
    """Every corpus frame at its first binding, by name."""
    return {name: bench.frame(name, _first(reg, name)) for name in sorted(reg.frames)}


def test_sparse_products_match_the_dense_sum_on_every_corpus_frame(frames):
    for name, fr in frames.items():
        prod = fr.exp_neg[0]
        for e in fr.exp_neg[1:]:
            got, want = cfm_mul(e, prod), cfm_mul_sum(e, prod)
            assert _maps(got) == _maps(want), name
            prod = got
        assert _maps(cfm_mul(prod, fr.XR)) == _maps(cfm_mul_sum(prod, fr.XR)) == _maps(fr.XL), name


def test_shared_minors_match_the_cofactor_expansion_on_every_corpus_frame(frames):
    for name, fr in frames.items():
        assert cfm_det(fr.Rmat).terms == det_by_cofactors(fr.Rmat).terms, name
        want = inverse_by_cofactors(fr.Rmat)
        assert _maps(cfm_inverse_unitdet(fr.Rmat)) == _maps(want), name
        assert _maps(fr.XR) == _maps(cfm_transpose(want)), name


def test_minus_b_ainv_matches_the_block_accumulation_on_every_corpus_pair(reg, bench):
    slices, checked = set(), 0
    for g, dual in sorted({(be.g, be.dual) for be in reg.bialgebras}):
        binding = _first(reg, g, dual)
        if bench.double(g, dual, binding):
            continue  # a flagged row: the pair is no Lie bialgebra
        f, fd = bench.sc(g, binding), bench.sc(dual, binding)
        frame = bench.frame(g, binding)
        pi = double_adjoint(frame, f, fd, certified=True)
        assert _maps(pi) == _maps(minus_b_ainv(frame, fd)), (g, dual)
        slices.add(len({k for _, _, k, _ in fd.nonzero()}))
        checked += 1
    assert checked > 100
    assert slices == {0, 1, 2, 3, 4}  # every count of nonzero dual slices


def _ad_g_times_p_n(frame):
    """Ad(g) = exp_pos[0] ... exp_pos[3], the factors of a central X_k
    (exp(0) = I) left out, times P_n = Ad(g)^-1, the way the retired
    `double_adjoint` formed it; I for an abelian g."""
    a = None
    for e, central in zip(frame.exp_pos, central_coords(frame.base)):
        if not central:
            a = e if a is None else cfm_mul(a, e)
    p_n = frame.prefix[-1]
    if a is None or p_n is None:
        assert a is p_n, "Ad(g) and P_n disagree on whether g is abelian"
        return cfm_identity(len(frame.exp_pos))
    return cfm_mul(a, p_n)


def test_ad_g_times_p_n_is_the_identity_on_every_corpus_frame(frames):
    # a d^T = I with a = Ad(g) and d = P_n^T, now implied by the exact ODE
    # checks of every exp(x Xadj_k) and exp(-x Xadj_k) and not run in src
    central = set()
    for name, fr in frames.items():
        assert cfm_eq(_ad_g_times_p_n(fr), cfm_identity(4)), name
        central.add(sum(central_coords(fr.base)))
    assert {0, 1, 2} <= central  # the abelian g is a drawn example below


def test_distinct_equations_match_the_full_system_on_every_corpus_pair(reg, bench):
    pairs = set(reg.rmatrices) | {(be.g, be.dual) for be in reg.bialgebras}
    for g, dual in sorted(pairs):
        binding = _first(reg, g, dual)
        f, fd = bench.sc(g, binding), bench.sc(dual, binding)
        _same_solutions(solve_coboundary(f, fd), solve_coboundary_full(f, fd), (g, dual))
    assert len(pairs) > 150


def test_sparse_elimination_matches_the_dense_one_on_every_pair_binding(reg, bench):
    # every Table 2 pair in both orders and every r-matrix row, each at
    # every grid binding: 824 pair-bindings, 642 of them distinct
    pairs = [(be.g, be.dual) for be in reg.bialgebras]
    pairs += [(dual, g) for g, dual in pairs] + sorted(reg.rmatrices)
    cases = [(g, dual, _bkey(b)) for g, dual in pairs for b in reg.grid_bindings(g, dual)]
    assert len(cases) == 824
    inconsistent = 0
    for g, dual, key in sorted(set(cases)):
        f, fd = bench.sc(g, dict(key)), bench.sc(dual, dict(key))
        want = solve_coboundary_full(f, fd)  # the retired dense elimination
        _same_solutions(solve_coboundary(f, fd), want, (g, dual, key))
        inconsistent += want is None
    assert len(set(cases)) == 642 and 0 < inconsistent < 642


_SMALL = st.integers(-2, 2)


@st.composite
def _tensors(draw):
    """A sparse 4-dimensional structure-constant tensor, antisymmetric in its
    first two indices, with small int entries; the Jacobi identity is not
    needed by the coboundary equation."""
    sc = StructureConstants(4)
    for _ in range(draw(st.integers(0, 4))):
        i, j = sorted(draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True)))
        k, v = draw(st.integers(0, 3)), Fraction(draw(_SMALL))
        sc.f[i][j][k] = v
        sc.f[j][i][k] = -v
    return sc


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(_tensors(), _tensors())
@hyp.example(StructureConstants(4), StructureConstants(4))  # no equation at all
def test_distinct_equations_match_the_full_system_on_drawn_tensors(f, fd):
    _same_solutions(solve_coboundary(f, fd), solve_coboundary_full(f, fd), (f, fd))


@st.composite
def _lie_algebras(draw):
    """R X_k acting on an abelian ideal spanned by the other three by a 3 x 3
    matrix M, [X_k, X_(o_p)] = sum_q M[p][q] X_(o_q): a Lie algebra for every
    M.  M is triangular with a rational diagonal, or a rotation-scaling
    block a +- b i and one rational eigenvalue, with couplings above the
    blocks, rows and columns then permuted together; a zero row of M makes
    its X_(o_p) central.  X_k comes first or last, where det R is a single
    exponential term (e^(x_1 tr M) or 1); in between, a rotation makes det
    R a cosine, and the frame leaves the closed class."""
    m = [[Fraction(0)] * 3 for _ in range(3)]
    if draw(st.booleans()):
        a, b = draw(_Q), draw(_NONZERO_Q)
        m[0][0] = m[1][1] = a
        m[0][1], m[1][0] = -b, b
        upper = [(0, 2), (1, 2)]
    else:
        m[0][0], m[1][1] = draw(_Q), draw(_Q)
        upper = [(0, 1), (0, 2), (1, 2)]
    m[2][2] = draw(_Q)
    for i, j in draw(st.lists(st.sampled_from(upper), unique=True)):
        m[i][j] = draw(_NONZERO_Q)
    perm = draw(st.permutations(range(3)))
    k = draw(st.sampled_from([0, 3]))
    others = [i for i in range(4) if i != k]
    sc = StructureConstants(4)
    for p in range(3):
        for q in range(3):
            v = m[perm[p]][perm[q]]
            sc.f[k][others[p]][others[q]] = v
            sc.f[others[p]][k][others[q]] = -v
    return sc


@hyp.settings(max_examples=100, deadline=None)
@hyp.given(_lie_algebras(), _tensors())
@hyp.example(StructureConstants(4), StructureConstants(4))  # abelian, no dual slice
def test_ad_g_times_p_n_and_minus_b_ainv_on_drawn_lie_algebras(f, fd):
    # the dual need not be a Lie algebra: F_k = E_-k^T int E^T B E passes
    # F' = B E - A^T F for every B, and -b a^-1 is the same sum
    frame = invariant_frame(GroupChart(f))
    assert cfm_eq(_ad_g_times_p_n(frame), cfm_identity(4))
    assert _maps(double_adjoint(frame, f, fd, certified=True)) == _maps(minus_b_ainv(frame, fd))


def _same_solutions(got, want, label):
    if want is None:
        assert got.empty, label
        return
    part, kernel = want
    assert not got.empty, label
    assert len(part) == got.particular.dim**2, label
    assert [x for row in got.particular.r for x in row] == part, label
    assert [[x for row in t.r for x in row] for t in got.kernel_basis] == kernel, label


def _exp_term(draw):
    """c exp(z . x) with a small nonzero c and small rational real rates."""
    rates = {i + 1: Fraction(draw(_SMALL), draw(st.integers(1, 3))) for i in range(4)}
    return cf_exp(rates).scale(draw(st.integers(1, 3)) * (-1) ** draw(st.integers(0, 1)))


_ENTRY = st.one_of(
    st.just(ClosedFunction.zero()),
    st.builds(
        lambda c, i, p: cf_coord(i, p).scale(c), _SMALL, st.integers(1, 4), st.integers(0, 2)
    ),
    st.builds(lambda c, r: cf_exp({2: r}).scale(c), _SMALL, st.integers(-1, 1)),
)


@st.composite
def _unit_det_matrices(draw):
    """L U with L unit lower triangular and U upper triangular with single
    exponential terms on its diagonal, so det = a single exponential term."""
    n = draw(st.integers(1, 4))
    one = ClosedFunction.const(1)
    low = [[draw(_ENTRY) if c < r else one if c == r else one.zero() for c in range(n)]
           for r in range(n)]
    up = [[draw(_ENTRY) if c > r else ClosedFunction.zero() for c in range(n)] for r in range(n)]
    for i in range(n):
        up[i][i] = _exp_term(draw)
    return cfm_mul(low, up)


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(_unit_det_matrices())
@hyp.example([[cf_exp({1: 2}).scale(3)]])  # the empty cofactor of a 1 x 1 matrix is 1
def test_shared_minors_match_the_cofactor_expansion_on_drawn_matrices(a):
    assert cfm_det(a).terms == det_by_cofactors(a).terms
    assert _maps(cfm_inverse_unitdet(a)) == _maps(inverse_by_cofactors(a))


def test_int_triple_renderer_matches_the_fraction_renderer_on_the_corpus(reg, bench, frames):
    texts = 0
    for fr in frames.values():
        for row in fr.XL + fr.XR:
            for x in row:
                assert render_closed_function(x) == render_by_fractions(x)
                texts += 1
    for pe in reg.poisson:
        p = bench.bivector(pe.g, pe.dual, pe.method, _first(reg, pe.g, pe.dual)).P
        for row in p:
            for x in row:
                assert render_closed_function(x) == render_by_fractions(x)
                texts += 1
    assert texts > 4000


_RATE = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def _real_functions(draw):
    """Sums of real terms c x^k exp(a . x) and of conjugate pairs
    (u + v i) x^k exp((a + b i) . x) + (u - v i) x^k exp((a - b i) . x),
    with fractional and negative coefficients and rates."""
    f = ClosedFunction.zero()
    for _ in range(draw(st.integers(1, 4))):
        k = tuple(draw(st.lists(st.integers(-1, 2), min_size=4, max_size=4)))
        alpha = draw(st.lists(_RATE, min_size=4, max_size=4))
        beta = draw(st.lists(_RATE, min_size=4, max_size=4)) if draw(st.booleans()) else [0] * 4
        u, v = draw(_RATE), draw(_RATE)
        z = tuple(CRat(a, b) for a, b in zip(alpha, beta))
        if any(beta) and (u or v):
            zbar = tuple(q.conjugate() for q in z)
            f = f + ClosedFunction({(k, z): CRat(u, v)}) + ClosedFunction({(k, zbar): CRat(u, -v)})
        elif u:
            f = f + ClosedFunction({(k, z): CRat(u)})
    return f


@hyp.settings(max_examples=150, deadline=None)
@hyp.given(_real_functions())
def test_int_triple_renderer_matches_the_fraction_renderer_on_drawn_functions(f):
    assert render_closed_function(f) == render_by_fractions(f)


# zero monomials and zero rate tuples equal to, but not the objects
# `_ZEXP` and `_ZRATE`, and a zero that is not the shared CR_ZERO in rate
# slots, beside the shared ones and nonzero keys, Laurent ones included:
# each takes the general path of the kernels, which must give the same maps
_NC_ZERO = tuple.__new__(CRat, (0, 0, 1))
_ZEXP_COPY = tuple([0] * 4)
_ZRATE_COPY = tuple(CRat(0) for _ in range(4))
_MONOMIALS = [_ZEXP, _ZEXP_COPY, (1, 0, 0, 0), (0, -1, 0, 2), (-1, 0, 0, 0), (2, 0, 1, 0),
              (1, 1, 0, 0), (0, 2, 0, 0)]
_RATES = [
    _ZRATE,
    _ZRATE_COPY,
    (_NC_ZERO,) * 4,
    (CRat(1), CRat(0), CRat(0), CRat(0)),
    (CRat(1), _NC_ZERO, CR_ZERO, CR_ZERO),
    (CRat(-1), CRat(0), CRat(0), CRat(0)),
    (CRat(0, 1), CRat(0), CRat(0), CRat(0)),
    (CRat(0, -1), CRat(0), CRat(0), CRat(0)),
    (CRat(Fraction(-1, 2)), CRat(0), CRat(0, -1), CRat(0)),
    (CR_ZERO, CRat(Fraction(2, 3), 1), CR_ZERO, CRat(-2)),
    (CR_ZERO, CRat(Fraction(-2, 3), -1), _NC_ZERO, CRat(2)),
]
# real, imaginary, complex and fractional coefficients, negatives included,
# so that products collide and cancel, and products such as 2 (1/2) whose
# triple must be reduced; and drawn ones
_COEFFS = [CRat(1), CRat(-1), CRat(2), CRat(Fraction(1, 2)), CRat(Fraction(-1, 2)),
           CRat(Fraction(-2, 3)), CRat(Fraction(3, 2)), CRat(0, 1), CRat(0, -1),
           CRat(Fraction(1, 2), Fraction(-1, 3)), CRat(2, -1)]
_FRACS = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_DRAWN_COEFFS = st.one_of(st.sampled_from(_COEFFS), st.builds(CRat, _FRACS, _FRACS).filter(bool))


def _term_maps(min_size):
    keys = st.tuples(st.sampled_from(_MONOMIALS), st.sampled_from(_RATES))
    return st.dictionaries(keys, _DRAWN_COEFFS, min_size=min_size, max_size=4).map(
        ClosedFunction
    )


def _same_map(got, want):
    """Equal term maps, in the same insertion order, of nonzero CRats."""
    assert got == want
    assert list(got.items()) == list(want.items())
    assert all(type(c) is CRat and (c[0] or c[1]) for c in got.values())


def _result(fn, *args):
    """fn(*args), or the type of the InputError it raised."""
    try:
        return fn(*args)
    except InputError as exc:
        return type(exc)


_F = ClosedFunction({(_ZEXP, _ZRATE): CRat(1, 1), ((1, 0, 0, 0), _ZRATE_COPY): CRat(Fraction(1, 2))})
_G = ClosedFunction({(_ZEXP_COPY, (CRat(0, 1),) + _ZRATE[1:]): CRat(0, 1),
                     ((0, -1, 0, 2), _ZRATE): CRat(-1)})


def _product(f, g, neg=False):
    t = {}
    mul_into_by_crats(t, f, g, neg)
    return ClosedFunction(t)


@hyp.settings(max_examples=200, deadline=None)
@hyp.given(_term_maps(1), _term_maps(1), _term_maps(0), st.booleans())
@hyp.example(_F, _G, _product(_F, _G, neg=True), False)  # every product cancels
@hyp.example(_F, _G, _product(_F, _G), True)
def test_integer_kernel_matches_the_crat_kernel_on_drawn_term_maps(f, g, start, neg):
    got, want = dict(start.terms), dict(start.terms)
    _mul_into(got, f, g, neg)
    mul_into_by_crats(want, f, g, neg)
    _same_map(got, want)


_NC = ClosedFunction({(_ZEXP, (_NC_ZERO,) * 4): CRat(1, 1),
                      ((1, 0, 0, 0), (CRat(1), _NC_ZERO, CR_ZERO, CR_ZERO)): CRat(Fraction(1, 2))})
_NC2 = ClosedFunction({((0, 1, 0, 0), _ZRATE_COPY): CRat(-1, 1),
                       ((1, 0, 0, 0), (CRat(-1), CR_ZERO, CR_ZERO, CR_ZERO)): CRat(2)})


@hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hyp.given(_term_maps(1), _term_maps(0), _term_maps(0), _DRAWN_COEFFS, st.integers(1, 4))
@hyp.example(_NC, _NC2, _NC, CRat(-1), 1)  # hand-built zeros that are not CR_ZERO or _ZRATE
@hyp.example(_NC2, _NC, _NC2, CRat(Fraction(1, 2), 3), 2)
def test_closed_function_kernels_match_their_crat_oracles_on_drawn_term_maps(f, g, h, c, i):
    # products and scaled maps into one term map, some of them cancelling
    products, scaled = [(f, g, 1), (g, h, -1), (h, g, 1)], [(c, f), (-c, h), (2, g)]
    _same_map(cf_sum_products(products, scaled).terms, sum_products_by_crats(products, scaled))
    for start in (dict(h.terms), dict(f.terms)):
        got, want = dict(start), dict(start)
        _derivative_into(got, f, i - 1)
        derivative_into_by_crats(want, f, i - 1)
        _same_map(got, want)
    for fn in (f, g, h):
        got, want = _result(fn.integral, i), _result(integral_by_crats, fn, i)
        if isinstance(want, dict):
            _same_map(got.terms, want)
        else:
            assert got is want
        got, want = _result(fn.eval_at_zero), _result(eval_at_zero_by_crats, fn)
        assert type(got) is type(want) and got == want
    # d f / d x_i against itself, a multiple and a drawn matrix
    acc = {}
    derivative_into_by_crats(acc, f, i - 1)
    df = ClosedFunction(acc)
    cases = [([[f]], {(0, 0): CRat(1)}, [[df]]), ([[f]], {(0, 0): c}, [[df]]),
             ([[f, g]], {(0, 0): c, (0, 1): CRat(-1)}, [[h, f], [g, df]])]
    for x, mc, y in cases:
        assert derivative_is(x, i, mc, y) == derivative_is_by_crats(x, i, mc, y)
    assert derivative_is([[f]], i, {(0, 0): CRat(1)}, [[df]])


def test_pfaffian_criterion_matches_the_grid_search_on_every_corpus_algebra(reg, bench):
    checked = 0
    for name in sorted(reg.algebras):
        for b in reg.grid_bindings(name):
            sc = bench.sc(name, b)
            if not sc.is_lie():
                continue
            rep = find_symplectic(sc)
            basis = closed_two_forms_by_fractions(sc)
            assert [w.w for w in rep.closed_basis] == [w.w for w in basis], (name, b)
            witness, max_rank = grid_symplectic(basis)
            assert (rep.found, rep.max_rank) == (witness is not None, max_rank), (name, b)
            if rep.found:
                assert two_form_det(rep.witness), (name, b)
                dw = ce_differential(rep.witness, sc)
                assert not any(x for p in dw for row in p for x in row), (name, b)
            checked += 1
    assert checked == 228


def _form(upper):
    """The 4 x 4 two-form with entries `upper` above the diagonal, in the
    order (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)."""
    w = [[0] * 4 for _ in range(4)]
    for v, (a, b) in zip(upper, combinations(range(4), 2)):
        w[a][b], w[b][a] = v, -v
    return TwoFormLA(4, w)


def _wedge(u, v, c=1):
    """c u ^ v, a decomposable form of rank 2 (or 0)."""
    return _form([c * (u[a] * v[b] - u[b] * v[a]) for a, b in combinations(range(4), 2)])


_VEC = st.lists(_SMALL, min_size=4, max_size=4)


@st.composite
def _form_lists(draw):
    """1-6 forms with small int entries, or 1-4 degenerate ones: multiples
    of one decomposable form, forms u ^ v_i sharing a factor u (each
    combination is u ^ (sum c_i v_i), of rank <= 2), or zero forms.  The
    grid search of a list with no nondegenerate combination visits all 5^k
    coefficient vectors, hence the smaller degenerate lists."""
    kind = draw(st.sampled_from(("any", "multiples", "shared", "zero")))
    if kind == "any":
        n = draw(st.integers(1, 6))
        return [_form(draw(st.lists(_SMALL, min_size=6, max_size=6))) for _ in range(n)]
    n = draw(st.integers(1, 4))
    if kind == "zero":
        return [_form([0] * 6)] * n
    u, v = draw(_VEC), draw(_VEC)
    if kind == "multiples":
        return [_wedge(u, v, draw(_SMALL)) for _ in range(n)]
    return [_wedge(u, draw(_VEC)) for _ in range(n)]


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(_form_lists())
@hyp.example([])  # no form: rank 0
@hyp.example([_form([1, 0, 0, 0, 0, 0]), _form([0, 0, 0, 0, 0, 1])])  # only w_1 + w_2 has Pf != 0
@hyp.example([_wedge((1, 2, 0, -1), (0, 1, 1, 2), c) for c in (1, 2, -1, 1, -2)])
def test_pfaffian_criterion_matches_the_grid_search_on_drawn_forms(forms):
    witness, max_rank = _pfaffian_witness(forms)
    want, want_rank = grid_symplectic(forms)
    assert (witness is None, max_rank) == (want is None, want_rank)
    if witness is not None:
        assert two_form_det(witness)
        sums = [u.w for u in forms] + [
            [[x + y for x, y in zip(ru, rv)] for ru, rv in zip(u.w, v.w)]
            for u, v in combinations(forms, 2)
        ]
        assert witness.w in sums


def test_block_exponential_matches_putzer_on_every_corpus_adjoint(reg):
    cases = {}
    for name in sorted(reg.algebras):
        for b in reg.grid_bindings(name):
            for i, m in enumerate(reg.instantiate(name, b).adjoints()):
                cases.setdefault((tuple(map(tuple, m)), i + 1), m)
    assert len(cases) > 500
    for (_, coord), m in cases.items():
        assert _maps(cf_matexp(m, coord)) == _maps(matexp_by_putzer(m, coord)), (m, coord)


def test_frame_adjoints_and_exponentials_match_the_dense_route_on_every_corpus_algebra(reg):
    # the frame reads each ad X_i off the integer form of the structure
    # constants; the retired route made the dense adjoint and converted it
    # (`_sparse`) before each exponential
    built, limits = 0, set()
    for name in sorted(reg.algebras):
        for b in reg.grid_bindings(name):
            sc = reg.instantiate(name, b)
            dense = [sc.adjoint(i) for i in range(4)]
            assert adjoint_maps(sc) == [_sparse(m) for m in dense], (name, b)
            try:
                frame = invariant_frame(GroupChart(sc))
            except NonUnitDeterminant:
                limits.add(name)
                continue
            for i, m in enumerate(dense):
                e = cf_matexp(m, i + 1)
                assert _maps(frame.exp_pos[i]) == _maps(e), (name, b, i)
                assert _maps(frame.exp_neg[i]) == _maps(cfm_reflect(e, i + 1)), (name, b, i)
            built += 1
    assert limits == {"VII0+R.iii"}  # the chart limit, pinned in test_groupgeom
    assert built > 200


_Q = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
_NONZERO_Q = _Q.filter(bool)
# eigenvalues of 1 x 1 blocks from a short list, so that different blocks
# often share one
_LAMS = [CRat(0), CRat(1), CRat(-1), CRat(Fraction(1, 2)), CRat(0, 1)]


@st.composite
def _irreducible_pair(draw, nilpotent):
    """An irreducible 2 x 2 block: a +- b i, a repeated (not diagonalizable)
    or a +- b, with b != 0; nilpotent, the repeated kind at a = 0."""
    kind = "repeated" if nilpotent else draw(st.sampled_from(["complex", "repeated", "rational"]))
    a, b = Fraction(0) if nilpotent else draw(_Q), draw(_NONZERO_Q)
    if kind == "complex":
        return [[a, -b], [b, a]]
    if kind == "repeated":  # trace 2a, determinant a^2
        return [[a + b, b], [-b, a - b]]
    return [[a, b], [b, a]]


@st.composite
def _block_triangular(draw):
    """(M, coord): diagonal blocks of sizes 1 and 2 on n <= 6 rows, nilpotent
    ones or with eigenvalues in Q(i), couplings above them, and rows and
    columns then permuted together."""
    n = draw(st.integers(1, 6))
    nilpotent = draw(st.booleans())
    m = [[Fraction(0)] * n for _ in range(n)]
    owner = []
    while len(owner) < n:
        start = len(owner)
        if n - start >= 2 and draw(st.booleans()):
            for r, row in enumerate(draw(_irreducible_pair(nilpotent))):
                m[start + r][start : start + 2] = row
            owner += [start, start]
        else:
            m[start][start] = Fraction(0) if nilpotent else draw(st.sampled_from(_LAMS))
            owner.append(start)
    upper = [(i, j) for i in range(n) for j in range(n) if owner[i] < owner[j]]
    if upper:
        for i, j in draw(st.lists(st.sampled_from(upper), max_size=2 * n, unique=True)):
            m[i][j] = draw(_NONZERO_Q)
    perm = draw(st.permutations(range(n)))
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)], draw(st.integers(1, 4))


def _matrix(rows):
    return [[x if isinstance(x, CRat) else Fraction(x) for x in row] for row in rows]


@hyp.settings(max_examples=80, deadline=None)
@hyp.given(_block_triangular())
# nilpotent: a chain of three and a coupled nilpotent 2 x 2 block
@hyp.example((_matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]), 2))
@hyp.example((_matrix([[0, 2, 0, 0], [0, 1, 1, 0], [0, -1, -1, 3], [0, 0, 0, 0]]), 1))
# one eigenvalue in three coupled 1 x 1 blocks, complex in a fourth
@hyp.example((_matrix([[1, 1, 2, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, CRat(0, 1)]]), 3))
# 2 x 2 blocks at 1 +- 2i; at 1/2 twice, beside a 1 x 1 block at 1/2; and at
# 3 and -1, beside 1 x 1 blocks at 3 and -1
@hyp.example((_matrix([[1, -2, 1, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), 4))
@hyp.example((_matrix([[Fraction(3, 2), 1, 0, 1], [-1, Fraction(-1, 2), 1, 0],
                       [0, 0, Fraction(1, 2), 0], [0, 0, 0, 0]]), 1))
@hyp.example((_matrix([[1, 2, 1, 0], [2, 1, 0, 1], [0, 0, 3, 0], [0, 0, 0, -1]]), 2))
def test_block_exponential_matches_putzer_on_drawn_matrices(case):
    m, coord = case
    assert _maps(cf_matexp(m, coord)) == _maps(matexp_by_putzer(m, coord))


def _same_r_verdicts(r, f, fd):
    """The sparse r-matrix checks of (r, f, fd) against the dense oracles."""
    assert generates_cocommutator(r, f, fd) is generates_dense(r, f, fd)
    if r.is_antisymmetric():
        s = schouten(r, f)
        assert s == rank3_map(schouten_dense(r, f))
        assert ad_invariant_rank3(s, f) is ad_invariant_rank3_dense(rank3_dense(s), f)
    else:
        with pytest.raises(InputError):
            schouten(r, f)
        with pytest.raises(InputError):
            schouten_dense(r, f)
    got, want = classify_r(r, f), classify_r_dense(r, f)
    assert got.schouten == rank3_map(want.schouten)
    flags = ("kind", "symmetric_invariant", "schouten_antisymmetric", "schouten_invariant", "violation")
    assert [getattr(got, a) for a in flags] == [getattr(want, a) for a in flags]
    return got.kind


def _generated(r, f):
    """The dual tensor ft^ab_i = -(Xadj_i^T r + r Xadj_i)^ab that r
    generates, antisymmetric or not."""
    act = ad_action_dense(r.r, f)
    return StructureConstants.from_entries(
        4, [(a, b, i, -x) for i, m in enumerate(act) for a, row in enumerate(m) for b, x in enumerate(row) if x]
    )


def test_r_matrix_maps_match_the_dense_oracles_on_every_corpus_row(reg, bench):
    kinds = set()
    for (g, dual), e in sorted(reg.rmatrices.items()):
        b = dict(_first(reg, g, dual), **{p: Fraction(1) for p in e.rfree})
        f, fd = bench.sc(g, b), bench.sc(dual, b)
        r = e.tensor(b)
        kinds.add(_same_r_verdicts(r, f, fd))
        assert generates_cocommutator(r, f, fd), (g, dual)
        want = None
        for (c, i, j, k) in e.schouten_terms or ():
            t = wedge3_dense(i, j, k, c.eval_exact(b))
            want = t if want is None else rank3_add(want, t)
        assert e.expected_schouten(b) == (None if want is None else rank3_map(want)), (g, dual)
    assert kinds == {"triangular", "quasitriangular"}


@st.composite
def _drawn_r(draw, antisymmetric):
    """A 4 x 4 r with a few small rational entries at drawn slots, each
    mirrored with its sign changed when r is to be antisymmetric."""
    r = [[Fraction(0)] * 4 for _ in range(4)]
    for _ in range(draw(st.integers(0, 4))):
        i, j, c = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(_Q)
        r[i][j] += c
        if antisymmetric:
            r[j][i] -= c
    return tensor_of(r)


@hyp.settings(max_examples=120, deadline=None)
@hyp.given(st.data(), st.booleans())
def test_r_matrix_maps_match_the_dense_oracles_on_drawn_tensors(reg, bench, data, antisymmetric):
    names = st.sampled_from(sorted(reg.algebras))
    f, other = (bench.sc(n, _first(reg, n)) for n in (data.draw(names), data.draw(names)))
    r = data.draw(_drawn_r(antisymmetric))
    exact = _generated(r, f)
    assert generates_cocommutator(r, f, exact)
    _same_r_verdicts(r, f, data.draw(st.sampled_from([exact, other])))


@st.composite
def _rank3_maps(draw):
    """A sum of drawn wedges X_i ^ X_j ^ X_k, plus at most two entries that
    break its total antisymmetry, each alone or with its partner under one
    swap of two slots, negated, as a rank-3 map."""
    t = {}
    idx = st.integers(1, 4)
    for _ in range(draw(st.integers(0, 3))):
        for key, v in wedge3(draw(idx), draw(idx), draw(idx), draw(_Q)).items():
            t[key] = t.get(key, 0) + v
    for _ in range(draw(st.integers(0, 2))):
        a, b, c = (draw(idx) - 1 for _ in range(3))
        v = draw(_NONZERO_Q)
        t[a, b, c] = t.get((a, b, c), 0) + v
        partner = draw(st.sampled_from([None, (b, a, c), (a, c, b)]))
        if partner:
            t[partner] = t.get(partner, 0) - v
    return {key: v for key, v in t.items() if v}


@hyp.settings(max_examples=120, deadline=None)
@hyp.given(st.data(), _rank3_maps())
def test_rank3_map_checks_match_the_dense_oracles_on_drawn_maps(reg, bench, data, t):
    name = data.draw(st.sampled_from(sorted(reg.algebras)))
    f = bench.sc(name, _first(reg, name))
    assert is_totally_antisymmetric(t) is is_totally_antisymmetric_dense(rank3_dense(t))
    assert ad_invariant_rank3(t, f) is ad_invariant_rank3_dense(rank3_dense(t), f)
