"""Differential tests of the Laurent closed-function kernel, the sparse
Schouten kernel, the exact matrix exponential and its block spectrum, the
invariant frames and the exact integrable checks against sympy.

A closed function becomes the sympy sum of its terms c x^k exp(z . x); two
sympy expressions agree when their difference, expanded with the
exponentials of each term merged into one, is 0.  The fixtures' Darboux and
Q functions go to sympy through their text, independently of `to_closed`.
"""

import copy
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from liebialg.closedfun import (  # noqa: E402
    ClosedFunction,
    CRat,
    _char_poly,
    _sparse,
    cf_matexp,
    cfm_mul,
    cfm_reflect,
    derivative_is,
)
from liebialg.errors import UnsupportedSpectrum  # noqa: E402
from liebialg.exprtree import parse_expr, to_text  # noqa: E402
from liebialg.multivec import bracket as field_bracket, jacobiator, lie_derivative, vector  # noqa: E402
from liebialg.integrable import (  # noqa: E402
    CANONICAL_PAIRS,
    _hamiltonian_field,
    closure_check,
    darboux_check,
    load_example,
)

from evalref import (  # noqa: E402
    blocks,
    cf_matexp_pm,
    cfm_const_mul,
    cfm_diff,
    cfm_from_frac,
    dense_of,
    derivative_is_by_matrices,
    eigenvalues,
    jet_bracket,
)

X = sympy.symbols("x1:5")


def _q(c):
    a, b, d = c
    return sympy.Rational(a, d) + sympy.I * sympy.Rational(b, d)


def to_sympy(f):
    out = sympy.Integer(0)
    for (k, z), c in f.terms.items():
        term = _q(c) * sympy.exp(sum(_q(r) * x for r, x in zip(z, X)))
        for e, x in zip(k, X):
            term *= x**e
        out += term
    return out


def from_text(e):
    return sympy.sympify(to_text(e).replace("^", "**"), locals=dict(zip(("x1", "x2", "x3", "x4"), X)))


def is_zero(e):
    e = sympy.powsimp(sympy.expand(e), combine="exp")
    return sympy.expand(e, power_exp=False) == 0


def sympy_bracket(P, f, g):
    return sum(P[a][b] * sympy.diff(f, X[a]) * sympy.diff(g, X[b]) for a in range(4) for b in range(4))


SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
RATE = st.one_of(st.just((0, 0)), st.tuples(SMALL, st.just(0)), st.tuples(SMALL, SMALL))
TERM = st.tuples(
    st.tuples(SMALL, SMALL),
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.lists(RATE, min_size=4, max_size=4),
)


@st.composite
def laurent(draw, max_terms=3):
    f = ClosedFunction.zero()
    for c, k, z in draw(st.lists(TERM, max_size=max_terms)):
        if any(c):
            f = f + ClosedFunction({(tuple(k), tuple(CRat(*r) for r in z)): CRat(*c)})
    return f


@settings(max_examples=30, deadline=None)
@given(laurent(), laurent(), st.integers(1, 4))
def test_laurent_product_and_diff_match_sympy(f, g, i):
    assert is_zero(to_sympy(f * g) - to_sympy(f) * to_sympy(g))
    assert is_zero(to_sympy(f.diff(i)) - sympy.diff(to_sympy(f), X[i - 1]))
    if f.terms and len(f.terms) == 1:
        assert is_zero(to_sympy(f.reciprocal()) * to_sympy(f) - 1)


@settings(max_examples=30, deadline=None)
@given(laurent(), st.integers(1, 4))
def test_reflect_matches_sympy_substitution(f, i):
    x = X[i - 1]
    assert is_zero(to_sympy(f.reflect(i)) - to_sympy(f).subs(x, -x))
    assert f.reflect(i).reflect(i) == f


# --------------------------------------------------------------------------
# The sparse Schouten kernel on drawn fields, against its definitions as
# derivations: [V, W](h) = V(W(h)) - W(V(h)), (L_V P)(df, dg) =
# V(P(df, dg)) - P(d(V f), dg) - P(df, d(V g)) and the Jacobiator
# {x_i, {x_j, x_k}} + cyclic, each at coordinate functions
# --------------------------------------------------------------------------

PAIRS = [(a, b) for a in range(4) for b in range(a + 1, 4)]
WEIGHTS = sympy.symbols("t0:14")


@settings(max_examples=8, deadline=None)
@given(
    st.lists(laurent(1), min_size=4, max_size=4),
    st.lists(laurent(1), min_size=4, max_size=4),
    st.lists(laurent(1), min_size=6, max_size=6),
)
def test_schouten_kernel_matches_sympy(vs, ws, ps):
    p = {ab: f for ab, f in zip(PAIRS, ps) if f}
    P = [[ClosedFunction.zero()] * 4 for _ in range(4)]
    for (a, b), f in p.items():
        P[a][b], P[b][a] = f, -f
    V, W = [to_sympy(f) for f in vs], [to_sympy(f) for f in ws]
    S = [[to_sympy(f) for f in row] for row in P]

    def along(u, h):
        return sum(u[c] * sympy.diff(h, X[c]) for c in range(4))

    zero = ClosedFunction.zero()
    residuals = []
    vw = field_bracket(vector(vs), vector(ws))
    for k in range(4):
        residuals.append(to_sympy(vw.get(k, zero)) - along(V, W[k]) + along(W, V[k]))
    lv = lie_derivative(vector(vs), p)
    for a, b in PAIRS:
        want = along(V, S[a][b]) - sympy_bracket(S, V[a], X[b]) - sympy_bracket(S, X[a], V[b])
        residuals.append(to_sympy(lv.get((a, b), zero)) - want)
    jac = jacobiator(p)
    for i, j, k in [(i, j, k) for i, j in PAIRS for k in range(j + 1, 4)]:
        want = sum(sympy_bracket(S, X[x], S[y][z]) for x, y, z in ((i, j, k), (j, k, i), (k, i, j)))
        residuals.append(to_sympy(jac.get((i, j, k), zero)) - want)
    # one zero test: the weights are symbols that no residual contains
    assert is_zero(sum(t * r for t, r in zip(WEIGHTS, residuals)))


# --------------------------------------------------------------------------
# cf_matexp against S exp(xJ) S^-1, with exp(xJ) written out block by block
# --------------------------------------------------------------------------

RATIONAL = st.builds(sympy.Rational, st.integers(-3, 3), st.integers(1, 2))


def _jordan(k, lam, x):
    """J_k(lam) and exp(x J_k(lam)): e^{lam x} x^(c-r)/(c-r)! above the diagonal."""
    J, E = sympy.zeros(k), sympy.zeros(k)
    for r in range(k):
        J[r, r] = lam
        if r + 1 < k:
            J[r, r + 1] = 1
        for c in range(r, k):
            E[r, c] = sympy.exp(lam * x) * x ** (c - r) / sympy.factorial(c - r)
    return J, E


def _rotation(a, b, x):
    """[[a, -b], [b, a]] and its exponential e^{ax} times the rotation by bx."""
    J = sympy.Matrix([[a, -b], [b, a]])
    c, s = sympy.cos(b * x), sympy.sin(b * x)
    return J, sympy.exp(a * x) * sympy.Matrix([[c, -s], [s, c]])


def _complex_pair(a, b, x):
    """[[C, I], [0, C]] with C a rotation-scaling block: exp is [[E, xE], [0, E]]."""
    C, E = _rotation(a, b, x)
    J, expJ = sympy.diag(C, C), sympy.diag(E, E)
    J[:2, 2:] = sympy.eye(2)
    expJ[:2, 2:] = x * E
    return J, expJ


@st.composite
def _block(draw, room, x):
    kinds = ["jordan", "zero"] + ["rotation"] * (room >= 2) + ["pair"] * (room >= 4)
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        k = draw(st.integers(1, room))
        return sympy.zeros(k), sympy.eye(k)
    if kind == "jordan":
        return _jordan(draw(st.integers(1, min(room, 3))), draw(RATIONAL), x)
    a, b = draw(RATIONAL), draw(RATIONAL.filter(bool))
    return (_rotation if kind == "rotation" else _complex_pair)(a, b, x)


@st.composite
def conjugated_exponentials(draw):
    """(coord, M, exp(x_coord M)) with M = S J S^-1, J block-diagonal and S a
    small-integer invertible matrix."""
    coord = draw(st.integers(1, 4))
    x = X[coord - 1]
    n = draw(st.integers(1, 4))
    blocks = []
    while sum(J.rows for J, _ in blocks) < n:
        blocks.append(draw(_block(n - sum(J.rows for J, _ in blocks), x)))
    J = sympy.diag(*[J for J, _ in blocks])
    E = sympy.diag(*[E for _, E in blocks])
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    S = draw(st.lists(row, min_size=n, max_size=n).map(sympy.Matrix).filter(lambda s: s.det() != 0))
    Sinv = S.inv()
    return coord, S * J * Sinv, S * E * Sinv


def _fractions(M):
    return [[Fraction(int(v.p), int(v.q)) for v in M.row(i)] for i in range(M.rows)]


@settings(max_examples=25, deadline=None)
@given(conjugated_exponentials())
def test_matexp_matches_the_conjugated_block_exponential(case):
    coord, M, want = case
    got = cf_matexp(_fractions(M), coord)
    for i in range(M.rows):
        for j in range(M.cols):
            assert is_zero((to_sympy(got[i][j]) - want[i, j]).rewrite(sympy.exp))


@settings(max_examples=25, deadline=None)
@given(conjugated_exponentials())
def test_matexp_of_minus_m_is_the_reflection(case):
    coord, M, _ = case
    e, em = cf_matexp(_fractions(M), coord), cf_matexp(_fractions(-M), coord)
    reflected = cfm_reflect(e, coord)
    assert [[f.terms for f in row] for row in reflected] == [[f.terms for f in row] for row in em]
    assert cf_matexp_pm(_fractions(M), coord) == (e, em)


def _stratum(m):
    """The kind of exponential a corpus adjoint has: zero; only 1 x 1 blocks,
    all at 0 (nilpotent), at distinct nonzero eigenvalues or with a nonzero
    one repeated; or an irreducible block with complex, repeated or real
    eigenvalues."""
    n, mc = len(m), _sparse(m)
    if not mc:
        return "zero"
    big = [b for b in blocks(mc, n) if len(b) > 1]
    if big:
        at = {i: r for r, i in enumerate(big[0])}
        lams = eigenvalues({(at[i], at[j]): c for (i, j), c in mc.items() if i in at and j in at}, len(at))
        if any(not lam.is_real() for lam in lams):
            return "block, complex"
        return "block, repeated" if len(set(lams)) < len(lams) else "block, real"
    lams = [lam for lam in eigenvalues(mc, n) if lam]
    if not lams:
        return "nilpotent"
    return "repeated" if len(set(lams)) < len(lams) else "distinct"


def test_block_exponential_matches_sympy_on_a_stratified_corpus_sample(reg):
    # the first two distinct adjoints of each stratum, in corpus order over
    # the full grid, against sympy's exp(x M)
    sample, seen = {}, set()
    for name in sorted(reg.algebras):
        for b in reg.grid_bindings(name):
            for i, m in enumerate(reg.instantiate(name, b).adjoints()):
                key = (tuple(map(tuple, m)), i)
                if key not in seen:
                    seen.add(key)
                    bucket = sample.setdefault(_stratum(m), [])
                    if len(bucket) < 2:
                        bucket.append((m, i + 1))
    assert sorted(sample) == ["block, complex", "block, real", "block, repeated", "distinct",
                              "nilpotent", "repeated", "zero"]
    for cases in sample.values():
        for m, coord in cases:
            got = cf_matexp(m, coord)
            want = (_sympy_matrix(m) * X[coord - 1]).exp()
            for i, row in enumerate(got):
                for j, f in enumerate(row):
                    assert is_zero((to_sympy(f) - want[i, j]).rewrite(sympy.exp)), (m, coord, i, j)


# --------------------------------------------------------------------------
# The sparse characteristic polynomial, the block spectrum and constant
# products on sparse 4x4 and 8x8 matrices with a known kind of spectrum
# --------------------------------------------------------------------------

SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def sparse_matrices(draw):
    """A sparse n x n matrix (n = 4 or 8) of Fractions or CRats: zero,
    nilpotent (strictly upper triangular), triangular with a real or a Q(i)
    diagonal, or rotation-scaling blocks [[a, -b], [b, a]] (eigenvalues
    a +- bi) with couplings above them; rows and columns then permuted
    together, which keeps the spectrum and the sparsity."""
    n = draw(st.sampled_from([4, 8]))
    kind = draw(st.sampled_from(["zero", "nilpotent", "real", "complex", "rotation"]))
    m = [[Fraction(0)] * n for _ in range(n)]
    if kind != "zero":
        block = (lambda i: i // 2) if kind == "rotation" else (lambda i: i)
        upper = [(i, j) for i in range(n) for j in range(n) if block(i) < block(j)]
        for i, j in draw(st.lists(st.sampled_from(upper), max_size=n, unique=True)):
            m[i][j] = draw(SMALL)
    if kind in ("real", "complex"):
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)):
            m[i][i] = CRat(draw(SMALL), draw(SMALL)) if kind == "complex" else draw(SMALL)
    if kind == "rotation":
        for i in range(0, n, 2):
            a, b = draw(SMALL), draw(SMALL.filter(bool))
            m[i][i] = m[i + 1][i + 1] = a
            m[i][i + 1], m[i + 1][i] = -b, b
    perm = draw(st.permutations(range(n)))
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _sympy_matrix(m):
    return sympy.Matrix([[_q(CRat(x) if not isinstance(x, CRat) else x) for x in row] for row in m])


@settings(max_examples=40, deadline=None)
@given(sparse_matrices())
def test_sparse_char_poly_matches_sympy(m):
    lam = sympy.Symbol("lam")
    want = _sympy_matrix(m).charpoly(lam).all_coeffs()
    got = _char_poly(_sparse(m), len(m))
    assert len(got) == len(want) == len(m) + 1
    assert all(sympy.expand(_q(g) - w) == 0 for g, w in zip(got, want)), (m, got, want)


@settings(max_examples=40, deadline=None)
@given(sparse_matrices())
def test_block_eigenvalues_match_sympy(m):
    want = _sympy_matrix(m).eigenvals(multiple=True)
    got = [_q(c) for c in eigenvalues(_sparse(m), len(m))]
    key = sympy.default_sort_key
    assert sorted(got, key=key) == sorted(map(sympy.expand, want), key=key), m


def _pattern(entries):
    return {(i, j): CRat(1) for i, j in entries}


def test_blocks_are_the_strongly_connected_components():
    assert blocks({}, 4) == [(0,), (1,), (2,), (3,)]
    # a diagonal and a triangle: no edge comes back, so every block is 1 x 1
    assert blocks(_pattern([(0, 0), (0, 3), (1, 2), (2, 3), (0, 1)]), 4) == [(0,), (1,), (2,), (3,)]
    # the cycle 0 -> 2 -> 3 -> 0 with 1 feeding into it
    assert blocks(_pattern([(0, 2), (2, 3), (3, 0), (1, 0)]), 4) == [(0, 2, 3), (1,)]
    # two 2-cycles, one coupled to the other, listed by their smallest index
    assert blocks(_pattern([(1, 3), (3, 1), (0, 2), (2, 0), (3, 0)]), 4) == [(0, 2), (1, 3)]
    # an 8-cycle is one block, its chain is eight
    cycle = [(i, (i + 1) % 8) for i in range(8)]
    assert blocks(_pattern(cycle), 8) == [tuple(range(8))]
    assert blocks(_pattern(cycle[:-1]), 8) == [(i,) for i in range(8)]


def test_an_irrational_block_names_its_own_factor():
    # diag(3, [[0, 1], [2, 0]], 1/2) with couplings above: the sqrt(2)
    # block raises, and the factor is its own lambda^2 - 2
    m = [[Fraction(0)] * 4 for _ in range(4)]
    m[0][0], m[3][3] = Fraction(3), Fraction(1, 2)
    m[1][2], m[2][1] = Fraction(1), Fraction(2)
    m[0][1], m[0][3], m[2][3] = Fraction(5), Fraction(-1), Fraction(7)
    assert blocks(_sparse(m), 4) == [(0,), (1, 2), (3,)]
    with pytest.raises(UnsupportedSpectrum) as exc:
        cf_matexp(m, 2)
    assert exc.value.factor == [(1, 0), (0, 0), (-2, 0)]


# three term keys and coefficients that collide and cancel under scaling
_KEYS = [
    ((0, 0, 0, 0), (CRat(0),) * 4),
    ((1, 0, 0, 0), (CRat(0),) * 4),
    ((0, 0, 0, 0), (CRat(0, 1),) + (CRat(0),) * 3),
]
_ENTRY = st.one_of(
    st.just(ClosedFunction.zero()),
    st.dictionaries(
        st.sampled_from(_KEYS),
        st.sampled_from([CRat(-2), CRat(-1), CRat(1), CRat(2), CRat(1, 1)]),
        min_size=1,
        max_size=3,
    ).map(ClosedFunction),
)


@settings(max_examples=40, deadline=None)
@given(sparse_matrices(), st.data())
def test_constant_product_matches_the_dense_product(m, data):
    n = len(m)
    cols = data.draw(st.integers(1, 4))
    a = data.draw(st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols), min_size=n, max_size=n))
    got, want = cfm_const_mul(m, a), cfm_mul(cfm_from_frac(m), a)
    assert [[g.terms for g in row] for row in got] == [[w.terms for w in row] for row in want]
    assert all(c for row in got for g in row for c in g.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derivative_is_matches_the_matrix_comparison(data):
    # x = m z and y = z' give x' = m y; a drawn perturbation of x may break it
    rows, inner, cols = (data.draw(st.integers(1, k)) for k in (4, 8, 4))
    coord = data.draw(st.integers(1, 4))
    mc = data.draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, inner - 1)),
        st.sampled_from([CRat(-2), CRat(1), CRat(1, 1), CRat(Fraction(1, 2))]),
        max_size=6,
    ))
    z = data.draw(st.lists(st.lists(laurent(2), min_size=cols, max_size=cols), min_size=inner, max_size=inner))
    y = cfm_diff(z, coord)
    x = cfm_const_mul(dense_of(mc, rows, inner), z)
    perturbed = data.draw(st.sampled_from([None, "add", "zero"]))
    if perturbed:
        # a term map added to an entry, or the entry zeroed: a zero x[r][j]
        # against a nonzero (m y)[r][j] must still be read
        r, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        x[r][j] = x[r][j] + data.draw(laurent(2)) if perturbed == "add" else ClosedFunction.zero()
    want = derivative_is_by_matrices(x, coord, mc, y)
    assert derivative_is(x, coord, mc, y) == want
    assert want or perturbed


# --------------------------------------------------------------------------
# Invariant frames against R and L rebuilt from sympy's matrix exponential
# --------------------------------------------------------------------------


def _sympy_one_forms(sc):
    """R and L of the chart g = e^{x1 X1} ... e^{x4 X4} from sympy's
    exp(+-x_m ad X_m): R as `invariant_frame` assembles it, L from the suffix
    products of `evalref.left_fields_by_adjugate`."""
    n = sc.dim
    adj = [sympy.Matrix(a) for a in sc.adjoints()]
    R, L = sympy.zeros(n), sympy.zeros(n)
    prod = sympy.eye(n)
    R[:, 0] = prod.row(0).T
    for j in range(1, n):
        prod = (-X[j - 1] * adj[j - 1]).exp() * prod
        R[:, j] = prod.row(j).T
    prod = sympy.eye(n)
    L[:, n - 1] = prod.row(n - 1).T
    for j in range(n - 2, -1, -1):
        prod = (X[j + 1] * adj[j + 1]).exp() * prod
        L[:, j] = prod.row(j).T
    return R, L


@pytest.mark.parametrize("name", ["A_4_1", "A_4_2_m1", "VII0+R", "A_4_12"])
def test_frame_inverts_the_sympy_one_forms(reg, bench, name):
    # nilpotent, real spectrum, complex spectrum, and a mixed real/complex one
    binding = reg.grid_bindings(name, cap=1)[0]
    frame = bench.frame(name, binding)
    R, L = _sympy_one_forms(reg.instantiate(name, binding))
    for one_forms, fields in ((R, frame.XR), (L, frame.XL)):
        fields_T = sympy.Matrix([[to_sympy(f) for f in row] for row in fields]).T
        residual = one_forms * fields_T - sympy.eye(4)
        assert all(is_zero(v.rewrite(sympy.exp)) for v in residual)

@pytest.fixture(scope="module")
def examples(reg):
    return [load_example(reg, ex_id) for ex_id in (1, 2)]


def test_bracket_matches_sympy(examples):
    bivectors = [(ex.bivector, [[to_sympy(p) for p in row] for row in ex.bivector.P]) for ex in examples]

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(bivectors), laurent(2), laurent(2))
    def check(bivector, f, g):
        pb, P = bivector
        assert is_zero(to_sympy(jet_bracket(pb, f, g)) - sympy_bracket(P, to_sympy(f), to_sympy(g)))

    check()


def _brackets(ex):
    """sympy's verdict on each Darboux and closure bracket of ex: the labels
    of the brackets whose identity does not simplify to 0."""
    P = [[to_sympy(p) for p in row] for row in ex.bivector.P]
    ys = [from_text(y) for y in ex.darboux]
    qs = [from_text(q) for q in ex.qfuncs]
    darboux, closure = [], []
    for a in range(1, 5):
        for b in range(a + 1, 5):
            if not is_zero(sympy_bracket(P, ys[a - 1], ys[b - 1]) - int((a, b) in CANONICAL_PAIRS)):
                darboux.append(f"{{y{a},y{b}}}")
            f = ex.symmetry.f[a - 1][b - 1]
            want = sum(sympy.Rational(f[k].numerator, f[k].denominator) * qs[k] for k in range(4))
            if not is_zero(sympy_bracket(P, qs[a - 1], qs[b - 1]) - want):
                closure.append(f"{{Q{a},Q{b}}}")
    return darboux, closure


def test_fixture_brackets_simplify_to_the_exact_verdicts(examples):
    # the printed y2 of example 2 (x3 where x2 closes the brackets) makes
    # the agreement two-sided: both sides name the same three failures
    slip = copy.copy(examples[1])
    slip.darboux = list(slip.darboux)
    slip.darboux[1] = parse_expr("-(2*exp(x3)*x1*x4 + x3)/x1")
    verdicts = []
    for ex in examples + [slip]:
        darboux, closure = _brackets(ex)
        assert darboux == darboux_check(ex).failing
        assert closure == closure_check(ex).failing
        verdicts.append(darboux + closure)
    assert verdicts == [[], [], ["{y1,y2}", "{y2,y3}", "{y2,y4}"]]


def test_hamiltonian_field_matches_sympy(examples):
    # the field the RK4 flow integrates, X_H^i = {H, x_i}, for H = Q2
    for ex in examples:
        P = [[to_sympy(p) for p in row] for row in ex.bivector.P]
        h = from_text(ex.qfuncs[1])
        field = _hamiltonian_field(ex.bivector, ex.qfuncs[1].to_closed())
        for xi, component in zip(X, field):
            assert is_zero(to_sympy(component) - sympy_bracket(P, h, xi))
