"""Differential tests of the Laurent closed-function kernel and the exact
integrable checks against sympy.

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

from liebialg.closedfun import ClosedFunction, CRat  # noqa: E402
from liebialg.exprtree import parse_expr, to_text  # noqa: E402
from liebialg.integrable import (  # noqa: E402
    CANONICAL_PAIRS,
    _hamiltonian_field,
    bracket,
    closure_check,
    darboux_check,
    load_example,
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


@pytest.fixture(scope="module")
def examples(reg):
    return [load_example(reg, ex_id) for ex_id in (1, 2)]


def test_bracket_matches_sympy(examples):
    bivectors = [(ex.bivector, [[to_sympy(p) for p in row] for row in ex.bivector.P]) for ex in examples]

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(bivectors), laurent(2), laurent(2))
    def check(bivector, f, g):
        pb, P = bivector
        assert is_zero(to_sympy(bracket(pb, f, g)) - sympy_bracket(P, to_sympy(f), to_sympy(g)))

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
