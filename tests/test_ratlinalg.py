"""Differential tests of the integer elimination kernel against sympy.

Every function is compared with sympy's exact `Matrix.rref()` / `det()` on
random rational matrices: zero rows and columns, duplicate rows, plain int
entries, denominators up to 12, and sparse tall 64x17 systems shaped like the
r-matrix defining system.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from evalref import inverse, rank, solve_affine  # noqa: E402
from liebialg import ratlinalg as rl  # noqa: E402
from liebialg.errors import InputError  # noqa: E402

RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
# about half the entries are zero; a few are plain ints
ENTRY = st.one_of(st.just(Fraction(0)), RATIONAL, st.integers(-3, 3))


@st.composite
def matrices(draw, max_rows=7, max_cols=7, rows=None, cols=None):
    rows = rows or draw(st.integers(1, max_rows))
    cols = cols or draw(st.integers(1, max_cols))
    m = [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        m[draw(st.integers(1, rows - 1))] = list(m[0])
    if draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [0] * cols
    if draw(st.booleans()):
        c = draw(st.integers(0, cols - 1))
        for row in m:
            row[c] = Fraction(0)
    return m


@st.composite
def sparse_tall(draw, rows=64, cols=17):
    m = [[Fraction(0)] * cols for _ in range(rows)]
    for _ in range(draw(st.integers(0, 90))):
        r = draw(st.integers(0, rows - 1))
        c = draw(st.integers(0, cols - 1))
        m[r][c] = draw(RATIONAL)
    return m


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def all_fractions(m):
    return all(type(x) is Fraction for row in m for x in row)


def times(m, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def check_rref(m):
    red, pivots = rl.rref(m)
    ref, ref_pivots = to_sympy(m).rref()
    assert pivots == list(ref_pivots)
    assert red == [[from_sympy(x) for x in ref.row(i)] for i in range(ref.rows)]
    assert all_fractions(red)
    assert rank(m) == len(ref_pivots)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_and_rank_match_sympy(m):
    check_rref(m)


@settings(max_examples=25, deadline=None)
@given(sparse_tall())
def test_rref_sparse_tall_matches_sympy(m):
    check_rref(m)


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=6, max_cols=6))
def test_nullspace_matches_sympy(m):
    basis = rl.nullspace(m)
    ref = to_sympy(m).nullspace()
    assert len(basis) == len(ref)
    for v, w in zip(basis, ref):
        assert v == [from_sympy(x) for x in w]
        assert all_fractions([v])
        assert times(m, v) == [0] * len(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: matrices(rows=n, cols=n) if n else st.just([])))
def test_det_and_inverse_match_sympy(m):
    n = len(m)
    d = rl.det(m)
    assert type(d) is Fraction
    ref = to_sympy(m) if n else sympy.Matrix([])
    assert d == from_sympy(ref.det())
    if not n:
        return
    if d:
        inv = inverse(m)
        assert inv == [[from_sympy(x) for x in ref.inv().row(i)] for i in range(n)]
        assert all_fractions(inv)
    else:
        with pytest.raises(InputError):
            inverse(m)


def check_solve(a, b):
    aug = to_sympy([row + [y] for row, y in zip(a, b)])
    consistent = aug.rank() == to_sympy(a).rank()
    sol = solve_affine([row + [y] for row, y in zip(a, b)], len(a[0]))
    if not consistent:
        assert sol is None
        return
    part, kernel = sol
    assert times(a, part) == b
    assert kernel == rl.nullspace(a)
    assert all_fractions([part] + kernel)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_affine_consistent(a, data):
    x = [data.draw(ENTRY) for _ in a[0]]
    check_solve(a, times(a, x))


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_affine_any_right_side(a, data):
    b = [Fraction(data.draw(ENTRY)) for _ in a]
    check_solve(a, b)


@settings(max_examples=15, deadline=None)
@given(sparse_tall(cols=16), st.data())
def test_solve_affine_sparse_tall(a, data):
    x = [data.draw(RATIONAL) for _ in a[0]]
    b = times(a, x)
    check_solve(a, b)
    i = data.draw(st.integers(0, len(a) - 1))
    b[i] += 1
    check_solve(a, b)


def test_solve_affine_inconsistent_zero_row():
    a = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]
    assert solve_affine([a[0] + [Fraction(1)], a[1] + [Fraction(1, 3)]], 2) is None
    part, kernel = solve_affine([a[0] + [Fraction(1, 2)], a[1] + [Fraction(0)]], 2)
    assert part == [Fraction(1, 2), 0]
    assert kernel == [[Fraction(-2), Fraction(1)]]
