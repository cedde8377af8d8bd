"""Closed-function engine: canonical arithmetic, calculus, matrix exponentials."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from liebialg.closedfun import (
    CRat,
    ClosedFunction,
    cf_const,
    cf_coord,
    cf_cos,
    cf_cosh,
    cf_exp,
    cf_matexp,
    cf_sin,
    cf_sinh,
    cfm_eq,
    cfm_eval,
    cfm_identity,
    cfm_inverse_unitdet,
    cfm_mul,
)
from liebialg.core import StructureConstants
from liebialg.errors import EvalError, InputError, NonUnitDeterminant, UnsupportedSpectrum
from liebialg.exprtree import parse_expr
from liebialg.render import render_closed_function

from evalref import outcome, term_loop


def _random_cf(rng, depth=3):
    atoms = [
        cf_const(Fraction(rng.randint(-3, 3), rng.randint(1, 3))),
        cf_coord(rng.randint(1, 4)),
        cf_exp({rng.randint(1, 4): Fraction(rng.randint(-2, 2))}),
        cf_cos({rng.randint(1, 4): Fraction(rng.randint(1, 2))}),
        cf_sin({rng.randint(1, 4): Fraction(rng.randint(1, 2))}),
        cf_sinh({rng.randint(1, 4): Fraction(rng.randint(1, 2), 2)}),
    ]
    f = atoms[rng.randrange(len(atoms))]
    for _ in range(depth):
        g = atoms[rng.randrange(len(atoms))]
        f = f * g if rng.random() < 0.5 else f + g
    return f


def test_add_cancels_to_empty():
    assert (cf_const(1) + cf_const(-1)).is_zero()


def test_exp_rates_add_under_multiplication():
    half = cf_exp({4: Fraction(1, 2)})
    assert half * half == cf_exp({4: 1})


def test_pythagorean_identity():
    s, c = cf_sin({4: 1}), cf_cos({4: 1})
    assert s * s + c * c == cf_const(1)


def test_cosh_sinh_identity():
    s, c = cf_sinh({2: 1}), cf_cosh({2: 1})
    assert c * c - s * s == cf_const(1)


def test_trig_of_a_zero_argument():
    # the two exponentials of cos 0 and sin 0 share one term key
    for zero in ({}, {3: 0}):
        assert cf_cos(zero) == cf_cosh(zero) == cf_exp(zero) == cf_const(1)
        assert cf_sin(zero) == cf_sinh(zero) == ClosedFunction.zero()


def test_canonical_roundtrips_200_random():
    rng = random.Random(0)
    for _ in range(200):
        f = _random_cf(rng)
        g = _random_cf(rng)
        assert ((f + g) - g - f).is_zero()
        assert (f - f).is_zero()
        h = (f + g) * (f - g) - (f * f - g * g)
        assert h.is_zero()


def test_diff_exponential():
    f = cf_const(1) - cf_exp({4: -2})
    assert f.diff(4) == cf_exp({4: -2}).scale(2)


def test_diff_unused_coordinate():
    f = cf_coord(4, 2).scale(Fraction(1, 2))
    assert f.diff(1).is_zero()


def test_diff_cos_gives_minus_sin():
    assert cf_cos({3: 1}).diff(3) == -cf_sin({3: 1})


def test_diff_matches_central_differences():
    rng = random.Random(1)
    h = 1e-6
    for _ in range(25):
        f = _random_cf(rng)
        if not f.is_real():
            f = f + f.conjugate()
        i = rng.randint(1, 4)
        df = f.diff(i)
        for _ in range(20):
            p = [rng.uniform(-1, 1) for _ in range(4)]
            pp, pm = list(p), list(p)
            pp[i - 1] += h
            pm[i - 1] -= h
            numeric = (f.eval(pp) - f.eval(pm)) / (2 * h)
            analytic = df.eval(p)
            assert abs(analytic - numeric) / (1 + abs(analytic)) < 1e-6


def test_eval_fixed_values():
    f = cf_const(1) - cf_exp({4: -2})
    assert f.eval([0, 0, 0, 0]) == 0
    g = cf_coord(4, 2).scale(Fraction(1, 2))
    assert g.eval([0, 0, 0, 2.0]) == pytest.approx(2.0)


def test_eval_real_pairing_property():
    rng = random.Random(2)
    for _ in range(30):
        f = _random_cf(rng)
        f = f + f.conjugate()  # force a real function
        assert f.is_real()
        p = [rng.uniform(-1, 1) for _ in range(4)]
        f.eval(p)  # must not raise the imaginary-residue error


def test_eval_rejects_nonreal():
    f = ClosedFunction.const(CRat(0, 1))
    with pytest.raises(Exception):
        f.eval([0.1, 0.2, 0.3, 0.4])


def test_matexp_zero_matrix():
    assert cfm_eq(cf_matexp([[Fraction(0)] * 4 for _ in range(4)], 1), cfm_identity(4))


def test_matexp_nilpotent_a41():
    a41 = StructureConstants.from_brackets(4, {(2, 4): [(1, 1)], (3, 4): [(1, 2)]})
    e = cf_matexp(a41.adjoint(3), 4)
    assert e[2][0] == cf_coord(4, 2).scale(Fraction(1, 2))


def test_matexp_rotation_block():
    m = [[Fraction(0)] * 4 for _ in range(4)]
    m[0][1] = Fraction(-1)
    m[1][0] = Fraction(1)
    e = cf_matexp(m, 3)
    assert e[0][0] == cf_cos({3: 1})
    assert e[0][1] == -cf_sin({3: 1})


def test_matexp_inverse_identity_on_corpus_adjoints(reg):
    for name in ("A_4_7", "A_4_11_b", "A_4_12", "VI0+R", "III+R"):
        binding = reg.grid_bindings(name, cap=1)[0]
        sc = reg.instantiate(name, binding)
        for i in range(4):
            m = sc.adjoint(i)
            e = cf_matexp(m, i + 1)
            em = cf_matexp([[-x for x in row] for row in m], i + 1)
            assert cfm_eq(cfm_mul(e, em), cfm_identity(4))


def test_matexp_split_exponents_numerically():
    rng = random.Random(5)
    m = [[Fraction(0)] * 4 for _ in range(4)]
    m[0][0] = Fraction(1, 2)
    m[1][2] = Fraction(1)
    m[2][1] = Fraction(-1)
    e = cf_matexp(m, 1)
    for _ in range(10):
        s, t = rng.uniform(-1, 1), rng.uniform(-1, 1)
        for i in range(4):
            for j in range(4):
                full = e[i][j].eval([s + t, 0, 0, 0])
                split = sum(
                    e[i][k].eval([s, 0, 0, 0]) * e[k][j].eval([t, 0, 0, 0])
                    for k in range(4)
                )
                assert abs(full - split) < 1e-9


def test_matexp_unsupported_spectrum():
    m = [[Fraction(0)] * 2 for _ in range(2)]
    m[0][1] = Fraction(1)
    m[1][0] = Fraction(2)  # eigenvalues +-sqrt(2)
    with pytest.raises(UnsupportedSpectrum) as exc:
        cf_matexp(m, 1)
    assert exc.value.factor is not None


def test_integral_of_polynomial_times_exponential():
    x = cf_coord(2)
    f = x * cf_exp({2: 1}) * cf_coord(4)
    # int_0^x2 s e^s ds = (x2 - 1) e^x2 + 1, times x4
    want = ((x - cf_const(1)) * cf_exp({2: 1}) + cf_const(1)) * cf_coord(4)
    assert f.integral(2) == want
    assert cf_cos({1: 1}).integral(1) == cf_sin({1: 1})
    assert cf_coord(3, 2).integral(3) == cf_coord(3, 3).scale(Fraction(1, 3))
    assert ClosedFunction.zero().integral(1).is_zero()


def _on_hyperplane(f, i):
    """Term map of f restricted to x_i = 0 (0-based slot i)."""
    acc = {}
    for (k, z), c in f.terms.items():
        if not k[i]:
            key = (k, z[:i] + (CRat(0),) + z[i + 1 :])
            acc[key] = acc.get(key, CRat(0)) + c
    return {key: c for key, c in acc.items() if c}


def test_integral_inverts_diff_and_vanishes_at_zero():
    given, settings, st, pairs = _hypothesis()
    small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    zero = st.just((Fraction(0), Fraction(0)))
    rate = st.one_of(zero, st.tuples(small, st.just(Fraction(0))), st.tuples(small, small))
    four = lambda s: st.lists(s, min_size=4, max_size=4)  # noqa: E731
    term = st.tuples(st.tuples(small, small), four(st.integers(-2, 3)), four(rate))

    @settings
    @given(st.lists(term, max_size=5), st.integers(1, 4))
    def check(terms, i):
        f = ClosedFunction.zero()
        for c, k, z in terms:
            k[i - 1] = abs(k[i - 1])  # Laurent terms in the other coordinates only
            if any(c):
                f = f + ClosedFunction({(tuple(k), tuple(CRat(*r) for r in z)): CRat(*c)})
        g = f.integral(i)
        assert g.diff(i) == f
        assert _on_hyperplane(g, i - 1) == {}

    check()


def test_inverse_requires_unit_determinant():
    bad = cfm_identity(2)
    bad[0][0] = cf_const(1) + cf_coord(1)
    with pytest.raises(NonUnitDeterminant):
        cfm_inverse_unitdet(bad)


def _laurent(k, rates=(0, 0, 0, 0), c=1):
    """The single term c x^k exp(rates . x), built as a term map."""
    return ClosedFunction({(tuple(k), tuple(CRat(r) for r in rates)): CRat(c)})


def test_laurent_terms_multiply_and_differentiate():
    inv2 = _laurent((0, -1, 0, 0))
    assert cf_coord(2) * inv2 == cf_const(1)
    assert inv2 * inv2 == _laurent((0, -2, 0, 0))
    assert inv2.diff(2) == _laurent((0, -2, 0, 0), c=-1)
    f = _laurent((1, -2, 0, 0), (0, 0, 0, 1), Fraction(3, 2))
    assert f.reciprocal() == _laurent((-1, 2, 0, 0), (0, 0, 0, -1), Fraction(2, 3))
    assert f * f.reciprocal() == cf_const(1)
    with pytest.raises(InputError):
        (cf_coord(1) + cf_coord(2)).reciprocal()
    with pytest.raises(EvalError):
        ClosedFunction.zero().reciprocal()
    # a determinant with a monomial factor has no unit inverse, Laurent or not
    for d in (cf_coord(1), inv2):
        with pytest.raises(NonUnitDeterminant):
            cfm_inverse_unitdet([[d]])


def test_laurent_round_trips_through_text():
    f = _laurent((1, -2, 0, 0), (0, 0, 0, 1), Fraction(-1, 2)) + _laurent((0, 0, -1, 0))
    text = render_closed_function(f)
    assert "x2^-2" in text and "x3^-1" in text
    assert parse_expr(text).to_closed() == f


def test_integral_rejects_a_negative_power_of_its_coordinate():
    # e^{x2}/x2^2 has no antiderivative in the class, and none vanishing on x2 = 0
    with pytest.raises(InputError):
        _laurent((0, -2, 0, 0), (0, 1, 0, 0)).integral(2)
    with pytest.raises(InputError):
        _laurent((0, -1, 0, 0)).integral(2)
    # a pole in another coordinate is held fixed
    assert _laurent((1, -1, 0, 0)).integral(1) == _laurent((2, -1, 0, 0), c=Fraction(1, 2))


def test_eval_at_zero_rejects_a_pole():
    with pytest.raises(InputError):
        _laurent((0, -1, 0, 0)).eval_at_zero()
    with pytest.raises(InputError):
        (cf_const(1) + _laurent((0, 0, 0, -2), (1, 0, 0, 0))).eval_at_zero()
    assert (cf_const(2) + cf_coord(1)).eval_at_zero() == 2


def test_compiled_eval_at_a_pole_is_an_eval_error():
    f = _laurent((1, -1, 0, 0), (0, 0, 0, 1)) + cf_const(1)
    assert f.eval([2.0, 4.0, 0.0, 0.0]) == 1.5
    for p in ([1.0, 0.0, 1.0, 1.0], [1.0, -0.0, 1.0, 1.0]):
        with pytest.raises(EvalError, match="pole at x2"):
            f.eval(p)
        with pytest.raises(EvalError, match="pole at x2"):
            cfm_eval([[cf_coord(3), f]], p)
    # no guard without a negative exponent: x2 at x2 = 0 is 0
    assert cfm_eval([[cf_coord(2), cf_coord(2, 2)]], [1.0, 0.0, 1.0, 1.0]) == [[0.0, 0.0]]


def test_inverse_of_exponential_matrix():
    m = [[Fraction(0)] * 3 for _ in range(3)]
    m[0][0] = Fraction(2)
    m[1][2] = Fraction(1)
    e = cf_matexp(m, 2)
    inv = cfm_inverse_unitdet(e)
    assert cfm_eq(cfm_mul(e, inv), cfm_identity(3))


# --------------------------------------------------------------------------
# CRat against a (Fraction, Fraction) reference
# --------------------------------------------------------------------------


def _hypothesis():
    hyp = pytest.importorskip("hypothesis")
    fracs = hyp.strategies.fractions(max_denominator=10**4)
    pairs = hyp.strategies.tuples(fracs, fracs)
    return hyp.given, hyp.settings(max_examples=150, deadline=None), hyp.strategies, pairs


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def _pair(c):
    return (c.re, c.im)


def _assert_canonical(c):
    a, b, d = c
    assert type(c) is CRat and d > 0 and math.gcd(a, b, d) == 1


def test_crat_arithmetic_matches_fraction_pairs():
    given, settings, st, pairs = _hypothesis()

    @settings
    @given(pairs, pairs, st.integers(-50, 50))
    def check(x, y, n):
        cx, cy = CRat(*x), CRat(*y)
        results = {
            "add": (cx + cy, (x[0] + y[0], x[1] + y[1])),
            "sub": (cx - cy, (x[0] - y[0], x[1] - y[1])),
            "mul": (cx * cy, _ref_mul(x, y)),
            "neg": (-cx, (-x[0], -x[1])),
            "conj": (cx.conjugate(), (x[0], -x[1])),
            "radd": (n + cx, (n + x[0], x[1])),
            "rsub": (n - cx, (n - x[0], -x[1])),
            "rmul": (n * cx, (n * x[0], n * x[1])),
        }
        if any(y):
            results["div"] = (cx / cy, _ref_div(x, y))
        else:
            with pytest.raises(ZeroDivisionError):
                cx / cy
        for name, (got, want) in results.items():
            _assert_canonical(got)
            assert _pair(got) == want, name
        assert bool(cx) == any(x)
        assert cx.is_real() == (not x[1])
        assert cx.to_complex() == complex(*x)  # bit-identical floats

    check()


def test_crat_equality_with_ints_fractions_and_crats():
    given, settings, st, pairs = _hypothesis()

    @settings
    @given(pairs, pairs, st.integers(-5, 5))
    def check(x, y, n):
        cx = CRat(*x)
        assert (cx == CRat(*y)) == (x == y)
        assert (cx != CRat(*y)) == (x != y)
        assert (cx == y[0]) == (y[0] == cx) == (x == (y[0], 0))
        assert (cx == n) == (n == cx) == (x == (n, 0))
        assert (cx != n) == (x != (n, 0))

    check()
    with pytest.raises(TypeError):
        CRat(1) < CRat(2)  # Q(i) has no order, whatever the triples say


def test_crat_canonical_form():
    given, settings, st, pairs = _hypothesis()

    @settings
    @given(pairs, st.integers(1, 10**6))
    def check(x, k):
        # the same value reached by different routes
        routes = [
            CRat(*x),
            CRat(x[0]) + CRat(0, x[1]),
            CRat(*x) * k / k,
            (CRat(*x) - CRat(Fraction(1, k), 1)) + CRat(Fraction(1, k), 1),
        ]
        for c in routes:
            _assert_canonical(c)
            assert tuple(c) == tuple(routes[0])
            assert hash(c) == hash(routes[0])

    check()
    assert tuple(CRat(0)) == tuple(CRat(5) - CRat(5)) == (0, 0, 1)


def test_crat_repr_text():
    given, settings, st, pairs = _hypothesis()

    @settings
    @given(pairs)
    def check(x):
        want = f"CRat({x[0]})" if not x[1] else f"CRat({x[0]}, {x[1]})"
        assert repr(CRat(*x)) == want

    check()


def test_crat_pickle_and_copy_roundtrip():
    given, settings, st, pairs = _hypothesis()

    @settings
    @given(pairs)
    def check(x):
        c = CRat(*x)
        for back in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c), copy.copy(c)):
            _assert_canonical(back)
            assert back == c and tuple(back) == tuple(c)

    check()


# --------------------------------------------------------------------------
# compiled evaluation against the per-term loop (tests/evalref.py)
# --------------------------------------------------------------------------


def _term_maps(st):
    small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    zero = st.just((Fraction(0), Fraction(0)))
    rate = st.one_of(zero, st.tuples(small, st.just(Fraction(0))), st.tuples(small, small))
    four = lambda s: st.lists(s, min_size=4, max_size=4)  # noqa: E731
    term = st.tuples(st.tuples(small, small), four(st.integers(-2, 3)), four(rate))

    def build(terms, real):
        f = ClosedFunction.zero()
        for c, k, z in terms:
            if any(c):
                f = f + ClosedFunction({(tuple(k), tuple(CRat(*r) for r in z)): CRat(*c)})
        return f + f.conjugate() if real else f

    return st.builds(build, st.lists(term, max_size=4), st.booleans())


def _ref_matrix(a, point):
    return [[term_loop(f, point) for f in row] for row in a]


def test_compiled_eval_matches_term_loop():
    given, settings, st, _ = _hypothesis()
    # an imaginary coordinate trips the residue check of a real function
    coordinate = st.sampled_from([0.0, -0.0, 0.5, -1.25, 2.0, 3, 0.5j])
    point = st.lists(coordinate, min_size=4, max_size=4)

    @settings
    @given(st.lists(_term_maps(st), min_size=4, max_size=4), point)
    def check(fs, p):
        for f in fs:
            assert outcome(f.eval, p) == outcome(term_loop, f, p)
        a = [fs[:2], fs[2:]]
        assert outcome(cfm_eval, a, p) == outcome(_ref_matrix, a, p)

    check()


def test_compiled_eval_errors():
    p = [0.1, 0.2, 0.3, 0.4]
    nonreal = cf_coord(1) * ClosedFunction.const(CRat(1, 1))
    with pytest.raises(InputError):
        nonreal.eval(p)
    with pytest.raises(InputError):
        cfm_eval([[cf_coord(2), nonreal]], p)
    with pytest.raises(EvalError):
        cf_coord(1).eval([0.5j, 0, 0, 0])
    # at x1 = 0 the two terms of sin x1 are -i/2 and i/2, so the bound on
    # Im sin(x1) is 1e-12 (1 + |-i/2| + |i/2|) = 2e-12
    sin = cf_sin({1: 1})
    for eps, ok in ((1.5e-12, True), (2.5e-12, False)):
        got = outcome(sin.eval, [eps * 1j, 0, 0, 0])
        assert got == outcome(term_loop, sin, [eps * 1j, 0, 0, 0])
        assert got.startswith("EvalError") != ok


def test_compiled_bivectors_match_term_loop(reg, points):
    from liebialg.integrable import load_example

    for ex_id in (1, 2):
        P = load_example(reg, ex_id).bivector
        for p in points:
            want = repr(_ref_matrix(P.P, p))
            assert repr(cfm_eval(P.P, p)) == want
