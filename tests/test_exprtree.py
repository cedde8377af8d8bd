"""Expression parsing, exact substitution, conversion to closed functions,
and rendering."""

import math
import random
from fractions import Fraction

import pytest

from liebialg.closedfun import cf_const, cf_coord, cf_cos, cf_exp, cfm_lower
from liebialg.errors import CorpusSyntaxError, EvalError, InputError
from liebialg.exprtree import _FUNCS, Expr, const, coord, param, parse_expr, to_text
from liebialg.render import render_closed_function

from evalref import walk


def test_parse_rational_arithmetic():
    e = parse_expr("3/4 - 2*(1/2 - 1/3)")
    assert e.eval_exact() == Fraction(3, 4) - 2 * Fraction(1, 6)


def test_parse_exp_to_closed():
    cf = parse_expr("1 - exp(-2*x4)").to_closed()
    assert cf == parse_expr("1").to_closed() - cf_exp({4: -2})


def test_parse_trig_to_closed():
    assert parse_expr("cos(x3)").to_closed() == cf_cos({3: 1})


def test_parse_power_and_division():
    cf = parse_expr("x4^2/2").to_closed()
    assert cf.eval([0, 0, 0, 2.0]) == pytest.approx(2.0)


def test_parse_parameters_and_substitution():
    e = parse_expr("(1+b)^2")
    assert e.subs_params({"b": Fraction(1, 2)}).eval_exact() == Fraction(9, 4)


def test_parse_error_reports_location():
    with pytest.raises(CorpusSyntaxError) as exc:
        parse_expr("1 + $", line=12)
    assert exc.value.line == 12
    assert exc.value.col is not None


def test_parse_error_unbalanced():
    with pytest.raises(CorpusSyntaxError):
        parse_expr("(1 + 2")


def test_division_by_zero_constant():
    with pytest.raises(EvalError):
        parse_expr("1/0")


def test_nonconstant_quotient_stays_out_of_closed_class():
    # only a single term has an inverse in the closed class
    for src in ("x1/(x1 + x2)", "(1 + exp(x1))^-1", "x1/cos(x2)"):
        with pytest.raises(InputError):
            parse_expr(src).to_closed()


def test_quotient_by_a_single_term_is_a_laurent_term():
    f = parse_expr("exp(-x4)*(x1 + x2*x3)/(2*x2^2)").to_closed()
    want = (cf_coord(1) * cf_coord(2, -2) + cf_coord(3) * cf_coord(2, -1)) * cf_exp({4: -1})
    assert f == want.scale(Fraction(1, 2))
    assert parse_expr("x2^-2").to_closed() == parse_expr("1/(x2*x2)").to_closed() == cf_coord(2, -2)
    assert parse_expr("(2*exp(x1))^-1").to_closed() == cf_exp({1: -1}).scale(Fraction(1, 2))
    assert parse_expr("x1/x1").to_closed() == cf_const(1)
    for src in ("x1/0", "x1/(x2 - x2)", "(x1 - x1)^-2"):
        with pytest.raises(EvalError):
            parse_expr(src).to_closed()
    # an exp argument stays a linear form: a Laurent term is not one
    for src in ("exp(x1^2/x2)", "exp(x1/x2)"):
        with pytest.raises(InputError):
            parse_expr(src).to_closed()


def test_exp_argument_must_be_linear():
    with pytest.raises(InputError):
        parse_expr("exp(x1*x2)").to_closed()


def test_diff_quotient_rule():
    f = parse_expr("x1/x2").to_closed()
    assert f.diff(2) == parse_expr("-x1/x2^2").to_closed()
    assert f.diff(1) == parse_expr("1/x2").to_closed()


def test_diff_chain_rule_through_exp():
    f = parse_expr("exp(-x4/2)*x1").to_closed()
    assert f.diff(4) == parse_expr("-exp(-x4/2)*x1/2").to_closed()
    assert f.diff(1) == parse_expr("exp(-x4/2)").to_closed()


def test_expr_text_roundtrip():
    src = "1 - exp(-2*x4)*(1 + 3*x4) + x1^2/4 - sin(2*x3)"
    e = parse_expr(src)
    again = parse_expr(to_text(e))
    assert again.to_closed() == e.to_closed()


def test_render_roundtrip_bit_exact():
    rng = random.Random(4)
    cases = [
        "1 - exp(-2*x4)",
        "cos(x4) + sin(x4)",
        "x4^2/2 - x2*x3",
        "exp(-x4)*(cos(2*x3) - 3*sin(2*x3))",
        "cosh(x2) - sinh(x2)",
        "exp(x1/2)*x1^3/6",
        "2 - 2*cos(x1) + x2^2*exp(3*x1)",
    ]
    for src in cases:
        cf = parse_expr(src).to_closed()
        text = render_closed_function(cf)
        assert parse_expr(text).to_closed() == cf


def test_render_zero():
    cf = parse_expr("x1 - x1").to_closed()
    assert render_closed_function(cf) == "0"


# --------------------------------------------------------------------------
# the closed function, lowered by cfm_lower, against the recursive walk of
# the tree (tests/evalref.py)
# --------------------------------------------------------------------------


def _trees(st):
    """Raw trees over every node kind, unsimplified, so zero constants,
    zero divisors and repeated subtrees all occur."""
    leaf = st.one_of(
        st.builds(const, st.fractions(-3, 3, max_denominator=4)),
        st.builds(coord, st.integers(1, 4)),
        st.builds(param, st.sampled_from(["a", "b", "unbound"])),
    )

    def grow(kids):
        many = st.lists(kids, min_size=1, max_size=3).map(tuple)
        return st.one_of(
            st.builds(Expr, st.sampled_from(["add", "mul"]), many),
            st.builds(lambda u, v: Expr("div", (u, v)), kids, kids),
            st.builds(lambda b, p: Expr("pow", (b, p)), kids, st.integers(-3, 4)),
            st.builds(lambda u: Expr("neg", (u,)), kids),
            st.builds(lambda f, u: Expr(f, (u,)), st.sampled_from(_FUNCS), kids),
            st.builds(lambda u: Expr("add", (u, u)), kids),
        )

    return st.recursive(leaf, grow, max_leaves=10)


def test_compiled_expr_matches_tree_walk():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    value = st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.75, 2.5, -3.0, 40.0])
    params = {"a": Fraction(1, 3), "b": Fraction(-2)}

    @hyp.settings(max_examples=400, deadline=None)
    @hyp.given(_trees(st), st.lists(value, min_size=4, max_size=4))
    def check(e, point):
        try:
            f = e.subs_params(params).to_closed()
        except (InputError, EvalError):  # outside the closed class
            return
        try:
            want = walk(e, point, params)
        except (ArithmeticError, EvalError):
            want = math.nan
        if not math.isfinite(want):
            # off the walk's domain the closed function may still have a
            # value: x1/x1 is 1 at x1 = 0
            return
        got = cfm_lower([[f]])(*point)[0][0]  # raises only where the walk does
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (e, point, got, want)

    check()


def test_compiled_expr_errors():
    p = (0.0, 1.0, 2.0, 3.0)
    for src in ("1/x1", "x1^-2", "x2/(x1*x3)"):
        with pytest.raises(EvalError, match="pole at x1 = 0"):
            parse_expr(src).to_closed().eval(p)
    # a quotient by a sum has no closed form, an unbound parameter no value
    for src in ("(x2 - 1)^-1", "q + x2"):
        with pytest.raises(InputError):
            parse_expr(src).to_closed()
    assert parse_expr("q*x2").subs_params({"q": Fraction(3, 2)}).to_closed().eval(p) == 1.5


def test_compiled_integrable_functions_match_tree_walk(reg, points):
    # values against the walk, derivatives against central differences of it
    from liebialg.integrable import load_example

    h = 1e-6
    for ex_id in (1, 2):
        ex = load_example(reg, ex_id)
        trees = ex.darboux + ex.qfuncs
        funcs = [e.to_closed() for e in trees]
        lowered = cfm_lower([funcs] + [[f.diff(i) for f in funcs] for i in range(1, 5)])
        for p in points:
            values, *grads = lowered(*p)
            for n, e in enumerate(trees):
                assert math.isclose(values[n], walk(e, p), rel_tol=1e-12, abs_tol=1e-12)
                for i, grad in enumerate(grads):
                    up, down = list(p), list(p)
                    up[i] += h
                    down[i] -= h
                    slope = (walk(e, up) - walk(e, down)) / (2 * h)
                    assert math.isclose(grad[n], slope, rel_tol=1e-6, abs_tol=1e-6)


def test_evalf_and_diff_are_views_of_the_closed_function():
    e = parse_expr("q*exp(-x4)*x1/x2")
    f = e.subs_params({"q": 3}).to_closed()
    p = (0.5, -2.0, 1.0, 0.25)
    assert e.evalf(p, {"q": 3}) == f.eval(p)
    assert parse_expr("x1/x2").diff(2) == parse_expr("-x1/x2^2").to_closed()
