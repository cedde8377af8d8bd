"""Expression parsing, exact evaluation, conversion to closed functions at a
binding, and rendering."""

import gc
import math
import random
from fractions import Fraction

import pytest

from liebialg import corpus
from liebialg.closedfun import cf_const, cf_coord, cf_cos, cf_exp, cfm_lower
from liebialg.errors import CorpusSyntaxError, EvalError, InputError
from liebialg.exprtree import _FUNCS, Expr, const, coord, param, parse_expr, to_text
from liebialg.render import render_closed_function

from evalref import subs_params, walk


def test_parse_rational_arithmetic():
    e = parse_expr("3/4 - 2*(1/2 - 1/3)")
    assert e.eval_exact() == Fraction(3, 4) - 2 * Fraction(1, 6)


def test_parsing_the_corpus_leaves_no_reference_cycle():
    # the recursive descent shares no closures, so every parse is freed by
    # reference counting and loading the corpus gives the cyclic collector
    # nothing to find
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        corpus.load()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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
    assert e.eval_exact({"b": Fraction(1, 2)}) == Fraction(9, 4)
    assert e.to_closed({"b": Fraction(1, 2)}) == cf_const(Fraction(9, 4))


def test_substitution_rebuilds_through_the_smart_constructors():
    # the retired substitution, kept as the oracle of the one walk: a factor
    # substituted to 0 prunes its product before any conversion, even one
    # whose other factor has no closed form
    e = parse_expr("d1*exp(x1^2) + d2*x3")
    assert subs_params(e, {"d1": 0, "d2": 1}) == coord(3)
    assert subs_params(e, {"d1": 0, "d2": 0}) == const(0)
    with pytest.raises(InputError):
        subs_params(e, {"d1": 1, "d2": 0}).to_closed()
    # a denominator that becomes the constant 0 fails at substitution, one
    # that sums to 0 in the conversion, with the same error class
    assert subs_params(parse_expr("-(b*2)/b"), {"b": 3}).eval_exact() == -2
    with pytest.raises(EvalError, match="division by constant zero"):
        subs_params(parse_expr("x1/b"), {"b": 0})
    with pytest.raises(EvalError):
        subs_params(parse_expr("x1/(b - 1)"), {"b": 1}).to_closed()
    # parameters left unbound stay symbolic
    assert subs_params(parse_expr("q*x2"), {}) == parse_expr("q*x2")


def test_the_walk_reads_each_parameter_from_the_binding(monkeypatch):
    built = []
    init = Expr.__init__

    def counted(self, op, args):
        built.append(op)
        init(self, op, args)

    trees = [parse_expr(t) for t in ("x1/b", "x1/(b - 1)", "q*x2", "d1*exp(x1^2)", "-(b*2)/b*x3")]
    monkeypatch.setattr(Expr, "__init__", counted)
    # a denominator that is 0 at the binding is an EvalError, whether it is
    # the parameter itself or sums to 0, and an unbound name an InputError
    with pytest.raises(EvalError):
        trees[0].to_closed({"b": 0})
    with pytest.raises(EvalError):
        trees[1].to_closed({"b": 1})
    with pytest.raises(InputError, match="unbound parameter 'q'"):
        trees[2].to_closed({})
    # a factor with no closed form is rejected at every binding, where the
    # substitution pruned it away behind a factor bound to 0
    with pytest.raises(InputError):
        trees[3].to_closed({"d1": 0})
    assert trees[4].to_closed({"b": 3}) == cf_coord(3).scale(-2)
    assert trees[2].to_closed({"q": 3}) == cf_coord(2).scale(3)
    assert built == []  # no tree is rebuilt


def test_parse_error_reports_location():
    with pytest.raises(CorpusSyntaxError) as exc:
        parse_expr("1 + $", line=12)
    assert exc.value.line == 12
    assert exc.value.col is not None


@pytest.mark.parametrize(
    "text, col, char",
    [("2²", 2, "²"), ("x1²", 3, "²"), ("x₁", 2, "₁"), ("٣*x1", 1, "٣"), ("bé", 2, "é")],
)
def test_digits_and_names_are_ascii(text, col, char):
    # str.isdigit and str.isalnum accept superscripts, subscripts and other
    # scripts' digits; the tokenizer takes none of them
    with pytest.raises(CorpusSyntaxError, match=f"unexpected character {char!r}") as exc:
        parse_expr(text, line=7, filename="f.txt")
    assert (exc.value.filename, exc.value.line, exc.value.col) == ("f.txt", 7, col)


def test_ascii_names_and_digits_still_parse():
    e = parse_expr("_b2*x1 + 10*Q_9")
    assert e.to_closed({"_b2": 1, "Q_9": Fraction(1, 10)}) == parse_expr("x1 + 1").to_closed()


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
            f = e.to_closed(params)
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
    assert parse_expr("q*x2").to_closed({"q": Fraction(3, 2)}).eval(p) == 1.5


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
    f = e.to_closed({"q": 3})
    p = (0.5, -2.0, 1.0, 0.25)
    assert e.evalf(p, {"q": 3}) == f.eval(p)
    assert parse_expr("x1/x2").diff(2) == parse_expr("-x1/x2^2").to_closed()
