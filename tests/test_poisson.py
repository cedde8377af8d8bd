"""Bivector construction, verification, and symplectic classification."""

import random
from fractions import Fraction

import pytest

from evalref import bivector, cfm_from_frac, sklyanin_dense, tensor_of, transport_dense
from liebialg import poisson
from liebialg.closedfun import ClosedFunction, cfm_eq
from liebialg.core import StructureConstants
from liebialg.errors import InputError
from liebialg.exprtree import parse_expr
from liebialg.groupgeom import GroupChart, double_adjoint, invariant_frame
from liebialg.poisson import (
    PoissonBivector,
    linearization_check,
    multiplicative_check,
    pi_bivector,
    poisson_jacobi_check,
    sklyanin_bivector,
    symplectic_classify,
)
from liebialg.rmatrix import TensorElement, solve_coboundary


def _cf(text):
    return parse_expr(text).to_closed()


@pytest.fixture(scope="module")
def table67(reg, bench):
    """(row, binding) for every table67 row, at the one binding its campaign
    states."""
    from liebialg.harness import verify_table67

    return [(args[1], args[2][0]) for _, _, _, args in verify_table67.entries(reg, bench)]


def _derived(bench, pe, b):
    """The row's bivector by its own method, its frame and its cobracket at b."""
    return bench.bivector(pe.g, pe.dual, pe.method, b), bench.frame(pe.g, b), bench.sc(pe.dual, b)


@pytest.fixture(scope="module")
def a47_setup(reg):
    f = reg.instantiate("A_4_7")
    fd = reg.instantiate("A_4_7.i")
    fr = invariant_frame(GroupChart(f))
    r = TensorElement.from_terms(
        [(Fraction(-1, 2), 1, 4, "wedge"), (-1, 2, 3, "wedge")]
    )
    return f, fd, fr, r


def test_sklyanin_zero_r_gives_zero(a47_setup):
    f, fd, fr, _ = a47_setup
    P = sklyanin_bivector(fr, TensorElement.zero())
    assert P.p == {}


def test_sklyanin_a47_brackets(a47_setup):
    f, fd, fr, r = a47_setup
    P = sklyanin_bivector(fr, r)
    assert P.bracket(1, 4) == _cf("(1 - exp(-2*x4))/2")
    assert P.bracket(2, 3) == _cf("1 - exp(-2*x4)")
    assert P.bracket(1, 2) == _cf("(x2 - x3)/2")
    assert P.bracket(1, 3) == _cf("-x3/2 + exp(-2*x4)*x3")


def test_sklyanin_phase_space_example(reg, bench):
    P = bench.bivector("A_4_9_m12", "A_4_9_1.ii", "sklyanin", {})
    assert P.bracket(1, 2) == _cf("-2*x2^2")
    assert P.bracket(3, 4) == _cf("-2 + 2*exp(x4/2)")


def test_pi_zero_dual_gives_zero(reg):
    f = reg.instantiate("A_4_7")
    fr = invariant_frame(GroupChart(f))
    P = pi_bivector(double_adjoint(fr, f, StructureConstants(4)), fr)
    assert P.p == {}


def test_pi_a41_brackets(reg, bench):
    P = bench.bivector("A_4_1", "A_4_1.i", "pi", {})
    assert P.bracket(1, 2) == _cf("x3 + x4^3/6")
    assert P.bracket(1, 3) == _cf("-x4^2/2")
    assert P.bracket(2, 3) == _cf("x4")


def test_pi_a43_brackets(reg, bench):
    P = bench.bivector("A_4_3", "A2+A2.i", "pi", {})
    assert P.bracket(1, 3) == _cf("x1")
    assert P.bracket(2, 4) == _cf("x4")


def test_method_agreement_on_coboundary_rows(bench, table67):
    # table67 builds each row by its own method only; here every Sklyanin
    # row, at its table67 binding, is built by both
    rows = [(pe, b) for pe, b in table67 if pe.method == "sklyanin"]
    assert len(rows) == 85
    for pe, b in rows:
        P1 = bench.bivector(pe.g, pe.dual, "sklyanin", b)
        P2 = bench.bivector(pe.g, pe.dual, "pi", b)
        assert P1.p == P2.p, pe.name


def test_jacobi_passes_on_derived(a47_setup):
    f, fd, fr, r = a47_setup
    P = sklyanin_bivector(fr, r)
    assert poisson_jacobi_check(P).passed


def test_jacobi_detects_corruption(a47_setup):
    f, fd, fr, r = a47_setup
    P = sklyanin_bivector(fr, r)
    corrupted = PoissonBivector({**P.p, (0, 1): -P.bracket(1, 2)})
    rep = poisson_jacobi_check(corrupted)
    assert not rep.passed
    assert (1, 2, 3) in rep.residuals
    cl = symplectic_classify(corrupted)
    assert cl.symplectic
    assert cl.closed_ok is False


def test_linearization_worked_values(a47_setup):
    f, fd, fr, r = a47_setup
    P = sklyanin_bivector(fr, r)
    assert linearization_check(P, fd)
    v = P.bracket(1, 2).diff(2).eval_at_zero()
    assert v.re == Fraction(1, 2) and not v.im


def test_linearization_full_tensor_comparison(reg, bench):
    P = bench.bivector("A_4_1", "A_4_1.i", "pi", {})
    fd = reg.instantiate("A_4_1.i")
    assert linearization_check(P, fd)
    wrong = reg.instantiate("A_4_1.ii")
    assert not linearization_check(P, wrong)


def test_zero_bivector_properties(a47_setup):
    fr = a47_setup[2]
    zero = PoissonBivector({})
    assert poisson_jacobi_check(zero).passed
    assert linearization_check(zero, StructureConstants(4))
    assert multiplicative_check(zero, fr, StructureConstants(4)) is None
    cl = symplectic_classify(zero)
    assert not cl.symplectic
    assert cl.max_rank == 0


def test_every_derived_table67_bivector_is_multiplicative(bench, table67):
    assert len(table67) == 166
    for pe, b in table67:
        assert multiplicative_check(*_derived(bench, pe, b)) is None, pe.name


def test_the_opposite_cobracket_fails_every_row(bench, table67):
    # guards the sign convention ft^jk_i = fd.f[j][k][i] of the right side
    failing = 0
    for pe, b in table67:
        P, frame, fd = _derived(bench, pe, b)
        if fd.nonzero():
            neg = StructureConstants(4, [[[-x for x in row] for row in m] for m in fd.f])
            assert multiplicative_check(P, frame, neg) is not None, pe.name
            failing += 1
    assert failing == 166


def test_the_identity_refutes_a_bracket_whose_linearization_is_right(reg, bench):
    # the printed {x1,x2} is -(q1 - q2) x2^2 / 2 and the derived one
    # +(q1 - q2) x2^2 / 2: both vanish at e with their first partials
    pe = next(p for p in reg.poisson if p.name == "pb(A_4_9_0, A_4_9_0.v)[pi]")
    b = {"q1": Fraction(-2), "q2": Fraction(-1, 2)}
    printed = PoissonBivector(pe.closed_map(b))
    fd = bench.sc(pe.dual, b)
    assert linearization_check(printed, fd)
    assert multiplicative_check(printed, bench.frame(pe.g, b), fd) == (2, 1, 2)


def test_no_flagged_printed_row_is_poisson_lie(bench, table67):
    refuted, nonzero_at_e = [], []
    for pe, b in table67:
        if pe.status != "flagged":
            continue
        try:
            printed = PoissonBivector(pe.closed_map(b))
        except InputError as ex:
            assert str(ex) == "bivector does not vanish at the origin"
            nonzero_at_e.append(pe.name)
            continue
        if multiplicative_check(printed, bench.frame(pe.g, b), bench.sc(pe.dual, b)):
            refuted.append(pe.name)
    assert refuted == [
        "pb(A_4_1, A_4_1.iii)[sklyanin]",
        "pb(A_4_9_0, II+R.iv)[sklyanin]",
        "pb(A_4_5_a_ma.i, A_4_5_a_ma)[sklyanin]",
        "pb(A_4_9_m12.iv, A_4_9_m12)[sklyanin]",
        "pb(A_4_11_b.i, A_4_11_b)[sklyanin]",
        "pb(VII0+R.ii, A_4_9_0)[sklyanin]",
    ]
    assert nonzero_at_e == ["pb(A_4_11_b, A_4_11_b.i)[sklyanin]", "pb(A2+A2, A2+A2.vi)[pi]"]


def test_a_non_antisymmetric_cobracket_is_refused(bench, table67):
    pe, b = next((pe, b) for pe, b in table67 if pe.name == "pb(A_4_7, A_4_7.i)[sklyanin]")
    P, frame, fd = _derived(bench, pe, b)
    f = [[row[:] for row in m] for m in fd.f]
    j, k, i, v = fd.nonzero()[0]
    f[j][k][i] += 1  # its partner f[k][j][i] keeps -v
    with pytest.raises(InputError, match="structure constants are not antisymmetric"):
        multiplicative_check(P, frame, StructureConstants(4, f))


def test_the_right_sides_from_minors_match_the_dense_transport(bench, table67):
    for pe, b in table67:
        frame, fd = bench.frame(pe.g, b), bench.sc(pe.dual, b)
        fields = poisson._cobracket_fields(frame, fd)
        assert len(fields) == 4
        for i, got in enumerate(fields):
            ft = [[c[i] for c in row] for row in fd.f]
            assert got == bivector(transport_dense(cfm_from_frac(ft), frame.XL)), (pe.name, i + 1)


def test_sklyanin_from_minors_matches_the_dense_transports(bench, table67):
    rows = [(pe, b) for pe, b in table67 if pe.method == "sklyanin"]
    assert len(rows) == 85
    for pe, b in rows:
        r = bench.coboundary(pe.g, pe.dual, b).particular.antisymmetric_part()
        frame = bench.frame(pe.g, b)
        assert cfm_eq(sklyanin_bivector(frame, r).P, sklyanin_dense(frame, r.r)), pe.name


def test_sklyanin_from_minors_matches_on_drawn_r(reg, bench):
    rng = random.Random(28)
    frames = [bench.frame(g, {}) for g in ("A_4_1", "A_4_7", "A_4_12", "A2+A2", "VII0+R")]
    for frame in frames:
        for _ in range(3):
            r = [[Fraction(0)] * 4 for _ in range(4)]
            for j in range(4):
                for k in range(j + 1, 4):
                    if rng.random() < 0.7:
                        r[j][k] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        r[k][j] = -r[j][k]
            P = sklyanin_bivector(frame, tensor_of(r))
            assert cfm_eq(P.P, sklyanin_dense(frame, r))


def test_every_derivable_table67_bivector_reads_as_its_dense_oracle(bench, table67):
    # the dense view of the sparse map, for every row by each method that
    # derives it, against the retired dense constructions: XR^T pi XR, and
    # XL^T r XL - XR^T r XR
    built = {"sklyanin": 0, "pi": 0}
    for pe, b in table67:
        frame = bench.frame(pe.g, b)
        pi = double_adjoint(frame, bench.sc(pe.g, b), bench.sc(pe.dual, b))
        oracles = {"pi": transport_dense(pi, frame.XR)}
        sol = bench.coboundary(pe.g, pe.dual, b)
        if not sol.empty:
            oracles["sklyanin"] = sklyanin_dense(frame, sol.particular.antisymmetric_part().r)
        for method, want in oracles.items():
            P = bench.bivector(pe.g, pe.dual, method, b).P
            assert all(P[i][j] == -P[j][i] for i in range(4) for j in range(4)), (pe.name, method)
            assert cfm_eq(P, want), (pe.name, method)
            built[method] += 1
    assert built == {"sklyanin": 85, "pi": 166}


def test_symplectic_worked_pairs(reg, bench):
    P = bench.bivector("A_4_7", "A_4_7.i", "sklyanin", {})
    cl = symplectic_classify(P)
    assert cl.symplectic
    assert cl.closed_ok
    P2 = bench.bivector_any("A_4_1", "A_4_9_0.i", reg.grid_bindings("A_4_1", "A_4_9_0.i", cap=1)[0])
    assert symplectic_classify(P2).symplectic


def test_symplectic_classify_reads_a_known_jacobi_verdict(reg, bench, monkeypatch):
    asked = []
    monkeypatch.setattr(poisson, "poisson_jacobi_check", asked.append)
    # fresh bivectors of shared maps, so that a planted verdict stays here
    P = PoissonBivector(bench.bivector("A_4_7", "A_4_7.i", "sklyanin", {}).p)
    P.is_poisson = False
    cl = symplectic_classify(P)
    assert (cl.symplectic, cl.closed_ok, asked) == (True, False, [])
    # a degenerate bivector needs no verdict
    P = PoissonBivector(bench.bivector("A_4_1", "A_4_1.i", "pi", {}).p)
    assert symplectic_classify(P).max_rank == 2
    assert asked == [] and "is_poisson" not in vars(P)


def test_degenerate_pair_reports_rank(reg, bench):
    P = bench.bivector("A_4_1", "A_4_1.i", "pi", {})
    cl = symplectic_classify(P)
    assert not cl.symplectic
    assert cl.max_rank == 2


def test_bivector_constructor_enforces_antisymmetry(a47_setup):
    # pi_bivector checks pi, as P = XR^T pi XR is antisymmetric iff pi is
    fr = a47_setup[2]
    mat = [[ClosedFunction.zero()] * 4 for _ in range(4)]
    mat[0][1] = _cf("x3")
    with pytest.raises(InputError, match="bivector is not antisymmetric"):
        pi_bivector(mat, fr)


@pytest.mark.parametrize("key", [(1, 0), (2, 2), (0, 4), (-1, 1), 1])
def test_bivector_constructor_takes_only_keys_above_the_diagonal(key):
    with pytest.raises(InputError, match="is not a pair"):
        PoissonBivector({key: _cf("x3")})


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 1): "x3", (1, 0): "-x3"},
        {(0, 1): "x3"},
        {(1, 0): "x3"},
        {(2, 2): "x1"},
        {(0, 1): "x3 + x1*x2", (1, 0): "-x3 + x1*x2"},
        {(0, 1): "x3 + x1*x2", (1, 0): "-x3"},
        {(0, 1): "x3", (1, 0): "-x3 - x4"},
        {(0, 3): "sin(x2)", (3, 0): "-sin(x2)", (1, 2): "exp(x1)*x4", (2, 1): "-exp(x1)*x4"},
        {(0, 3): "sin(x2)", (3, 0): "sin(-x2)", (1, 2): "cos(x1)*x4", (2, 1): "cos(x1)*x4"},
        {(0, 1): "2*x3", (1, 0): "-x3"},
    ],
)
def test_bivector_constructor_decides_antisymmetry_on_term_maps(a47_setup, entries):
    # the retired decision: pi[i][j] == -pi[j][i] over all 16 entries, each
    # through a negated copy; an antisymmetric pi gives the retired dense
    # transport XR^T pi XR
    fr = a47_setup[2]
    mat = [[ClosedFunction.zero()] * 4 for _ in range(4)]
    for (i, j), text in entries.items():
        mat[i][j] = _cf(text)
    if all(mat[i][j] == -mat[j][i] for i in range(4) for j in range(4)):
        assert cfm_eq(pi_bivector(mat, fr).P, transport_dense(mat, fr.XR))
    else:
        with pytest.raises(InputError, match="bivector is not antisymmetric"):
            pi_bivector(mat, fr)


def test_bivector_constructor_enforces_vanishing_at_origin():
    with pytest.raises(InputError, match="bivector does not vanish at the origin"):
        PoissonBivector({(0, 1): _cf("1 + x3")})


def test_rank_reported_for_every_bracket_table_row(reg, bench):
    from liebialg.harness import verify_table67

    rep = verify_table67(reg, bench)
    assert all("rank" in r.detail for r in rep.results if r.status != "fail")
    t8 = set(reg.memberships["table8"].pairs)
    t9 = set(reg.memberships["table9"].pairs)
    covered = t8 | t9 | {(d, g) for (g, d) in t8}
    for r, pe in zip(rep.results, reg.poisson):
        if "rank 4" in r.detail:
            assert (pe.g, pe.dual) in covered
