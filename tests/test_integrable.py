"""Darboux coordinates, symmetry closure, and conservation under flow."""

import copy

import pytest

from liebialg.closedfun import ClosedFunction
from liebialg.errors import EvalError, InputError
from liebialg.exprtree import add, const, parse_expr
from liebialg.integrable import (
    MAX_STEPS,
    bracket,
    closure_check,
    commuting_check,
    conserved,
    darboux_check,
    flow_conserve,
    leibniz_check,
    load_example,
    write_trajectory_csv,
)


@pytest.fixture(scope="module")
def ex1(reg):
    return load_example(reg, 1)


@pytest.fixture(scope="module")
def ex2(reg):
    return load_example(reg, 2)


def _with(ex, field, index, expr):
    """A copy of ex whose list `field` has expr at index."""
    out = copy.copy(ex)
    setattr(out, field, list(getattr(ex, field)))
    getattr(out, field)[index] = expr
    return out


def test_bracket_reproduces_bivector_on_coordinates(ex1):
    coords = [ClosedFunction.coord(i) for i in range(1, 5)]
    for i in range(4):
        for j in range(4):
            assert bracket(ex1.bivector, coords[i], coords[j]) == ex1.bivector.P[i][j]


def test_bracket_of_laurent_functions(ex1):
    # {x1/x2, x2} = {x1, x2}/x2 since x2 brackets to 0 with itself
    x1, x2 = ClosedFunction.coord(1), ClosedFunction.coord(2)
    inv = x2.reciprocal()
    assert bracket(ex1.bivector, x1 * inv, x2) == ex1.bivector.P[0][1] * inv


def test_example1_darboux_brackets(ex1):
    rep = darboux_check(ex1)
    assert rep.passed and rep.failing == []


def test_example2_darboux_brackets(ex2):
    rep = darboux_check(ex2)
    assert rep.passed, rep.failing


def test_example1_q_bracket_values(ex1):
    # {Q1,Q3} = -Q1 as an identity of closed functions
    q1, q3 = ex1.qfuncs[0].to_closed(), ex1.qfuncs[2].to_closed()
    assert bracket(ex1.bivector, q1, q3) == -q1
    assert bracket(ex1.bivector, q1, q3) != q1


def test_example1_closure(ex1):
    rep = closure_check(ex1)
    assert rep.passed, rep.failing


def test_example2_closure(ex2):
    rep = closure_check(ex2)
    assert rep.passed, rep.failing


def test_closure_breaks_under_constant_shift(ex1):
    # Shifting a function that appears on a bracket right-hand side breaks
    # closure; Q2 does (via {Q1,Q4} = 2 Q2 and {Q2,Q3} = -2 Q2) while Q3
    # never occurs on a right-hand side of this symmetry algebra, so its
    # shift is invisible.
    bad = _with(ex1, "qfuncs", 1, add(ex1.qfuncs[1], const(1)))
    assert closure_check(bad).failing == ["{Q1,Q4}", "{Q2,Q3}"]
    invisible = _with(ex1, "qfuncs", 2, add(ex1.qfuncs[2], const(1)))
    assert closure_check(invisible).passed


def test_example2_print_slip_fails_exactly_its_brackets(ex2):
    # the fixture's note: the printed y2 has x3 where x2 closes the brackets
    printed = parse_expr("-(2*exp(x3)*x1*x4 + x3)/x1")
    assert darboux_check(_with(ex2, "darboux", 1, printed)).failing == [
        "{y1,y2}", "{y2,y3}", "{y2,y4}"
    ]


def test_q1_and_q2_commute_by_the_symmetry_constants(ex1, ex2):
    # f_12 = 0 in both symmetry algebras, so {Q1, Q2} = 0 is the (1, 2)
    # identity of closure_check
    for ex in (ex1, ex2):
        assert not any(ex.symmetry.f[0][1])
        q1, q2 = (q.to_closed() for q in ex.qfuncs[:2])
        assert bracket(ex.bivector, q1, q2) == ClosedFunction.zero()


def test_leibniz_and_antisymmetry(ex1, ex2):
    assert leibniz_check(ex1).passed
    assert leibniz_check(ex2).passed
    # the rule is a property of the bracket: it holds for any Q2, not only
    # for the printed one
    assert leibniz_check(_with(ex1, "qfuncs", 1, parse_expr("x1*x3/x2"))).passed


def test_commuting_functions_are_the_flow_report_conserved_set(ex1, ex2):
    assert conserved(ex1, 2) == flow_conserve(ex1, hamiltonian=2, t_end=0.0).conserved
    assert conserved(ex1, 2) == [2, 1, 4]
    assert conserved(ex2, 2) == [2, 1]
    for ex in (ex1, ex2):
        for h in range(1, 5):
            assert commuting_check(ex, h).passed


def test_commuting_check_names_a_function_that_stops_commuting(ex1):
    # {x3, Q2} is not 0 in example 1, so Q4 + x3 stops commuting with Q2
    bad = _with(ex1, "qfuncs", 3, add(ex1.qfuncs[3], parse_expr("x3")))
    assert commuting_check(bad, 2).failing == ["{Q4,Q2}"]


def test_flow_zero_duration_zero_drift(ex1):
    rep = flow_conserve(ex1, hamiltonian=2, t_end=0.0)
    assert rep.max_drift() == 0.0


def test_example1_flow_conserves_q1_and_q4(ex1):
    rep = flow_conserve(ex1, hamiltonian=2, t_end=1.0, dt=1e-3)
    assert set(rep.conserved) == {1, 2, 4}
    assert rep.drifts[1] < 1e-6
    assert rep.drifts[4] < 1e-6


def test_example2_flow_conserves_q1(ex2):
    rep = flow_conserve(ex2, hamiltonian=2, t_end=1.0, dt=1e-3)
    assert 1 in rep.conserved
    assert rep.drifts[1] < 1e-6


def test_trajectory_csv(tmp_path, ex1):
    rep = flow_conserve(ex1, hamiltonian=2, t_end=0.01, dt=1e-3, record=True)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["t", "x1", "x2", "x3", "x4", "Q1", "Q2", "Q3", "Q4"]
    assert len(lines) == 12


def test_csv_requires_recording(ex1):
    rep = flow_conserve(ex1, hamiltonian=2, t_end=0.01, dt=1e-3)
    with pytest.raises(EvalError):
        write_trajectory_csv(rep, "/tmp/never.csv")


def test_phase_space_bivector_matches_derivation(reg, bench, ex1, ex2):
    from liebialg.closedfun import cfm_eq

    derived1 = bench.bivector("A_4_9_m12", "A_4_9_1.ii", "sklyanin", {})
    assert cfm_eq(ex1.bivector.P, derived1.P)
    derived2 = bench.bivector("A_4_9_1.ii", "A_4_9_m12", "sklyanin", {})
    assert cfm_eq(ex2.bivector.P, derived2.P)


def test_each_check_differentiates_each_function_once(ex1, monkeypatch):
    calls = {}
    diff = ClosedFunction.diff

    def counted(self, i):
        calls[self, i] = calls.get((self, i), 0) + 1
        return diff(self, i)

    monkeypatch.setattr(ClosedFunction, "diff", counted)
    checks = (darboux_check, closure_check, leibniz_check, lambda ex: commuting_check(ex, 2))
    for check in checks:
        calls.clear()
        assert check(ex1).passed
        assert calls and max(calls.values()) == 1


def test_flow_rejects_a_step_count_that_is_not_finite(ex1):
    with pytest.raises(InputError):
        flow_conserve(ex1, hamiltonian=2, t_end=1e300, dt=1e-10)


def test_flow_step_limit_is_checked_before_the_first_step(ex1):
    # 1e203 steps are finite but would run until killed
    assert MAX_STEPS == 10**6
    with pytest.raises(InputError, match="limit"):
        flow_conserve(ex1, hamiltonian=2, t_end=1e200, dt=1e-3)
    with pytest.raises(InputError, match="limit"):
        flow_conserve(ex1, hamiltonian=2, t_end=(MAX_STEPS + 1) * 1e-3, dt=1e-3)
