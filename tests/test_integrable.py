"""Darboux coordinates, symmetry closure, and conservation under flow."""

import pytest

from liebialg.errors import EvalError, InputError
from liebialg.exprtree import parse_expr
from liebialg.integrable import (
    CANONICAL_PAIRS,
    MAX_STEPS,
    bracket_of,
    closure_check,
    darboux_check,
    flow_conserve,
    leibniz_check,
    load_example,
    sample_points,
    write_trajectory_csv,
)


@pytest.fixture(scope="module")
def ex1(reg):
    return load_example(reg, 1)


@pytest.fixture(scope="module")
def ex2(reg):
    return load_example(reg, 2)


def test_sample_points_avoid_singular_locus(ex1):
    pts = sample_points(ex1, n=20, seed=0)
    assert len(pts) == 20
    assert all(abs(p[ex1.singular_coord - 1]) >= 0.1 for p in pts)


def test_bracket_of_reproduces_bivector_on_coordinates(ex1):
    coords = [parse_expr(f"x{i}") for i in range(1, 5)]
    for p in sample_points(ex1, n=5, seed=1):
        pm = ex1.bivector.eval(p)
        for i in range(4):
            for j in range(4):
                got = bracket_of(ex1.bivector, coords[i], coords[j], p)
                assert abs(got - pm[i][j]) < 1e-12


def test_example1_darboux_brackets(ex1):
    rep = darboux_check(ex1, n=20, seed=0)
    assert rep.passed, rep.max_residual
    assert rep.table[CANONICAL_PAIRS[0]] < 1e-10
    assert rep.table[CANONICAL_PAIRS[1]] < 1e-10


def test_example2_darboux_brackets(ex2):
    rep = darboux_check(ex2, n=20, seed=0)
    assert rep.passed, rep.max_residual


def test_example1_q_bracket_values(ex1):
    # {Q1,Q3} = -Q1 pointwise
    for p in sample_points(ex1, n=10, seed=2):
        got = bracket_of(ex1.bivector, ex1.qfuncs[0], ex1.qfuncs[2], p)
        q1 = ex1.qfuncs[0].evalf(p)
        assert abs(got + q1) < 1e-10 * (1 + abs(q1))


def test_example1_closure(ex1):
    rep = closure_check(ex1, n=20, seed=0)
    assert rep.passed, rep.table


def test_example2_closure(ex2):
    rep = closure_check(ex2, n=20, seed=0)
    assert rep.passed, rep.table


def test_closure_breaks_under_constant_shift(ex1):
    # Shifting a function that appears on a bracket right-hand side breaks
    # closure; Q2 does (via {Q1,Q4} = 2 Q2) while Q3 never occurs on a
    # right-hand side of this symmetry algebra, so its shift is invisible.
    import copy

    from liebialg.exprtree import add, const

    bad = copy.copy(ex1)
    bad.qfuncs = list(ex1.qfuncs)
    bad.qfuncs[1] = add(ex1.qfuncs[1], const(1))
    rep = closure_check(bad, n=5, seed=0)
    assert not rep.passed

    invisible = copy.copy(ex1)
    invisible.qfuncs = list(ex1.qfuncs)
    invisible.qfuncs[2] = add(ex1.qfuncs[2], const(1))
    assert closure_check(invisible, n=5, seed=0).passed


def test_leibniz_and_antisymmetry(ex1, ex2):
    ok1, worst1 = leibniz_check(ex1, n=20, seed=0)
    ok2, worst2 = leibniz_check(ex2, n=20, seed=0)
    assert ok1, worst1
    assert ok2, worst2


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


def test_derivatives_are_taken_once_per_check_not_per_point(ex1, monkeypatch):
    from liebialg.exprtree import Expr

    calls = [0]
    diff = Expr.diff

    def counted(self, i):
        calls[0] += 1
        return diff(self, i)

    monkeypatch.setattr(Expr, "diff", counted)

    def count(n):
        calls[0] = 0
        darboux_check(ex1, n=n)
        closure_check(ex1, n=n)
        leibniz_check(ex1, n=n)
        return calls[0]

    assert count(20) == count(2) > 0


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
