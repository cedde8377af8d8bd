"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or through `liebialg verify --table all`.
"""

import random
import time
from fractions import Fraction

import pytest

from liebialg.closedfun import cfm_eq, cfm_identity, cfm_mul, cf_matexp
from liebialg.harness import (
    DESIGNATED_POISSON_ROWS,
    FRAME_SPOT_CHECKS,
    Workbench,
    verify_integrable,
    verify_table1,
    verify_table2,
    verify_table34,
    verify_table5,
    verify_table67,
    verify_table89,
)
from liebialg.integrable import (
    closure_check,
    darboux_check,
    flow_conserve,
    load_example,
)


def _announce(name, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {tag} {extra}".rstrip())
    assert ok, f"{name}: {extra}"


def test_criterion_1_table1_symplectic(reg):
    t0 = time.time()
    rep = verify_table1(reg)
    elapsed = time.time() - t0
    _announce(
        "criterion 1 (table 1 Jacobi + symplectic forms)",
        rep.ok and elapsed < 5.0,
        f"{len(rep.results)} families, {elapsed:.2f}s",
    )


def test_criterion_2_table2_pairs(reg):
    t0 = time.time()
    rep = verify_table2(reg)
    elapsed = time.time() - t0
    _announce(
        "criterion 2 (table 2 mixed Jacobi + doubles, every grid binding)",
        rep.ok and elapsed < 10.0,
        f"{len(rep.results)} pairs, {elapsed:.2f}s",
    )


def test_criterion_3_tables34_rmatrices(reg):
    t0 = time.time()
    rep = verify_table34(reg)
    elapsed = time.time() - t0
    bi_pairs = {(g, d) for (g, d) in reg.rmatrices if (d, g) in reg.rmatrices}
    _announce(
        "criterion 3 (tables 3-4 membership, Schouten, bi-direction)",
        rep.ok and elapsed < 10.0 and len(bi_pairs) >= 40,
        f"{len(rep.results)} rows, {len(bi_pairs)} bi-direction rows, {elapsed:.2f}s",
    )


def test_criterion_4_table5_frames(reg, bench):
    rep = verify_table5(reg, bench)
    spot = [r for r in rep.results if r.entry.startswith("frame-spot")]
    assert len(spot) == len(FRAME_SPOT_CHECKS)
    flagged_x3 = any(
        "x3^3" in d.expected for r in rep.results for d in r.discrepancies
    )
    bracket_rows = [r for r in rep.results if r.entry.startswith("frame ")]
    _announce(
        "criterion 4 (table 5 frames: spot-check equality + bracket relations)",
        rep.ok and flagged_x3 and len(bracket_rows) == len(reg.frames),
        f"{len(bracket_rows)} frames, {len(rep.flagged)} flagged",
    )


def test_criterion_5_tables67_bivectors(reg, bench):
    rep = verify_table67(reg, bench)
    designated = set(DESIGNATED_POISSON_ROWS)
    required = {
        ("A_4_7", "A_4_7.i"),
        ("A_4_9_m12", "A_4_9_1.ii"),
        ("A_4_1", "A_4_1.i"),
        ("A_4_3", "A2+A2.i"),
    }
    _announce(
        "criterion 5 (tables 6-7: exact rows, Jacobi, Poisson-Lie identity)",
        rep.ok and required <= designated and len(designated) >= 20,
        f"{len(rep.results)} rows, {len(designated)} designated, "
        f"{len(rep.flagged)} flagged",
    )


def test_criterion_6_tables89_symplectic(reg, bench):
    rep = verify_table89(reg, bench)
    n8 = len(reg.memberships["table8"].pairs)
    n9 = len(reg.memberships["table9"].pairs)
    _announce(
        "criterion 6 (tables 8-9 invertibility, table 8 both directions)",
        rep.ok,
        f"{n8} bi-symplectic pairs, {n9} symplectic pairs",
    )


def test_criterion_7_integrable_examples(reg):
    ok = True
    details = []
    for ex_id in (1, 2):
        ex = load_example(reg, ex_id)
        dar = darboux_check(ex)
        clo = closure_check(ex)
        fl = flow_conserve(ex, hamiltonian=2, t_end=1.0, dt=1e-3)
        drift = fl.drifts[1]
        ok = ok and dar.passed and clo.passed and drift < 1e-6
        details.append(
            f"ex{ex_id}: darboux failing {dar.failing}, closure failing "
            f"{clo.failing}, Q1 drift {drift:.1e}"
        )
    _announce("criterion 7 (integrable examples 1-2)", ok, "; ".join(details))


def test_criterion_8_property_suites(reg):
    from liebialg.closedfun import (
        cf_const,
        cf_coord,
        cf_cos,
        cf_exp,
        cf_sin,
        cf_sinh,
    )

    rng = random.Random(0)

    def random_cf(depth=3):
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

    ok = True
    for _ in range(200):
        f = random_cf()
        g = random_cf()
        ok = ok and ((f + g) - g - f).is_zero() and (f - f).is_zero()

    h = 1e-6
    diff_ok = True
    for _ in range(10):
        f = random_cf()
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
            diff_ok = diff_ok and abs(analytic - numeric) / (1 + abs(analytic)) < 1e-6

    exp_ok = True
    for name in sorted(reg.algebras):
        binding = reg.grid_bindings(name, cap=1)[0]
        sc = reg.instantiate(name, binding)
        for i in range(4):
            m = sc.adjoint(i)
            e = cf_matexp(m, i + 1)
            em = cf_matexp([[-x for x in row] for row in m], i + 1)
            if not cfm_eq(cfm_mul(e, em), cfm_identity(4)):
                exp_ok = False
    _announce(
        "criterion 8 (canonicalization, derivative, exponential inverses)",
        ok and diff_ok and exp_ok,
        f"{len(reg.algebras)} algebras x 4 adjoints",
    )


def test_criterion_9_full_verify_under_60s(reg):
    from liebialg.harness import verify_tables

    t0 = time.time()
    runs = verify_tables(reg, "all")
    elapsed = time.time() - t0
    ok = all(rep.ok for rep in runs) and elapsed < 60.0
    _announce(
        "criterion 9 (full single-threaded verification < 60 s)",
        ok,
        f"{elapsed:.1f}s over {sum(len(r.results) for r in runs)} entries",
    )
