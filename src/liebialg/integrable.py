"""Darboux coordinates, dynamical functions, bracket closure, and flow tests.

The Darboux and Q functions are closed functions with Laurent terms (their
denominators are single terms such as 2*x2^2), so every bracket identity is
decided exactly, by == on closed functions.  Only the RK4 flow is numeric:
it evaluates the exact Hamiltonian field through cfm_lower.
"""

import math
from dataclasses import dataclass

from .closedfun import ClosedFunction, cfm_lower
from .core import StructureConstants
from .errors import EvalError, InputError
from .multivec import apply, interior, jet
from .poisson import PoissonBivector

CANONICAL_PAIRS = ((1, 3), (2, 4))  # {y1,y3} = {y2,y4} = 1, all else 0
# RK4 step limit of flow_conserve: 1000 times the default run, under a
# minute at about 0.04 s per 1000 steps
MAX_STEPS = 10**6


@dataclass
class IntegrableExample:
    id: int
    bivector: PoissonBivector
    darboux: list  # y1..y4 as Expr
    qfuncs: list  # Q1..Q4 as Expr
    symmetry: StructureConstants
    name: str = ""


@dataclass
class ClosureReport:
    failing: list  # labels "{a,b}" of the brackets whose identity fails

    @property
    def passed(self):
        return not self.failing


def _pairs_check(P, funcs, name, want):
    """The brackets {f_i, f_j}, i < j, of closed functions against
    want(i, j), each function differentiated once and each field X_{f_i}
    built once."""
    jets = [jet(f) for f in funcs]
    fields = [interior(P.p, d) for d in jets]
    return ClosureReport([
        f"{{{name}{i},{name}{j}}}"
        for i in range(1, 5)
        for j in range(i + 1, 5)
        if apply(fields[i - 1], jets[j - 1]) != want(i, j)
    ])


def darboux_check(ex: IntegrableExample) -> ClosureReport:
    """Pushforward brackets of (y1..y4) equal the constant canonical form."""
    return _pairs_check(
        ex.bivector, [y.to_closed() for y in ex.darboux], "y",
        lambda i, j: ClosedFunction.const(int((i, j) in CANONICAL_PAIRS)),
    )


def closure_check(ex: IntegrableExample) -> ClosureReport:
    """{Q_i, Q_j} = f_ij^k Q_k against the symmetry algebra constants."""
    qs = [q.to_closed() for q in ex.qfuncs]
    f = ex.symmetry.f
    return _pairs_check(
        ex.bivector, qs, "Q",
        lambda i, j: sum(map(ClosedFunction.scale, qs, f[i - 1][j - 1]), ClosedFunction.zero()),
    )


def conserved(ex: IntegrableExample, hamiltonian: int) -> list:
    """The Hamiltonian and every Q_j with f_hj = 0, 1-based: the functions
    whose bracket with Q_h the symmetry algebra says vanishes."""
    h = hamiltonian
    return [h] + [j for j in range(1, 5) if j != h and not any(ex.symmetry.f[h - 1][j - 1])]


def commuting_check(ex: IntegrableExample, hamiltonian: int) -> ClosureReport:
    """{Q_j, Q_h} is identically 0 for every j in conserved(ex, h)."""
    jets = [jet(q.to_closed()) for q in ex.qfuncs]
    p = ex.bivector.p
    h = hamiltonian
    return ClosureReport([
        f"{{Q{j},Q{h}}}"
        for j in conserved(ex, h)
        if apply(interior(p, jets[j - 1]), jets[h - 1])
    ])


@dataclass
class FlowReport:
    drifts: dict  # Q index (1-based) -> max relative drift
    conserved: list  # indices expected conserved (bracket with H identically 0)
    trajectory: list = None  # [(t, x1..x4, Q1..Q4)] when recorded

    def max_drift(self):
        return max((self.drifts[i] for i in self.conserved), default=0.0)


def _hamiltonian_field(P: PoissonBivector, h: ClosedFunction) -> list:
    """X_H = {H, .} as closed functions: X_H^i = {H, x_i} = P^{ji} d_j H.
    The opposite sign sends the documented example-1 trajectory into the
    x2 = 0 singular locus at exactly t = 1."""
    field = interior(P.p, jet(h))
    return [field.get(i, ClosedFunction.zero()) for i in range(4)]


def flow_conserve(
    ex: IntegrableExample,
    hamiltonian: int,
    t_end=1.0,
    dt=1e-3,
    start=(1.0, 0.5, 1.0 / 3.0, 0.25),
    record=False,
) -> FlowReport:
    """Fixed-step RK4 integration of xdot = X_H, H = Q_h, with the field and
    the Qs each lowered once by cfm_lower; reports the relative drift of
    every Q in conserved(ex, h), whose bracket with the Hamiltonian
    commuting_check proves identically 0.
    Raises InputError before the first step when t_end / dt exceeds MAX_STEPS."""
    ratio = t_end / dt if dt > 0 else 0.0
    if not ratio <= MAX_STEPS:  # also rejects inf and nan
        raise InputError(f"t_end / dt = {ratio:g} exceeds the limit of {MAX_STEPS} steps")
    field = cfm_lower([_hamiltonian_field(ex.bivector, ex.qfuncs[hamiltonian - 1].to_closed())])
    qs = cfm_lower([[q.to_closed() for q in ex.qfuncs]])
    steps = int(round(ratio))
    x = [float(v) for v in start]
    q0 = qs(*x)[0]
    drifts = {i: 0.0 for i in range(1, 5)}
    traj = []
    if record:
        traj.append((0.0, *x, *q0))
    for s in range(steps):
        k1 = field(*x)[0]
        k2 = field(*(a + 0.5 * dt * b for a, b in zip(x, k1)))[0]
        k3 = field(*(a + 0.5 * dt * b for a, b in zip(x, k2)))[0]
        k4 = field(*(a + dt * b for a, b in zip(x, k3)))[0]
        x = [a + (dt / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        if not all(map(math.isfinite, x)):
            break
        qv = qs(*x)[0]
        for i in range(1, 5):
            rel = abs(qv[i - 1] - q0[i - 1]) / (1.0 + abs(q0[i - 1]))
            drifts[i] = max(drifts[i], rel)
        if record:
            traj.append(((s + 1) * dt, *x, *qv))
    return FlowReport(drifts, conserved(ex, hamiltonian), traj if record else None)


def leibniz_check(ex: IntegrableExample) -> ClosureReport:
    """Antisymmetry {Q1,Q2} = -{Q2,Q1} and the Leibniz rule
    {Q1,Q2Q3} = Q2{Q1,Q3} + Q3{Q1,Q2}, as identities."""
    f, g, h = (q.to_closed() for q in ex.qfuncs[:3])
    p = ex.bivector.p
    df, dg, dh, dgh = (jet(e) for e in (f, g, h, g * h))
    xf = interior(p, df)
    fg = apply(xf, dg)
    failing = [] if fg == -apply(interior(p, dg), df) else ["{Q1,Q2}"]
    if apply(xf, dgh) != g * apply(xf, dh) + h * fg:
        failing.append("{Q1,Q2Q3}")
    return ClosureReport(failing)


def load_example(reg, ex_id) -> IntegrableExample:
    """Build an example from the corpus fixture `example1` / `example2`.

    The phase-space bivector is the corpus bracket payload of the
    (phase, symmetry) pair, which the acceptance suite separately proves
    equal to the derived one.  InputError names a key the fixture lacks.
    """
    fx = reg.fixtures.get(f"example{ex_id}")
    if fx is None:
        raise InputError(f"no fixture for example {ex_id}")

    def need(table, key):
        if key not in table:
            raise InputError(f"fixture {fx.name} has no {key}")
        return table[key]

    phase = need(fx.refs, "phase")
    symmetry = need(fx.refs, "symmetry")
    pe = next(
        (p for p in reg.poisson if p.g == phase and p.dual == symmetry), None
    )
    if pe is None:
        raise InputError(f"no bracket table for ({phase}, {symmetry})")
    P = PoissonBivector(pe.closed_map({}))
    darboux = [need(fx.exprs, f"y{i}") for i in range(1, 5)]
    qfuncs = [need(fx.exprs, f"q{i}") for i in range(1, 5)]
    return IntegrableExample(
        id=ex_id,
        bivector=P,
        darboux=darboux,
        qfuncs=qfuncs,
        symmetry=reg.instantiate(symmetry),
        name=f"example {ex_id}",
    )


def write_trajectory_csv(report: FlowReport, path):
    """CSV dump (t, x1..x4, Q1..Q4) for offline plotting."""
    import csv

    if report.trajectory is None:
        raise EvalError("flow was not recorded; rerun with record=True")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x1", "x2", "x3", "x4", "Q1", "Q2", "Q3", "Q4"])
        for row in report.trajectory:
            w.writerow([f"{v:.12g}" for v in row])
