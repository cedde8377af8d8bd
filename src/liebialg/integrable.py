"""Darboux coordinates, dynamical functions, bracket closure, and flow tests.

Everything here is numerical with analytic derivatives: the Darboux and Q
functions contain quotients, which live in expression trees rather than in
the canonical closed-function class.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import StructureConstants
from .errors import EvalError, InputError
from .exprtree import Expr, mul
from .poisson import PoissonBivector

CANONICAL_PAIRS = ((1, 3), (2, 4))  # {y1,y3} = {y2,y4} = 1, all else 0
# RK4 step limit of flow_conserve: 1000 times the default run, about two
# minutes at 0.1 s per 1000 steps
MAX_STEPS = 10**6


@dataclass
class IntegrableExample:
    id: int
    bivector: PoissonBivector
    darboux: list  # y1..y4 as Expr
    qfuncs: list  # Q1..Q4 as Expr
    symmetry: StructureConstants
    invariant_sets: list  # [(i, j)] 1-based pairs of Poisson-commuting Qs
    singular_coord: int  # coordinate that must stay away from 0
    name: str = ""


def sample_points(ex: IntegrableExample, n=20, seed=0):
    """Uniform points on [-1,1]^4 with |x_singular| >= 0.1, deterministic."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        p = rng.uniform(-1.0, 1.0, size=4)
        if abs(p[ex.singular_coord - 1]) < 0.1:
            continue
        pts.append(tuple(p.tolist()))
    return pts


def _gradient(f: Expr):
    """(d_1 f .. d_4 f) as a function of a point, differentiated and compiled once."""
    fns = [f.diff(i).compiled() for i in range(1, 5)]
    return lambda p: [fn(*p) for fn in fns]


def _bracket(pm, df, dg) -> float:
    return float(sum(pm[i][j] * df[i] * dg[j] for i in range(4) for j in range(4)))


def bracket_of(P: PoissonBivector, f: Expr, g: Expr, point) -> float:
    """{f, g}(point) = sum_ij P^ij d_i f d_j g with analytic derivatives."""
    p = [float(x) for x in point]
    return _bracket(P.eval(p), _gradient(f)(p), _gradient(g)(p))


@dataclass
class ClosureReport:
    passed: bool
    max_residual: float
    table: dict = field(default_factory=dict)  # (i, j) -> worst residual

    def __bool__(self):
        return self.passed


def darboux_check(ex: IntegrableExample, n=20, seed=0, tol=1e-10) -> ClosureReport:
    """Pushforward brackets of (y1..y4) equal the constant canonical form."""
    worst = 0.0
    table = {}
    grads = [_gradient(y) for y in ex.darboux]
    for p in sample_points(ex, n, seed):
        pm = ex.bivector.eval(p)
        d = [g(p) for g in grads]
        for i in range(1, 5):
            for j in range(i + 1, 5):
                want = 1.0 if (i, j) in CANONICAL_PAIRS else 0.0
                got = _bracket(pm, d[i - 1], d[j - 1])
                err = abs(got - want)
                table[(i, j)] = max(table.get((i, j), 0.0), err)
                worst = max(worst, err)
    return ClosureReport(worst < tol, worst, table)


def closure_check(ex: IntegrableExample, n=20, seed=0, tol=1e-10) -> ClosureReport:
    """{Q_i, Q_j} = f_ij^k Q_k against the symmetry algebra constants."""
    worst = 0.0
    table = {}
    grads = [_gradient(q) for q in ex.qfuncs]
    for p in sample_points(ex, n, seed):
        qvals = [q.compiled()(*p) for q in ex.qfuncs]
        scale = 1.0 + max(abs(v) for v in qvals)
        pm = ex.bivector.eval(p)
        d = [g(p) for g in grads]
        for i in range(1, 5):
            for j in range(i + 1, 5):
                got = _bracket(pm, d[i - 1], d[j - 1])
                want = sum(
                    float(ex.symmetry.f[i - 1][j - 1][k]) * qvals[k] for k in range(4)
                )
                err = abs(got - want) / scale
                table[(i, j)] = max(table.get((i, j), 0.0), err)
                worst = max(worst, err)
    return ClosureReport(worst < tol, worst, table)


@dataclass
class FlowReport:
    drifts: dict  # Q index (1-based) -> max relative drift
    conserved: list  # indices expected conserved (bracket with H identically 0)
    trajectory: list = None  # [(t, x1..x4, Q1..Q4)] when recorded

    def max_drift(self):
        return max((self.drifts[i] for i in self.conserved), default=0.0)


def _rhs(P: PoissonBivector, grad_h, x):
    # Hamiltonian field taken as X_H = {H, .}: xdot_i = P^{ji} d_j H.  The
    # opposite sign sends the documented example-1 trajectory into the
    # x2 = 0 singular locus at exactly t = 1.
    p = x.tolist()
    return P.eval(p).T @ np.array(grad_h(p))


def flow_conserve(
    ex: IntegrableExample,
    hamiltonian: int,
    t_end=1.0,
    dt=1e-3,
    start=(1.0, 0.5, 1.0 / 3.0, 0.25),
    record=False,
) -> FlowReport:
    """Fixed-step RK4 integration of xdot = P grad(Q_h); reports the relative
    drift of every Q whose bracket with the Hamiltonian vanishes identically.
    Raises InputError before the first step when t_end / dt exceeds MAX_STEPS."""
    ratio = t_end / dt if dt > 0 else 0.0
    if not ratio <= MAX_STEPS:  # also rejects inf and nan
        raise InputError(f"t_end / dt = {ratio:g} exceeds the limit of {MAX_STEPS} steps")
    grad_h = _gradient(ex.qfuncs[hamiltonian - 1])
    qs = [q.compiled() for q in ex.qfuncs]
    conserved = [hamiltonian]
    for j in range(1, 5):
        if j == hamiltonian:
            continue
        fij = ex.symmetry.f[min(hamiltonian, j) - 1][max(hamiltonian, j) - 1]
        if not any(fij):
            conserved.append(j)
    steps = int(round(ratio))
    x = np.array(start, dtype=float)
    q0 = [q(*x.tolist()) for q in qs]
    drifts = {i: 0.0 for i in range(1, 5)}
    traj = []
    if record:
        traj.append((0.0, *x, *q0))
    for s in range(steps):
        k1 = _rhs(ex.bivector, grad_h, x)
        k2 = _rhs(ex.bivector, grad_h, x + 0.5 * dt * k1)
        k3 = _rhs(ex.bivector, grad_h, x + 0.5 * dt * k2)
        k4 = _rhs(ex.bivector, grad_h, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(x)):
            break
        qv = [q(*x.tolist()) for q in qs]
        for i in range(1, 5):
            rel = abs(qv[i - 1] - q0[i - 1]) / (1.0 + abs(q0[i - 1]))
            drifts[i] = max(drifts[i], rel)
        if record:
            traj.append(((s + 1) * dt, *x, *qv))
    return FlowReport(drifts, conserved, traj if record else None)


def leibniz_check(ex: IntegrableExample, n=20, seed=0, tol=1e-10):
    """Antisymmetry and the Leibniz rule of the bracket at sampled points."""
    worst = 0.0
    f, g, h = ex.qfuncs[:3]
    grads = [_gradient(e) for e in (f, g, h, mul(g, h))]
    for p in sample_points(ex, n, seed):
        pm = ex.bivector.eval(p)
        df, dg, dh, dgh = (grad(p) for grad in grads)
        anti = _bracket(pm, df, dg) + _bracket(pm, dg, df)
        worst = max(worst, abs(anti))
        lhs = _bracket(pm, df, dgh)
        rhs = g.compiled()(*p) * _bracket(pm, df, dh) + h.compiled()(*p) * _bracket(pm, df, dg)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst < tol, worst


def load_example(reg, ex_id) -> IntegrableExample:
    """Build an example from the corpus fixture `example1` / `example2`.

    The phase-space bivector is the corpus bracket payload of the
    (phase, symmetry) pair, which the acceptance suite separately proves
    equal to the derived one.
    """
    fx = reg.fixtures.get(f"example{ex_id}")
    if fx is None:
        raise InputError(f"no fixture for example {ex_id}")
    phase = fx.refs["phase"]
    symmetry = fx.refs["symmetry"]
    pe = next(
        (p for p in reg.poisson if p.g == phase and p.dual == symmetry), None
    )
    if pe is None:
        raise InputError(f"no bracket table for ({phase}, {symmetry})")
    P = PoissonBivector(pe.closed_matrix({}), reg.instantiate(phase), "corpus")
    darboux = [fx.exprs[f"y{i}"] for i in range(1, 5)]
    qfuncs = [fx.exprs[f"q{i}"] for i in range(1, 5)]
    inv = str(int(fx.vals["invariants"].eval_exact()))
    pairs = [(int(inv[0]), int(inv[1]))]
    return IntegrableExample(
        id=ex_id,
        bivector=P,
        darboux=darboux,
        qfuncs=qfuncs,
        symmetry=reg.instantiate(symmetry),
        invariant_sets=pairs,
        singular_coord=int(fx.vals["singular"].eval_exact()),
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
