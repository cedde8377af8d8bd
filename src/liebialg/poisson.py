"""Poisson bivectors on the group chart: construction, verification, and
symplectic classification."""

from dataclasses import dataclass, field
from functools import cached_property

from .closedfun import NCOORD, ClosedFunction, cf_is_negation, cf_sum_products, cfm_mul, cfm_zeros
from .core import StructureConstants
from .errors import InputError
from .groupgeom import InvariantFrame
from .multivec import jacobiator, lie_derivative, linearization, vector
from .rmatrix import TensorElement

_PAIRS = tuple((a, b) for a in range(NCOORD) for b in range(a + 1, NCOORD))  # a < b, in order


@dataclass
class PoissonBivector:
    """A bivector P on the chart as the map {(a, b): P^ab} of its nonzero
    components above the diagonal, 0 <= a < b < 4, 0-based (P^ba = -P^ab,
    the form of `multivec`).  Construction drops zero components and checks
    that every key is such a pair and that P vanishes at the origin."""

    p: dict  # (a, b) -> ClosedFunction, P^ab = {x_{a+1}, x_{b+1}}

    def __post_init__(self):
        for key, f in self.p.items():
            if key not in _PAIRS:
                raise InputError(f"bivector key {key!r} is not a pair (a, b), 0 <= a < b < 4")
            if f.eval_at_zero():
                raise InputError("bivector does not vanish at the origin")
        self.p = {key: f for key, f in self.p.items() if f}

    @property
    def P(self):
        """The dense 4x4 view (P[b][a] = -P^ab), built on each read."""
        m = cfm_zeros(NCOORD, NCOORD)
        for (a, b), f in self.p.items():
            m[a][b], m[b][a] = f, -f
        return m

    def bracket(self, i, j):
        """{x_i, x_j} as a closed function (1-based)."""
        f = self.p.get((min(i, j) - 1, max(i, j) - 1), ClosedFunction.zero())
        return f if i <= j else -f

    @cached_property
    def is_poisson(self):
        """Whether P passes Poisson-Jacobi (`poisson_jacobi_check`), decided
        on the first read and kept; a check that raises keeps nothing."""
        return poisson_jacobi_check(self).passed


def _minors(x, pairs):
    """{(j, k): {(a, b): M^{jk,ab}}} over `pairs`, j < k, where the 2 x 2
    minor M^{jk,ab} = x_j^a x_k^b - x_k^a x_j^b, a < b, is kept when nonzero:
    the columns of the second compound of the frame x that a transport
    reads.  For constant antisymmetric m, (x^T m x)^ab = sum_{j<k} m^jk
    M^{jk,ab}."""
    n = len(x[0])
    out = {}
    for j, k in pairs:
        xj, xk = x[j], x[k]
        col = {}
        for a in range(n):
            for b in range(a + 1, n):
                m = cf_sum_products([(xj[a], xk[b], 1), (xk[a], xj[b], -1)])
                if m:
                    col[a, b] = m
        out[j, k] = col
    return out


def _wedge_sum(terms):
    """sum of c M over `terms`, pairs (c, M) of a rational and a minor
    column of `_minors`, as a bivector {(a, b): P^ab, a < b}: one term map
    per (a, b), and no constant closed function."""
    out = {}
    for ab in sorted(set().union(*(m for _, m in terms))):
        f = cf_sum_products((), [(c, m[ab]) for c, m in terms if ab in m])
        if f:
            out[ab] = f
    return out


def sklyanin_bivector(frame: InvariantFrame, r: TensorElement) -> PoissonBivector:
    """P = XL^T r XL - XR^T r XR for antisymmetric r (entries {x_i, x_j}):
    P^ab = sum_{j<k} r^jk (ML^{jk,ab} - MR^{jk,ab}) over the nonzero r^jk,
    from the 2 x 2 minors of both frames (`_minors`)."""
    if not r.is_antisymmetric():
        raise InputError("Sklyanin bracket needs an antisymmetric r")
    upper = sorted((j, k, c) for (j, k), c in r.entries.items() if j < k)
    pairs = [(j, k) for j, k, _ in upper]
    ml, mr = _minors(frame.XL, pairs), _minors(frame.XR, pairs)
    terms = [t for j, k, c in upper for t in ((c, ml[j, k]), (-c, mr[j, k]))]
    return PoissonBivector(_wedge_sum(terms))


def pi_bivector(pi: list, frame: InvariantFrame) -> PoissonBivector:
    """P^ab = pi^ij XR_i^a XR_j^b, a < b, the upper entries of XR^T (pi XR),
    for pi = -b a^-1 as `double_adjoint` returns it.  As XR is invertible,
    P is antisymmetric iff pi is: a zero diagonal, and each pi[j][i], i < j,
    the term map of pi[i][j] negated (`cf_is_negation`)."""
    n = len(pi)
    for i in range(n):
        if pi[i][i] or not all(cf_is_negation(pi[i][j], pi[j][i]) for j in range(i + 1, n)):
            raise InputError("bivector is not antisymmetric")
    x = frame.XR
    y = cfm_mul(pi, x)
    return PoissonBivector({
        (a, b): f
        for a, b in _PAIRS
        if (f := cf_sum_products([(xi[a], yi[b], 1) for xi, yi in zip(x, y)]))
    })


@dataclass
class PoissonJacobiReport:
    passed: bool
    residuals: dict = field(default_factory=dict)  # (i,j,k) 1-based -> ClosedFunction

    def __bool__(self):
        return self.passed


def poisson_jacobi_check(pb: PoissonBivector) -> PoissonJacobiReport:
    """J^ijk = sum_l (P^il d_l P^jk + P^jl d_l P^ki + P^kl d_l P^ij), i < j < k,
    from the sparse Jacobiator; residuals are keyed 1-based."""
    res = jacobiator(pb.p)
    return PoissonJacobiReport(
        not res, {(i + 1, j + 1, k + 1): v for (i, j, k), v in res.items()}
    )


def _cobracket_fields(frame: InvariantFrame, fd: StructureConstants):
    """[(delta X_i)^L for each i] as bivectors, (delta X_i)^L ab =
    sum_{j<k} ft^jk_i ML^{jk,ab} with ft^jk_i = fd.f[j][k][i], from the
    2 x 2 minors of XL (`_minors`) over the (j, k) where fd has a nonzero
    slice, built once for every i.  The sum reads only j < k, so fd must be
    antisymmetric: InputError otherwise."""
    if not fd.is_antisymmetric():
        raise InputError("structure constants are not antisymmetric")
    by_i = [[] for _ in frame.XL]
    for j, k, i, v in fd.nonzero():
        if j < k:
            by_i[i].append((v, (j, k)))
    minors = _minors(frame.XL, sorted({jk for t in by_i for _, jk in t}))
    return [_wedge_sum([(v, minors[jk]) for v, jk in t]) for t in by_i]


def multiplicative_check(pb: PoissonBivector, frame: InvariantFrame, fd: StructureConstants):
    """The first (i, a, b), 1-based, a < b, where L_{XL_i} P^ab is not
    ft^jk_i XL_j^a XL_k^b, ft^jk_i = fd.f[j][k][i], or None.  With P(e) = 0
    (`PoissonBivector`), None certifies that L_{X^L} P = (delta X)^L for all
    X: P is the Poisson-Lie bivector of fd (Drinfeld 1983; Lu and Weinstein,
    J. Diff. Geom. 31, 1990), and `linearization_check` is its value at e.
    The right sides come from `_cobracket_fields`."""
    for i, (xl, want) in enumerate(zip(frame.XL, _cobracket_fields(frame, fd))):
        got = lie_derivative(vector(xl), pb.p)
        for ab in sorted(got.keys() | want.keys()):
            if got.get(ab) != want.get(ab):
                return (i + 1, ab[0] + 1, ab[1] + 1)
    return None


def linearization_check(pb: PoissonBivector, fd: StructureConstants) -> bool:
    """d_k P^ij (0) = ft^ij_k exactly, over the full tensor: fd is
    antisymmetric, as P is, and the linear part of P above the diagonal
    (read off the cached partials of P) has the nonzero entries of fd with
    i < j.  No campaign runs it: `multiplicative_check` implies it, and
    `bench/run.py` traces it."""
    want = {(i, j, k): v for i, j, k, v in fd.nonzero() if i < j}
    lin = linearization(pb.p)
    return fd.is_antisymmetric() and lin.keys() == want.keys() and all(
        v.is_real() and v.re == want[key] for key, v in lin.items()
    )


# Pf(P) = P^01 P^23 - P^02 P^13 + P^03 P^12, as (pair, pair, sign)
_PFAFFIAN = (((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1), ((0, 3), (1, 2), 1))


@dataclass
class SymplecticReport:
    symplectic: bool
    closed_ok: bool = None  # set when symplectic
    max_rank: int = 0  # generic rank of P: 0, 2 or 4

    def __bool__(self):
        return self.symplectic


def symplectic_classify(pb: PoissonBivector) -> SymplecticReport:
    """Exact classification of a 4x4 bivector.

    P is generically invertible iff its Pfaffian (`core.pfaffian4`, the
    criterion of `find_symplectic` too), one sum over the products of
    nonzero components, is a nonzero closed function; otherwise its generic
    rank is 2, or 0 for P = 0.  For invertible P, Omega = P^{-1} is closed
    iff P satisfies the Poisson-Jacobi identity, whose verdict P keeps
    (`PoissonBivector.is_poisson`); it is read only for invertible P.
    """
    p = pb.p
    pf = [(p[u], p[v], s) for u, v, s in _PFAFFIAN if u in p and v in p]
    if cf_sum_products(pf):
        return SymplecticReport(True, pb.is_poisson, 4)
    return SymplecticReport(False, None, 2 if p else 0)

