"""Poisson bivectors on the group chart: construction, verification, and
symplectic classification."""

from dataclasses import dataclass, field
from functools import cached_property

from .closedfun import (
    CR_ZERO,
    cf_is_negation,
    cf_sum_products,
    cfm_is_zero,
    cfm_mul,
    cfm_transpose,
    cfm_zeros,
)
from .core import StructureConstants, pfaffian4
from .errors import InputError
from .groupgeom import InvariantFrame
from .multivec import bivector, jacobiator, lie_derivative, linearization, vector
from .rmatrix import TensorElement


@dataclass
class PoissonBivector:
    """A bivector P on the chart, checked on construction: P is
    antisymmetric (a zero diagonal, and each P[j][i], i < j, has the term
    map of P[i][j] with every coefficient negated; no negated copy is
    built) and vanishes at the origin, which antisymmetry lets it check
    above the diagonal only."""

    P: list  # 4x4 CFMatrix, P[i][j] = {x_{i+1}, x_{j+1}}

    def __post_init__(self):
        n = len(self.P)
        for i in range(n):
            if self.P[i][i] or not all(
                cf_is_negation(self.P[i][j], self.P[j][i]) for j in range(i + 1, n)
            ):
                raise InputError("bivector is not antisymmetric")
        for i in range(n):
            for j in range(i + 1, n):
                if self.P[i][j].eval_at_zero():
                    raise InputError("bivector does not vanish at the origin")

    def bracket(self, i, j):
        """{x_i, x_j} as a closed function (1-based)."""
        return self.P[i - 1][j - 1]

    @cached_property
    def is_poisson(self):
        """Whether P passes Poisson-Jacobi (`poisson_jacobi_check`), decided
        on the first read and kept; a check that raises keeps nothing."""
        return poisson_jacobi_check(self).passed


def _transport(m, x):
    """x^T m x, entry (k, l) = m^ij x_i^k x_j^l: the tensor m on the frame x."""
    return cfm_mul(cfm_transpose(x), cfm_mul(m, x))


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
    n = r.dim
    upper = sorted((j, k, c) for (j, k), c in r.entries.items() if j < k)
    pairs = [(j, k) for j, k, _ in upper]
    ml, mr = _minors(frame.XL, pairs), _minors(frame.XR, pairs)
    terms = [t for j, k, c in upper for t in ((c, ml[j, k]), (-c, mr[j, k]))]
    P = cfm_zeros(n, n)
    for (a, b), f in _wedge_sum(terms).items():
        P[a][b], P[b][a] = f, -f
    return PoissonBivector(P)


def pi_bivector(pi: list, frame: InvariantFrame) -> PoissonBivector:
    """P^kl = pi^ij XR_i^k XR_j^l for pi = -b a^-1 of the double's adjoint
    blocks, as `double_adjoint` returns it."""
    return PoissonBivector(_transport(pi, frame.XR))


@dataclass
class PoissonJacobiReport:
    passed: bool
    residuals: dict = field(default_factory=dict)  # (i,j,k) 1-based -> ClosedFunction

    def __bool__(self):
        return self.passed


def poisson_jacobi_check(pb: PoissonBivector) -> PoissonJacobiReport:
    """J^ijk = sum_l (P^il d_l P^jk + P^jl d_l P^ki + P^kl d_l P^ij), i < j < k,
    from the sparse Jacobiator; residuals are keyed 1-based."""
    res = jacobiator(bivector(pb.P))
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
    p = bivector(pb.P)
    for i, (xl, want) in enumerate(zip(frame.XL, _cobracket_fields(frame, fd))):
        got = lie_derivative(vector(xl), p)
        for ab in sorted(got.keys() | want.keys()):
            if got.get(ab) != want.get(ab):
                return (i + 1, ab[0] + 1, ab[1] + 1)
    return None


def linearization_check(pb: PoissonBivector, fd: StructureConstants) -> bool:
    """d_k P^ij (0) = ft^ij_k exactly, over the full tensor, from the linear
    part of P above the diagonal (read off the cached partials of P) and
    the antisymmetry of P.  No campaign runs it: `multiplicative_check`
    implies it, and `bench/run.py` traces it."""
    lin = linearization(bivector(pb.P))
    n = len(pb.P)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i < j:
                    v = lin.get((i, j, k), CR_ZERO)
                elif i > j:
                    v = -lin.get((j, i, k), CR_ZERO)
                else:
                    v = CR_ZERO
                x = fd.f[i][j][k]
                if (v or x) and (not v.is_real() or v.re != x):
                    return False
    return True


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
    criterion of `find_symplectic` too) is a nonzero closed function;
    otherwise its generic rank is 2 or 0.  For invertible P, Omega = P^{-1}
    is closed iff P satisfies the Poisson-Jacobi identity, whose verdict P
    keeps (`PoissonBivector.is_poisson`); it is read only for invertible P.
    """
    if pfaffian4(pb.P):
        return SymplecticReport(True, pb.is_poisson, 4)
    return SymplecticReport(False, None, 0 if cfm_is_zero(pb.P) else 2)

