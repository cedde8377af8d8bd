"""Poisson bivectors on the group chart: construction, verification, and
symplectic classification."""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .closedfun import (
    ClosedFunction,
    cfm_eval,
    cfm_is_zero,
    cfm_lower,
    cfm_mul,
    cfm_sub,
    cfm_transpose,
    cfm_scale,
)
from .core import StructureConstants
from .errors import InputError
from .groupgeom import DoubleAdjointBlocks, InvariantFrame
from .rmatrix import TensorElement


@dataclass
class PoissonBivector:
    P: list  # 4x4 CFMatrix, P[i][j] = {x_{i+1}, x_{j+1}}
    base: StructureConstants
    provenance: str  # 'sklyanin(...)' | 'pi(...)'
    _lowered: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.P)
        for i in range(n):
            for j in range(n):
                if self.P[i][j] != -self.P[j][i]:
                    raise InputError("bivector is not antisymmetric")
        for i in range(n):
            for j in range(n):
                if self.P[i][j].eval_at_zero():
                    raise InputError("bivector does not vanish at the origin")

    def bracket(self, i, j):
        """{x_i, x_j} as a closed function (1-based)."""
        return self.P[i - 1][j - 1]

    def eval(self, point):
        """P at point as a numpy array, through cfm_lower(P) made once."""
        if self._lowered is None:
            self._lowered = cfm_lower(self.P)
        return np.array(cfm_eval(self.P, [float(x) for x in point], self._lowered))


def sklyanin_bivector(frame: InvariantFrame, r: TensorElement, base=None) -> PoissonBivector:
    """P = XL^T r XL - XR^T r XR for antisymmetric r (entries {x_i, x_j})."""
    if not r.is_antisymmetric():
        raise InputError("Sklyanin bracket needs an antisymmetric r")
    rcf = [[ClosedFunction.const(x) for x in row] for row in r.r]
    xl, xr = frame.XL, frame.XR
    left = cfm_mul(cfm_transpose(xl), cfm_mul(rcf, xl))
    right = cfm_mul(cfm_transpose(xr), cfm_mul(rcf, xr))
    return PoissonBivector(cfm_sub(left, right), base, "sklyanin")


def pi_bivector(blocks: DoubleAdjointBlocks, frame: InvariantFrame, base=None) -> PoissonBivector:
    """P^kl = (-b a^-1)^ij XR_i^k XR_j^l from the double's adjoint blocks."""
    pi = cfm_scale(Fraction(-1), cfm_mul(blocks.b, blocks.ainv))
    xr = frame.XR
    p = cfm_mul(cfm_transpose(xr), cfm_mul(pi, xr))
    return PoissonBivector(p, base, "pi")


@dataclass
class PoissonJacobiReport:
    passed: bool
    residuals: dict = field(default_factory=dict)  # (i,j,k) 1-based -> ClosedFunction

    def __bool__(self):
        return self.passed


def poisson_jacobi_check(pb: PoissonBivector) -> PoissonJacobiReport:
    """J^ijk = sum_l (P^il d_l P^jk + P^jl d_l P^ki + P^kl d_l P^ij), symbolically."""
    p = pb.P
    n = len(p)
    res = {}
    dp = [[[p[i][j].diff(l + 1) for l in range(n)] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = ClosedFunction.zero()
                for l in range(n):
                    acc = acc + p[i][l] * dp[j][k][l]
                    acc = acc + p[j][l] * dp[k][i][l]
                    acc = acc + p[k][l] * dp[i][j][l]
                if acc:
                    res[(i + 1, j + 1, k + 1)] = acc
    return PoissonJacobiReport(not res, res)


def linearization_check(pb: PoissonBivector, fd: StructureConstants) -> bool:
    """d_k P^ij (0) = ft^ij_k exactly, full tensor comparison."""
    p = pb.P
    n = len(p)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = p[i][j].diff(k + 1).eval_at_zero()
                if not v.is_real() or v.re != fd.f[i][j][k]:
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

    P is generically invertible iff its Pfaffian P12 P34 - P13 P24 + P14 P23
    is a nonzero closed function; otherwise its generic rank is 2 or 0.  For
    invertible P, Omega = P^{-1} is closed iff P satisfies the Poisson-Jacobi
    identity.
    """
    p = pb.P
    pf = p[0][1] * p[2][3] - p[0][2] * p[1][3] + p[0][3] * p[1][2]
    if pf:
        return SymplecticReport(True, poisson_jacobi_check(pb).passed, 4)
    return SymplecticReport(False, None, 0 if cfm_is_zero(p) else 2)

