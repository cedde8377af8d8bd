"""Chart-level geometry on the product-of-exponentials parameterization.

The group element is g = e^{x1 X1} e^{x2 X2} e^{x3 X3} e^{x4 X4}; conjugation
by coordinate exponentials uses e^{-x X_i} X_j e^{x X_i} = (e^{x Xadj_i})_j^k X_k
with matrices acting on the right of row vectors (row = input basis index).
"""

from dataclasses import dataclass

from .closedfun import (
    cf_matexp_pm,
    cfm_const_mul,
    cfm_diff,
    cfm_eq,
    cfm_identity,
    cfm_inverse_unitdet,
    cfm_is_zero,
    cfm_mul,
    cfm_sub,
    cfm_transpose,
    cfm_zeros,
)
from .core import (
    DoubleAlgebra,
    StructureConstants,
    build_double,
    jacobi_check,
    mixed_jacobi_check,
)
from .errors import InputError, InvariantError


@dataclass
class GroupChart:
    base: StructureConstants

    def __post_init__(self):
        if not jacobi_check(self.base).passed:
            raise InputError("chart base algebra fails the Jacobi identity")


@dataclass
class InvariantFrame:
    Rmat: list  # right-invariant one-form coefficients R^i_j (row i, col j)
    XR: list  # right-invariant vector fields, XR[j][l] = component on d_l
    XL: list  # left-invariant vector fields
    exp_pos: list  # exp_pos[i] = exp(x_{i+1} Xadj_{i+1}), a 4x4 CFMatrix
    # exp_neg[i] = exp(-x_{i+1} Xadj_{i+1}), the inverse of exp_pos[i] and
    # its reflection x_{i+1} -> -x_{i+1}
    exp_neg: list
    base: StructureConstants


def invariant_frame(chart: GroupChart, matexp_pm=None) -> InvariantFrame:
    """Assemble R symbolically and invert it to the frame fields.

    R column j is row j of the ordered product of exp(-x_m Xadj_m) for
    m = j-1 .. 1, and XR = (R^-1)^T.  One more factor completes the product to
    Ad(g)^-1 = exp(-x4 Xadj_4) exp(-x3 Xadj_3) exp(-x2 Xadj_2) exp(-x1 Xadj_1),
    and theta_L = Ad_{g^-1} theta_R gives XL = Ad(g)^-1 XR with no second
    inverse.  exp(-x_m Xadj_m) is the reflection x_m -> -x_m of exp(x_m Xadj_m)
    (`cf_matexp_pm`); both pass their exact ODE checks, so the reversed
    product is the exact inverse of Ad(g).  `matexp_pm` stands in for
    `cf_matexp_pm`, say a memo of it.
    """
    f = chart.base
    n = f.dim
    adj = f.adjoints()
    matexp_pm = matexp_pm or cf_matexp_pm
    pairs = [matexp_pm(adj[i], i + 1) for i in range(n)]
    exp_pos = [e for e, _ in pairs]
    exp_neg = [em for _, em in pairs]

    prod = cfm_identity(n)
    rcols = [prod[0]]
    for j in range(1, n):
        prod = cfm_mul(exp_neg[j - 1], prod)
        rcols.append(prod[j])
    ad_inv = cfm_mul(exp_neg[n - 1], prod)

    rmat = cfm_transpose(rcols)
    xr = cfm_transpose(cfm_inverse_unitdet(rmat))
    return InvariantFrame(rmat, xr, cfm_mul(ad_inv, xr), exp_pos, exp_neg, f)


def vf_commutator(v, w):
    """Commutator of vector fields given as component rows (CFMatrix rows)."""
    n = len(v)
    out = []
    for k in range(n):
        acc = None
        for l in range(n):
            t1 = v[l] * w[k].diff(l + 1)
            t2 = w[l] * v[k].diff(l + 1)
            term = t1 - t2
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def frame_bracket_residuals(frame: InvariantFrame, f: StructureConstants):
    """Symbolic residuals of [XL_i, XL_j] = f_ij^k XL_k,
    [XR_i, XR_j] = -f_ij^k XR_k and [XL_i, XR_j] = 0."""
    n = f.dim
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            ll = vf_commutator(frame.XL[i], frame.XL[j])
            rr = vf_commutator(frame.XR[i], frame.XR[j])
            for k in range(n):
                want_l = ll[k]
                want_r = rr[k]
                for m in range(n):
                    if f.f[i][j][m]:
                        want_l = want_l - frame.XL[m][k].scale(f.f[i][j][m])
                        want_r = want_r + frame.XR[m][k].scale(f.f[i][j][m])
                if want_l:
                    bad.append(("LL", i + 1, j + 1, k + 1))
                if want_r:
                    bad.append(("RR", i + 1, j + 1, k + 1))
    for i in range(n):
        for j in range(n):
            lr = vf_commutator(frame.XL[i], frame.XR[j])
            if any(lr):
                bad.append(("LR", i + 1, j + 1, 0))
    return bad


@dataclass
class DoubleAdjointBlocks:
    a: list  # 4x4 CFMatrix, g-to-g block of Ad_{g^-1}
    b: list  # dual-to-g block
    d: list  # dual-to-dual block, (a^-1)^T by invariance of the pairing

    @property
    def ainv(self):
        """a^-1, read off as d^T; `double_adjoint` checks a d^T = I."""
        return cfm_transpose(self.d)


def double_adjoint(
    frame: InvariantFrame, f: StructureConstants, fd: StructureConstants, dbl=None
) -> DoubleAdjointBlocks:
    """Ad_{g^-1} on the double as the ordered product
    exp(x1 Xadj_1) ... exp(x4 Xadj_4) of the double's adjoint matrices,
    each factor [[E, 0], [F, E_-^T]] from `double_exp_factor` on the frame of
    g.  The product stays block lower triangular, so it is accumulated block
    by block, with no 8x8 matrix formed:

        a <- a E,   b <- b E + d F = [b | d] [E; F],   d <- d E_-^T.

    `dbl`, when given, is the double of (f, fd) whose mixed Jacobi and
    Jacobi identities the caller has checked; otherwise both are checked
    here.
    """
    if frame.base != f:
        raise InputError("frame belongs to another algebra")
    if dbl is None:
        if not mixed_jacobi_check(f, fd).passed:
            raise InputError("pair fails the mixed Jacobi identity")
        dbl = build_double(f, fd)
        if not jacobi_check(dbl.sc).passed:
            raise InputError("pair fails the double Jacobi identity")
    a, b, d = double_exp_factor(frame, dbl, 0)
    for i in range(1, f.dim):
        e, low, et = double_exp_factor(frame, dbl, i)
        b = cfm_mul([rb + rd for rb, rd in zip(b, d)], e + low)
        a = cfm_mul(a, e)
        d = cfm_mul(d, et)
    blocks = DoubleAdjointBlocks(a, b, d)
    # invariance of the canonical pairing forces d = (a^-1)^T
    if not cfm_is_zero(blocks_pairing_residual(blocks)):
        raise InvariantError("pairing relation a d^T = I violated")
    return blocks


def double_exp_factor(frame: InvariantFrame, dbl: DoubleAlgebra, i):
    """The blocks (E, F, E_-^T) of exp(x Xadj) for Xadj the double's adjoint
    matrix of X_{i+1} and x = x_{i+1}, from the frame of g (0-based i).

    Xadj = [[A, 0], [B, -A^T]] with A = Xadj_{i+1} of g and B[j][k] =
    -ft^jk_{i+1}, so its exponential is [[E, 0], [F, E_-^T]] with
    E = exp(x A) and E_- = exp(-x A) held by the frame and

        F(x) = E_-(x)^T int_0^x E(s)^T B E(s) ds

    (C. Van Loan, Computing integrals involving the matrix exponential, IEEE
    TAC 1978).  E and E_- passed their own exact checks; F is checked
    exactly against F(0) = 0 and F' = B E - A^T F.  From any integrand X E,
    F' = E_-^T X E - A^T F, so the integrand is built as (E^T B) E and the
    check's B E apart from it: a wrong constant product fails the check.  The
    products by B, B^T and A^T run over their nonzero entries
    (`cfm_const_mul`)."""
    n = frame.base.dim
    coord = i + 1
    a = frame.base.adjoint(i)
    full = dbl.sc.adjoint(i)
    b = [row[:n] for row in full[n:]]
    want = [row + [0] * n for row in a]
    want += [b[j] + [-a[k][j] for k in range(n)] for j in range(n)]
    if full != want:
        raise InvariantError("the double's adjoint is not [[A, 0], [B, -A^T]]")
    e, em = frame.exp_pos[i], frame.exp_neg[i]
    low = cfm_zeros(n, n)
    if any(any(row) for row in b):
        etb = cfm_transpose(cfm_const_mul(cfm_transpose(b), e))
        inner = cfm_mul(etb, e)
        low = cfm_mul(cfm_transpose(em), [[x.integral(coord) for x in row] for row in inner])
        if any(x.eval_at_zero() for row in low for x in row):
            raise InvariantError("lower-left block of the double's exponential is nonzero at 0")
        be = cfm_const_mul(b, e)
        if not cfm_eq(cfm_diff(low, coord), cfm_sub(be, cfm_const_mul(cfm_transpose(a), low))):
            raise InvariantError(
                "lower-left block of the double's exponential fails F' = B E - A^T F"
            )
    return e, low, cfm_transpose(em)


def blocks_pairing_residual(blocks: DoubleAdjointBlocks):
    """a d^T - I, identically zero by invariance of the pairing."""
    return cfm_sub(cfm_mul(blocks.a, blocks.ainv), cfm_identity(len(blocks.a)))
