"""Chart-level geometry on the product-of-exponentials parameterization.

The group element is g = e^{x1 X1} e^{x2 X2} e^{x3 X3} e^{x4 X4}; conjugation
by coordinate exponentials uses e^{-x X_i} X_j e^{x X_i} = (e^{x Xadj_i})_j^k X_k
with matrices acting on the right of row vectors (row = input basis index).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .closedfun import (
    CRat,
    cf_matexp_reflected,
    cf_matexp_sparse,
    cfm_const_mul_sparse,
    cfm_identity,
    cfm_inverse_unitdet,
    cfm_mul,
    cfm_sum_products,
    cfm_transpose,
    cfm_zeros,
    derivative_is,
)
from .core import StructureConstants, bialgebra_failure
from .errors import InputError, InvariantError
from .multivec import bracket, vector


@dataclass
class GroupChart:
    base: StructureConstants

    def __post_init__(self):
        if not self.base.is_lie():
            raise InputError("chart base algebra fails the Jacobi identity")


@dataclass
class InvariantFrame:
    """The invariant one-forms and vector fields of a chart, with the
    exponentials and prefix products they are built from.

    prefix[k] = P_k = exp_neg[k-1] ... exp_neg[0] for k = 0 .. n, None for I:
    R is read off them, and `double_adjoint` reuses them for every dual.
    XL is built on its first read and then kept, and so is each factor
    exp(x_k Xadj_k) (`exp_pos_at`): fields, Sklyanin bivectors and the
    Poisson-Lie check read XL, and only the adjoint-block construction reads
    a factor (`double_exp_factor`), the factor of each nonzero dual slice."""

    Rmat: list  # right-invariant one-form coefficients R^i_j (row i, col j)
    XR: list  # right-invariant vector fields, XR[j][l] = component on d_l
    exp_neg: list  # exp_neg[i] = exp(-x_{i+1} Xadj_{i+1}), a 4x4 CFMatrix
    prefix: list  # P_0 .. P_n, None for I; P_1 is exp_neg[0], P_n is Ad(g)^-1
    base: StructureConstants
    _exp_pos: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def XL(self):
        """The left-invariant vector fields: theta_L = Ad_{g^-1} theta_R and
        P_n = Ad(g)^-1, so XL = P_n XR, with no second inverse."""
        return _times(self.prefix[-1], self.XR)

    def exp_pos_at(self, i):
        """exp(x_{i+1} Xadj_{i+1}), the inverse of exp_neg[i]: its reflection
        x_{i+1} -> -x_{i+1}, which passes the exact check on Xadj_{i+1}
        itself (`cf_matexp_reflected`).  Built on its first read and kept."""
        e = self._exp_pos.get(i)
        if e is None:
            mc = adjoint_maps(self.base)[i]
            e = self._exp_pos[i] = cf_matexp_reflected(self.exp_neg[i], mc, i + 1)
        return e

    @property
    def exp_pos(self):
        """[exp(x_{i+1} Xadj_{i+1}) for every i], each from `exp_pos_at`."""
        return [self.exp_pos_at(i) for i in range(len(self.exp_neg))]


def invariant_frame(chart: GroupChart, matexp=None) -> InvariantFrame:
    """Assemble R symbolically and invert it to the frame fields.

    R column j is row j of the prefix product P_(j-1) = exp(-x_(j-1) Xadj_(j-1))
    ... exp(-x_1 Xadj_1), and XR = (R^-1)^T.  P_n completes the product to
    Ad(g)^-1 = exp(-x4 Xadj_4) exp(-x3 Xadj_3) exp(-x2 Xadj_2) exp(-x1 Xadj_1),
    which gives XL = P_n XR on its first read.  Each -Xadj_i enters as the
    sparse map of its nonzero entries (`adjoint_maps`, read off the integer
    form of the structure constants), and exp(-x_m Xadj_m) is built from it
    and passes its exact ODE check (`cf_matexp_sparse`), so the reversed
    product is the exact inverse of Ad(g).  The frame keeps every P_k for
    `double_adjoint`; exp(x_m Xadj_m) is built only when it is read
    (`InvariantFrame.exp_pos_at`).  `matexp(mc, n, coord)` stands in for
    `cf_matexp_sparse`, say a memo of it.
    """
    f = chart.base
    n = f.dim
    matexp = matexp or cf_matexp_sparse
    maps = adjoint_maps(f, sign=-1)
    exp_neg = [matexp(mc, n, i + 1) for i, mc in enumerate(maps)]

    # None stands for I while every factor so far has been exp(0) = I, the
    # exponential of an empty map
    ident = cfm_identity(n)
    prefix = [None]
    for j in range(n):
        prefix.append(_times(exp_neg[j] if maps[j] else None, prefix[j]))

    rmat = cfm_transpose([(ident if p is None else p)[j] for j, p in enumerate(prefix[:n])])
    xr = cfm_transpose(cfm_inverse_unitdet(rmat))
    return InvariantFrame(rmat, xr, exp_neg, prefix, f)


def adjoint_maps(f: StructureConstants, sign=1):
    """[{(j, k): CRat} for each i]: the nonzero entries of sign Xadj_i, with
    (Xadj_i)_j^k = -f_ij^k, for every adjoint matrix, read in one pass over
    the integer form D f."""
    den, ints = f.scaled_nonzero()
    maps = [{} for _ in range(f.dim)]
    for (i, j, k, w) in ints:
        w = -sign * w
        maps[i][(j, k)] = CRat(w if den == 1 else Fraction(w, den))
    return maps


def _times(a, b):
    """a b, with None for the identity: a factor I is not multiplied."""
    if a is None:
        return b
    if b is None:
        return a
    return cfm_mul(a, b)


def frame_bracket_residuals(frame: InvariantFrame, f: StructureConstants):
    """The labels of the nonzero residuals of [XL_i, XL_j] = f_ij^k XL_k
    ("LL", i, j, k) and [XR_i, XR_j] = -f_ij^k XR_k ("RR", i, j, k), i < j,
    and of [XL_i, XR_j] = 0 ("LR", i, j, 0), each residual one sparse
    bracket with the structure-constant term added into it."""
    n = f.dim
    xl = [vector(row) for row in frame.XL]
    xr = [vector(row) for row in frame.XR]
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            fij = [(m, c) for m, c in enumerate(f.f[i][j]) if c]
            ll = bracket(xl[i], xl[j], [(-c, xl[m]) for m, c in fij])
            rr = bracket(xr[i], xr[j], [(c, xr[m]) for m, c in fij])
            for k in range(n):
                if k in ll:
                    bad.append(("LL", i + 1, j + 1, k + 1))
                if k in rr:
                    bad.append(("RR", i + 1, j + 1, k + 1))
    for i in range(n):
        for j in range(n):
            if bracket(xl[i], xr[j]):
                bad.append(("LR", i + 1, j + 1, 0))
    return bad


def double_adjoint(
    frame: InvariantFrame, f: StructureConstants, fd: StructureConstants, certified=False
) -> list:
    """-b a^-1, the bivector of the pair in the XR frame, from Ad_{g^-1} on
    the double, the ordered product G_1 G_2 G_3 G_4 of
    G_k = exp(x_k Xadj_k) = [[E_k, 0], [F_k, E_-k^T]] (`double_exp_factor`,
    on the frame of g, with E_-k = E_k^-1).  The product is block lower
    triangular, [[a, 0], [b, d]] with a = E_1 ... E_4, d = E_-1^T ... E_-4^T
    and b = sum_k E_-1^T ... E_-(k-1)^T F_k E_(k+1) ... E_4.  With the prefix
    products P_k = E_-k ... E_-1 (P_0 = I) that the frame keeps,
    E_(k+1) ... E_4 a^-1 = P_k and E_-1^T ... E_-(k-1)^T = P_(k-1)^T, so

        -b a^-1 = -sum_k P_(k-1)^T F_k P_k.

    F_k is zero when the dual slice B_k = -ft^.._k is, so the sum runs over
    the factors whose B_k is nonzero; a, b and d are never formed.  E_-k
    passed its exact ODE check when the frame was built
    (`cf_matexp_sparse`) and E_k passes its own on the frame's first read of
    it (`InvariantFrame.exp_pos_at`), so they are exp(x_k Xadj_k) and its
    inverse, and a d^T = I holds with no check.  E_k is read only when B_k
    is nonzero, and nothing here reads the frame's XL.

    `certified` says that the caller has found (f, fd) a Lie bialgebra
    (`bialgebra_failure` returned None); otherwise that is checked here.
    """
    if frame.base != f:
        raise InputError("frame belongs to another algebra")
    if not certified:
        failed = bialgebra_failure(f, fd)
        if failed:
            raise InputError(f"pair fails the {failed} identity")
    n = f.dim
    prefix = frame.prefix
    terms = []
    for i in sorted({k for _, _, k, _ in fd.nonzero()}):  # B_(i+1) != 0
        low = double_exp_factor(frame, fd, i)[1]
        if prefix[i] is None:  # P_i = I
            terms.append((low, cfm_identity(n) if prefix[i + 1] is None else prefix[i + 1]))
        else:  # then P_(i+1) != I too
            terms.append((cfm_transpose(prefix[i]), cfm_mul(low, prefix[i + 1])))
    return cfm_sum_products(terms, neg=True) if terms else cfm_zeros(n, n)


def double_exp_factor(frame: InvariantFrame, fd: StructureConstants, i):
    """The blocks (E, F, E_-^T) of exp(x Xadj) for Xadj the double's adjoint
    matrix of X_{i+1} and x = x_{i+1}, from the frame of g and the dual's
    structure constants fd (0-based i).

    Xadj = [[A, 0], [B, -A^T]] with A = Xadj_{i+1} of g, read from
    `frame.base`, and B[j][k] = -ft^jk_{i+1}, read from fd (the layout
    `build_double` gives), so its exponential is [[E, 0], [F, E_-^T]] with
    E = exp(x A) and E_- = exp(-x A) from the frame (`exp_pos_at`, built on
    its first read, and `exp_neg`) and

        F(x) = E_-(x)^T int_0^x E(s)^T B E(s) ds

    (C. Van Loan, Computing integrals involving the matrix exponential, IEEE
    TAC 1978).  E and E_- pass their own exact checks; F is checked
    exactly against F(0) = 0 and F' = B E - A^T F.  From any integrand X E,
    F' = E_-^T X E - A^T F, so the integrand is built as (E^T B) E and the
    check's B E apart from it: a wrong constant product fails the check.
    Both constant matrices are maps of their nonzero CRat entries, read off
    the nonzero entries of fd and of `frame.base`: B^T for the integrand's
    E^T B = (B^T E)^T (`cfm_const_mul_sparse`), and the check's [B | -A^T],
    with -A^T[j][k] = f_(i+1)k^j, against the stacked [E; F]: the check
    decides F' = [B | -A^T] [E; F] on one residual term map per entry
    (`derivative_is`) and builds neither side."""
    n = frame.base.dim
    coord = i + 1
    bt, check = {}, {}  # B^T and [B | -A^T], B[j][k] = -ft^jk_(i+1)
    for j, k, l, v in fd.nonzero():
        if l == i:
            bt[k, j] = check[j, k] = CRat(-v)
    e, em = frame.exp_pos_at(i), frame.exp_neg[i]
    low = cfm_zeros(n, n)
    if bt:
        for a, k, j, v in frame.base.nonzero():
            if a == i:
                check[j, n + k] = CRat(v)
        etb = cfm_transpose(cfm_const_mul_sparse(bt, n, e))
        # with A = 0, E = E_- = I, so the integrand is E^T B and F its integral
        central = len(check) == len(bt)
        inner = etb if central else cfm_mul(etb, e)
        low = [[x.integral(coord) for x in row] for row in inner]
        if not central:
            low = cfm_mul(cfm_transpose(em), low)
        if any(x.eval_at_zero() for row in low for x in row):
            raise InvariantError("lower-left block of the double's exponential is nonzero at 0")
        if not derivative_is(low, coord, check, e + low):
            raise InvariantError(
                "lower-left block of the double's exponential fails F' = B E - A^T F"
            )
    return e, low, cfm_transpose(em)
