"""Reference numeric evaluators for the differential tests.

`walk` evaluates an expression tree node by node in floats, with no
simplification, and `term_loop` runs the per-term loop of
`ClosedFunction.eval`.  `walk` is the oracle of `Expr.to_closed`: the closed
function, evaluated through `cfm_lower`, must agree with the walk wherever
the walk has a value, and may raise only where the walk does too (it may
extend the tree: x1/x1 is 1 at x1 = 0, where the walk divides by zero).
`term_loop` is the oracle of `cfm_lower` itself, which must return the same
floats and raise the same errors.  `cfm_mul_sum` is the entry-wise matrix
product, a sum of ClosedFunction products, and the oracle of the fused
`cfm_mul`.  `cfm_from_frac` makes a constant matrix a matrix of constant
closed functions, so that `cfm_mul(cfm_from_frac(m), a)` is the dense oracle
of the sparse `cfm_const_mul(m, a)`, the dense adapter of
`closedfun.cfm_const_mul_sparse`.  `derivative_is_by_matrices` builds
d x / d x_coord (`cfm_diff`, afresh through `fresh_diff`) and m y and
compares them: the retired route of the exponential and lower-block checks,
and the oracle of the one residual term map of `closedfun.derivative_is`.
`subs_params` rebuilds a tree with its bound parameters replaced by
constants, the retired `Expr.subs_params`: on it,
`components_by_substitution` reads a printed frame field by five
substitutions and four conversions and `closed_matrix_by_substitution` the
printed brackets of a poisson row by one substitution and one conversion
per bracket, the retired routes and the oracles of the one-walk
`FrameEntry.components` and, read through `bivector`, of
`PoissonEntry.closed_map`.  `tensor_dense` builds a printed r as a dense
Fraction matrix term by term, the retired route and the oracle of the
sparse map of `RMatrixEntry.tensor`.
`central_coords` lists the coordinates whose adjoint is zero, which the retired
`groupgeom._central` gave the lower-block integrand.  `transport_dense` is x^T m x by
two dense 4 x 4 products, the retired `poisson._transport` and the oracle
of the upper entries that `poisson.pi_bivector` forms, and `sklyanin_dense`
is XL^T r XL - XR^T r XR from two of them: the retired path and the oracle
of the 2 x 2 minor form of the right side of
`poisson.multiplicative_check` and of `poisson.sklyanin_bivector`.
`bivector` reads such a dense antisymmetric matrix as the sparse map
{(a, b): P^ab, a < b} that `PoissonBivector` keeps, and `cfm_is_zero`
says whether a matrix of closed functions is zero: both left the package
when no module there built a dense bivector.  `mixed_matrix_residual` evaluates the mixed Jacobi residual in
matrix form, summed over nonzero entries, and `mixed_matrix_dense` the same
form with full matrix products over every slot: the two are each other's
oracle and, together, the oracle of the index form `core.mixed_jacobi_check`.  `left_fields_by_adjugate` builds the
left-invariant one-forms from the suffix products of exp(x_m Xadj_m) and
inverts them by cofactor adjugate, the oracle of the frame's XL = Ad(g)^-1 XR.
`det_by_cofactors` expands every minor afresh and `inverse_by_cofactors`
builds the adjugate from n^2 such expansions: the oracles of the memoized
minors of `cfm_det` and `cfm_inverse_unitdet`.  `double_adjoint_blocks`
accumulates the blocks (a, b, d) of the double's adjoint factor by factor,
the retired path and the oracle of `double_adjoint`'s -b a^-1.
`coboundary_system` is the full d^3-equation augmented system of the
coboundary equation, built column by column from the action of the dense
adjoints `StructureConstants.adjoint(i)` on the unit tensors, and
`solve_coboundary_full`
hands every one of its equations to `solve_affine_dense`, the retired
column-by-column elimination `gauss_jordan_dense` on dense int rows: the
oracle of `solve_coboundary`, which hands the distinct nonzero ones to the
sparse elimination of `ratlinalg`.  `rank` runs the same dense loop, and
`tests/test_ratlinalg.py` checks it against sympy.
`ad_action_dense` is Xadj_i^T r + r Xadj_i by full matrix products with
the same dense adjoints: with it, `generates_dense`, `cocommutator_from_r`
and `ad_invariant_symmetric` read none of `rmatrix`'s sparse kernel.
`schouten_dense` (the retired three-loop Schouten bracket on the dense int
form of r), the dense rank-3 checks `is_totally_antisymmetric_dense` and
`ad_invariant_rank3_dense`, `wedge3_dense`, `rank3_add` and
`classify_r_dense`, the retired classification built from them, are the
oracles of `rmatrix`'s rank-3 maps; `rank3_map` and `rank3_dense` convert
between the two forms.
`render_by_fractions` renders a closed function through Fractions, the
oracle of `render_closed_function`.  `mul_into_by_crats` adds a product into
a term map with CRat arithmetic and a key summed slot by slot for every
pair of terms, the oracle of the inline integer kernel `closedfun._mul_into`.
With `bump_by_crats`, the CRat path that `ratlinalg._bump` gave up, the
loops `sum_products_by_crats`, `derivative_into_by_crats`,
`integral_by_crats`, `eval_at_zero_by_crats` and `derivative_is_by_crats`
are the retired CRat-operator kernels of `cf_sum_products`,
`_derivative_into`, `ClosedFunction.integral`, `eval_at_zero` and
`derivative_is`, and their oracles: those now add on the int triples.
The dense Schouten loops are the oracles of the sparse kernel in
`liebialg.multivec` and of its call sites: `vf_commutator` and
`frame_bracket_residuals` of vector fields given as component rows,
`poisson_jacobi_residuals` and `linearization_matches` of a bivector matrix,
and `poisson_bracket` of two functions.  Each runs over every index, zero
components included, and differentiates through `fresh_diff`, a new instance
per call, so no derivative comes from the cache of the function.
`closed_two_forms_by_fractions` builds the dense Fraction system of w -> dw
from unit two-forms and `grid_symplectic` searches the span of a list of
two-forms for a nondegenerate one on the coefficient grid {1, -1, 2, -2,
0}^k: together the retired symplectic search, the oracle of
`find_symplectic`'s integer system and Pfaffian quadratic form.
`matexp_by_putzer` runs Putzer's recursion on the whole matrix over the
eigenvalues that `eigenvalues` gathers block by block over the strongly
connected components that `blocks` lists, the retired path and the oracle
of the block-triangular `cf_matexp`.  The
helpers from `two_form` on, and `inverse`, left the package with no caller
there and serve the tests alone.  So did four that no command reached:
`solve_affine`, the dense-row front of `ratlinalg.solve_sparse` that the
sympy comparisons drive; `cocommutator_from_r`, the cobracket that an r
generates, the oracle of `rmatrix.generates_cocommutator` and of the
corpus's r-matrix rows; `cf_matexp_pm_sparse` with its dense adapter
`cf_matexp_pm`, the pair (exp(x M), exp(-x M)) built the way a frame builds
it; and `serialize`, the corpus writer that
re-prints a parse for the round-trip and fuzz tests of `corpus.parse`.
`jet_bracket`, the Poisson bracket of two functions through the jets of
`liebialg.multivec`, left `integrable` for the same reason: its closure and
Darboux checks compose those steps themselves.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import add, mul

from liebialg import exprtree as et
from liebialg import ratlinalg as rl
from liebialg.closedfun import (
    CR_ONE,
    CR_ZERO,
    ClosedFunction,
    CRat,
    _char_poly,
    _components,
    _invert_unit,
    _mat_mul,
    _reach,
    _shifted,
    _sparse,
    _spectrum,
    cf_const,
    cf_exp,
    cf_matexp_reflected,
    cf_matexp_sparse,
    cfm_const_mul_sparse,
    cfm_eq,
    cfm_identity,
    cfm_mul,
    cfm_transpose,
    cfm_zeros,
)
from liebialg.core import StructureConstants, TwoFormLA
from liebialg.errors import EvalError, InputError
from liebialg.exprtree import to_text
from liebialg.groupgeom import double_exp_factor
from liebialg.multivec import apply, interior, jet
from liebialg.rmatrix import RClassification, TensorElement

_FUNCS = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "sinh": math.sinh,
          "cosh": math.cosh}


def walk(e, point, params=None):
    op, args = e.op, e.args
    if op == "const":
        return float(args[0])
    if op == "coord":
        return float(point[args[0] - 1])
    if op == "param":
        if params is None or args[0] not in params:
            raise EvalError(f"unbound parameter {args[0]!r}")
        return float(params[args[0]])
    if op == "add":
        # the left fold that `sum` performed before Python 3.12
        out = 0
        for a in args:
            out = out + walk(a, point, params)
        return out
    if op == "mul":
        out = 1.0
        for a in args:
            out *= walk(a, point, params)
        return out
    if op == "div":
        den = walk(args[1], point, params)
        if den == 0.0:
            raise EvalError("division by zero at evaluation point")
        return walk(args[0], point, params) / den
    if op == "pow":
        return walk(args[0], point, params) ** args[1]
    if op == "neg":
        return -walk(args[0], point, params)
    if op in _FUNCS:
        return _FUNCS[op](walk(args[0], point, params))
    raise InputError(f"unknown node {op}")


def term_loop(f, point):
    if not f.is_real():
        raise InputError("function is not real")
    for i in sorted({i for k, _ in f.terms for i in range(4) if k[i] < 0}):
        if point[i] == 0:
            raise EvalError(f"pole at x{i + 1} = 0")
    total = 0j
    scale = 0.0
    for (k, z), c in f.terms.items():
        v = c.to_complex()
        for i in range(4):
            if k[i]:
                v *= point[i] ** k[i]
            if z[i]:
                v *= cmath.exp(z[i].to_complex() * point[i])
        total += v
        scale += abs(v)
    if abs(total.imag) > 1e-12 * (1.0 + scale):
        raise EvalError(f"imaginary residue {total.imag} too large")
    return total.real


def outcome(fn, *args):
    """repr of fn(*args), which tells -0.0 from 0.0 and matches nan to nan,
    or the type and message of the error it raised."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError, EvalError) as exc:
        return f"{type(exc).__name__}: {exc}"


def cfm_mul_sum(a, b):
    """a b with each entry the running sum of the products a[i][l] * b[l][j]."""
    out = []
    for arow in a:
        row = []
        for j in range(len(b[0])):
            acc = ClosedFunction.zero()
            for x, brow in zip(arow, b):
                if x and brow[j]:
                    acc = acc + x * brow[j]
            row.append(acc)
        out.append(row)
    return out


def bump_by_crats(acc, key, v):
    """acc[key] += v by CRat's operators, with a zero sum dropped from acc
    and a kept key left in its place: the retired CRat path of
    `ratlinalg._bump`."""
    s = acc.get(key)
    v = v if s is None else s + v
    if v:
        acc[key] = v
    elif s is not None:
        del acc[key]


def mul_into_by_crats(t, f, g, neg=False):
    """t += f * g (t -= f * g with `neg`) on term maps: every key summed
    slot by slot, every coefficient a CRat product, a coefficient that
    cancels dropped."""
    for (k1, z1), c1 in f.terms.items():
        if neg:
            c1 = -c1
        for (k2, z2), c2 in g.terms.items():
            key = (tuple(map(add, k1, k2)), tuple(map(add, z1, z2)))
            bump_by_crats(t, key, c1 * c2)


def sum_products_by_crats(products, scaled=()):
    """The term map of sum s f g over (f, g, s) plus sum c h over (c, h), by
    CRat's operators: the retired loop of `closedfun.cf_sum_products`."""
    t = {}
    for f, g, s in products:
        mul_into_by_crats(t, f, g, s < 0)
    for c, h in scaled:
        for key, v in h.terms.items():
            bump_by_crats(t, key, v * c)
    return t


def derivative_into_by_crats(acc, f, idx):
    """acc += d f / d x_{idx+1} on a term map by CRat's operators: the
    retired loop of `closedfun._derivative_into`."""
    for (k, z), c in f.terms.items():
        if k[idx]:
            kk = list(k)
            kk[idx] -= 1
            bump_by_crats(acc, (tuple(kk), z), c * k[idx])
        if z[idx]:
            bump_by_crats(acc, (k, z), c * z[idx])


def integral_by_crats(f, i):
    """The term map of int_0^x_i f by CRat's operators: the retired loop of
    `ClosedFunction.integral`."""
    idx = i - 1
    acc = {}
    for (k, z), c in f.terms.items():
        p, lam = k[idx], z[idx]
        if p < 0:
            raise InputError(f"integral from 0 of a negative power of x{i}")
        if not lam:
            bump_by_crats(acc, (k[:idx] + (p + 1,) + k[idx + 1 :], z), c / (p + 1))
            continue
        inv = CR_ONE / lam
        w = c * inv
        for j in range(p + 1):
            bump_by_crats(acc, (k[:idx] + (p - j,) + k[idx + 1 :], z), w)
            if j < p:
                w = -w * (p - j) * inv
        bump_by_crats(acc, (k[:idx] + (0,) + k[idx + 1 :], z[:idx] + (CR_ZERO,) + z[idx + 1 :]), -w)
    return acc


def eval_at_zero_by_crats(f):
    """f at the origin by CRat's operators: the retired
    `ClosedFunction.eval_at_zero`."""
    acc = CR_ZERO
    for (k, _), c in f.terms.items():
        if min(k) < 0:
            raise InputError("a term with a negative exponent has a pole at the origin")
        if not any(k):
            acc = acc + c
    return acc


def derivative_is_by_crats(x, coord, mc, y):
    """Whether d x / d x_coord = m y, one residual term map per entry by
    CRat's operators: the retired loop of `closedfun.derivative_is`."""
    for r, xrow in enumerate(x):
        for j, f in enumerate(xrow):
            acc = {}
            derivative_into_by_crats(acc, f, coord - 1)
            for (r2, l), c in mc.items():
                if r2 == r:
                    for key, v in y[l][j].terms.items():
                        bump_by_crats(acc, key, -c * v)
            if acc:
                return False
    return True


def cfm_from_frac(m):
    """A rational or CRat matrix as constant closed functions."""
    return [[cf_const(x) for x in row] for row in m]


def cfm_const_mul(m, a):
    """m a for a constant matrix m of rationals or CRats, through the sparse
    `cfm_const_mul_sparse` on its nonzero entries."""
    return cfm_const_mul_sparse(_sparse(m), len(m), a)


def cfm_diff(a, i):
    """d a / d x_i entry by entry, each partial computed afresh."""
    return [[fresh_diff(x, i) for x in row] for row in a]


def dense_of(mc, rows, cols):
    """The rows x cols matrix with the nonzero entries mc = {(r, l): CRat}."""
    return [[mc.get((r, l), CR_ZERO) for l in range(cols)] for r in range(rows)]


def derivative_is_by_matrices(x, coord, mc, y):
    """Whether d x / d x_coord = m y, by building both sides as matrices and
    comparing them: the retired route and the oracle of the one residual map
    per entry of `closedfun.derivative_is`."""
    m = dense_of(mc, len(x), len(y))
    return cfm_eq(cfm_diff(x, coord), cfm_const_mul(m, y))


# the constructor that `subs_params` rebuilds each n-ary node with
_REBUILD = {"add": et.add, "mul": et.mul, "div": et.div, "neg": et.neg}


def subs_params(e, binding):
    """The tree e with its bound parameters replaced by exact rationals, the
    others left symbolic: the retired `Expr.subs_params`.  The tree is
    rebuilt through the smart constructors, so a factor that becomes 0
    prunes its product and a denominator that becomes the constant 0 raises
    EvalError here."""
    op = e.op
    if op == "param":
        return et.const(binding[e.args[0]]) if e.args[0] in binding else e
    if op in ("const", "coord"):
        return e
    if op == "pow":
        return et.powi(subs_params(e.args[0], binding), e.args[1])
    args = [subs_params(a, binding) for a in e.args]
    if op in _REBUILD:
        return _REBUILD[op](*args)
    return et.Expr(op, tuple(args))


def components_by_substitution(fe, side, i, binding):
    """Field i of side 'L'/'R' of a corpus frame as 4 closed functions, by
    the retired route: the binding substituted, then d_k = 1 and the other
    d's = 0 substituted and converted, once for each k.  The oracle of the
    one-walk `FrameEntry.components`."""
    e = subs_params((fe.xl if side == "L" else fe.xr)[i], binding)
    zero = {f"d{k}": Fraction(0) for k in range(1, 5)}
    return [subs_params(e, {**zero, f"d{k}": Fraction(1)}).to_closed() for k in range(1, 5)]


def closed_matrix_by_substitution(pe, binding):
    """The printed brackets of a corpus poisson row as a 4 x 4 matrix of
    closed functions, each tree rebuilt at the binding and then converted:
    the retired route and, read through `bivector`, the oracle of
    `PoissonEntry.closed_map`."""
    m = cfm_zeros(4, 4)
    for (i, j), e in pe.brackets.items():
        cf = subs_params(e, binding).to_closed()
        m[i - 1][j - 1] = m[i - 1][j - 1] + cf
        m[j - 1][i - 1] = m[j - 1][i - 1] - cf
    return m


def tensor_of(m):
    """The TensorElement of a dense square Fraction matrix."""
    return TensorElement({(i, j): x for i, row in enumerate(m) for j, x in enumerate(row) if x}, len(m))


def tensor_dense(e, binding):
    """The printed r of a corpus rmatrix row as a dense 4 x 4 Fraction
    matrix, term by term: the retired `TensorElement.from_terms` loop and
    the oracle of `RMatrixEntry.tensor`."""
    r = rl.zeros(4, 4)
    for c, i, j, kind in e.terms:
        c = c.eval_exact(binding)
        r[i - 1][j - 1] += c
        if kind == "wedge":
            r[j - 1][i - 1] -= c
    return r


def central_coords(f):
    """[ad X_i = 0 for each i]: exp(x_i Xadj_i) is then I."""
    moved = {i for i, _, _, _ in f.nonzero()}
    return [i not in moved for i in range(f.dim)]


def transport_dense(m, x):
    """x^T m x for a matrix m of closed functions, by two dense products."""
    return cfm_mul(cfm_transpose(x), cfm_mul(m, x))


def sklyanin_dense(frame, r):
    """XL^T r XL - XR^T r XR for a constant matrix r, entry by entry."""
    m = cfm_from_frac(r)
    left, right = transport_dense(m, frame.XL), transport_dense(m, frame.XR)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(left, right)]


def bivector(p):
    """The sparse form {(a, b): P^ab, a < b} of an antisymmetric matrix, over
    its nonzero entries: the retired `multivec.bivector`, which met the
    dense bivector of every construction with the sparse form of `multivec`."""
    n = len(p)
    return {(a, b): p[a][b] for a in range(n) for b in range(a + 1, n) if p[a][b]}


def cfm_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def _int_mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _bump(acc, key, v):
    """acc[key] += v, with a zero sum dropped from acc."""
    v += acc.pop(key, 0)
    if v:
        acc[key] = v


def mixed_matrix_residual(fnz, gnz):
    """The mixed residual in matrix form, summed over nonzero entries only:

    R^ij = (Xt^i)^j_m Y^m + (Xt^j)^T Y^i - Y^j Xt^i + Y^i Xt^j - (Xt^i)^T Y^j

    with (Xt^a)_m^c = -ft^am_c and (Y^b)_r^c = -f_rc^b, on the scaled ints
    `fnz` of f and `gnz` of ft.  Returns {(i, j, k, l): R^ij_kl}, 0-based,
    zeros dropped.
    """
    xt = [(a, m, c, -w) for (a, m, c, w) in gnz]  # (Xt^a)_m^c
    ys = [(b, r, c, -v) for (r, c, b, v) in fnz]  # (Y^b)_r^c
    xt_rows = {}
    ys_of = {}
    for (a, m, c, x) in xt:
        xt_rows.setdefault(m, []).append((a, c, x))
    for (b, r, c, y) in ys:
        ys_of.setdefault(b, []).append((r, c, y))
    acc = {}
    for (i, j, m, x) in xt:  # (Xt^i)^j_m Y^m
        for (k, l, y) in ys_of.get(m, ()):
            _bump(acc, (i, j, k, l), x * y)
    for (b, r, c, y) in ys:
        # (Y^b Xt^a)_rl = sum_m (Y^b)_rm (Xt^a)_ml, here m = c
        for (a, l, x) in xt_rows.get(c, ()):
            _bump(acc, (a, b, r, l), -y * x)
            _bump(acc, (b, a, r, l), y * x)
        # ((Xt^a)^T Y^b)_kc = sum_m (Xt^a)_mk (Y^b)_mc, here m = r
        for (a, k, x) in xt_rows.get(r, ()):
            _bump(acc, (a, b, k, c), -x * y)
            _bump(acc, (b, a, k, c), x * y)
    return acc


def mixed_matrix_dense(d, fnz, gnz):
    """R^ij = (Xt^i)^j_m Y^m + (Xt^j)^T Y^i - Y^j Xt^i + Y^i Xt^j - (Xt^i)^T Y^j
    on the dense d x d matrices D2 Xt^i and D1 Y^k built from the scaled ints
    `fnz` of f and `gnz` of ft; {(i, j, k, l): R^ij_kl}, 0-based, zeros
    dropped."""
    xt = [[[0] * d for _ in range(d)] for _ in range(d)]  # D2 Xt^i
    ys = [[[0] * d for _ in range(d)] for _ in range(d)]  # D1 Y^k
    for (i, j, k, w) in gnz:
        xt[i][j][k] = -w
    for (i, j, k, v) in fnz:
        ys[k][i][j] = -v
    xt_t = [[list(col) for col in zip(*m)] for m in xt]
    ys_kl = [[[y[k][l] for y in ys] for l in range(d)] for k in range(d)]
    p1 = [[_int_mat_mul(ys[j], xt[i]) for i in range(d)] for j in range(d)]
    p2 = [[_int_mat_mul(xt_t[i], ys[j]) for j in range(d)] for i in range(d)]
    out = {}
    for i in range(d):
        for j in range(d):
            xij = xt[i][j]
            for k in range(d):
                for l in range(d):
                    lhs = sum(map(mul, xij, ys_kl[k][l]))  # (Xt^i)^j_m (Y^m)_kl
                    rhs = p1[j][i][k][l] - p1[i][j][k][l] + p2[i][j][k][l] - p2[j][i][k][l]
                    if lhs - rhs:
                        out[(i, j, k, l)] = lhs - rhs
    return out


def left_fields_by_adjugate(frame):
    """XL = (L^-1)^T, where L column j is row j of the ordered product of
    exp(x_m Xadj_m) for m = j+1 .. n (1-based j)."""
    n = len(frame.exp_pos)
    lcols = [None] * n
    prod = cfm_identity(n)
    lcols[n - 1] = prod[n - 1]
    for j in range(n - 2, -1, -1):
        prod = cfm_mul(frame.exp_pos[j + 1], prod)
        lcols[j] = prod[j]
    return cfm_transpose(inverse_by_cofactors(cfm_transpose(lcols)))


def det_by_cofactors(a):
    """Determinant by cofactor expansion along the first row, every minor
    expanded afresh; the empty determinant is 1."""
    n = len(a)
    if n == 0:
        return cf_const(1)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    acc = ClosedFunction.zero()
    for j in range(n):
        if not a[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        term = a[0][j] * det_by_cofactors(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def inverse_by_cofactors(a):
    """The inverse of a matrix with a unit-term determinant as its adjugate,
    each of the n^2 cofactors expanded afresh, over the determinant."""
    n = len(a)
    dinv = _invert_unit(det_by_cofactors(a))
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[a[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            m = det_by_cofactors(minor)
            row.append(m if (i + j) % 2 == 0 else -m)
        cof.append(row)
    return [[x * dinv for x in row] for row in cfm_transpose(cof)]


def double_adjoint_blocks(frame, fd):
    """(a, b, d) of Ad_{g^-1} = [[a, 0], [b, d]] on the double, accumulated
    over the factors [[E, 0], [F, E_-^T]] of `double_exp_factor`, zero ones
    included: a <- a E, b <- [b | d] [E; F], d <- d E_-^T."""
    a, b, d = double_exp_factor(frame, fd, 0)
    for i in range(1, len(frame.exp_pos)):
        e, low, et = double_exp_factor(frame, fd, i)
        b = cfm_mul([rb + rd for rb, rd in zip(b, d)], e + low)
        a = cfm_mul(a, e)
        d = cfm_mul(d, et)
    return a, b, d


def minus_b_ainv(frame, fd):
    """-b a^-1 from `double_adjoint_blocks`, with a^-1 = d^T."""
    _, b, d = double_adjoint_blocks(frame, fd)
    return cfm_scale(Fraction(-1), cfm_mul(b, cfm_transpose(d)))


def coboundary_system(f, fd):
    """The augmented rows of the coboundary equation Xadj_i^T r + r Xadj_i =
    Yt_i in the d^2 unknowns r^pb (column p d + b) and its right-hand side
    (column d^2), one equation per (i, a, b), zero and repeated equations
    included, scaled to ints: column p d + b is the action on the unit
    tensor E_pb."""
    d = f.dim
    n = d * d
    d1, d2, gnz = f.scaled_nonzero()[0], *fd.scaled_nonzero()
    rows = [[0] * (n + 1) for _ in range(d * n)]
    for i in range(d):
        # d1 d2 Xadj_i, from the dense adjoint, zero entries included
        x = [[int(v * d1 * d2) for v in row] for row in f.adjoint(i)]
        for p, c in product(range(d), repeat=2):
            # the unit tensor E_pc: (Xadj_i^T E_pc)^kc = x_p^k and
            # (E_pc Xadj_i)^pk = x_c^k
            for k in range(d):
                rows[i * n + k * d + c][p * d + c] += x[p][k]
                rows[i * n + p * d + k][p * d + c] += x[c][k]
    for (a, b, i, w) in gnz:
        rows[i * n + a * d + b][n] = -w * d1  # Yt_i^ab = -ft^ab_i
    return rows


def _dense_int_row(row):
    """The dense row times the lcm of its denominators, as ints."""
    l = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (l // x.denominator) for x in row]


def gauss_jordan_dense(a, cols):
    """Reduce the dense int rows `a` in place, column by column, until each
    pivot is the only nonzero entry of its column, with the pivot rows
    first; returns the pivot columns.  A row with entry q in the pivot column
    is replaced by p*row - q*pivot_row (p the pivot) and divided by the gcd
    of its entries."""
    rows = len(a)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        p = top[c]
        for i, row in enumerate(a):
            q = row[c]
            if q and i != r:
                row = [p * x - q * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return pivots


def solve_affine(rows, cols):
    """Solve the augmented system `rows` exactly: each row holds the
    coefficients of `cols` unknowns followed by its right-hand side.
    Returns (particular, nullspace_basis) or None when inconsistent
    (`ratlinalg.solve_sparse` on the rows' nonzero entries)."""
    return rl.solve_sparse([rl._int_map(enumerate(row))[0] for row in rows], cols)


def solve_affine_dense(rows, cols):
    """`solve_affine` by `gauss_jordan_dense` on every row."""
    a = [_dense_int_row(row) for row in rows]
    pivots = gauss_jordan_dense(a, cols + 1)
    if cols in pivots:
        return None
    part = [rl.ZERO] * cols
    for r, pc in enumerate(pivots):
        part[pc] = Fraction(a[r][cols], a[r][pc])
    basis = []
    for free in range(cols):
        if free not in pivots:
            v = [rl.ZERO] * cols
            v[free] = rl.ONE
            for r, pc in enumerate(pivots):
                v[pc] = Fraction(-a[r][free], a[r][pc])
            basis.append(v)
    return part, basis


def solve_coboundary_full(f, fd):
    """`solve_affine_dense` on every equation of `coboundary_system`."""
    return solve_affine_dense(coboundary_system(f, fd), f.dim**2)


def _frac_text(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _frac_linear_text(coeffs):
    parts = []
    for i in sorted(coeffs):
        q = coeffs[i]
        if not q:
            continue
        mag = abs(q)
        body = f"x{i+1}" if mag == 1 else f"{_frac_text(mag)}*x{i+1}"
        if not parts:
            parts.append(body if q > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if q > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def render_by_fractions(f):
    """The text form of a real closed function, every coefficient and rate
    read as a Fraction and every term map sorted by (monomial, rates)."""
    if not f.terms:
        return "0"
    if not f.is_real():
        raise InputError("only real closed functions have a text form")
    pieces = []
    seen = set()
    key = lambda item: (item[0][0], tuple((q.re, q.im) for q in item[0][1]))  # noqa: E731
    for (k, z), c in sorted(f.terms.items(), key=key):
        if (k, z) in seen:
            continue
        alpha = {i: z[i].re for i in range(4) if z[i].re}
        beta = {i: z[i].im for i in range(4) if z[i].im}
        factors = [f"x{i+1}" if p == 1 else f"x{i+1}^{p}" for i, p in enumerate(k) if p]
        if alpha:
            factors.append(f"exp({_frac_linear_text(alpha)})")
        if not beta:
            if c.im:
                raise InputError("real function has a stray imaginary coefficient")
            pieces.append((c.re, factors))
            seen.add((k, z))
            continue
        if beta[min(beta)] < 0:
            continue
        zbar = tuple(q.conjugate() for q in z)
        cbar = f.terms.get((k, zbar))
        if cbar is None or cbar != c.conjugate():
            raise InputError("real function lacks a conjugate term")
        seen.add((k, z))
        seen.add((k, zbar))
        arg = _frac_linear_text(beta)
        if c.re:
            pieces.append((2 * c.re, factors + [f"cos({arg})"]))
        if c.im:
            pieces.append((-2 * c.im, factors + [f"sin({arg})"]))
    out = []
    for q, factors in pieces:
        mag = abs(q)
        if factors:
            body = "*".join(factors) if mag == 1 else "*".join([_frac_text(mag)] + factors)
        else:
            body = _frac_text(mag)
        if not out:
            out.append(body if q > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if q > 0 else f"- {body}")
    return " ".join(out) if out else "0"


def fresh_diff(f, i):
    """d f / d x_i computed afresh, not read from the cache of f."""
    return ClosedFunction(dict(f.terms)).diff(i)


def vf_commutator(v, w):
    """[V, W]^k = sum_l V^l d_l W^k - W^l d_l V^k, component by component."""
    n = len(v)
    out = []
    for k in range(n):
        acc = None
        for l in range(n):
            term = v[l] * fresh_diff(w[k], l + 1) - w[l] * fresh_diff(v[k], l + 1)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def frame_bracket_residuals(frame, f):
    """Labels of the nonzero residuals of [XL_i, XL_j] = f_ij^k XL_k,
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
            if any(vf_commutator(frame.XL[i], frame.XR[j])):
                bad.append(("LR", i + 1, j + 1, 0))
    return bad


def poisson_jacobi_residuals(p):
    """{(i, j, k): J^ijk}, 1-based, i < j < k, for the nonzero
    J^ijk = sum_l P^il d_l P^jk + P^jl d_l P^ki + P^kl d_l P^ij."""
    n = len(p)
    dp = [[[fresh_diff(p[i][j], l + 1) for l in range(n)] for j in range(n)] for i in range(n)]
    res = {}
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
    return res


def linearization_matches(p, fd):
    """d_k P^ij (0) = ft^ij_k for every i, j and k."""
    n = len(p)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = fresh_diff(p[i][j], k + 1).eval_at_zero()
                if not v.is_real() or v.re != fd.f[i][j][k]:
                    return False
    return True


def poisson_bracket(p, f, g):
    """{f, g} = sum_ij P^ij d_i f d_j g, a sum of triple products."""
    df = [fresh_diff(f, i) for i in range(1, 5)]
    dg = [fresh_diff(g, i) for i in range(1, 5)]
    acc = ClosedFunction.zero()
    for i in range(4):
        for j in range(4):
            if p[i][j] and df[i] and dg[j]:
                acc = acc + p[i][j] * df[i] * dg[j]
    return acc


def jet_bracket(P, f, g):
    """Exact {f, g} = sum_ij P^ij d_i f d_j g of a PoissonBivector, as X_f(g)
    with X_f^j = P^ij d_i f."""
    return apply(interior(P.p, jet(f)), jet(g))


def closed_two_forms_by_fractions(f):
    """Kernel basis of w -> dw, one dense Fraction row per triple i < j < k,
    each column the differential of a unit two-form."""
    d = f.dim
    pairs = list(combinations(range(d), 2))
    rows = []
    for (i, j, k) in combinations(range(d), 3):
        row = []
        for (a, b) in pairs:
            w = rl.zeros(d, d)
            w[a][b] = rl.ONE
            w[b][a] = -rl.ONE
            t = rl.ZERO
            for l in range(d):
                t -= f.f[i][j][l] * w[l][k]
                t += f.f[i][k][l] * w[l][j]
                t -= f.f[j][k][l] * w[l][i]
            row.append(t)
        rows.append(row)
    basis = rl.nullspace(rows) if rows else rl.identity(len(pairs))
    forms = []
    for vec in basis:
        w = rl.zeros(d, d)
        for coeff, (a, b) in zip(vec, pairs):
            w[a][b] = coeff
            w[b][a] = -coeff
        forms.append(TwoFormLA(d, w))
    return forms


def grid_symplectic(forms):
    """(witness, max_rank) over the span of `forms` by the grid search: the
    first coefficient vector of {1, -1, 2, -2, 0}^k, in that order, whose
    combination has a nonzero determinant, else the largest rank met.  The
    Pfaffian has degree <= 2 in each coefficient and a 4 x 4 entry degree 1,
    so a grid of 5 values per coefficient meets a nonzero value of each if
    it has one (Alon, Combinatorial Nullstellensatz, 1999)."""
    d = 4
    max_rank = 0
    for coeffs in product([1, -1, 2, -2, 0], repeat=len(forms)):
        if not any(coeffs):
            continue
        w = rl.zeros(d, d)
        for c, form in zip(coeffs, forms):
            if c:
                w = [[x + c * y for x, y in zip(rw, rf)] for rw, rf in zip(w, form.w)]
        cand = TwoFormLA(d, w)
        if two_form_det(cand):
            return cand, d
        max_rank = max(max_rank, rank(cand.w))
    return None, max_rank


def two_form(pairs, dim=4):
    """The two-form of {(i, j): coeff} (1-based, i < j)."""
    w = rl.zeros(dim, dim)
    for (i, j), c in pairs.items():
        c = Fraction(c)
        w[i - 1][j - 1] += c
        w[j - 1][i - 1] -= c
    return TwoFormLA(dim, w)


def two_form_det(w):
    """The determinant of a two-form's matrix."""
    return rl.det(w.w)


@dataclass
class CocommutatorTensor:
    """delta(X_i) = d[i][j][k] X_j (x) X_k with d[i][j][k] = ft^jk_i."""

    dim: int
    d: list

    def is_antisymmetric(self):
        n = self.dim
        return all(
            self.d[i][j][k] == -self.d[i][k][j]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )


def cocommutator(fd):
    """The cocommutator tensor of the dual structure constants fd."""
    if not fd.is_antisymmetric():
        raise InputError("structure constants are not antisymmetric")
    n = fd.dim
    d = [[[fd.f[j][k][i] for k in range(n)] for j in range(n)] for i in range(n)]
    return CocommutatorTensor(n, d)


def cocommutator_from_r(r, f):
    """Dual structure constants ft^ab_i = -(Xadj_i^T r + r Xadj_i)^ab.

    Raises InputError when the result is not antisymmetric, which signals a
    non-ad-invariant symmetric part of r.
    """
    fd = StructureConstants.from_entries(
        f.dim,
        [
            (a, b, i, -x)
            for i, m in enumerate(ad_action_dense(r.r, f))
            for a, row in enumerate(m)
            for b, x in enumerate(row)
            if x
        ],
    )
    if not fd.is_antisymmetric():
        raise InputError(
            "induced cobracket is not antisymmetric: symmetric part of r is "
            "not ad-invariant"
        )
    return fd


def ce_differential(w, f):
    """(dw)(X_i,X_j,X_k) = -w([X_i,X_j],X_k) + w([X_i,X_k],X_j) - w([X_j,X_k],X_i)
    of a two-form w, as the fully antisymmetric rank-3 tensor in nested
    lists, by a dense loop over every index."""
    d = f.dim
    ww = w.w
    out = [[[rl.ZERO] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                t = rl.ZERO
                for l in range(d):
                    t -= f.f[i][j][l] * ww[l][k]
                    t += f.f[i][k][l] * ww[l][j]
                    t -= f.f[j][k][l] * ww[l][i]
                out[i][j][k] = t
    return out


def symmetric_part(t):
    d = t.dim
    return tensor_of([[(t.r[i][j] + t.r[j][i]) / 2 for j in range(d)] for i in range(d)])


def ad_invariant_symmetric(rs, f):
    """Xadj_i^T rs + rs Xadj_i = 0 for all i."""
    return not any(any(row) for a in ad_action_dense(rs.r, f) for row in a)


def ad_action_dense(r, f):
    """[Xadj_i^T r + r Xadj_i for each i] for a Fraction matrix r, by full
    matrix products with the dense adjoints `StructureConstants.adjoint(i)`."""
    n = range(f.dim)
    out = []
    for i in n:
        x = f.adjoint(i)
        out.append(
            [[sum((x[k][a] * r[k][b] + r[a][k] * x[k][b] for k in n), rl.ZERO) for b in n] for a in n]
        )
    return out


def generates_dense(r, f, fd):
    """Xadj_i^T r + r Xadj_i = -ft_i for every i, entry by entry."""
    act = ad_action_dense(r.r, f)
    return all(act[i][a][b] == -fd.f[a][b][i] for i, a, b in product(range(f.dim), repeat=3))


def scaled_ints(m):
    """(D, D * m as rows of ints), with D the lcm of the denominators of m."""
    den = math.lcm(*[x.denominator for row in m for x in row])
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in m]


def schouten_dense(r, f):
    """[[r, r]] as a dense rank-3 Fraction tensor: the retired
    `rmatrix.schouten`, three loops over the dense int form of r."""
    return _unscale3(*_schouten_ints_dense(*scaled_ints(r.r), f))


def _unscale3(s, t):
    """The rank-3 tensor t / s as Fractions."""
    return [[[Fraction(x, s) if x else rl.ZERO for x in row] for row in p] for p in t]


def _schouten_ints_dense(dr, rr, f):
    """(s, s [[r, r]] as ints), with s a positive int, for r = rr / dr and rr
    an antisymmetric int matrix."""
    d = len(rr)
    if any(rr[i][j] != -rr[j][i] for i in range(d) for j in range(i, d)):
        raise InputError("Schouten bracket input must be antisymmetric")
    d1, nz = f.scaled_nonzero()
    out = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, k, a, v) in nz:
        for b in range(d):
            for c in range(d):
                out[a][b][c] += v * rr[i][b] * rr[k][c]
    for (j, k, b, v) in nz:
        for a in range(d):
            for c in range(d):
                out[a][b][c] += v * rr[a][j] * rr[k][c]
    for (j, l, c, v) in nz:
        for a in range(d):
            for b in range(d):
                out[a][b][c] += v * rr[a][j] * rr[b][l]
    return d1 * dr * dr, out


def rank3_zero(t):
    return all(not x for p in t for row in p for x in row)


def rank3_add(s, t):
    d = len(s)
    return [[[s[a][b][c] + t[a][b][c] for c in range(d)] for b in range(d)] for a in range(d)]


def rank3_map(t):
    """The dense rank-3 tensor t as the map {(a, b, c): value} of its nonzero
    entries, the form of `rmatrix`."""
    return {(a, b, c): x for a, p in enumerate(t) for b, row in enumerate(p) for c, x in enumerate(row) if x}


def rank3_dense(t, dim=4):
    """The rank-3 map t as a dense tensor of Fractions."""
    out = [[[rl.ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (a, b, c), x in t.items():
        out[a][b][c] = Fraction(x)
    return out


def wedge3_dense(i, j, k, coeff=1, dim=4):
    """coeff * X_i ^ X_j ^ X_k, 1-based, as a dense rank-3 tensor."""
    t = [[[rl.ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    base = (i - 1, j - 1, k - 1)
    for perm in permutations(range(3)):
        sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        a, b, c = (base[perm[0]], base[perm[1]], base[perm[2]])
        t[a][b][c] += Fraction(coeff) * sign
    return t


def is_totally_antisymmetric_dense(t):
    n = range(len(t))
    return all(
        t[b][a][c] == -t[a][b][c] and t[a][c][b] == -t[a][b][c] for a, b, c in product(n, repeat=3)
    )


def ad_invariant_rank3_dense(t, f):
    """sum_m (f_im^a t^mbc + f_im^b t^amc + f_im^c t^abm) = 0 for all i, a, b,
    c, every index summed, zero entries included."""
    n, ff = range(f.dim), f.f
    return all(
        sum(
            (ff[i][m][a] * t[m][b][c] + ff[i][m][b] * t[a][m][c] + ff[i][m][c] * t[a][b][m] for m in n),
            rl.ZERO,
        )
        == 0
        for i, a, b, c in product(n, repeat=4)
    )


def classify_r_dense(r, f):
    """The retired `rmatrix.classify_r` on dense tensors, with the dense
    oracles above: the `schouten` of its result is a dense tensor."""
    s = schouten_dense(r.antisymmetric_part(), f)
    if not ad_invariant_symmetric(symmetric_part(r), f):
        return RClassification("invalid", s, False, violation="symmetric part is not ad-invariant")
    if rank3_zero(s):
        return RClassification("triangular", s, True)
    anti = is_totally_antisymmetric_dense(s)
    inv = ad_invariant_rank3_dense(s, f)
    if anti and inv:
        return RClassification("quasitriangular", s, True, anti, inv)
    violation = []
    if not anti:
        violation.append("[[r,r]] is not totally antisymmetric")
    if not inv:
        violation.append("[[r,r]] is not ad-invariant")
    return RClassification("invalid", s, True, anti, inv, "; ".join(violation))


def rank(m):
    cols = len(m[0]) if m else 0
    return len(gauss_jordan_dense([_dense_int_row(row) for row in m], cols))


def inverse(m):
    """The exact inverse of a rational matrix, read off the reduced row
    echelon form of [m | I]; InputError when m is singular."""
    n = len(m)
    ident = rl.identity(n)
    red, pivots = rl.rref([row[:] + ident[i] for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise InputError("matrix is singular")
    return [row[n:] for row in red]


def cfm_scale(c, a):
    return [[x.scale(c) for x in row] for row in a]


def blocks(mc, n):
    """The strongly connected components of the graph i -> j on the nonzero
    entries (i, j) of a sparse n x n matrix, as tuples of indices, each in
    increasing order and listed by their smallest index."""
    return _components(_reach(mc, n), n)


def eigenvalues(mc, n):
    """The eigenvalues over Q(i), with multiplicity and equal ones together,
    of a sparse n x n CRat matrix.  Ordered by its strongly connected
    components (`blocks`), the matrix is block triangular, so its spectrum
    is the union of its diagonal blocks' spectra: a 1 x 1 block gives its
    diagonal entry, and a larger block the roots of its own characteristic
    polynomial (`_spectrum`), whose UnsupportedSpectrum names that block's
    factor."""
    mult = {}
    for block in blocks(mc, n):
        if len(block) == 1:
            lam = mc.get((block[0], block[0]), CR_ZERO)
            mult[lam] = mult.get(lam, 0) + 1
            continue
        at = {i: r for r, i in enumerate(block)}
        sub = {(at[i], at[j]): c for (i, j), c in mc.items() if i in at and j in at}
        for lam, m in _spectrum(_char_poly(sub, len(block))):
            mult[lam] = mult.get(lam, 0) + m
    return [lam for lam, m in mult.items() for _ in range(m)]


def matexp_by_putzer(m, coord):
    """exp(x_coord M) by Putzer's recursion on the whole matrix: with the
    eigenvalues l_1, ..., l_n of M listed with multiplicity,
    exp(xM) = sum_k r_k(x) P_k, P_1 = I, P_{k+1} = (M - l_k) P_k,
    r_1 = e^{l_1 x} and r_k = e^{l_k x} int_0^x e^{-l_k s} r_{k-1}(s) ds,
    stopping at the first empty P_k.  Not checked: the oracle of the
    checked `cf_matexp`."""
    n = len(m)
    mc = _sparse(m)
    if not mc:
        return cfm_identity(n)
    acc = {}
    p = {(i, i): CR_ONE for i in range(n)}
    r = None
    for k, lam in enumerate(eigenvalues(mc, n)):
        e = cf_exp({coord: lam})
        r = e if r is None else e * (e.reciprocal() * r).integral(coord)
        for ij, c in p.items():
            t = acc.setdefault(ij, {})
            for key, v in r.terms.items():
                bump_by_crats(t, key, v * c)
        if k + 1 < n:
            p = _mat_mul(_shifted(mc, -lam, n), p)
            if not p:
                break
    result = cfm_zeros(n, n)
    for (i, j), t in acc.items():
        if t:
            result[i][j] = ClosedFunction(t)
    return result


def cf_matexp_pm_sparse(mc, n, coord):
    """(exp(x M), exp(-x M)) for x = x_coord and the n x n matrix M given by
    its nonzero entries mc, the way a frame builds them: exp(-x M) from the
    negated entries (`closedfun.cf_matexp_sparse`, with its exact check),
    and exp(x M) as its reflection in x_coord, checked on mc itself
    (`closedfun.cf_matexp_reflected`)."""
    em = cf_matexp_sparse({ij: -c for ij, c in mc.items()}, n, coord)
    return cf_matexp_reflected(em, mc, coord), em


def cf_matexp_pm(m, coord):
    """(exp(x M), exp(-x M)) for a dense rational M: `cf_matexp_pm_sparse`
    on its nonzero entries."""
    return cf_matexp_pm_sparse(_sparse(m), len(m), coord)


def _tail(entry):
    out = []
    if entry.source:
        out.append(f"  source {entry.source}")
    if entry.status:
        out.append(f"  status {entry.status}")
    if entry.note:
        out.append(f"  note {entry.note}")
    return out


def serialize(entries):
    """Corpus text of parsed entries, which `corpus.parse` reads back to
    equal entries."""
    lines = []
    for e in entries:
        if e.kind == "algebra":
            head = f"algebra {e.name}"
            if e.params:
                head += " params " + " ".join(e.params)
            lines.append(head)
            for c in e.constraints:
                lines.append(f"  constraint {c.text()}")
            for (i, j) in sorted(e.brackets):
                terms = ", ".join(
                    f"{to_text(expr)} {k}" for (expr, k) in e.brackets[(i, j)]
                )
                lines.append(f"  bracket {i} {j} -> {terms}")
        elif e.kind == "bialgebra":
            lines.append(f"bialgebra {e.g} {e.dual}")
        elif e.kind == "rmatrix":
            lines.append(f"rmatrix {e.g} {e.dual}")
            if e.terms:  # a block without an r line reads as r = 0
                body = " ; ".join(
                    f"{to_text(expr)} {i} {knd} {j}" for (expr, i, j, knd) in e.terms
                )
                lines.append(f"  r {body}")
            if e.rfree:
                lines.append("  rfree " + " ".join(e.rfree))
            if e.schouten_terms is None:
                lines.append("  schouten zero")
            else:
                body = " ; ".join(
                    f"{to_text(expr)} {i} {j} {k}"
                    for (expr, i, j, k) in e.schouten_terms
                )
                lines.append(f"  schouten {body}")
        elif e.kind == "poisson":
            lines.append(f"poisson {e.g} {e.dual} {e.method}")
            for (i, j) in sorted(e.brackets):
                lines.append(f"  pb {i} {j} = {to_text(e.brackets[(i, j)])}")
        elif e.kind == "frame":
            lines.append(f"frame {e.name}")
            for i in sorted(e.xl):
                lines.append(f"  xl {i} = {to_text(e.xl[i])}")
            for i in sorted(e.xr):
                lines.append(f"  xr {i} = {to_text(e.xr[i])}")
        elif e.kind == "membership":
            lines.append(f"membership {e.table}")
            for (g, dual) in e.pairs:
                lines.append(f"  pair {g} {dual}")
        else:
            lines.append(f"fixture {e.name}")
            for k in sorted(e.refs):
                lines.append(f"  ref {k} = {e.refs[k]}")
            for k in sorted(e.vals):
                lines.append(f"  val {k} = {to_text(e.vals[k])}")
            for k in sorted(e.exprs):
                lines.append(f"  expr {k} = {to_text(e.exprs[k])}")
            for k in sorted(e.matrices):
                body = " ; ".join(
                    " ".join(to_text(c) for c in row) for row in e.matrices[k]
                )
                lines.append(f"  matrix {k} = {body}")
        lines.extend(_tail(e))
        lines.append("")
    return "\n".join(lines)
