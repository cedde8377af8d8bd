"""Canonical-form symbolic scalars on a 4-coordinate chart.

A ClosedFunction is a finite sum of terms

    c * x1^k1 x2^k2 x3^k3 x4^k4 * exp(z1 x1 + z2 x2 + z3 x3 + z4 x4)

with c and the rates z_i complex-rational and integer exponents k_i, which
may be negative (Laurent terms: 1/x2 is x2^-1).  Trigonometric and hyperbolic
entries are represented through complex exponential rates (cos x =
(e^{ix}+e^{-ix})/2 and so on), which keeps multiplication, differentiation
and the zero test exact: the functions x^k e^{zx} with k in Z^4 are linearly
independent, so a function is zero iff its canonical term map is empty.

Coefficients and rates are CRats: elements (a + b i)/d of Q(i) kept as a
reduced int triple (a, b, d) with d > 0 and gcd(a, b, d) = 1.  A CRat is a
tuple, so a term key (monomial, rates) is a tuple of ints and int triples
that Python hashes without calling back into this module.
"""

from fractions import Fraction
from math import gcd
from operator import add
import cmath

from .errors import (
    EvalError,
    InputError,
    InvariantError,
    NonUnitDeterminant,
    UnsupportedSpectrum,
)

NCOORD = 4


def _reduced(a, b, d):
    """CRat (a + b i)/d from ints with d > 0, divided by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _new(CRat, (a, b, d))


class CRat(tuple):
    """Complex rational (a + b i)/d, stored as the int triple (a, b, d).

    The triple is canonical: d > 0 and gcd(a, b, d) = 1, so zero is
    (0, 0, 1) and two CRats are equal iff their triples are.  Hashing is
    tuple hashing; equality with another CRat is tuple equality, and ints
    and Fractions compare by value.  `re` and `im` are exact Fractions.
    """

    __slots__ = ()

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _new(cls, (re, im, 1))
        if not isinstance(re, Fraction):
            re = Fraction(re)
        if not isinstance(im, Fraction):
            im = Fraction(im)
        # re and im are in lowest terms, so over lcm(p, q) the triple is too
        p, q = re.denominator, im.denominator
        if p == q:
            return _new(cls, (re.numerator, im.numerator, p))
        d = p * q // gcd(p, q)
        return _new(cls, (re.numerator * (d // p), im.numerator * (d // q), d))

    def __getnewargs__(self):
        return (self.re, self.im)

    @property
    def re(self):
        return Fraction(self[0], self[2])

    @property
    def im(self):
        return Fraction(self[1], self[2])

    def __add__(self, o):
        if type(o) is not CRat:
            o = _crat(o)
        a1, b1, d1 = self
        a2, b2, d2 = o
        if not (a2 or b2):
            return self
        if not (a1 or b1):
            return o
        if d1 == d2:
            return _reduced(a1 + a2, b1 + b2, d1)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, o):
        return self + -_crat(o)

    def __rsub__(self, o):
        return _crat(o) - self

    def __mul__(self, o):
        if type(o) is not CRat:
            o = _crat(o)
        a1, b1, d1 = self
        a2, b2, d2 = o
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is not CRat:
            o = _crat(o)
        a1, b1, d1 = self
        a2, b2, d2 = o
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("complex-rational division by zero")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i)/n
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)

    def __neg__(self):
        a, b, d = self
        return _new(CRat, (-a, -b, d))

    def conjugate(self):
        a, b, d = self
        return _new(CRat, (a, -b, d))

    def __bool__(self):
        return bool(self[0] or self[1])

    def __eq__(self, o):
        if type(o) is not CRat:
            if not isinstance(o, (int, Fraction)):
                return NotImplemented
            o = CRat(o)
        return _tuple_eq(self, o)

    def __ne__(self, o):
        eq = self.__eq__(o)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    def _unordered(self, o):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def is_real(self):
        return not self[1]

    def to_complex(self):
        a, b, d = self
        return complex(a / d, b / d)

    def __repr__(self):
        if not self[1]:
            return f"CRat({self.re})"
        return f"CRat({self.re}, {self.im})"


_new = tuple.__new__
_tuple_eq = tuple.__eq__


CR_ZERO = CRat(0)
CR_ONE = CRat(1)
CR_I = CRat(0, 1)
_ZRATE = (CR_ZERO,) * NCOORD
_ZEXP = (0,) * NCOORD


def _crat(x):
    if isinstance(x, CRat):
        return x
    if isinstance(x, (int, Fraction)):
        return CRat(x)
    raise InputError(f"cannot coerce {x!r} to a complex rational")


class ClosedFunction:
    """Immutable canonical term map {(monomial exponents, rates): coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls):
        return _CF_ZERO

    @classmethod
    def const(cls, c):
        c = _crat(c)
        if not c:
            return _CF_ZERO
        return cls({(_ZEXP, _ZRATE): c})

    @classmethod
    def coord(cls, i, power=1):
        """x_i^power, 1-based coordinate index."""
        if not 1 <= i <= NCOORD:
            raise InputError(f"coordinate index {i} out of range")
        k = [0] * NCOORD
        k[i - 1] = power
        return cls({(tuple(k), _ZRATE): CR_ONE})

    @classmethod
    def exp_linear(cls, rates):
        """exp(sum rates[i] * x_i) from {coord(1-based): CRat-like}."""
        z = [CR_ZERO] * NCOORD
        for i, r in rates.items():
            z[i - 1] = _crat(r)
        return cls({(_ZEXP, tuple(z)): CR_ONE})

    # -- ring operations ---------------------------------------------------
    def __add__(self, o):
        if not isinstance(o, ClosedFunction):
            return NotImplemented
        if not self.terms:
            return o
        if not o.terms:
            return self
        t = dict(self.terms)
        for key, c in o.terms.items():
            s = t.get(key)
            c2 = c if s is None else s + c
            if c2:
                t[key] = c2
            elif s is not None:
                del t[key]
        return ClosedFunction(t)

    def __sub__(self, o):
        return self + (-o)

    def __neg__(self):
        return ClosedFunction({k: -c for k, c in self.terms.items()})

    def __mul__(self, o):
        if not isinstance(o, ClosedFunction):
            return NotImplemented
        if not self.terms or not o.terms:
            return _CF_ZERO
        t = {}
        for (k1, z1), c1 in self.terms.items():
            for (k2, z2), c2 in o.terms.items():
                key = (tuple(map(add, k1, k2)), tuple(map(add, z1, z2)))
                c = c1 * c2
                s = t.get(key)
                c2v = c if s is None else s + c
                if c2v:
                    t[key] = c2v
                elif s is not None:
                    del t[key]
        return ClosedFunction(t)

    def reciprocal(self):
        """1/f of a single term f = c x^k e^{z.x}, which is c^-1 x^-k e^{-z.x};
        EvalError for the zero function, InputError for several terms."""
        if len(self.terms) != 1:
            if not self.terms:
                raise EvalError("division by zero")
            raise InputError(f"1/f leaves the closed class: f has {len(self.terms)} terms")
        ((k, z), c), = self.terms.items()
        return ClosedFunction({(tuple(-e for e in k), tuple(-v for v in z)): CR_ONE / c})

    def scale(self, c):
        c = _crat(c)
        if not c:
            return _CF_ZERO
        return ClosedFunction({k: v * c for k, v in self.terms.items()})

    def __eq__(self, o):
        return isinstance(o, ClosedFunction) and self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- calculus ----------------------------------------------------------
    def diff(self, i):
        """Exact partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= NCOORD:
            raise InputError(f"coordinate index {i} out of range")
        idx = i - 1
        out = _CF_ZERO
        acc = {}
        for (k, z), c in self.terms.items():
            if k[idx]:
                kk = list(k)
                kk[idx] -= 1
                key = (tuple(kk), z)
                v = c * k[idx]
                s = acc.get(key)
                v = v if s is None else s + v
                if v:
                    acc[key] = v
                elif s is not None:
                    del acc[key]
            if z[idx]:
                key = (k, z)
                v = c * z[idx]
                s = acc.get(key)
                v = v if s is None else s + v
                if v:
                    acc[key] = v
                elif s is not None:
                    del acc[key]
        return ClosedFunction(acc)

    def integral(self, i):
        """Exact integral from 0 to x_i in x_i (1-based), the other
        coordinates held fixed: the antiderivative vanishing on x_i = 0.
        InputError if a term has a negative power of x_i."""
        if not 1 <= i <= NCOORD:
            raise InputError(f"coordinate index {i} out of range")
        idx = i - 1
        acc = {}
        for (k, z), c in self.terms.items():
            p, lam = k[idx], z[idx]
            if p < 0:
                raise InputError(f"integral from 0 of a negative power of x{i}")
            if not lam:
                _accumulate(acc, (_with(k, idx, p + 1), z), c / (p + 1))
                continue
            # int s^p e^{lam s} = e^{lam s} sum_j w_j s^{p-j} with
            # w_j = c (-1)^j p!/(p-j)! / lam^(j+1); at s = 0 it is w_p
            inv = CR_ONE / lam
            w = c * inv
            for j in range(p + 1):
                _accumulate(acc, (_with(k, idx, p - j), z), w)
                if j < p:
                    w = -w * (p - j) * inv
            _accumulate(acc, (_with(k, idx, 0), _with(z, idx, CR_ZERO)), -w)
        return ClosedFunction(acc)

    # -- structure ---------------------------------------------------------
    def conjugate(self):
        return ClosedFunction(
            {
                (k, tuple(z.conjugate() for z in zs)): c.conjugate()
                for (k, zs), c in self.terms.items()
            }
        )

    def is_real(self):
        """True iff the term set is closed under coefficient-and-rate conjugation."""
        t = self.terms
        for (k, z), c in t.items():
            if any(r[1] for r in z):
                if t.get((k, tuple(r.conjugate() for r in z))) != c.conjugate():
                    return False
            elif c[1]:
                return False
        return True

    # -- evaluation --------------------------------------------------------
    def eval(self, point):
        """Floating value at a 4-point, through cfm_lower."""
        return cfm_lower([[self]])(*point)[0][0]

    def eval_at_zero(self):
        """Exact value at the origin (every exponential equals 1 there);
        InputError if a term has a negative exponent, a pole there."""
        acc = CR_ZERO
        for (k, _), c in self.terms.items():
            if min(k) < 0:
                raise InputError("a term with a negative exponent has a pole at the origin")
            if k == _ZEXP:
                acc = acc + c
        return acc

    def __repr__(self):
        from .render import render_closed_function

        try:
            return f"CF[{render_closed_function(self)}]"
        except Exception:
            return f"CF[{len(self.terms)} terms]"


_CF_ZERO = ClosedFunction({})


def _with(t, idx, v):
    """Tuple t with slot idx replaced by v."""
    return t[:idx] + (v,) + t[idx + 1 :]


def _accumulate(acc, key, v):
    """acc[key] += v in a term map, dropping a coefficient that cancels."""
    s = acc.get(key)
    if s is not None:
        v = s + v
    if v:
        acc[key] = v
    elif s is not None:
        del acc[key]


def cf_const(c):
    return ClosedFunction.const(c)


def cf_coord(i, power=1):
    return ClosedFunction.coord(i, power)


def cf_exp(rates):
    return ClosedFunction.exp_linear(rates)


def _linear_rates(coeffs):
    z = [CR_ZERO] * NCOORD
    for i, c in coeffs.items():
        z[i - 1] = _crat(c)
    return tuple(z)


def cf_cos(coeffs):
    """cos(sum coeffs[i] x_i) with rational coefficients."""
    z = _linear_rates(coeffs)
    zi = tuple(v * CR_I for v in z)
    zmi = tuple(-v for v in zi)
    if zmi == zi:  # cos 0 = 1
        return ClosedFunction({(_ZEXP, zi): CR_ONE})
    half = CRat(Fraction(1, 2))
    return ClosedFunction({(_ZEXP, zi): half, (_ZEXP, zmi): half})


def cf_sin(coeffs):
    z = _linear_rates(coeffs)
    zi = tuple(v * CRat(0, 1) for v in z)
    zmi = tuple(-v for v in zi)
    if zmi == zi:  # sin 0 = 0
        return _CF_ZERO
    c = CRat(0, Fraction(-1, 2))  # 1/(2i)
    return ClosedFunction({(_ZEXP, zi): c, (_ZEXP, zmi): -c})


def cf_cosh(coeffs):
    z = _linear_rates(coeffs)
    zm = tuple(-v for v in z)
    half = CRat(Fraction(1, 2))
    out = {(_ZEXP, z): half}
    if zm != z:
        out[(_ZEXP, zm)] = half
    else:
        out[(_ZEXP, z)] = CR_ONE
    return ClosedFunction(out)


def cf_sinh(coeffs):
    z = _linear_rates(coeffs)
    zm = tuple(-v for v in z)
    half = CRat(Fraction(1, 2))
    if zm == z:
        return _CF_ZERO
    return ClosedFunction({(_ZEXP, z): half, (_ZEXP, zm): -half})


# --------------------------------------------------------------------------
# Matrices of closed functions
# --------------------------------------------------------------------------


def cfm_from_frac(m):
    return [[cf_const(x) for x in row] for row in m]


def cfm_identity(n):
    return [[cf_const(1 if i == j else 0) for j in range(n)] for i in range(n)]


def cfm_zeros(rows, cols):
    return [[_CF_ZERO for _ in range(cols)] for _ in range(rows)]


def cfm_mul(a, b):
    n, k, p = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = _CF_ZERO
            for l in range(k):
                if a[i][l] and b[l][j]:
                    acc = acc + a[i][l] * b[l][j]
            row.append(acc)
        out.append(row)
    return out


def cfm_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def cfm_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def cfm_scale(c, a):
    return [[x.scale(c) for x in row] for row in a]


def cfm_transpose(a):
    return [list(col) for col in zip(*a)]


def cfm_diff(a, i):
    return [[x.diff(i) for x in row] for row in a]


def cfm_lower(a):
    """One straight-line function of (x1, x2, x3, x4) giving every entry of a
    as rows of floats.  Each entry runs the term loop `v = c; v *= x**k;
    v *= cexp(z*x)` over the coordinates in order, `t += v; s += abs(v)`, and
    raises InputError if it is not real, EvalError at a pole (x_i = 0 with a
    negative power of x_i) or if |Im t| > 1e-12 (1 + s)."""
    consts, lines, rows = [], [], []
    for row in a:
        rows.append([])
        for f in row:
            if not f.is_real():
                lines.append("raise InputError('function is not real')")
            for i in sorted({i for k, _ in f.terms for i in range(NCOORD) if k[i] < 0}):
                lines.append(f"if x{i + 1} == 0: raise EvalError('pole at x{i + 1} = 0')")
            lines.append("t = 0j; s = 0.0")
            for (k, z), c in f.terms.items():
                consts.append(c.to_complex())
                v = f"v = C[{len(consts) - 1}]"
                for i in range(NCOORD):
                    if k[i]:
                        v += f" * x{i + 1} ** {k[i]:d}"
                    if z[i]:
                        consts.append(z[i].to_complex())
                        v += f" * cexp(C[{len(consts) - 1}] * x{i + 1})"
                lines.append(v + "; t += v; s += abs(v)")
            lines.append("if abs(t.imag) > 1e-12 * (1.0 + s): "
                         "raise EvalError(f'imaginary residue {t.imag} too large')")
            lines.append(f"e{len(lines)} = t.real")
            rows[-1].append(f"e{len(lines) - 1}")
    lines.append("return [" + ", ".join(f"[{', '.join(r)}]" for r in rows) + "]")
    ns = {"C": tuple(consts), "cexp": cmath.exp, "InputError": InputError, "EvalError": EvalError}
    exec("def f(x1, x2, x3, x4):\n    " + "\n    ".join(lines), ns)
    return ns.pop("f")  # no cycle through the namespace: freed by refcount


def cfm_eval(a, point):
    """a at point as rows of floats, through cfm_lower(a)."""
    return cfm_lower(a)(*point)


def cfm_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def cfm_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def cfm_det(a):
    """Determinant by cofactor expansion (intended for n <= 4)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    acc = _CF_ZERO
    for j in range(n):
        if not a[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        term = a[0][j] * cfm_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _invert_unit(f):
    """Inverse of a single-term closed function c * x^0 * exp(z.x)."""
    if len(f.terms) != 1:
        raise NonUnitDeterminant(f"determinant has {len(f.terms)} terms")
    if next(iter(f.terms))[0] != _ZEXP:
        raise NonUnitDeterminant("determinant carries a monomial factor")
    return f.reciprocal()


def cfm_inverse_unitdet(a):
    """Exact inverse via adjugate; the determinant must be a unit term."""
    n = len(a)
    d = cfm_det(a)
    dinv = _invert_unit(d)
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [a[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            m = cfm_det(minor)
            row.append(m if (i + j) % 2 == 0 else -m)
        cof.append(row)
    adjT = cfm_transpose(cof)
    return [[x * dinv for x in row] for row in adjT]


# --------------------------------------------------------------------------
# Symbolic matrix exponential exp(x_coord * M) for exact rational M
# --------------------------------------------------------------------------


def _char_poly(m):
    """Monic characteristic polynomial coefficients [1, c1, ..., cn]
    via the Faddeev-LeVerrier recursion (exact)."""
    from . import ratlinalg as rl

    n = len(m)
    coeffs = [Fraction(1)]
    a = [row[:] for row in m]
    ident = rl.identity(n)
    work = a
    for k in range(1, n + 1):
        c = -sum(work[i][i] for i in range(n)) / k
        coeffs.append(c)
        if k < n:
            work = rl.mat_mul(m, rl.mat_add(work, rl.mat_scale(c, ident)))
    return coeffs


def _poly_eval_crat(coeffs, z: CRat) -> CRat:
    acc = CR_ZERO
    for c in coeffs:
        acc = acc * z + _crat(c)
    return acc


def _poly_deflate(coeffs, root: CRat):
    """Synthetic division by (lambda - root) over Q(i); requires exact root."""
    out = [_crat(coeffs[0])]
    for c in coeffs[1:]:
        out.append(out[-1] * root + _crat(c))
    rem = out.pop()
    if rem:
        raise ArithmeticError("not a root")
    return out


def _rationalize(x, bound):
    return Fraction(x).limit_denominator(bound)


def _root_candidates(value):
    """Complex float -> candidate CRat roots, small denominators first."""
    cands = []
    for bound in (1, 12, 100, 10**4, 10**6):
        c = CRat(_rationalize(value.real, bound), _rationalize(value.imag, bound))
        if c not in cands:
            cands.append(c)
    return cands


def _spectrum(coeffs_frac):
    """Roots with multiplicity over Q(i); raises UnsupportedSpectrum otherwise."""
    import numpy as np

    work = [_crat(c) for c in coeffs_frac]
    roots = []  # list of (CRat, multiplicity)

    def try_root(cand):
        nonlocal work
        mult = 0
        while len(work) > 1 and not _poly_eval_crat(work, cand):
            work = _poly_deflate(work, cand)
            mult += 1
        if mult:
            roots.append((cand, mult))
        return mult

    # Strip rational root 0 quickly, then go through numeric candidates.
    try_root(CR_ZERO)
    guard = 0
    while len(work) > 1:
        guard += 1
        if guard > 64:
            break
        deg = len(work) - 1
        if any(not c.is_real() for c in work):
            # Remaining factor over Q(i): numeric roots of the complex poly.
            arr = np.array([c.to_complex() for c in work])
        else:
            arr = np.array([float(c.re) for c in work])
        numeric = np.roots(arr)
        progressed = False
        for nr in numeric:
            for cand in _root_candidates(complex(nr)):
                if try_root(cand):
                    progressed = True
                    break
            if progressed:
                break
        if not progressed:
            raise UnsupportedSpectrum(
                "characteristic factor has roots outside Q + iQ",
                factor=[(c.re, c.im) for c in work],
            )
    if len(work) > 1:
        raise UnsupportedSpectrum(
            "failed to factor characteristic polynomial",
            factor=[(c.re, c.im) for c in work],
        )
    return roots


def _is_nilpotent(m):
    from . import ratlinalg as rl

    n = len(m)
    p = [row[:] for row in m]
    for _ in range(n):
        if rl.is_zero_matrix(p):
            return True
        p = rl.mat_mul(p, m)
    return rl.is_zero_matrix(p)


def _falling(j, t):
    out = 1
    for s in range(t):
        out *= j - s
    return out


def cf_matexp(m, coord):
    """exp(x_coord * M) as a matrix of closed functions of x_coord alone.

    Nilpotent matrices are summed directly; otherwise the characteristic
    polynomial is factored over Q + iQ and exp is rebuilt by confluent
    (Hermite) interpolation on the spectrum.  The result is verified to
    satisfy exp(0) = I and d/dx exp = M exp exactly.
    """
    from . import ratlinalg as rl

    n = len(m)
    m = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in m]
    if _is_nilpotent(m):
        out = cfm_identity(n)
        power = rl.identity(n)
        fact = 1
        for k in range(1, n):
            power = rl.mat_mul(power, m)
            if rl.is_zero_matrix(power):
                break
            fact *= k
            xk = cf_coord(coord, k).scale(Fraction(1, fact))
            out = cfm_add(out, [[xk.scale(e) if e else _CF_ZERO for e in row] for row in power])
        result = out
    else:
        coeffs = _char_poly(m)
        roots = _spectrum(coeffs)
        rows = []
        rhs = []
        for lam, mult in roots:
            for t in range(mult):
                rows.append(
                    [
                        (
                            CR_ZERO
                            if j < t
                            else _crat(_falling(j, t)) * _crat_pow(lam, j - t)
                        )
                        for j in range(n)
                    ]
                )
                f = ClosedFunction(
                    {
                        (
                            _kexp_coord(coord, t),
                            _rate_coord(coord, lam),
                        ): CR_ONE
                    }
                )
                rhs.append(f)
        cs = _solve_crat_system(rows, rhs)
        result = cfm_zeros(n, n)
        power = rl.identity(n)
        for j in range(n):
            cj = cs[j]
            if cj:
                result = cfm_add(
                    result, [[cj.scale(e) if e else _CF_ZERO for e in row] for row in power]
                )
            if j < n - 1:
                power = rl.mat_mul(power, m)
    _verify_matexp(result, m, coord)
    return result


def _kexp_coord(coord, power):
    k = [0] * NCOORD
    k[coord - 1] = power
    return tuple(k)


def _rate_coord(coord, lam):
    z = [CR_ZERO] * NCOORD
    z[coord - 1] = lam
    return tuple(z)


def _crat_pow(z, p):
    acc = CR_ONE
    for _ in range(p):
        acc = acc * z
    return acc


def _solve_crat_system(rows, rhs):
    """Gaussian elimination with CRat pivots and ClosedFunction right sides."""
    n = len(rows)
    a = [row[:] for row in rows]
    b = rhs[:]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        b[col] = b[col].scale(CR_ONE / p)
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] = b[r] - b[col].scale(f)
    return b


def _verify_matexp(e, m, coord):
    n = len(m)
    for i in range(n):
        for j in range(n):
            v = e[i][j].eval_at_zero()
            if v != (CR_ONE if i == j else CR_ZERO):
                raise InvariantError("matexp(0) != I")
    de = cfm_diff(e, coord)
    me = cfm_mul(cfm_from_frac(m), e)
    if not cfm_eq(de, me):
        raise InvariantError("matexp does not satisfy its defining ODE")
