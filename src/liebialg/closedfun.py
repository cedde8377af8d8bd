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
from itertools import repeat
from math import gcd, isqrt
from operator import add
import cmath

from .errors import (
    EvalError,
    InputError,
    InvariantError,
    NonUnitDeterminant,
    UnsupportedSpectrum,
)
from .ratlinalg import _bump

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
    """Immutable canonical term map {(monomial exponents, rates): coefficient}
    with a cache of its first partial derivatives.

    Nothing changes after construction: `terms` cannot be rebound, only this
    module builds term maps, and no term map is edited once it is wrapped.
    That makes the derivative cache sound: `diff(i)` computes the partial in
    x_i once per instance and keeps it, so an instance holds at most four
    cached derivatives.  The derivative of the zero function is the shared
    zero, returned with no work and no cache.
    """

    __slots__ = ("terms", "_d")

    def __init__(self, terms=None):
        _set_terms(self, terms or {})

    def __setattr__(self, name, value):
        raise AttributeError(f"ClosedFunction is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ClosedFunction is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (ClosedFunction, (self.terms,))

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
        _mul_into(t, self, o)
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
        """Exact partial derivative with respect to x_i (1-based), computed
        once per instance and coordinate."""
        if not 1 <= i <= NCOORD:
            raise InputError(f"coordinate index {i} out of range")
        if not self.terms:
            return _CF_ZERO
        try:
            cache = self._d
        except AttributeError:
            cache = [None] * NCOORD
            _set_cache(self, cache)
        d = cache[i - 1]
        if d is None:
            d = cache[i - 1] = _derivative(self, i - 1)
        return d

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
                _bump(acc, (_with(k, idx, p + 1), z), c / (p + 1))
                continue
            # int s^p e^{lam s} = e^{lam s} sum_j w_j s^{p-j} with
            # w_j = c (-1)^j p!/(p-j)! / lam^(j+1); at s = 0 it is w_p
            inv = CR_ONE / lam
            w = c * inv
            for j in range(p + 1):
                _bump(acc, (_with(k, idx, p - j), z), w)
                if j < p:
                    w = -w * (p - j) * inv
            _bump(acc, (_with(k, idx, 0), _with(z, idx, CR_ZERO)), -w)
        return ClosedFunction(acc)

    def reflect(self, i):
        """f with x_i -> -x_i (1-based): a term c x^k e^{z.x} becomes
        c (-1)^{k_i} x^k e^{z'.x}, with z' the rates z with z_i negated."""
        if not 1 <= i <= NCOORD:
            raise InputError(f"coordinate index {i} out of range")
        idx = i - 1
        return ClosedFunction(
            {
                (k, _with(z, idx, -z[idx]) if z[idx] else z): -c if k[idx] & 1 else c
                for (k, z), c in self.terms.items()
            }
        )

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


_set_terms = ClosedFunction.__dict__["terms"].__set__
_set_cache = ClosedFunction.__dict__["_d"].__set__
_CF_ZERO = ClosedFunction({})


def _derivative(f, idx):
    """The partial derivative of a nonzero f in x_{idx+1}, from its terms."""
    acc = {}
    _derivative_into(acc, f, idx)
    return ClosedFunction(acc) if acc else _CF_ZERO


def _derivative_into(acc, f, idx):
    """acc += d f / d x_{idx+1} on a term map, dropping coefficients that
    cancel."""
    for (k, z), c in f.terms.items():
        if k[idx]:
            kk = list(k)
            kk[idx] -= 1
            _bump(acc, (tuple(kk), z), c * k[idx])
        if z[idx]:
            _bump(acc, (k, z), c * z[idx])


def _with(t, idx, v):
    """Tuple t with slot idx replaced by v."""
    return t[:idx] + (v,) + t[idx + 1 :]


def _mul_into(t, f, g, neg=False):
    """t += f * g (t -= f * g with `neg`) on term maps, dropping
    coefficients that cancel.  A zero monomial or a zero rate tuple in a
    factor leaves the other factor's as the key's, and each coefficient
    product is formed on the int triples, with a gcd only when the
    denominator is not 1."""
    gterms = g.terms.items()
    for (k1, z1), (a1, b1, d1) in f.terms.items():
        if neg:
            a1, b1 = -a1, -b1
        k1_zero = k1 == _ZEXP
        z1_zero = z1 is _ZRATE or z1 == _ZRATE
        for (k2, z2), (a2, b2, d2) in gterms:
            if k1_zero:
                k = k2
            elif k2 == _ZEXP:
                k = k1
            else:
                k = tuple(map(add, k1, k2))
            if z1_zero:
                z = z2
            elif z2 is _ZRATE:
                z = z1
            else:
                z = tuple(map(add, z1, z2))
            if b1 or b2:
                a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            else:
                a, b = a1 * a2, 0
            d = d1 * d2
            if d != 1:
                h = gcd(a, b, d)
                if h != 1:
                    a //= h
                    b //= h
                    d //= h
            key = (k, z)
            c = _new(CRat, (a, b, d))
            s = t.get(key)
            if s is None:  # a product of nonzero coefficients is nonzero
                t[key] = c
            else:
                c = s + c
                if c:
                    t[key] = c
                else:
                    del t[key]


def cf_sum_products(products, scaled=()):
    """sum of s f g over `products`, triples (f, g, s) with s = 1 or -1, plus
    sum of c h over `scaled`, pairs (c, h) with c rational: one term map
    that every product and every scaled term adds into."""
    t = {}
    for f, g, s in products:
        if f.terms and g.terms:
            _mul_into(t, f, g, s < 0)
    for c, h in scaled:
        c = _crat(c)
        for key, v in h.terms.items():
            _bump(t, key, c * v)
    return ClosedFunction(t) if t else _CF_ZERO


def cf_is_negation(f, g):
    """Whether g = -f, from the two term maps, with no negated copy built."""
    gt = g.terms
    if len(f.terms) != len(gt):
        return False
    for key, (a, b, d) in f.terms.items():
        c = gt.get(key)
        if c is None or c[0] != -a or c[1] != -b or c[2] != d:
            return False
    return True


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


def _exp_pair(coeffs, unit, cp, cm):
    """cp e^{z.x} + cm e^{-z.x} for z = unit times the rates of `coeffs`,
    one term map with the key of +z first; at z = 0 the two add into one
    coefficient, or cancel."""
    z = tuple(v * unit for v in _linear_rates(coeffs))
    t = {}
    _bump(t, (_ZEXP, z), cp)
    _bump(t, (_ZEXP, tuple(-v for v in z)), cm)
    return ClosedFunction(t) if t else _CF_ZERO


_HALF = CRat(Fraction(1, 2))
_HALF_OVER_I = CRat(0, Fraction(-1, 2))  # 1/(2i)


def cf_cos(coeffs):
    """cos(sum coeffs[i] x_i) with rational coefficients."""
    return _exp_pair(coeffs, CR_I, _HALF, _HALF)


def cf_sin(coeffs):
    return _exp_pair(coeffs, CR_I, _HALF_OVER_I, -_HALF_OVER_I)


def cf_cosh(coeffs):
    return _exp_pair(coeffs, CR_ONE, _HALF, _HALF)


def cf_sinh(coeffs):
    return _exp_pair(coeffs, CR_ONE, _HALF, -_HALF)


# --------------------------------------------------------------------------
# Matrices of closed functions
# --------------------------------------------------------------------------


def cfm_identity(n):
    return [[cf_const(1) if i == j else _CF_ZERO for j in range(n)] for i in range(n)]


def cfm_zeros(rows, cols):
    return [[_CF_ZERO for _ in range(cols)] for _ in range(rows)]


def cfm_mul(a, b):
    """a b, each entry one term map that every product adds into."""
    return cfm_sum_products([(a, b)])


def cfm_sum_products(pairs, neg=False):
    """The sum of a b over the matrix pairs (a, b), or its negative with
    `neg`.  Each entry is one term map that every product adds into; each
    nonzero entry a[i][l] meets only the nonzero entries of row l of b, so
    no product has a zero factor, and for every pair the products of an
    entry arrive in the order of l, as a dense loop would add them."""
    ts = [[{} for _ in pairs[0][1][0]] for _ in pairs[0][0]]
    for a, b in pairs:
        bnz = [[(j, y) for j, y in enumerate(brow) if y.terms] for brow in b]
        for arow, trow in zip(a, ts):
            for x, nz in zip(arow, bnz):
                if x.terms:
                    for j, y in nz:
                        _mul_into(trow[j], x, y, neg)
    return [[ClosedFunction(t) if t else _CF_ZERO for t in trow] for trow in ts]


def cfm_const_mul_sparse(mc, rows, a):
    """m a for the constant matrix m with `rows` rows and nonzero entries
    mc = {(i, l): CRat}: row i adds up the rows l of a scaled by m_il, so no
    constant ClosedFunction is made and no term key is recomputed."""
    ts = [[{} for _ in a[0]] for _ in range(rows)]
    for (i, l), c in mc.items():
        for t, f in zip(ts[i], a[l]):
            for key, v in f.terms.items():
                _bump(t, key, c * v)
    return [[ClosedFunction(t) if t else _CF_ZERO for t in row] for row in ts]


def cfm_transpose(a):
    return [list(col) for col in zip(*a)]


def derivative_is(x, coord, mc, y):
    """Whether d x / d x_coord = m y, for the constant matrix m given by its
    nonzero entries mc = {(r, l): CRat}.  Entry (r, j) is one residual term
    map: the partial of x[r][j], computed afresh and not cached, minus
    sum_l m_rl y[l][j], added into one dict that must come out empty.  Term
    maps are canonical, so this is the decision of comparing the two
    matrices, with neither built.  An entry with x[r][j] zero and row r of m
    empty is zero on both sides and is skipped."""
    if not 1 <= coord <= NCOORD:
        raise InputError(f"coordinate index {coord} out of range")
    idx = coord - 1
    rows = [[] for _ in x]  # the nonzero entries (l, -m_rl) of each row
    for (r, l), c in mc.items():
        rows[r].append((l, -c))
    for xrow, mrow in zip(x, rows):
        for j, f in enumerate(xrow):
            if not (f.terms or mrow):
                continue
            acc = {}
            if f.terms:
                _derivative_into(acc, f, idx)
            for l, c in mrow:
                for key, v in y[l][j].terms.items():
                    _bump(acc, key, c * v)
            if acc:
                return False
    return True


def cfm_reflect(a, i):
    """a with x_i -> -x_i in every entry."""
    return [[x.reflect(i) if x.terms else x for x in row] for row in a]


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


def cfm_det(a):
    """Determinant by cofactor expansion over memoized minors (intended for
    n <= 4)."""
    n = len(a)
    return _minor(a, tuple(range(n)), tuple(range(n)), {})


def _minor(a, rows, cols, memo):
    """The determinant of a on `rows` x `cols` (tuples of indices), expanded
    along its first row.  Every minor of two or more rows is one
    `cf_sum_products` term map, kept in `memo` under (rows, cols), so a
    minor that several expansions share is computed once.  The empty minor,
    the cofactor of a 1 x 1 matrix, is 1."""
    if len(rows) < 2:
        return a[rows[0]][cols[0]] if rows else cf_const(1)
    key = (rows, cols)
    m = memo.get(key)
    if m is None:
        r, sub = rows[0], rows[1:]
        m = memo[key] = cf_sum_products(
            (a[r][c], _minor(a, sub, cols[:j] + cols[j + 1 :], memo), -1 if j & 1 else 1)
            for j, c in enumerate(cols)
            if a[r][c].terms
        )
    return m


def _invert_unit(f):
    """Inverse of a single-term closed function c * x^0 * exp(z.x).  The
    inverse of any other determinant has a pole at the origin or is no finite
    sum of terms: NonUnitDeterminant names the determinant."""
    if len(f.terms) != 1 or next(iter(f.terms))[0] != _ZEXP:
        from .render import render_closed_function

        try:
            text = render_closed_function(f)
        except InputError:  # a determinant that is not real has no text form
            text = f"a complex function of {len(f.terms)} terms"
        raise NonUnitDeterminant(
            f"determinant {text} is not a single exponential term, "
            "so the inverse leaves the closed class"
        )
    return f.reciprocal()


def cfm_inverse_unitdet(a):
    """Exact inverse via adjugate; the determinant must be a unit term.  The
    determinant and the n^2 cofactors expand over one memo of minors, so
    each minor is computed once."""
    n = len(a)
    idx = tuple(range(n))
    memo = {}
    dinv = _invert_unit(_minor(a, idx, idx, memo))
    signed = (dinv, -dinv)
    # with det = 1 or -1 an entry is its cofactor or the negative: no product
    unit = dinv.terms.get((_ZEXP, _ZRATE)) if len(dinv.terms) == 1 else None
    flip = {CR_ONE: 0, -CR_ONE: 1}.get(unit)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            # inverse[i][j] = (-1)^(i+j) minor(rows != j, cols != i) / det
            m = _minor(a, idx[:j] + idx[j + 1 :], idx[:i] + idx[i + 1 :], memo)
            odd = (i + j) & 1
            if flip is None:
                row.append(m * signed[odd])
            else:
                row.append(-m if odd != flip and m.terms else m)
        out.append(row)
    return out


# --------------------------------------------------------------------------
# Symbolic matrix exponential exp(x_coord * M) for exact rational M, computed
# on sparse CRat matrices {(i, j): CRat} that hold the nonzero entries only:
# block by block over the strongly connected components of M's pattern, with
# Putzer's recursion inside each irreducible block of size 2 or more
# --------------------------------------------------------------------------


def _sparse(m):
    """The nonzero entries of a dense rational matrix, as {(i, j): CRat}."""
    return {(i, j): _crat(x) for i, row in enumerate(m) for j, x in enumerate(row) if x}


def _mat_mul(a, b):
    """Product of two sparse CRat matrices, over their nonzero entries only;
    an entry that cancels is dropped."""
    brows = {}
    for (l, j), y in b.items():
        brows.setdefault(l, []).append((j, y))
    out = {}
    for (i, l), x in a.items():
        for j, y in brows.get(l, ()):
            _bump(out, (i, j), x * y)
    return out


def _shifted(a, c, n):
    """a + c I for a sparse n x n CRat matrix a."""
    out = dict(a)
    if c:
        for i in range(n):
            _bump(out, (i, i), c)
    return out


def _char_poly(m, n):
    """Monic characteristic polynomial coefficients [1, c1, ..., cn] of a
    sparse n x n CRat matrix, as CRats, via the Faddeev-LeVerrier recursion
    (exact).  Once the work matrix is zero every later coefficient is."""
    coeffs = [CR_ONE]
    work = m
    for k in range(1, n + 1):
        if not work:
            coeffs += [CR_ZERO] * (n + 1 - k)
            break
        c = -sum((work.get((i, i), CR_ZERO) for i in range(n)), CR_ZERO) / k
        coeffs.append(c)
        if k < n:
            work = _mat_mul(m, _shifted(work, c, n))
    return coeffs


def _poly_eval_crat(coeffs, z: CRat) -> CRat:
    acc = CR_ZERO
    for c in coeffs:
        acc = acc * z + c
    return acc


def _poly_deflate(coeffs, root: CRat):
    """Synthetic division by (lambda - root) over Q(i); requires exact root."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(out[-1] * root + c)
    rem = out.pop()
    if rem:
        raise ArithmeticError("not a root")
    return out


def _rationalize(x, bound):
    return Fraction(x).limit_denominator(bound)


def _root_candidates(value):
    """Complex float -> distinct candidate CRat roots, small denominators
    first, each rationalized only when the one before was not a root."""
    seen = []
    for bound in (1, 12, 100, 10**4, 10**6):
        c = CRat(_rationalize(value.real, bound), _rationalize(value.imag, bound))
        if c not in seen:
            seen.append(c)
            yield c


def _sqrt_crat(z):
    """A square root of z in Q(i), or None when z has none there.  With
    z = (a + b i)/d = (A + B i)/d^2 for A = a d and B = b d, a root is
    (x + y i)/d with x + y i a Gaussian integer, because Z[i] is integrally
    closed; then x^2 - y^2 = A and x^2 + y^2 = N, the norm sqrt(A^2 + B^2),
    and the sign of y follows from 2 x y = B."""
    a, b, d = z
    big_a, big_b = a * d, b * d
    norm2 = big_a * big_a + big_b * big_b
    norm = isqrt(norm2)
    if norm * norm != norm2:
        return None
    x, y = isqrt((norm + big_a) // 2), isqrt((norm - big_a) // 2)
    if big_b < 0:
        y = -y
    if x * x - y * y != big_a or 2 * x * y != big_b:
        return None
    return _reduced(x, y, d)


def _unsupported(message, work):
    """UnsupportedSpectrum naming the factor `work` (CRat coefficients,
    highest degree first) as (re, im) pairs."""
    return UnsupportedSpectrum(message, factor=[(c.re, c.im) for c in work])


def _low_degree_roots(work):
    """The roots over Q(i) of a polynomial of degree 1 or 2 (coefficients
    highest first), the quadratic ones by the formula with an exact square
    root of the discriminant; UnsupportedSpectrum names the factor when that
    square root is not in Q(i)."""
    if len(work) == 2:
        return [-work[1] / work[0]]
    a, b, c = work
    s = _sqrt_crat(b * b - a * c * 4)
    if s is None:
        raise _unsupported("characteristic factor has roots outside Q + iQ", work)
    return [(s - b) / (a + a), (-s - b) / (a + a)]


def _spectrum(coeffs):
    """Roots with multiplicity over Q(i) of the polynomial with CRat
    coefficients `coeffs` (highest degree first); raises UnsupportedSpectrum
    otherwise.  Root 0 is stripped exactly and a factor of degree 2 or less
    is solved exactly (`_low_degree_roots`), so numpy is imported only while
    a factor of degree 3 or more is left: its roots are estimated by
    `np.roots` and each is confirmed by exact deflation."""
    work = list(coeffs)
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

    try_root(CR_ZERO)
    guard = 0
    while len(work) > 3 and guard < 64:
        import numpy as np

        guard += 1
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
            raise _unsupported("characteristic factor has roots outside Q + iQ", work)
    if len(work) > 3:
        raise _unsupported("failed to factor characteristic polynomial", work)
    if len(work) > 1:
        for cand in _low_degree_roots(work):
            try_root(cand)
    return roots


def _reach(mc, n):
    """For each vertex i of the graph i -> j on the nonzero entries (i, j) of
    a sparse n x n matrix, the bitmask of the vertices reachable from i, i
    included: one bitmask per vertex, closed by Warshall's recursion (n <= 8
    here)."""
    reach = [1 << i for i in range(n)]
    for i, j in mc:
        reach[i] |= 1 << j
    for k in range(n):
        bit, rk = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= rk
    return reach


def _components(reach, n):
    """The strongly connected components of a graph given by its `_reach`
    bitmasks, as tuples of indices, each in increasing order and listed by
    their smallest index."""
    blocks, seen = [], 0
    for i in range(n):
        if not seen >> i & 1:
            comp = tuple(j for j in range(i, n) if reach[i] >> j & 1 and reach[j] >> i & 1)
            for j in comp:
                seen |= 1 << j
            blocks.append(comp)
    return blocks


def _rates_shifted(f, idx, lam):
    """f e^{lam x_(idx+1)}: every rate in slot idx moved by lam, a bijection
    of the term keys, so no coefficient is added or multiplied."""
    if not lam:
        return f
    return ClosedFunction(
        {(k, _with(z, idx, z[idx] + lam)): c for (k, z), c in f.terms.items()}
    )


def _variation(g, coord, lam):
    """e^{lam x} int_0^x e^{-lam s} g(s) ds for x = x_coord: g with every
    rate in x_coord shifted by -lam, one integral, and the shift back."""
    idx = coord - 1
    return _rates_shifted(_rates_shifted(g, idx, -lam).integral(coord), idx, lam)


def _coupling(row, block, e, j):
    """sum_k m_ik e[k][j] over the nonzero entries (k, m_ik) of row i of M
    with k outside `block`, one term map that every scaled entry adds into."""
    t = {}
    for k, c in row:
        if k not in block:
            for key, v in e[k][j].terms.items():
                _bump(t, key, c * v)
    return ClosedFunction(t) if t else _CF_ZERO


def _block_putzer(sub, s, coord):
    """exp(x_coord S) of an irreducible s x s block S, given by its nonzero
    entries, as {(a, b): term map}.  Putzer's recursion (E. J. Putzer, Amer.
    Math. Monthly 73, 1966): with the eigenvalues l_1, ..., l_s of S over
    Q + iQ (`_spectrum` of its own characteristic polynomial), listed with
    multiplicity, exp(xS) = sum_k r_k(x) P_k, where P_1 = I,
    P_{k+1} = (S - l_k) P_k, r_1 = e^{l_1 x} and
    r_k = e^{l_k x} int_0^x e^{-l_k s} r_{k-1}(s) ds (`_variation`).  The
    sum stops at the first empty P_k."""
    lams = [lam for lam, mult in _spectrum(_char_poly(sub, s)) for _ in range(mult)]
    acc = {}
    p = {(a, a): CR_ONE for a in range(s)}
    r = None
    for k, lam in enumerate(lams):
        r = cf_exp({coord: lam}) if r is None else _variation(r, coord, lam)
        for ab, c in p.items():
            t = acc.setdefault(ab, {})
            for key, v in r.terms.items():
                _bump(t, key, v * c)
        if k + 1 < s:
            p = _mat_mul(_shifted(sub, -lam, s), p)
            if not p:
                break
    return acc


def cf_matexp(m, coord):
    """exp(x_coord * M) for a dense rational M: `cf_matexp_sparse` on its
    nonzero entries."""
    return cf_matexp_sparse(_sparse(m), len(m), coord)


def cf_matexp_reflected(em, mc, coord):
    """exp(x M) for x = x_coord and the matrix M given by its nonzero entries
    mc = {(i, j): CRat}, read off em = exp(-x M): exp(x M) is exp(-x M) at
    -x, so it is em's reflection in x_coord, and it passes the exact check
    on mc itself."""
    e = cfm_reflect(em, coord)
    _verify_matexp(e, mc, coord)
    return e


def cf_matexp_sparse(mc, n, coord):
    """exp(x_coord * M) as a matrix of closed functions of x_coord alone,
    for the n x n matrix M given by its nonzero entries mc = {(i, j): CRat},
    built block by block over the strongly connected components of M's
    nonzero pattern (the block-triangular method of C. Moler and C. Van
    Loan, Nineteen dubious ways to compute the exponential of a matrix,
    SIAM Review 45, 2003, sections 6-7).

    The components of M are listed so that each comes after
    every component it reaches; a component reaches strictly more vertices
    than any other component it reaches, so that order is by the number of
    vertices reached.  M_IK is nonzero only when I reaches K, so M is block
    triangular in that order, and so are its powers and E = exp(xM): E_IJ
    is zero unless I reaches J.  Block by block,

        E_II(x) = exp(x M_II),
        E_IJ(x) = E_II(x) int_0^x E_II(-s) sum_{K != I} M_IK E_KJ(s) ds,

    the solution of E_IJ' = M_II E_IJ + sum_{K != I} M_IK E_KJ with
    E_IJ(0) = 0, and every E_KJ on the right belongs to a component listed
    earlier.  A 1 x 1 block I = {i} has E_ii = e^{l x} with l = M_ii, and
    its integrand e^{-l s} G(s) is G with every rate in x_coord shifted by
    -l: one integral and the shift back give E_iJ (`_variation`), with no
    product of closed functions, and equal eigenvalues of different blocks
    give their x^p e^{l x} terms through the integral.  Only a block of size 2 or more
    goes through its characteristic polynomial and Putzer's recursion
    (`_block_putzer`), and products by its E_II(-s) and E_II(x).  The
    result is verified to satisfy exp(0) = I and d/dx exp = M exp exactly,
    on the same entries mc.
    """
    reach = _reach(mc, n)
    rows = [[] for _ in range(n)]  # the nonzero entries (k, m_ik) of each row
    for (i, k), c in mc.items():
        rows[i].append((k, c))
    e = cfm_zeros(n, n)
    for block in sorted(_components(reach, n), key=lambda b: reach[b[0]].bit_count()):
        below = [j for j in range(n) if reach[block[0]] >> j & 1 and j not in block]
        if len(block) == 1:
            i = block[0]
            lam = mc.get((i, i), CR_ZERO)
            e[i][i] = cf_exp({coord: lam})
            for j in below:
                g = _coupling(rows[i], block, e, j)
                if g.terms:
                    e[i][j] = _variation(g, coord, lam)
            continue
        at = {i: a for a, i in enumerate(block)}
        sub = {(at[i], at[j]): c for (i, j), c in mc.items() if i in at and j in at}
        for (a, b), t in _block_putzer(sub, len(block), coord).items():
            if t:
                e[block[a]][block[b]] = ClosedFunction(t)
        diag = [[e[i][j] for j in block] for i in block]
        back = cfm_reflect(diag, coord)  # E_II(-s)
        for j in below:
            g = [_coupling(rows[i], block, e, j) for i in block]
            if any(g):
                h = [cf_sum_products(zip(row, g, repeat(1))).integral(coord) for row in back]
                for i, row in zip(block, diag):
                    e[i][j] = cf_sum_products(zip(row, h, repeat(1)))
    _verify_matexp(e, mc, coord)
    return e


def _verify_matexp(e, mc, coord):
    """Exact check that e = exp(x_coord M) for M given by its nonzero entries
    mc = {(i, j): CRat}: e(0) = I, and e' = M e decided entry by entry on one
    residual term map (`derivative_is`), so neither e' nor M e is built."""
    for i, row in enumerate(e):
        for j, f in enumerate(row):
            if (f.eval_at_zero() != (CR_ONE if i == j else CR_ZERO)) if f.terms else i == j:
                raise InvariantError("matexp(0) != I")
    if not derivative_is(e, coord, mc, e):
        raise InvariantError("matexp does not satisfy its defining ODE")
