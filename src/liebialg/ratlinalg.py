"""Exact linear algebra over the rationals (lists of lists of Fraction)."""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def copy_matrix(m):
    return [row[:] for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    n, k, p = len(a), len(b), len(b[0])
    out = zeros(n, p)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for j in range(k):
            x = ai[j]
            if x:
                bj = b[j]
                for l in range(p):
                    if bj[l]:
                        oi[l] += x * bj[l]
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def det(m):
    """Determinant by fraction-preserving Gaussian elimination."""
    n = len(m)
    a = copy_matrix(m)
    sign = ONE
    d = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return ZERO
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        p = a[col][col]
        d *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f:
                ar, ac = a[r], a[col]
                for c in range(col, n):
                    ar[c] -= f * ac[c]
    return sign * d


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    a = copy_matrix(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m):
    return len(rref(m)[1])


def nullspace(m):
    """Basis of the right nullspace, one vector per free column."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    red, pivots = rref(m)
    pivset = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivset:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def solve_affine(a, b):
    """Solve a x = b exactly.

    Returns (particular, nullspace_basis) or None when inconsistent.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [a[i][:] + [frac(b[i])] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    part = [ZERO] * cols
    for r, pc in enumerate(pivots):
        part[pc] = red[r][cols]
    return part, nullspace(a)


def inverse(m):
    """Exact inverse; raises InputError when singular."""
    from .errors import InputError

    n = len(m)
    aug = [m[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise InputError("matrix is singular")
    return [row[n:] for row in red]
