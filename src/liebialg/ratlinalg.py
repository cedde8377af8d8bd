"""Exact linear algebra over the rationals (lists of lists of Fraction).

Elimination runs on Python ints, not on Fractions.  Each row is scaled by
the lcm of its denominators; a row is cleared against a pivot row by an
integer combination and then divided by the gcd of its entries, so the
entries stay small ints (integer-preserving elimination after E. H.
Bareiss, Math. Comp. 22, 1968, with the row gcd as the divisor).  Scaling
rows does not change the row space, and the reduced row echelon form of a
matrix is unique, so dividing each pivot row by its pivot when it is
written out gives exactly the Fractions that rational Gauss-Jordan
elimination gives.  `rref`, `nullspace`, `solve_affine` and `det` return
Fractions only.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)
_INT = {int}


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def transpose(m):
    return [list(col) for col in zip(*m)]


def scaled_ints(m):
    """(D, D * m as rows of ints), with D the lcm of the denominators of m."""
    den = lcm(*[x.denominator for row in m for x in row])
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in m]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def _int_row(row):
    """The row times the lcm l of its denominators, as ints, and l.  A row
    of ints is returned as it is, with l = 1: the elimination never edits a
    row in place."""
    if set(map(type, row)) <= _INT:
        return row, 1
    l = lcm(*[x.denominator for x in row])
    return [x.numerator * (l // x.denominator) for x in row], l


def _gauss_jordan(a, cols):
    """Reduce the int rows `a` in place until each pivot is the only nonzero
    entry of its column, with the pivot rows first.

    A row with entry q in the pivot column is replaced by p*row - q*pivot_row
    (p the pivot) and divided by the gcd g of its entries.  Returns the pivot
    columns and (num, den): the steps multiplied the determinant by num/den.
    """
    rows = len(a)
    pivots = []
    num = den = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            num = -num
        top = a[r]
        p = top[c]
        for i, row in enumerate(a):
            q = row[c]
            if q and i != r:
                row = [p * x - q * y for x, y in zip(row, top)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                    den *= g
                a[i] = row
                num *= p
        pivots.append(c)
    return pivots, num, den


def det(m):
    """Determinant by the integer elimination of :func:`rref`."""
    n = len(m)
    a = []
    scale = 1
    for row in m:
        ints, l = _int_row(row)
        a.append(ints)
        scale *= l
    pivots, num, den = _gauss_jordan(a, n)
    if len(pivots) < n:
        return ZERO
    diag = 1
    for i in range(n):
        diag *= a[i][i]
    # the elimination left diag(a) = det(m) * scale * num / den
    return Fraction(diag * den, num * scale)


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [_int_row(row)[0] for row in m]
    pivots = _gauss_jordan(a, cols)[0]
    red = [
        [Fraction(x, a[r][c]) if x else ZERO for x in a[r]]
        for r, c in enumerate(pivots)
    ]
    red.extend([ZERO] * cols for _ in range(rows - len(pivots)))
    return red, pivots


def _kernel_basis(a, pivots, cols):
    """Right nullspace basis read off the rows `a` that `_gauss_jordan`
    reduced: pivot row r holds its pivot a[r][pivots[r]] times its row of
    the reduced row echelon form."""
    pivset = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivset:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for r, pc in enumerate(pivots):
            x = a[r][free]
            if x:
                v[pc] = Fraction(-x, a[r][pc])
        basis.append(v)
    return basis


def nullspace(m):
    """Basis of the right nullspace, one vector per free column."""
    cols = len(m[0]) if m else 0
    a = [_int_row(row)[0] for row in m]
    return _kernel_basis(a, _gauss_jordan(a, cols)[0], cols)


def solve_affine(rows, cols):
    """Solve the augmented system `rows` exactly: each row holds the
    coefficients of `cols` unknowns followed by its right-hand side.

    Returns (particular, nullspace_basis) or None when inconsistent.  With
    no pivot in the last column, the left block of the reduced augmented
    matrix is the reduced form of the coefficients, so one reduction gives
    both.  Only the entries read off, in the free columns and the last one,
    become Fractions.
    """
    a = [_int_row(row)[0] for row in rows]
    pivots = _gauss_jordan(a, cols + 1)[0]
    if cols in pivots:
        return None
    part = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x = a[r][cols]
        if x:
            part[pc] = Fraction(x, a[r][pc])
    return part, _kernel_basis(a, pivots, cols)
