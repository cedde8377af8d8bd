"""Exact linear algebra over the rationals (lists of lists of Fraction).

One elimination, on sparse rows of Python ints: a row is the map {column:
int} of its nonzero entries.  A dense row enters it scaled by the lcm of its
denominators.  Rows are taken one at a time: each is cleared in the pivot
columns found so far, by an integer combination with their pivot rows, and
when anything is left, its first nonzero column becomes a new pivot, which
is then cleared from the earlier pivot rows.  Every combination is divided
by the gcd of its entries, so the entries stay small ints
(integer-preserving elimination after E. H. Bareiss, Math. Comp. 22, 1968,
with the row gcd as the divisor).  A zero row, or a copy of an earlier one,
clears to nothing and is dropped.  Scaling rows does not change the row
space, and the reduced row echelon form of a matrix is unique, so dividing
each pivot row by its pivot when it is written out gives exactly the
Fractions that rational Gauss-Jordan elimination gives.  `rref`,
`nullspace` and `det` take and return Fractions; `solve_sparse` takes the
int rows themselves.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def _bump(acc, key, v):
    """acc[key] += v, with a zero sum dropped from acc: the one sparse
    accumulator, of int, Fraction and CRat maps alike."""
    s = acc.get(key)
    v = v if s is None else s + v
    if v:
        acc[key] = v
    elif s is not None:
        del acc[key]


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def _int_map(items):
    """({key: l x} over the (key, x) pairs with x nonzero, and l, the lcm of
    their denominators); an int has denominator 1.  A dense row enters as
    `enumerate(row)`, a sparse map as its items."""
    items = [(k, x) for k, x in items if x]
    l = lcm(*[x.denominator for _, x in items])
    return {k: x.numerator * (l // x.denominator) for k, x in items}, l


def _combine(row, c, top):
    """(p row - q top over the gcd g of its entries, p, g), with p = top[c]
    and q = row[c], so that column c is cleared; zero entries are dropped."""
    p, q = top[c], row[c]
    out = dict(row) if p == 1 else {k: p * x for k, x in row.items()}
    for k, y in top.items():
        v = out.get(k, 0) - q * y
        if v:
            out[k] = v
        else:
            del out[k]
    g = gcd(*out.values())
    if g < 2:  # 0 for a row that cleared to nothing
        return out, p, 1
    return {k: x // g for k, x in out.items()}, p, g


def _eliminate(rows):
    """Reduce the sparse int rows `rows` one at a time (module docstring).

    Returns (pivot, num, den): pivot maps each pivot column to its row, in
    the order of the rows that became pivots, and every other pivot row is
    zero in that column; each combination scaled the determinant of the
    rows by p/g, and num/den is the product of those factors."""
    pivot = {}
    num = den = 1
    for row in rows:
        for c in [c for c in row if c in pivot]:
            # the pivot rows are zero in each other's pivot columns, so
            # clearing c adds no entry in another one
            row, p, g = _combine(row, c, pivot[c])
            num *= p
            den *= g
        if not row:
            continue
        lead = min(row)
        for c, top in pivot.items():
            if lead in top:
                pivot[c], p, g = _combine(top, lead, row)
                num *= p
                den *= g
        pivot[lead] = row
    return pivot, num, den


def det(m):
    """Determinant by the integer elimination."""
    n = len(m)
    rows, scale = [], 1
    for row in m:
        ints, l = _int_map(enumerate(row))
        rows.append(ints)
        scale *= l
    pivot, num, den = _eliminate(rows)
    if len(pivot) < n:
        return ZERO
    # row k ends as the diagonal entry in column order[k], and the product of
    # those entries times the sign of `order` is det(m) * scale * num / den
    order = list(pivot)
    diag = -1 if sum(c > d for k, c in enumerate(order) for d in order[k + 1 :]) & 1 else 1
    for c, row in pivot.items():
        diag *= row[c]
    return Fraction(diag * den, num * scale)


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list).  Pivot
    row c holds row[c] times its row of that form."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivot = _eliminate([_int_map(enumerate(row))[0] for row in m])[0]
    red = [[ZERO] * cols for _ in range(rows)]
    for out, c in zip(red, sorted(pivot)):
        row = pivot[c]
        for k, x in row.items():
            out[k] = Fraction(x, row[c])
    return red, sorted(pivot)


def _kernel_basis(pivot, cols):
    """Right nullspace basis of the first `cols` columns, one vector per free
    column, read off the pivot rows of `_eliminate`."""
    basis = []
    for free in range(cols):
        if free in pivot:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for c, row in pivot.items():
            x = row.get(free)
            if x:
                v[c] = Fraction(-x, row[c])
        basis.append(v)
    return basis


def nullspace(m):
    """Basis of the right nullspace, one vector per free column."""
    cols = len(m[0]) if m else 0
    return _kernel_basis(_eliminate([_int_map(enumerate(row))[0] for row in m])[0], cols)


def solve_sparse(rows, cols):
    """Solve the augmented system of sparse int rows {column: int} exactly,
    the right-hand side in column `cols`: (particular, nullspace_basis), or
    None when it is inconsistent.  With no pivot in that column, the left block of the
    reduced augmented matrix is the reduced form of the coefficients, so one
    reduction gives both.  Only the entries read off, in the free columns
    and the last one, become Fractions."""
    pivot = _eliminate(rows)[0]
    if cols in pivot:
        return None
    part = [ZERO] * cols
    for c, row in pivot.items():
        x = row.get(cols)
        if x:
            part[c] = Fraction(x, row[c])
    return part, _kernel_basis(pivot, cols)
