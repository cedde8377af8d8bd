"""Exact multilinear algebra for Lie algebras, their duals, and doubles.

Conventions (fixed throughout the package):
  [X_i, X_j] = f_ij^k X_k           stored as f[i][j][k], 0-based
  adjoint    (Xadj_i)_j^k = -f_ij^k  row j, column k
  dual       [Xt^i, Xt^j] = ft^ij_k Xt^k, same storage as a second instance
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm

from . import ratlinalg as rl
from .errors import InputError
from .ratlinalg import _bump


def _as_frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _forms(nz):
    """[nz, (D, [(i, j, k, D * value)]), None] with D the lcm of the
    denominators; the last slot holds the Jacobi verdict once it is decided."""
    den = lcm(*[v.denominator for (_, _, _, v) in nz])
    ints = [(i, j, k, v.numerator * (den // v.denominator)) for (i, j, k, v) in nz]
    return [nz, (den, ints), None]


class StructureConstants:
    """Rank-3 antisymmetric rational tensor of a Lie algebra on an ordered basis."""

    __slots__ = ("dim", "f", "_nonzero")

    def __init__(self, dim, f=None):
        self.dim = dim
        if f is None:
            f = [[[rl.ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        self.f = f
        self._nonzero = None

    @classmethod
    def from_brackets(cls, dim, brackets):
        """Build from {(i, j): [(coeff, k), ...]} with 1-based indices, i < j,
        through :meth:`from_entries`: the terms are summed into sparse
        entries (i, j, k) and (j, i, k), and the zero sums dropped."""
        acc = {}
        for (i, j), terms in brackets.items():
            if not (1 <= i <= dim and 1 <= j <= dim) or i == j:
                raise InputError(f"bad bracket indices ({i},{j})")
            for coeff, k in terms:
                if not 1 <= k <= dim:
                    raise InputError(f"bad bracket index {k} in [X_{i}, X_{j}]")
                c = _as_frac(coeff)
                for key, v in (((i - 1, j - 1, k - 1), c), ((j - 1, i - 1, k - 1), -c)):
                    acc[key] = acc[key] + v if key in acc else v
        return cls.from_entries(dim, [key + (v,) for key, v in acc.items() if v])

    @classmethod
    def from_entries(cls, dim, entries):
        """Build from 0-based (i, j, k, value), each (i, j, k) at most once and
        every value nonzero; the cached forms come from the entries, so no
        scan of the dense tensor follows."""
        sc = cls(dim)
        nz = sorted(entries)
        for (i, j, k, v) in nz:
            sc.f[i][j][k] = v
        sc._nonzero = _forms(nz)
        return sc

    def _cached(self):
        # the nonzero list, the integer form and the Jacobi verdict share one
        # slot, so setting `_nonzero = None` after an in-place edit clears all
        if self._nonzero is None:
            self._nonzero = _forms(
                [
                    (i, j, k, v)
                    for i, plane in enumerate(self.f)
                    for j, row in enumerate(plane)
                    for k, v in enumerate(row)
                    if v
                ]
            )
        return self._nonzero

    def nonzero(self):
        """Cached list of (i, j, k, value) with value != 0 (all pairs i, j)."""
        return self._cached()[0]

    def scaled_nonzero(self):
        """(D, [(i, j, k, D * value)]) over :meth:`nonzero`, with D the lcm of
        the denominators, so that every scaled value is an int; cached."""
        return self._cached()[1]

    def is_lie(self):
        """Whether the tensor passes Jacobi (`jacobi_check`), decided once and
        kept with the cached forms; a check that raises keeps nothing."""
        forms = self._cached()
        if forms[2] is None:
            forms[2] = jacobi_check(self).passed
        return forms[2]

    def is_antisymmetric(self):
        # f_ij^k = -f_ji^k pairs entry (i, j, k) with (j, i, k); a pair of
        # zeros holds, so only nonzero entries need a look, and a nonzero
        # f_ii^k is its own partner and fails
        ints = self.scaled_nonzero()[1]
        at = {(i, j, k): w for (i, j, k, w) in ints}
        return all(at.get((j, i, k)) == -w for (i, j, k, w) in ints)

    def adjoint(self, i):
        """Matrix (Xadj_i)_j^k = -f_ij^k (row j, col k)."""
        return [[-x if x else rl.ZERO for x in row] for row in self.f[i]]

    def adjoints(self):
        return [self.adjoint(i) for i in range(self.dim)]

    def bracket_lines(self):
        """Sorted [(i, j, k, coeff)] with i < j, 1-based, for display."""
        return sorted(
            (i + 1, j + 1, k + 1, v) for (i, j, k, v) in self.nonzero() if i < j
        )

    def __eq__(self, other):
        return isinstance(other, StructureConstants) and self.dim == other.dim and self.f == other.f

    def __hash__(self):
        return hash((self.dim, tuple(tuple(tuple(r) for r in p) for p in self.f)))

    def __repr__(self):
        lines = ", ".join(
            f"[{i},{j}]->{v}*e{k}" for (i, j, k, v) in self.bracket_lines()
        )
        return f"StructureConstants(dim={self.dim}, {lines or 'abelian'})"


@dataclass
class JacobiReport:
    passed: bool
    residual: dict = field(default_factory=dict)  # (i,j,m,n) 1-based -> value

    def __bool__(self):
        return self.passed


def jacobi_check(sc: StructureConstants) -> JacobiReport:
    """Residual J_ijm^n = sum_k (f_ij^k f_km^n + f_ik^n f_mj^k + f_jk^n f_im^k)."""
    if not sc.is_antisymmetric():
        raise InputError("structure constants are not antisymmetric")
    # the sums run on the ints D f_ij^k, so every value below is D^2 J
    den, nz = sc.scaled_nonzero()
    # T_ijm^n = sum_k f_ij^k f_km^n over nonzero entries only; the full
    # residual is the cyclic sum J_ijm^n = T_ijm^n + T_jmi^n + T_mij^n,
    # which equals the three-term form stated in the docstring.
    acc = {}
    by_first = {}
    for (k, m, n, w) in nz:
        by_first.setdefault(k, []).append((m, n, w))
    for (i, j, k, v) in nz:
        for (m, n, w) in by_first.get(k, ()):
            key = (i, j, m, n)
            acc[key] = acc.get(key, 0) + v * w
    total = {}
    for (i, j, m, n), v in acc.items():
        # T_ijm^n enters J at the slots (i,j,m), (m,i,j) and (j,m,i)
        for key in ((i, j, m, n), (m, i, j, n), (j, m, i, n)):
            _bump(total, key, v)
    den2 = den * den
    res = {
        (i + 1, j + 1, m + 1, n + 1): Fraction(v, den2)
        for (i, j, m, n), v in total.items()
    }
    return JacobiReport(not res, res)


def mixed_jacobi_check(f: StructureConstants, fd: StructureConstants):
    """Compatibility of a bracket/cobracket pair:

        f_kl^m ft^ij_m = f_mk^i ft^jm_l - f_ml^i ft^jm_k
                       - f_mk^j ft^im_l + f_ml^j ft^im_k

    summed over nonzero entries only.  The residual is keyed (i, j, k, l),
    1-based; the matrix form of the same identity is the test suite's
    oracle of it.
    """
    if not f.is_antisymmetric() or not fd.is_antisymmetric():
        raise InputError("structure constants are not antisymmetric")
    if f.dim != fd.dim:
        raise InputError("dimension mismatch")
    # the sums run on the ints D1 f and D2 ft, so every value below is
    # D1 D2 times the residual
    d1, fnz = f.scaled_nonzero()
    d2, gnz = fd.scaled_nonzero()
    g_by_upper = {}
    g_by_second = {}
    for (a, b, c, w) in gnz:
        g_by_upper.setdefault(c, []).append((a, b, w))
        g_by_second.setdefault(b, []).append((a, c, w))
    acc = {}
    for (k, l, m, v) in fnz:
        for (i, j, w) in g_by_upper.get(m, ()):
            _bump(acc, (i, j, k, l), v * w)
    for (m, x, i, v) in fnz:
        # -f_mk^i fd^jm_l with x = k, + f_ml^i fd^jm_k with x = l
        for (j, y, w) in g_by_second.get(m, ()):
            _bump(acc, (i, j, x, y), -v * w)
            _bump(acc, (i, j, y, x), v * w)
            # +f_mk^j fd^im_l and -f_ml^j fd^im_k (i and j swapped)
            _bump(acc, (j, i, x, y), v * w)
            _bump(acc, (j, i, y, x), -v * w)
    scale = d1 * d2
    res = {
        (i + 1, j + 1, k + 1, l + 1): Fraction(v, scale)
        for (i, j, k, l), v in acc.items()
    }
    return JacobiReport(not res, res)


def bialgebra_failure(f: StructureConstants, fd: StructureConstants):
    """The first identity that the pair (f, fd) fails as a Lie bialgebra:
    None when it passes them all, "mixed Jacobi" when bracket and cobracket
    are not compatible, else "double Jacobi" when f or fd fails Jacobi.

    The double of `build_double` satisfies Jacobi exactly when f and fd do
    and the pair satisfies mixed Jacobi (Drinfeld 1983; Chari-Pressley, A
    Guide to Quantum Groups, 1994, 1.3), so the 8-dimensional identity is
    decided on the two 4-dimensional halves, whose verdicts they keep
    (`StructureConstants.is_lie`).
    """
    if not mixed_jacobi_check(f, fd).passed:
        return "mixed Jacobi"
    if not (f.is_lie() and fd.is_lie()):
        return "double Jacobi"
    return None


@dataclass
class DoubleAlgebra:
    sc: StructureConstants  # dim 8, ordered basis (X_1..X_4, Xt^1..Xt^4)
    pairing: list  # 8x8 hyperbolic form


def build_double(f: StructureConstants, fd: StructureConstants) -> DoubleAlgebra:
    """Structure constants of g + g* with the mixed bracket
    [X_i, Xt^j] = ft^jk_i X_k + f_ki^j Xt^k and the canonical pairing."""
    if f.dim != fd.dim:
        raise InputError("dimension mismatch")
    if not f.is_antisymmetric() or not fd.is_antisymmetric():
        raise InputError("structure constants are not antisymmetric")
    d = f.dim
    n = 2 * d
    entries = []  # the six blocks below never share an index triple
    for (k, i, j, v) in f.nonzero():
        # f_ki^j Xt^k in [X_i, Xt^j]
        entries += ((k, i, j, v), (i, d + j, d + k, v), (d + j, i, d + k, -v))
    for (j, k, i, w) in fd.nonzero():
        # ft^jk_i X_k in [X_i, Xt^j]
        entries += ((d + j, d + k, d + i, w), (i, d + j, k, w), (d + j, i, k, -w))
    sc = StructureConstants.from_entries(n, entries)
    pairing = rl.zeros(n, n)
    for i in range(d):
        pairing[i][d + i] = rl.ONE
        pairing[d + i][i] = rl.ONE
    return DoubleAlgebra(sc, pairing)


def pairing_ad_invariant(dbl: DoubleAlgebra):
    """<[Z,W],V> + <W,[Z,V]> = 0 for all basis triples.

    The canonical pairing couples index m to m +- dim only, so the sum
    collapses to two structure-tensor entries per triple,
    f_zw^v' + f_zv^w' = 0 with ' the coupled index.  The map
    (z, a, b) -> (z, b', a') pairs the two entries and is an involution,
    so checking each nonzero entry against its partner covers every
    triple; a nonzero entry that is its own partner fails.
    """
    n = dbl.sc.dim
    d = n // 2
    f = dbl.sc.f
    conj = [m + d if m < d else m - d for m in range(n)]
    return all(f[z][conj[b]][conj[a]] == -v for (z, a, b, v) in dbl.sc.nonzero())


class TwoFormLA:
    """Antisymmetric 4x4 rational matrix w_ij = w(X_i, X_j)."""

    __slots__ = ("dim", "w")

    def __init__(self, dim, w):
        self.dim = dim
        self.w = w
        for i in range(dim):
            for j in range(dim):
                if w[i][j] != -w[j][i]:
                    raise InputError("two-form is not antisymmetric")

    def __repr__(self):
        terms = [
            f"{self.w[i][j]}*e{i+1}^e{j+1}"
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
            if self.w[i][j]
        ]
        return "TwoFormLA(" + (" + ".join(terms) or "0") + ")"


def closed_two_forms(f: StructureConstants):
    """Exact kernel basis of w -> dw on the space of two-forms.

    dw(X_i, X_j, X_k) is the cyclic sum of -w([X_p, X_q], X_m), so each
    entry D f_pq^l (p < q) of the integer form puts -D f_pq^l w_lm, times
    the sign of the permutation that sorts (p, q, m), into the row of the
    triple {p, q, m}; scaling by D leaves the kernel as it is.
    """
    d = f.dim
    pairs = list(combinations(range(d), 2))
    col = {pq: c for c, pq in enumerate(pairs)}
    row = {t: r for r, t in enumerate(combinations(range(d), 3))}
    rows = [[0] * len(pairs) for _ in row]
    for (p, q, l, v) in f.scaled_nonzero()[1]:
        if p > q:
            continue
        for m in range(d):
            if m in (p, q, l):
                continue
            # w_lm = -w_ml, and (p, q, m) is one swap from sorted iff p < m < q
            s = -v if (l < m) != (p < m < q) else v
            rows[row[tuple(sorted((p, q, m)))]][col[(min(l, m), max(l, m))]] += s
    basis = rl.nullspace(rows) if rows else rl.identity(len(pairs))
    forms = []
    for vec in basis:
        w = rl.zeros(d, d)
        for coeff, (a, b) in zip(vec, pairs):
            w[a][b] = coeff
            w[b][a] = -coeff
        forms.append(TwoFormLA(d, w))
    return forms


def pfaffian4(m):
    """Pf(m) = m_12 m_34 - m_13 m_24 + m_14 m_23 of a 4x4 antisymmetric
    matrix m, with det m = Pf(m)^2; the entries need only + and *."""
    return m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]


def _pfaffian_witness(forms):
    """(witness, max_rank) over the span of the 4x4 two-forms `forms`.

    Pf(sum c_i w_i) = sum_{i<=j} q_ij c_i c_j is a quadratic form in c, with
    q_ii = Pf(w_i), so it vanishes on the span iff every q_ij = 0.  The
    witness is the first w_i with q_ii != 0; when there is none, Pf(w_i +
    w_j) = q_ij, so it is the first such sum with a nonzero Pfaffian.  With
    no witness every form in the span has rank at most 2, and the rank is 2
    when some w_i is nonzero.
    """
    for w in forms:
        if pfaffian4(w.w):
            return w, 4
    for u, v in combinations(forms, 2):
        s = rl.mat_add(u.w, v.w)
        if pfaffian4(s):
            return TwoFormLA(4, s), 4
    return None, 2 if any(not rl.is_zero_matrix(w.w) for w in forms) else 0


@dataclass
class SymplecticReport:
    closed_basis: list
    witness: TwoFormLA
    max_rank: int

    @property
    def found(self):
        return self.witness is not None


def find_symplectic(f: StructureConstants) -> SymplecticReport:
    """Closed two-form basis plus one nondegenerate witness if one exists.

    In dimension 4 a two-form is nondegenerate iff its Pfaffian is nonzero,
    and over the closed basis w_i the Pfaffian of sum c_i w_i is a quadratic
    form in c: a symplectic form exists iff one of its coefficients is
    nonzero, and the witness is a w_i or a w_i + w_j (`_pfaffian_witness`).
    max_rank is the largest rank of any closed two-form: 4 with a witness,
    else 2 for a nonempty basis and 0 for an empty one.
    """
    if f.dim != 4:
        raise InputError(f"symplectic search needs dimension 4, not {f.dim}")
    if not f.is_lie():
        raise InputError("structure constants fail the Jacobi identity")
    basis = closed_two_forms(f)
    witness, max_rank = _pfaffian_witness(basis)
    return SymplecticReport(basis, witness, max_rank)
