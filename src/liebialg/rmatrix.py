"""Coboundary analysis: r-matrix solving, Schouten brackets, classification.

The defining linear system (per adjoint conventions in core):

    Yt_i = Xadj_i^T r + r Xadj_i          (Yt_i)^ab = -ft^ab_i

so a tensor r generates the cocommutator ft^ab_i = -(Xadj_i^T r + r Xadj_i)^ab.
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from . import ratlinalg as rl
from .core import StructureConstants
from .errors import InputError


class TensorElement:
    """Element r = r^ij X_i (x) X_j of g (x) g as an exact 4x4 matrix."""

    __slots__ = ("dim", "r")

    def __init__(self, dim, r):
        self.dim = dim
        self.r = r

    @classmethod
    def zero(cls, dim=4):
        return cls(dim, rl.zeros(dim, dim))

    @classmethod
    def from_terms(cls, terms, dim=4):
        """terms: iterable of (coeff, i, j, kind) with kind 'tensor' or 'wedge',
        1-based indices.  A wedge contributes X_i(x)X_j - X_j(x)X_i."""
        r = rl.zeros(dim, dim)
        for coeff, i, j, kind in terms:
            c = Fraction(coeff)
            r[i - 1][j - 1] += c
            if kind == "wedge":
                r[j - 1][i - 1] -= c
            elif kind != "tensor":
                raise InputError(f"unknown term kind {kind!r}")
        return cls(dim, r)

    def antisymmetric_part(self):
        d = self.dim
        return TensorElement(
            d,
            [
                [(self.r[i][j] - self.r[j][i]) / 2 for j in range(d)]
                for i in range(d)
            ],
        )

    def is_antisymmetric(self):
        d = self.dim
        return all(self.r[i][j] == -self.r[j][i] for i in range(d) for j in range(d))

    def is_zero(self):
        return rl.is_zero_matrix(self.r)

    def __add__(self, other):
        return TensorElement(self.dim, rl.mat_add(self.r, other.r))

    def __sub__(self, other):
        return TensorElement(self.dim, rl.mat_sub(self.r, other.r))

    def scale(self, c):
        return TensorElement(self.dim, rl.mat_scale(Fraction(c), self.r))

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.r == other.r

    def __repr__(self):
        terms = []
        d = self.dim
        for i in range(d):
            for j in range(d):
                if self.r[i][j]:
                    terms.append(f"{self.r[i][j]}*X{i+1}(x)X{j+1}")
        return "TensorElement(" + (" + ".join(terms) or "0") + ")"


@dataclass
class RSolutionSet:
    particular: TensorElement
    kernel_basis: list
    empty: bool


def _ad_action(r, f: StructureConstants):
    """(s, [s (Xadj_i^T r + r Xadj_i) for each i]) for the matrix r, with s
    a positive int that makes every entry an int."""
    dr, ri = rl.scaled_ints(r)
    d1, out = _ad_action_ints(ri, f)
    return d1 * dr, out


def _ad_action_ints(ri, f: StructureConstants):
    """(d1, [d1 (Xadj_i^T m + m Xadj_i) for each i]) for an int matrix m, with
    d1 the scale of f's integer form."""
    d = f.dim
    d1, fnz = f.scaled_nonzero()
    out = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, p, q, v) in fnz:
        # d1 (Xadj_i)_p^q = -v enters (Xadj_i^T m)^qb and (m Xadj_i)^bq
        o = out[i]
        oq, rp = o[q], ri[p]
        for b in range(d):
            oq[b] -= v * rp[b]
            o[b][q] -= ri[b][p] * v
    return d1, out


def _coboundary_residuals(r, f: StructureConstants, fd: StructureConstants):
    """Matrices s (Xadj_i^T r + r Xadj_i - Yt_i) for each i, with s a
    positive int that makes every entry an int."""
    s, out = _ad_action(r, f)
    d2, gnz = fd.scaled_nonzero()
    out = [[[x * d2 for x in row] for row in m] for m in out]
    for (a, b, i, w) in gnz:
        out[i][a][b] += w * s  # -Yt_i^ab = ft^ab_i
    return out


def generates_cocommutator(r: TensorElement, f, fd) -> bool:
    """Exact membership test: r solves the defining system for (f, fd)."""
    return not any(any(row) for m in _coboundary_residuals(r.r, f, fd) for row in m)


def solve_coboundary(f: StructureConstants, fd: StructureConstants) -> RSolutionSet:
    """Exact affine solution set of the 4 d^2-equation linear system in r^ij."""
    if f.dim != fd.dim:
        raise InputError("dimension mismatch")
    d = f.dim
    n = d * d
    # equation (i, a, b) is row i n + a d + b, times d1 d2 so that every
    # coefficient is an int; scaling an equation leaves the solutions as
    # they are
    d1, fnz = f.scaled_nonzero()
    d2, gnz = fd.scaled_nonzero()
    # only the equations that a nonzero entry touches, by index, each the
    # sparse row {column: int} of its nonzero coefficients, with the
    # right-hand side in column n
    eqs = defaultdict(dict)
    for (i, p, q, v) in fnz:
        x = -v * d2  # d1 d2 (Xadj_i)_p^q
        base = i * n
        for b in range(d):
            # (Xadj_i^T r)^qb gains x r^pb, (r Xadj_i)^bq gains r^bp x
            for e, col in ((base + q * d + b, p * d + b), (base + b * d + q, b * d + p)):
                row = eqs[e]
                s = row.get(col, 0) + x
                if s:
                    row[col] = s
                else:
                    del row[col]
    for (a, b, i, w) in gnz:
        eqs[i * n + a * d + b][n] = -w * d1
    # a zero equation or a copy of another leaves the solutions as they are,
    # so each distinct nonzero equation is handed over once; a multiple of an
    # earlier one clears to nothing in the elimination
    sol = rl.solve_sparse({frozenset(row.items()): row for row in eqs.values() if row}.values(), n)
    if sol is None:
        return RSolutionSet(None, [], True)
    part, null = sol

    def unflatten(v):
        return TensorElement(d, [list(v[i * d : (i + 1) * d]) for i in range(d)])

    return RSolutionSet(unflatten(part), [unflatten(v) for v in null], False)


def schouten(r: TensorElement, f: StructureConstants):
    """[[r, r]] for antisymmetric r, expanded over structure constants:

    S^abc = f_ik^a r^ib r^kc + f_jk^b r^aj r^kc + f_jl^c r^aj r^bl
    """
    return _unscale3(*_schouten_ints(*rl.scaled_ints(r.r), f))


def _unscale3(s, t):
    """The rank-3 tensor t / s as Fractions."""
    return [[[Fraction(x, s) if x else rl.ZERO for x in row] for row in p] for p in t]


def _schouten_ints(dr, rr, f: StructureConstants):
    """(s, s [[r, r]] as ints), with s a positive int, for r = rr / dr and rr
    an antisymmetric int matrix."""
    d = len(rr)
    if any(rr[i][j] != -rr[j][i] for i in range(d) for j in range(i, d)):
        raise InputError("Schouten bracket input must be antisymmetric")
    d1, nz = f.scaled_nonzero()
    out = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, k, a, v) in nz:
        for b in range(d):
            rib = rr[i][b]
            if not rib:
                continue
            for c in range(d):
                if rr[k][c]:
                    out[a][b][c] += v * rib * rr[k][c]
    for (j, k, b, v) in nz:
        for a in range(d):
            raj = rr[a][j]
            if not raj:
                continue
            for c in range(d):
                if rr[k][c]:
                    out[a][b][c] += v * raj * rr[k][c]
    for (j, l, c, v) in nz:
        for a in range(d):
            raj = rr[a][j]
            if not raj:
                continue
            for b in range(d):
                if rr[b][l]:
                    out[a][b][c] += v * raj * rr[b][l]
    return d1 * dr * dr, out


def rank3_zero(t):
    return all(not x for p in t for row in p for x in row)


def rank3_eq(s, t):
    return all(
        s[a][b][c] == t[a][b][c]
        for a in range(len(s))
        for b in range(len(s))
        for c in range(len(s))
    )


def is_totally_antisymmetric(t):
    d = len(t)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                v = t[a][b][c]
                if t[b][a][c] != -v or t[a][c][b] != -v:
                    return False
    return True


def wedge3(i, j, k, coeff=1, dim=4):
    """coeff * X_i ^ X_j ^ X_k: full antisymmetrization, coefficient +coeff
    on the (i, j, k) slot."""
    t = [[[rl.ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    base = (i - 1, j - 1, k - 1)
    for perm in permutations(range(3)):
        sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        a, b, c = (base[perm[0]], base[perm[1]], base[perm[2]])
        t[a][b][c] += Fraction(coeff) * sign
    return t


def rank3_add(s, t):
    d = len(s)
    return [
        [[s[a][b][c] + t[a][b][c] for c in range(d)] for b in range(d)]
        for a in range(d)
    ]


def _ad_annihilates(m, f: StructureConstants) -> bool:
    """Xadj_i^T m + m Xadj_i = 0 for all i, for an int matrix m."""
    return not any(any(row) for a in _ad_action_ints(m, f)[1] for row in a)


def ad_invariant_rank3(t, f: StructureConstants) -> bool:
    """The adjoint action extended as a derivation to g^(x)3 annihilates t:

    sum_m (f_im^a t^mbc + f_im^b t^amc + f_im^c t^abm) = 0 for all i, a, b, c.
    """
    d = f.dim
    _, flat = rl.scaled_ints([row for p in t for row in p])
    ti = [flat[a * d : (a + 1) * d] for a in range(d)]
    _, nz = f.scaled_nonzero()
    out = [[[[0] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for (i, m, x, w) in nz:
        o = out[i]
        for u in range(d):
            for v in range(d):
                o[x][u][v] += w * ti[m][u][v]
                o[u][x][v] += w * ti[u][m][v]
                o[u][v][x] += w * ti[u][v][m]
    return not any(any(row) for oi in out for p in oi for row in p)


@dataclass
class RClassification:
    kind: str  # 'triangular' | 'quasitriangular' | 'invalid'
    schouten: list  # [[r_a, r_a]]
    symmetric_invariant: bool
    schouten_antisymmetric: bool = True
    schouten_invariant: bool = True
    violation: str = ""


def classify_r(r: TensorElement, f: StructureConstants) -> RClassification:
    """Triangular / quasi-triangular / invalid with an explicit certificate."""
    # with R = D r as ints, 2 D r_s = R + R^T and 2 D r_a = R - R^T
    dr, ri = rl.scaled_ints(r.r)
    d = r.dim
    sym_ok = _ad_annihilates([[ri[i][j] + ri[j][i] for j in range(d)] for i in range(d)], f)
    # the checks below run on the int tensor scale * [[r_a, r_a]]
    ra = [[ri[i][j] - ri[j][i] for j in range(d)] for i in range(d)]
    scale, si = _schouten_ints(2 * dr, ra, f)
    s = _unscale3(scale, si)
    if not sym_ok:
        return RClassification(
            "invalid", s, False, violation="symmetric part is not ad-invariant"
        )
    if rank3_zero(si):
        return RClassification("triangular", s, True)
    anti = is_totally_antisymmetric(si)
    inv = ad_invariant_rank3(si, f)
    if anti and inv:
        return RClassification("quasitriangular", s, True, anti, inv)
    violation = []
    if not anti:
        violation.append("[[r,r]] is not totally antisymmetric")
    if not inv:
        violation.append("[[r,r]] is not ad-invariant")
    return RClassification("invalid", s, True, anti, inv, "; ".join(violation))

