"""Coboundary analysis: r-matrix solving, Schouten brackets, classification.

The defining linear system (per adjoint conventions in core):

    Yt_i = Xadj_i^T r + r Xadj_i          (Yt_i)^ab = -ft^ab_i

so a tensor r generates the cocommutator ft^ab_i = -(Xadj_i^T r + r Xadj_i)^ab.
"""

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

    def symmetric_part(self):
        d = self.dim
        return TensorElement(
            d,
            [
                [(self.r[i][j] + self.r[j][i]) / 2 for j in range(d)]
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


def _coboundary_residuals(r, f: StructureConstants, fd: StructureConstants):
    """Matrices Xadj_i^T r + r Xadj_i - Yt_i for each i."""
    d = f.dim
    out = []
    for i in range(d):
        x = f.adjoint(i)
        xt = rl.transpose(x)
        lhs = rl.mat_add(rl.mat_mul(xt, r), rl.mat_mul(r, x))
        yt = [[-fd.f[a][b][i] for b in range(d)] for a in range(d)]
        out.append(rl.mat_sub(lhs, yt))
    return out


def generates_cocommutator(r: TensorElement, f, fd) -> bool:
    """Exact membership test: r solves the defining system for (f, fd)."""
    return all(rl.is_zero_matrix(m) for m in _coboundary_residuals(r.r, f, fd))


def solve_coboundary(f: StructureConstants, fd: StructureConstants) -> RSolutionSet:
    """Exact affine solution set of the 4 d^2-equation linear system in r^ij."""
    if f.dim != fd.dim:
        raise InputError("dimension mismatch")
    d = f.dim
    n = d * d
    rows = []
    rhs = []
    for i in range(d):
        x = f.adjoint(i)
        for a in range(d):
            for b in range(d):
                row = [rl.ZERO] * n
                # (Xadj_i^T r)^ab = sum_k x[k][a] r[k][b]
                for k in range(d):
                    if x[k][a]:
                        row[k * d + b] += x[k][a]
                # (r Xadj_i)^ab = sum_j r[a][j] x[j][b]
                for j in range(d):
                    if x[j][b]:
                        row[a * d + j] += x[j][b]
                rows.append(row)
                rhs.append(-fd.f[a][b][i])
    sol = rl.solve_affine(rows, rhs)
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
    if not r.is_antisymmetric():
        raise InputError("Schouten bracket input must be antisymmetric")
    d = r.dim
    rr = r.r
    ff = f.f
    out = [[[rl.ZERO] * d for _ in range(d)] for _ in range(d)]
    nz = f.nonzero()
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
    return out


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


def ad_invariant_symmetric(rs: TensorElement, f: StructureConstants) -> bool:
    """Xadj_i^T rs + rs Xadj_i = 0 for all i."""
    for i in range(f.dim):
        x = f.adjoint(i)
        m = rl.mat_add(rl.mat_mul(rl.transpose(x), rs.r), rl.mat_mul(rs.r, x))
        if not rl.is_zero_matrix(m):
            return False
    return True


def ad_invariant_rank3(t, f: StructureConstants) -> bool:
    """The adjoint action extended as a derivation to g^(x)3 annihilates t."""
    d = f.dim
    for i in range(d):
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    v = rl.ZERO
                    for m in range(d):
                        v += f.f[i][m][a] * t[m][b][c]
                        v += f.f[i][m][b] * t[a][m][c]
                        v += f.f[i][m][c] * t[a][b][m]
                    if v:
                        return False
    return True


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
    rs = r.symmetric_part()
    ra = r.antisymmetric_part()
    sym_ok = ad_invariant_symmetric(rs, f)
    s = schouten(ra, f)
    if not sym_ok:
        return RClassification(
            "invalid", s, False, violation="symmetric part is not ad-invariant"
        )
    if rank3_zero(s):
        return RClassification("triangular", s, True)
    anti = is_totally_antisymmetric(s)
    inv = ad_invariant_rank3(s, f)
    if anti and inv:
        return RClassification("quasitriangular", s, True, anti, inv)
    violation = []
    if not anti:
        violation.append("[[r,r]] is not totally antisymmetric")
    if not inv:
        violation.append("[[r,r]] is not ad-invariant")
    return RClassification("invalid", s, True, anti, inv, "; ".join(violation))


def cocommutator_from_r(r: TensorElement, f: StructureConstants) -> StructureConstants:
    """Dual structure constants ft^ab_i = -(Xadj_i^T r + r Xadj_i)^ab.

    Raises InputError when the result is not antisymmetric, which signals a
    non-ad-invariant symmetric part of r.
    """
    d = f.dim
    fd = StructureConstants(d)
    for i in range(d):
        x = f.adjoint(i)
        m = rl.mat_add(rl.mat_mul(rl.transpose(x), r.r), rl.mat_mul(r.r, x))
        for a in range(d):
            for b in range(d):
                fd.f[a][b][i] = -m[a][b]
    fd._nonzero = None
    if not fd.is_antisymmetric():
        raise InputError(
            "induced cobracket is not antisymmetric: symmetric part of r is "
            "not ad-invariant"
        )
    return fd
