"""Coboundary analysis: r-matrix solving, Schouten brackets, classification.

The defining linear system (per adjoint conventions in core):

    Yt_i = Xadj_i^T r + r Xadj_i          (Yt_i)^ab = -ft^ab_i

so a tensor r generates the cocommutator ft^ab_i = -(Xadj_i^T r + r Xadj_i)^ab.

Every check runs on sparse maps: a TensorElement holds r as {(p, b):
Fraction} over its nonzero entries, which scaled to ints is {(p, b): int},
and the action above is the one generator `_ad_terms`.  A rank-3 tensor such as [[r, r]] is {(a, b, c): value} over
its nonzero entries, 0-based, so the zero tensor is the empty map.
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from . import ratlinalg as rl
from .core import StructureConstants
from .errors import InputError
from .ratlinalg import _bump


class TensorElement:
    """Element r = r^ij X_i (x) X_j of g (x) g, stored as the map
    `entries` {(i, j): Fraction} of its nonzero entries, 0-based."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries, dim=4):
        self.dim = dim
        self.entries = entries

    @classmethod
    def zero(cls, dim=4):
        return cls({}, dim)

    @classmethod
    def from_terms(cls, terms, dim=4):
        """terms: iterable of (coeff, i, j, kind) with kind 'tensor' or 'wedge',
        1-based indices.  A wedge contributes X_i(x)X_j - X_j(x)X_i."""
        m = {}
        for coeff, i, j, kind in terms:
            c = Fraction(coeff)
            _bump(m, (i - 1, j - 1), c)
            if kind == "wedge":
                _bump(m, (j - 1, i - 1), -c)
            elif kind != "tensor":
                raise InputError(f"unknown term kind {kind!r}")
        return cls(m, dim)

    @property
    def r(self):
        """r as a dense dim x dim matrix of Fractions, built afresh from the
        map: a view, so changing it leaves r as it is."""
        n = range(self.dim)
        return [[self.entries.get((i, j), rl.ZERO) for j in n] for i in n]

    def antisymmetric_part(self):
        half = {}
        for (i, j), x in self.entries.items():
            _bump(half, (i, j), x / 2)
            _bump(half, (j, i), -x / 2)
        return TensorElement(half, self.dim)

    def is_antisymmetric(self):
        return all(self.entries.get((j, i)) == -x for (i, j), x in self.entries.items())

    def __eq__(self, other):
        return isinstance(other, TensorElement) and (self.dim, self.entries) == (other.dim, other.entries)

    def __repr__(self):
        terms = [f"{x}*X{i+1}(x)X{j+1}" for (i, j), x in sorted(self.entries.items())]
        return "TensorElement(" + (" + ".join(terms) or "0") + ")"


@dataclass
class RSolutionSet:
    particular: TensorElement
    kernel_basis: list
    empty: bool


def _ad_terms(m, f: StructureConstants):
    """The terms of d1 (Xadj_i^T m + m Xadj_i) for each i, with d1 the scale
    of f's integer form and m a sparse int matrix {(p, c): int}: each is
    ((i, a, b), (p, c), w), entry (i, a, b) gaining w from the entry m^pc.
    Terms at one entry are not summed."""
    rows, cols = defaultdict(list), defaultdict(list)
    for (p, c), x in m.items():
        rows[p].append((c, x))
        cols[c].append((p, x))
    for (i, p, q, v) in f.scaled_nonzero()[1]:
        # d1 (Xadj_i)_p^q = -v enters (Xadj_i^T m)^qc with m^pc and
        # (m Xadj_i)^cq with m^cp
        for c, x in rows[p]:
            yield (i, q, c), (p, c), -v * x
        for c, x in cols[p]:
            yield (i, c, q), (c, p), -v * x


def generates_cocommutator(r: TensorElement, f, fd) -> bool:
    """Exact membership test: r solves the defining system for (f, fd)."""
    ri, dr = rl._int_map(r.entries.items())
    d1, d2, gnz = f.scaled_nonzero()[0], *fd.scaled_nonzero()
    # the residual Xadj_i^T r + r Xadj_i - Yt_i, times d1 d2 dr
    acc = {}
    for key, _, w in _ad_terms(ri, f):
        _bump(acc, key, w * d2)
    for (a, b, i, w) in gnz:
        _bump(acc, (i, a, b), w * d1 * dr)  # -Yt_i^ab = ft^ab_i
    return not acc


def solve_coboundary(f: StructureConstants, fd: StructureConstants) -> RSolutionSet:
    """Exact affine solution set of the 4 d^2-equation linear system in r^ij."""
    if f.dim != fd.dim:
        raise InputError("dimension mismatch")
    d = f.dim
    n = d * d
    # equation (i, a, b) is row i n + a d + b, times d1 d2 so that every
    # coefficient is an int; scaling an equation leaves the solutions as
    # they are.  Column p d + c is the action on the unit tensor E_pc: the
    # terms of the all-ones m that come from its entry (p, c)
    d1, d2, gnz = f.scaled_nonzero()[0], *fd.scaled_nonzero()
    # only the equations that a nonzero entry touches, by index, each the
    # sparse row {column: int} of its nonzero coefficients, with the
    # right-hand side in column n
    eqs = defaultdict(dict)
    ones = {(p, c): 1 for p in range(d) for c in range(d)}
    for (i, a, b), (p, c), w in _ad_terms(ones, f):
        _bump(eqs[i * n + a * d + b], p * d + c, w * d2)
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
        return TensorElement({divmod(k, d): x for k, x in enumerate(v) if x}, d)

    return RSolutionSet(unflatten(part), [unflatten(v) for v in null], False)


def schouten(r: TensorElement, f: StructureConstants):
    """[[r, r]] for antisymmetric r, expanded over structure constants:

    S^abc = f_ik^a r^ib r^kc + f_jk^b r^aj r^kc + f_jl^c r^aj r^bl

    as the map {(a, b, c): Fraction} over its nonzero entries, 0-based.
    """
    ri, dr = rl._int_map(r.entries.items())
    s = f.scaled_nonzero()[0] * dr * dr
    return {key: Fraction(w, s) for key, w in _schouten_ints(ri, f).items()}


def _schouten_ints(ri, f: StructureConstants):
    """d1 [[m, m]] as a map of ints, with d1 the scale of f's integer form,
    for an antisymmetric sparse int matrix m {(p, q): int}."""
    if any(ri.get((q, p)) != -x for (p, q), x in ri.items()):
        raise InputError("Schouten bracket input must be antisymmetric")
    rows = defaultdict(list)
    for (p, q), x in ri.items():
        rows[p].append((q, x))
    out = {}
    # with m^aj = -m^ja the three sums of `schouten` are one product
    # f_jk^x m^jp m^kq, entering S at (x, p, q) and (p, q, x) and, with
    # its sign changed, at (p, x, q)
    for (j, k, x, v) in f.scaled_nonzero()[1]:
        for p, a in rows[j]:
            for q, b in rows[k]:
                w = v * a * b
                _bump(out, (x, p, q), w)
                _bump(out, (p, q, x), w)
                _bump(out, (p, x, q), -w)
    return out


def is_totally_antisymmetric(t):
    """Whether each swap of two slots changes the sign of the rank-3 map t.
    The nonzero entries suffice: a zero entry with a nonzero partner fails
    at that partner."""
    return all(
        t.get((b, a, c)) == -v and t.get((a, c, b)) == -v for (a, b, c), v in t.items()
    )


def wedge3(i, j, k, coeff=1):
    """coeff * X_i ^ X_j ^ X_k, 1-based, as a rank-3 map: +coeff at (i, j, k)
    and its cyclic shifts, -coeff at the other three orders, 0-based; six
    entries for three distinct indices and a nonzero coeff, none otherwise."""
    c = Fraction(coeff)
    base = (i - 1, j - 1, k - 1)
    t = {}
    for perm in permutations(range(3)):
        sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        _bump(t, tuple(base[s] for s in perm), sign * c)
    return t


def ad_invariant_rank3(t, f: StructureConstants) -> bool:
    """The adjoint action extended as a derivation to g^(x)3 annihilates the
    rank-3 map t:

    sum_m (f_im^a t^mbc + f_im^b t^amc + f_im^c t^abm) = 0 for all i, a, b, c.
    """
    by_slot = [defaultdict(list) for _ in range(3)]
    for key, v in t.items():
        for s in range(3):
            by_slot[s][key[s]].append((key, v))
    acc = {}
    for (i, m, x, w) in f.scaled_nonzero()[1]:
        for s in range(3):
            for key, v in by_slot[s][m]:
                _bump(acc, (i, *key[:s], x, *key[s + 1 :]), w * v)
    return not acc


@dataclass
class RClassification:
    kind: str  # 'triangular' | 'quasitriangular' | 'invalid'
    schouten: dict  # [[r_a, r_a]] as a rank-3 map
    symmetric_invariant: bool
    schouten_antisymmetric: bool = True
    schouten_invariant: bool = True
    violation: str = ""


def classify_r(r: TensorElement, f: StructureConstants) -> RClassification:
    """Triangular / quasi-triangular / invalid with an explicit certificate;
    `schouten` is [[r_a, r_a]] of the antisymmetric part as the map of
    `schouten`."""
    # with R = D r as ints, 2 D r_s = R + R^T and 2 D r_a = R - R^T
    ri, dr = rl._int_map(r.entries.items())
    sym, ra = {}, {}
    for (p, q), x in ri.items():
        for key, sign in (((p, q), 1), ((q, p), -1)):
            _bump(sym, key, x)
            _bump(ra, key, sign * x)
    acc = {}
    for key, _, w in _ad_terms(sym, f):
        _bump(acc, key, w)
    sym_ok = not acc
    # the checks below run on the int map scale * [[r_a, r_a]]
    si = _schouten_ints(ra, f)
    scale = f.scaled_nonzero()[0] * 4 * dr * dr
    s = {key: Fraction(w, scale) for key, w in si.items()}
    if not sym_ok:
        return RClassification(
            "invalid", s, False, violation="symmetric part is not ad-invariant"
        )
    if not si:
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
