"""Isomorphism / automorphism / bialgebra-equivalence witnesses and
inequivalence invariants.

Verifiers check a given 4x4 witness matrix exactly over the rationals.
:func:`invariants` refutes an equivalence exactly: pairs with different
invariants are inequivalent, while equal invariants decide nothing.
"""

from . import ratlinalg as rl
from .core import StructureConstants
from .errors import InputError


def _require_invertible(m):
    if not rl.det(m):
        raise InputError("witness matrix is singular")


def _maps_dual(c, src: StructureConstants, dst: StructureConstants) -> bool:
    """C^i_k C^j_l fsrc^kl_m = fdst^ij_n C^n_m for all i, j, m."""
    d = src.dim
    for i in range(d):
        for j in range(d):
            for m in range(d):
                lhs = rl.ZERO
                for k in range(d):
                    cik = c[i][k]
                    if not cik:
                        continue
                    for l in range(d):
                        if c[j][l] and src.f[k][l][m]:
                            lhs += cik * c[j][l] * src.f[k][l][m]
                rhs = rl.ZERO
                for n in range(d):
                    if dst.f[i][j][n] and c[n][m]:
                        rhs += dst.f[i][j][n] * c[n][m]
                if lhs != rhs:
                    return False
    return True


def verify_isomorphism(c, fd: StructureConstants, target: StructureConstants) -> bool:
    """Exact check that X'^i = C^i_j X^j carries fd onto target."""
    _require_invertible(c)
    return _maps_dual(c, fd, target)


def verify_automorphism(a, f: StructureConstants) -> bool:
    """A_i^k A_j^l f_kl^m = f_ij^n A_n^m with the A(X_i) = A_i^j X_j reading."""
    _require_invertible(a)
    return _maps_dual(a, f, f)


def verify_bialgebra_equivalence(
    t, f: StructureConstants, fd1: StructureConstants, fd2: StructureConstants
) -> bool:
    """T^T must be an automorphism of f and T must map fd1 onto fd2."""
    _require_invertible(t)
    return verify_automorphism(rl.transpose(t), f) and _maps_dual(t, fd1, fd2)


# --------------------------------------------------------------------------
# inequivalence invariants
# --------------------------------------------------------------------------


def _basis(vectors):
    """Reduced basis rows of the span of the vectors."""
    red, pivots = rl.rref(vectors)
    return red[: len(pivots)]


def _bracket(sc: StructureConstants, us, vs):
    """Basis of [U, V], with U and V spanned by the rows us and vs."""
    out = []
    for u in us:
        for v in vs:
            w = [rl.ZERO] * sc.dim
            for i, j, k, val in sc.nonzero():
                if u[i] and v[j]:
                    w[k] += u[i] * v[j] * val
            out.append(w)
    return _basis(out)


def _characteristic_ideals(sc: StructureConstants):
    """[g,g], [g,[g,g]] and the centre z(g): every automorphism of g maps
    each of them onto itself."""
    d = sc.dim
    g = rl.identity(d)
    derived = _bracket(sc, g, g)
    centre = rl.nullspace(
        [[sc.f[i][j][k] for i in range(d)] for j in range(d) for k in range(d)]
    )
    return [derived, _bracket(sc, g, derived), centre]


def _annihilator_dims(sc: StructureConstants, dual: StructureConstants):
    """For each characteristic ideal I of sc and A = ann(I) in the dual space:
    dim A, dim [dual, A], dim [A, A] and dim (A n [dual, dual])."""
    d = dual.dim
    whole = rl.identity(d)
    derived = _bracket(dual, whole, whole)
    out = []
    for ideal in _characteristic_ideals(sc):
        ann = rl.nullspace(ideal) if ideal else whole
        out += [
            len(ann),
            len(_bracket(dual, whole, ann)),
            len(_bracket(dual, ann, ann)),
            len(ann) + len(derived) - len(_basis(ann + derived)),
        ]
    return out


def invariants(f: StructureConstants, fd: StructureConstants) -> tuple:
    """Exact invariants of the bialgebra (f, fd) under equivalence.

    An equivalence is an automorphism phi of f whose dual map phi* is an
    isomorphism between the two dual brackets.  phi* maps the annihilator of
    each characteristic ideal of f onto itself.  phi* also carries each
    characteristic ideal of one dual bracket onto the same ideal of the
    other, so phi carries their annihilators onto each other.  Both halves
    are kept: different tuples certify that two pairs are inequivalent.
    """
    return tuple(_annihilator_dims(f, fd) + _annihilator_dims(fd, f))
