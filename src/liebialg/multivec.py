"""Sparse multivector fields on the 4-coordinate chart and their
Schouten-Nijenhuis brackets.

A vector field V is the map {a: V^a} of its nonzero components, and a
bivector P the map {(a, b): P^ab, a < b} of its nonzero components above the
diagonal (P^ba = -P^ab); indices are 0-based and components are closed
functions.  The brackets are the coordinate formulas of the
Schouten-Nijenhuis bracket (A. Lichnerowicz, J. Differential Geom. 12, 1977;
I. Vaisman, Lectures on the Geometry of Poisson Manifolds, 1994), summed
over repeated indices:

    [V, W]^k    = V^l d_l W^k - W^l d_l V^k
    (L_V P)^ab  = V^c d_c P^ab - P^cb d_c V^a - P^ac d_c V^b
    J^ijk       = P^il d_l P^jk + P^jl d_l P^ki + P^kl d_l P^ij

J is the Jacobiator of the bracket {x_i, x_j} = P^ij, and [P, P] = 2 J up to
the sign convention, so P is Poisson iff J = 0.  The partials come from
`ClosedFunction.diff`, which computes each once per function and coordinate,
so the derivative jet of a field is computed once and reused by every bracket
the field enters.  Each component is one sum of products
(`cf_sum_products`), and zero components and zero partials are skipped.
"""

from .closedfun import NCOORD, cf_sum_products


def vector(row):
    """The sparse form {a: V^a} of a row of components."""
    return {a: f for a, f in enumerate(row) if f}


def _rows(p):
    """{c: [(b, f, s)]} with P^cb = s f, for every nonzero P^cb."""
    rows = {}
    for (a, b), f in p.items():
        rows.setdefault(a, []).append((b, f, 1))
        rows.setdefault(b, []).append((a, f, -1))
    return rows


def _along(v, f, s=1):
    """The products of s V^l d_l f, over the l where both are nonzero."""
    out = []
    for l, vl in v.items():
        d = f.diff(l + 1)
        if d:
            out.append((vl, d, s))
    return out


def bracket(v, w, plus=()):
    """[V, W] + sum of c U over `plus`, pairs (c, U) of a rational and a
    vector field, as a vector field."""
    keys = set(v) | set(w)
    for _, u in plus:
        keys.update(u)
    out = {}
    for k in sorted(keys):
        prods = []
        if k in w:
            prods += _along(v, w[k])
        if k in v:
            prods += _along(w, v[k], -1)
        f = cf_sum_products(prods, [(c, u[k]) for c, u in plus if k in u])
        if f:
            out[k] = f
    return out


def lie_derivative(v, p):
    """L_V P = [V, P] as a bivector."""
    rows = _rows(p)
    out = {}
    for a in range(NCOORD):
        for b in range(a + 1, NCOORD):
            prods = _along(v, p[(a, b)]) if (a, b) in p else []
            if b in v:
                # - P^ac d_c V^b
                prods += [(f, v[b].diff(c + 1), -s) for c, f, s in rows.get(a, ())]
            if a in v:
                # - P^cb d_c V^a = + P^bc d_c V^a
                prods += [(f, v[a].diff(c + 1), s) for c, f, s in rows.get(b, ())]
            g = cf_sum_products(prods)
            if g:
                out[(a, b)] = g
    return out


def jacobiator(p):
    """{(i, j, k): J^ijk} over i < j < k where J^ijk is not zero."""
    rows = _rows(p)
    out = {}
    for i in range(NCOORD):
        for j in range(i + 1, NCOORD):
            for k in range(j + 1, NCOORD):
                prods = []
                # P^il d_l P^jk + P^jl d_l P^ki + P^kl d_l P^ij, P^ki = -P^ik
                for x, ab, s in ((i, (j, k), 1), (j, (i, k), -1), (k, (i, j), 1)):
                    f = p.get(ab)
                    if f is not None:
                        for l, g, t in rows.get(x, ()):
                            d = f.diff(l + 1)
                            if d:
                                prods.append((g, d, s * t))
                jac = cf_sum_products(prods)
                if jac:
                    out[(i, j, k)] = jac
    return out


def linearization(p):
    """{(a, b, c): d_c P^ab at the origin} over a < b where it is not zero:
    the linear part of P at the origin, read off the partials that
    `jacobiator` caches."""
    out = {}
    for (a, b), f in p.items():
        for c in range(NCOORD):
            v = f.diff(c + 1).eval_at_zero()
            if v:
                out[(a, b, c)] = v
    return out


def jet(f):
    """The partials [d_1 f, ..., d_4 f] of a function."""
    return [f.diff(i) for i in range(1, NCOORD + 1)]


def interior(p, df):
    """The vector field X^j = P^ij d_i f from the jet df of f, so that
    X(g) = {f, g}."""
    rows = _rows(p)
    out = {}
    for j in sorted(rows):
        # P^ij = -P^ji
        x = cf_sum_products([(df[i], g, -s) for i, g, s in rows[j]])
        if x:
            out[j] = x
    return out


def apply(v, dg):
    """V(g) = V^l d_l g from the jet dg of g."""
    return cf_sum_products([(vl, dg[l], 1) for l, vl in v.items()])
