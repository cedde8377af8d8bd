"""Canonical text rendering of real closed functions.

The output re-parses (through exprtree.parse_expr / to_closed) to the exact
same term map: complex-exponential conjugate pairs are folded back into
cos/sin with rational coefficients, so the round trip is bit-exact.

Coefficients and rates are read from the int triples (a, b, d) of their
CRats: a rational here is a pair (n, d) of ints with d > 0, reduced only
when it is written out.
"""

from math import gcd

from .errors import InputError


def _ratio(n, d) -> str:
    """n/d in lowest terms, for ints n >= 0 and d > 0."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def _signed(out, n, body):
    """Append body to `out` with the sign of n in front."""
    if not out:
        out.append(body if n > 0 else f"-{body}")
    else:
        out.append(f"+ {body}" if n > 0 else f"- {body}")


def _linear_text(coeffs) -> str:
    """sum coeffs[i] * x_i as text; coeffs lists (0-based index, n, d) for
    the nonzero coefficients n/d, by index."""
    parts = []
    for i, n, d in coeffs:
        mag = abs(n)
        _signed(parts, n, f"x{i+1}" if mag == d else f"{_ratio(mag, d)}*x{i+1}")
    return " ".join(parts)


def _mono_factors(k):
    out = []
    for i, p in enumerate(k):
        if p == 1:
            out.append(f"x{i+1}")
        elif p:
            out.append(f"x{i+1}^{p}")
    return out


def _sorted_terms(terms):
    """The items of a term map by monomial, then by the rates' real and
    imaginary parts as rationals; one term needs no sort."""
    if len(terms) < 2:
        return terms.items()
    reim = {}

    def key(item):
        (k, z), _ = item
        return (k, tuple(reim.get(q) or reim.setdefault(q, (q.re, q.im)) for q in z))

    return sorted(terms.items(), key=key)


def render_closed_function(f) -> str:
    """Canonical representation of a real ClosedFunction."""
    if not f.terms:
        return "0"
    if not f.is_real():
        raise InputError("only real closed functions have a text form")
    pieces = []  # (numerator, denominator, [factor strings])
    seen = set()
    for (k, z), c in _sorted_terms(f.terms):
        if (k, z) in seen:
            continue
        alpha = [(i, a, d) for i, (a, _, d) in enumerate(z) if a]
        beta = [(i, b, d) for i, (_, b, d) in enumerate(z) if b]
        factors = _mono_factors(k)
        if alpha:
            factors.append(f"exp({_linear_text(alpha)})")
        ca, cb, cd = c
        if not beta:
            if cb:
                raise InputError("real function has a stray imaginary coefficient")
            pieces.append((ca, cd, factors))
            seen.add((k, z))
            continue
        # fold the conjugate pair into cos/sin; keep the representative with
        # positive leading imaginary rate
        if beta[0][1] < 0:
            continue
        zbar = tuple(q.conjugate() for q in z)
        cbar = f.terms.get((k, zbar))
        if cbar is None or cbar != c.conjugate():
            raise InputError("real function lacks a conjugate term")
        seen.add((k, z))
        seen.add((k, zbar))
        arg = _linear_text(beta)
        # c = (ca + cb i)/cd gives 2 Re c cos + (-2 Im c) sin
        if ca:
            pieces.append((2 * ca, cd, factors + [f"cos({arg})"]))
        if cb:
            pieces.append((-2 * cb, cd, factors + [f"sin({arg})"]))
    out = []
    for n, d, factors in pieces:
        mag = abs(n)
        if factors:
            body = "*".join(factors) if mag == d else "*".join([_ratio(mag, d)] + factors)
        else:
            body = _ratio(mag, d)
        _signed(out, n, body)
    return " ".join(out) if out else "0"
