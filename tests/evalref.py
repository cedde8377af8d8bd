"""Reference numeric evaluators for the differential tests.

`walk` evaluates an expression tree node by node in floats, with no
simplification, and `term_loop` runs the per-term loop of
`ClosedFunction.eval`.  `walk` is the oracle of `Expr.to_closed`: the closed
function, evaluated through `cfm_lower`, must agree with the walk wherever
the walk has a value, and may raise only where the walk does too (it may
extend the tree: x1/x1 is 1 at x1 = 0, where the walk divides by zero).
`term_loop` is the oracle of `cfm_lower` itself, which must return the same
floats and raise the same errors.
"""

import cmath
import math

from liebialg.errors import EvalError, InputError

_FUNCS = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "sinh": math.sinh,
          "cosh": math.cosh}


def walk(e, point, params=None):
    op, args = e.op, e.args
    if op == "const":
        return float(args[0])
    if op == "coord":
        return float(point[args[0] - 1])
    if op == "param":
        if params is None or args[0] not in params:
            raise EvalError(f"unbound parameter {args[0]!r}")
        return float(params[args[0]])
    if op == "add":
        # the left fold that `sum` performed before Python 3.12
        out = 0
        for a in args:
            out = out + walk(a, point, params)
        return out
    if op == "mul":
        out = 1.0
        for a in args:
            out *= walk(a, point, params)
        return out
    if op == "div":
        den = walk(args[1], point, params)
        if den == 0.0:
            raise EvalError("division by zero at evaluation point")
        return walk(args[0], point, params) / den
    if op == "pow":
        return walk(args[0], point, params) ** args[1]
    if op == "neg":
        return -walk(args[0], point, params)
    if op in _FUNCS:
        return _FUNCS[op](walk(args[0], point, params))
    raise InputError(f"unknown node {op}")


def term_loop(f, point):
    if not f.is_real():
        raise InputError("function is not real")
    for i in sorted({i for k, _ in f.terms for i in range(4) if k[i] < 0}):
        if point[i] == 0:
            raise EvalError(f"pole at x{i + 1} = 0")
    total = 0j
    scale = 0.0
    for (k, z), c in f.terms.items():
        v = c.to_complex()
        for i in range(4):
            if k[i]:
                v *= point[i] ** k[i]
            if z[i]:
                v *= cmath.exp(z[i].to_complex() * point[i])
        total += v
        scale += abs(v)
    if abs(total.imag) > 1e-12 * (1.0 + scale):
        raise EvalError(f"imaginary residue {total.imag} too large")
    return total.real


def outcome(fn, *args):
    """repr of fn(*args), which tells -0.0 from 0.0 and matches nan to nan,
    or the type and message of the error it raised."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError, EvalError) as exc:
        return f"{type(exc).__name__}: {exc}"
