"""Expression trees over the chart coordinates, with an exact-friendly parser.

Node set: constants, coordinates x1..x4, named parameters, +, -, *, /,
integer powers, exp, sin, cos, sinh, cosh.  A tree is a parse result and is
never rebuilt: it evaluates exactly when it is arithmetic only, and converts
to ClosedFunction at a binding of its parameters whenever it stays inside
that class (quotients and negative powers of single terms only, linear
arguments to exp/trig).  Derivatives and numeric values are taken on the
closed function.
"""

from fractions import Fraction

from .closedfun import (
    ClosedFunction,
    cf_const,
    cf_coord,
    cf_cos,
    cf_cosh,
    cf_exp,
    cf_sin,
    cf_sinh,
)
from .errors import CorpusSyntaxError, EvalError, InputError

_FUNCS = ("exp", "sin", "cos", "sinh", "cosh")


class Expr:
    __slots__ = ("op", "args")

    def __init__(self, op, args):
        self.op = op
        self.args = args

    def __eq__(self, other):
        return isinstance(other, Expr) and self.op == other.op and self.args == other.args

    def __hash__(self):
        return hash((self.op, self.args))

    def __repr__(self):
        return to_text(self)

    def eval_exact(self, params=None):
        """Exact rational value; defined only for arithmetic-only trees."""
        op = self.op
        if op == "const":
            return self.args[0]
        if op == "param":
            if params is None or self.args[0] not in params:
                raise EvalError(f"unbound parameter {self.args[0]!r}")
            return Fraction(params[self.args[0]])
        if op == "add":
            return sum((a.eval_exact(params) for a in self.args), Fraction(0))
        if op == "mul":
            out = Fraction(1)
            for a in self.args:
                out *= a.eval_exact(params)
            return out
        if op == "div":
            den = self.args[1].eval_exact(params)
            if not den:
                raise EvalError("division by zero")
            return self.args[0].eval_exact(params) / den
        if op == "pow":
            return self.args[0].eval_exact(params) ** self.args[1]
        if op == "neg":
            return -self.args[0].eval_exact(params)
        raise InputError(f"node {op!r} has no exact rational value")

    def to_closed(self, binding=None) -> ClosedFunction:
        """The tree as a closed function, each parameter read from the
        binding as the walk reaches it: the walk of `linear_parts` with no
        name read linearly.  InputError for an unbound parameter or a node
        outside the class, EvalError for a denominator that is 0 there."""
        return _parts(self, {}, binding or {})[0]

    # bench/run.py --trace 1 counts the calls of diff and evalf by name, so
    # both stay, as thin views of the closed function
    def diff(self, i) -> ClosedFunction:
        """d/dx_i of this tree as a closed function."""
        return self.to_closed().diff(i)

    def evalf(self, point, params=None):
        """Float value at a 4-point, through the closed function's evaluator."""
        return self.to_closed(params).eval(point)


def _power(base, p):
    """base^p for a closed function base and an int p; a negative p goes
    through the reciprocal of base."""
    if p < 0:
        base, p = base.reciprocal(), -p
    acc = cf_const(1)
    for _ in range(p):
        acc = acc * base
    return acc


def _linear_form(f):
    """Argument of exp/trig, as a closed function: homogeneous linear with
    rational coefficients, returned as {coordinate (1-based): Fraction}."""
    coeffs = {}
    for (k, z), c in f.terms.items():
        if any(zi for zi in z) or min(k) < 0:
            raise InputError("exp/trig argument must be polynomial")
        deg = sum(k)
        if deg == 0:
            if c:
                raise InputError("exp/trig argument must have no constant term")
            continue
        if deg != 1:
            raise InputError("exp/trig argument must be linear")
        if not c.is_real():
            raise InputError("exp/trig argument must be real")
        idx = next(i for i, ki in enumerate(k) if ki)
        coeffs[idx + 1] = c.re
    return coeffs


_CLOSED_FUNCS = {"exp": cf_exp, "sin": cf_sin, "cos": cf_cos, "sinh": cf_sinh, "cosh": cf_cosh}


class _NotLinear(Exception):
    """A node that is not linear in the names `linear_parts` reads."""


def linear_parts(e, names, binding):
    """(c, [v_1, ..., v_n]) with e = c + sum_k v_k names[k], the c and v_k
    closed functions free of the parameters `names`, read off the tree in
    the one walk that converts every other node, `Expr.to_closed`'s, with
    the other parameters read from the binding; each v_k is zero when no
    name occurs.  None when e is not linear in them: a product or power of
    two of them, or one in a denominator or in the argument of exp or a
    trigonometric function."""
    slots = {name: k for k, name in enumerate(names)}
    try:
        c, v = _parts(e, slots, binding)
    except _NotLinear:
        return None
    return c, [ClosedFunction.zero()] * len(names) if v is None else v


def _parts(e, slots, binding):
    """(c, v) for `linear_parts`, with v None when no name occurs in e; a
    bound parameter is the constant of its value."""
    op = e.op
    if op == "const":
        return cf_const(e.args[0]), None
    if op == "coord":
        return cf_coord(e.args[0]), None
    if op == "param":
        name = e.args[0]
        if name in binding:
            return cf_const(Fraction(binding[name])), None
        if name not in slots:
            raise InputError(f"unbound parameter {name!r}")
        v = [ClosedFunction.zero()] * len(slots)
        v[slots[name]] = cf_const(1)
        return ClosedFunction.zero(), v
    if op == "add":
        c, v = ClosedFunction.zero(), None
        for a in e.args:
            ca, va = _parts(a, slots, binding)
            c = c + ca
            if va is not None:
                v = va if v is None else [x + y for x, y in zip(v, va)]
        return c, v
    if op == "neg":
        c, v = _parts(e.args[0], slots, binding)
        return -c, None if v is None else [-x for x in v]
    if op == "mul":
        # (c + v.d) (ca + va.d) is linear while v or va is None
        c, v = cf_const(1), None
        for a in e.args:
            ca, va = _parts(a, slots, binding)
            if va is not None:
                if v is not None:
                    raise _NotLinear
                v = [c * x for x in va]
            elif v is not None:
                v = [x * ca for x in v]
            c = c * ca
        return c, v
    if op == "div":
        c, v = _parts(e.args[0], slots, binding)
        cd, vd = _parts(e.args[1], slots, binding)
        if vd is not None:
            raise _NotLinear
        inv = cd.reciprocal()
        return c * inv, None if v is None else [x * inv for x in v]
    c, v = _parts(e.args[0], slots, binding)
    if v is not None:
        raise _NotLinear
    if op == "pow":
        return _power(c, e.args[1]), None
    if op in _FUNCS:
        return _CLOSED_FUNCS[op](_linear_form(c)), None
    raise InputError(f"unknown node {op}")


# --------------------------------------------------------------------------
# smart constructors
# --------------------------------------------------------------------------


def const(c):
    return Expr("const", (Fraction(c),))


_ZERO = const(0)
_ONE = const(1)


def coord(i):
    return Expr("coord", (i,))


def param(name):
    return Expr("param", (name,))


def add(*args):
    flat = []
    for a in args:
        if a.op == "add":
            flat.extend(a.args)
        elif not (a.op == "const" and not a.args[0]):
            flat.append(a)
    if not flat:
        return _ZERO
    if len(flat) == 1:
        return flat[0]
    return Expr("add", tuple(flat))


def mul(*args):
    flat = []
    for a in args:
        if a.op == "mul":
            flat.extend(a.args)
        else:
            flat.append(a)
    for a in flat:
        if a.op == "const" and not a.args[0]:
            return _ZERO
    flat = [a for a in flat if not (a.op == "const" and a.args[0] == 1)]
    if not flat:
        return _ONE
    if len(flat) == 1:
        return flat[0]
    return Expr("mul", tuple(flat))


def div(num, den):
    if den.op == "const":
        if not den.args[0]:
            raise EvalError("division by constant zero")
        if den.args[0] == 1:
            return num
        if num.op == "const":
            return const(num.args[0] / den.args[0])
    return Expr("div", (num, den))


def neg(a):
    if a.op == "const":
        return const(-a.args[0])
    if a.op == "neg":
        return a.args[0]
    return Expr("neg", (a,))


def powi(base, p):
    if p == 0:
        return _ONE
    if p == 1:
        return base
    return Expr("pow", (base, int(p)))


def func(name, arg):
    if name not in _FUNCS:
        raise InputError(f"unknown function {name!r}")
    return Expr(name, (arg,))


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

_COORDS = {"x1": 1, "x2": 2, "x3": 3, "x4": 4}
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | _DIGITS


class _Tokens:
    def __init__(self, text, line=None, filename=None):
        self.text = text
        self.line = line
        self.filename = filename
        self.pos = 0
        self.toks = []
        self._scan()
        self.idx = 0

    def _err(self, msg, pos):
        raise CorpusSyntaxError(msg, line=self.line, col=pos + 1, filename=self.filename)

    def _scan(self):
        # digits and names are ASCII only: str.isdigit and str.isalnum also
        # accept superscripts, subscripts and other scripts' digits
        t = self.text
        i = 0
        while i < len(t):
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _DIGITS:
                j = i
                while j < len(t) and t[j] in _DIGITS:
                    j += 1
                self.toks.append(("num", int(t[i:j]), i))
                i = j
                continue
            if ch in _NAME_START:
                j = i
                while j < len(t) and t[j] in _NAME_CHARS:
                    j += 1
                self.toks.append(("name", t[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.toks.append((ch, ch, i))
                i += 1
                continue
            self._err(f"unexpected character {ch!r}", i)
        self.toks.append(("end", None, len(t)))

    def peek(self):
        return self.toks[self.idx]

    def next(self):
        tok = self.toks[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            self._err(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


def parse_expr(text, line=None, filename=None):
    """Parse an expression string; identifiers not in x1..x4 or the function
    set become parameter nodes (validated by callers against declarations).
    The recursive descent runs in module-level functions that take the token
    stream, so a parse leaves no reference cycle behind."""
    toks = _Tokens(text, line=line, filename=filename)
    node = _parse_sum(toks)
    toks.expect("end")
    return node


def _parse_sum(toks):
    node = _parse_term(toks)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        rhs = _parse_term(toks)
        node = add(node, rhs if op == "+" else neg(rhs))
    return node


def _parse_term(toks):
    node = _parse_factor(toks)
    while toks.peek()[0] in ("*", "/"):
        op = toks.next()[0]
        rhs = _parse_factor(toks)
        node = mul(node, rhs) if op == "*" else div(node, rhs)
    return node


def _parse_factor(toks):
    if toks.peek()[0] == "-":
        toks.next()
        return neg(_parse_factor(toks))
    if toks.peek()[0] == "+":
        toks.next()
        return _parse_factor(toks)
    node = _parse_atom(toks)
    if toks.peek()[0] == "^":
        toks.next()
        sign = 1
        if toks.peek()[0] == "-":
            toks.next()
            sign = -1
        tok = toks.expect("num")
        node = powi(node, sign * tok[1])
    return node


def _parse_atom(toks):
    kind, val, pos = toks.next()
    if kind == "num":
        return const(val)
    if kind == "(":
        node = _parse_sum(toks)
        toks.expect(")")
        return node
    if kind == "name":
        if val in _FUNCS:
            toks.expect("(")
            arg = _parse_sum(toks)
            toks.expect(")")
            return func(val, arg)
        if val in _COORDS:
            return coord(_COORDS[val])
        return param(val)
    toks._err(f"unexpected token {val!r}", pos)


# --------------------------------------------------------------------------
# printing
# --------------------------------------------------------------------------


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def to_text(e: Expr) -> str:
    """Plain-text form re-parseable by parse_expr."""
    op = e.op
    if op == "const":
        q = e.args[0]
        return _frac_text(q) if q >= 0 else f"(-{_frac_text(-q)})"
    if op == "coord":
        return f"x{e.args[0]}"
    if op == "param":
        return e.args[0]
    if op == "add":
        return "(" + " + ".join(to_text(a) for a in e.args) + ")"
    if op == "mul":
        parts = []
        for a in e.args:
            body = to_text(a)
            if a.op == "div":  # keep a/b grouped when it sits inside a product
                body = f"({body})"
            parts.append(body)
        return "*".join(parts)
    if op == "div":
        return f"{to_text(e.args[0])}/({to_text(e.args[1])})"
    if op == "pow":
        base = to_text(e.args[0])
        if e.args[0].op not in ("const", "coord", "param"):
            base = f"({base})"
        return f"{base}^{e.args[1]}"
    if op == "neg":
        inner = e.args[0]
        body = to_text(inner)
        if inner.op not in ("const", "coord", "param", "add") and not (
            inner.op in _FUNCS
        ):
            body = f"({body})"
        return f"(-{body})"
    return f"{op}({to_text(e.args[0])})"
