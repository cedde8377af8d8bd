"""Machine-readable table corpus: format, parser, and parameter instantiation.

Line-oriented UTF-8 format.  A block opens with a header keyword at the start
of a line and owns the indented/keyword payload lines that follow:

    algebra NAME [params p1 p2 ...]
      bracket i j -> COEFF k [, COEFF k ...]
      constraint EXPR != EXPR
    bialgebra G DUAL
    rmatrix G DUAL
      r COEFF i wedge|tensor j [; ...]
      rfree p1 [p2 ...]
      schouten zero | schouten COEFF i j k
    poisson G DUAL sklyanin|pi
      pb i j = EXPR
    frame NAME
      xl i = EXPR in d1..d4
      xr i = EXPR in d1..d4
    membership table8|table9
      pair G DUAL
    fixture NAME
      ref KEY = NAME / expr KEY = EXPR / matrix KEY = a b c d ; ... / val KEY = EXPR

Shared payload lines: `source TEXT` (table/row anchor for reports),
`status flagged`, `note TEXT`.  `#` starts a comment.  Expressions follow the
grammar of exprtree.parse_expr (rationals, x1..x4, declared parameters,
+ - * / ^, exp/sin/cos/sinh/cosh, parentheses).  An algebra's constraints
and bracket coefficients name only the parameters its header declares.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .core import StructureConstants
from .errors import CorpusSyntaxError, EvalError, InputError
from .exprtree import Expr, linear_parts, parse_expr, to_text
from .rmatrix import TensorElement

DEFAULT_GRID = (Fraction(-2), Fraction(-1, 2), Fraction(1, 3), Fraction(2))
RFREE_GRID = (Fraction(0), Fraction(1))
_D_NAMES = ("d1", "d2", "d3", "d4")  # the coordinate fields a frame line is linear in


@dataclass
class Constraint:
    lhs: Expr
    rhs: Expr

    def ok(self, binding):
        """Whether the binding satisfies lhs != rhs; a side with no value at
        the binding (a zero denominator) rejects it."""
        try:
            return self.lhs.eval_exact(binding) != self.rhs.eval_exact(binding)
        except EvalError:
            return False

    def text(self):
        return f"{to_text(self.lhs)} != {to_text(self.rhs)}"


@dataclass
class AlgebraEntry:
    name: str
    params: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    brackets: dict = field(default_factory=dict)  # (i, j) -> [(Expr, k)]
    source: str = ""
    status: str = ""
    note: str = ""
    kind: str = "algebra"

    def structure_constants(self, binding=None) -> StructureConstants:
        binding = binding or {}
        missing = [p for p in self.params if p not in binding]
        if missing:
            raise InputError(f"{self.name}: unbound parameters {missing}")
        for c in self.constraints:
            if not c.ok(binding):
                raise InputError(
                    f"{self.name}: binding violates constraint {c.text()}"
                )
        table = {}
        for (i, j), terms in self.brackets.items():
            table[(i, j)] = [(e.eval_exact(binding), k) for (e, k) in terms]
        return StructureConstants.from_brackets(4, table)


@dataclass
class BialgebraEntry:
    g: str
    dual: str
    source: str = ""
    status: str = ""
    note: str = ""
    kind: str = "bialgebra"

    @property
    def name(self):
        return f"({self.g}, {self.dual})"


@dataclass
class RMatrixEntry:
    g: str
    dual: str
    terms: list = field(default_factory=list)  # (Expr, i, j, kind)
    rfree: list = field(default_factory=list)
    schouten_terms: list = None  # None -> zero; else [(Expr, i, j, k)]
    source: str = ""
    status: str = ""
    note: str = ""
    kind: str = "rmatrix"

    @property
    def name(self):
        return f"r({self.g}, {self.dual})"

    def tensor(self, binding) -> TensorElement:
        return TensorElement.from_terms(
            [(e.eval_exact(binding), i, j, knd) for (e, i, j, knd) in self.terms]
        )

    def expected_schouten(self, binding):
        from .rmatrix import rank3_add, wedge3

        if not self.schouten_terms:
            return None
        acc = None
        for (e, i, j, k) in self.schouten_terms:
            t = wedge3(i, j, k, e.eval_exact(binding))
            acc = t if acc is None else rank3_add(acc, t)
        return acc


@dataclass
class PoissonEntry:
    g: str
    dual: str
    method: str  # 'sklyanin' | 'pi'
    brackets: dict = field(default_factory=dict)  # (i, j) -> Expr
    source: str = ""
    status: str = ""
    note: str = ""
    kind: str = "poisson"

    @property
    def name(self):
        return f"pb({self.g}, {self.dual})[{self.method}]"

    def closed_matrix(self, binding):
        """Printed brackets as an antisymmetric 4x4 matrix of ClosedFunction."""
        from .closedfun import ClosedFunction

        m = [[ClosedFunction.zero() for _ in range(4)] for _ in range(4)]
        for (i, j), e in self.brackets.items():
            cf = e.subs_params(binding).to_closed()
            m[i - 1][j - 1] = m[i - 1][j - 1] + cf
            m[j - 1][i - 1] = m[j - 1][i - 1] - cf
        return m


@dataclass
class FrameEntry:
    name: str
    xl: dict = field(default_factory=dict)  # i -> Expr over x's and d1..d4
    xr: dict = field(default_factory=dict)
    source: str = ""
    status: str = ""
    note: str = ""
    kind: str = "frame"

    def components(self, side, i, binding):
        """Field i of side 'L'/'R' as 4 ClosedFunction components: the
        binding substituted once, then the coefficients of d1..d4 read in
        one walk (`exprtree.linear_parts`).  InputError names the frame and
        the field when the field is not linear in d1..d4 or has a term free
        of them."""
        table = self.xl if side == "L" else self.xr
        parts = linear_parts(table[i].subs_params(binding), _D_NAMES)
        where = f"frame {self.name}: x{side.lower()} {i}"
        if parts is None:
            raise InputError(f"{where} is not linear in d1..d4")
        free, comps = parts
        if free:
            raise InputError(f"{where} has a term free of d1..d4")
        return comps


@dataclass
class MembershipEntry:
    table: str  # 'table8' | 'table9'
    pairs: list = field(default_factory=list)
    source: str = ""
    status: str = ""
    note: str = ""
    kind: str = "membership"

    @property
    def name(self):
        return self.table


@dataclass
class FixtureEntry:
    name: str
    refs: dict = field(default_factory=dict)
    exprs: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)
    vals: dict = field(default_factory=dict)
    source: str = ""
    status: str = ""
    note: str = ""
    kind: str = "fixture"


_BLOCK_KEYWORDS = (
    "algebra",
    "bialgebra",
    "rmatrix",
    "poisson",
    "frame",
    "membership",
    "fixture",
)


def parse(text, filename="<corpus>"):
    """Parse corpus text into a list of entries with location diagnostics.
    Equal expression texts in one file share one tree: a tree is never
    changed after its parse, and only a parse that succeeds is kept, so a
    text that fails is parsed again where it recurs and every diagnostic
    names its own line."""
    entries = []
    current = None
    trees = {}

    def err(msg, lineno, col=None):
        raise CorpusSyntaxError(msg, line=lineno, col=col, filename=filename)

    def expr(body, lineno):
        tree = trees.get(body)
        if tree is None:
            tree = trees[body] = parse_expr(body, line=lineno, filename=filename)
        return tree

    def close():
        nonlocal current
        if current is not None:
            entries.append(current)
            current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head in _BLOCK_KEYWORDS:
            close()
            current = _open_block(head, words, err, lineno)
            continue
        if current is None:
            err(f"payload line outside any block: {head!r}", lineno)
        try:
            _payload_line(current, head, words, line, err, lineno, expr)
        except EvalError as ex:  # a constant division by zero in the text
            err(str(ex), lineno)
    close()
    return entries


def _open_block(head, words, err, lineno):
    if head == "algebra":
        if len(words) < 2:
            err("algebra needs a name", lineno)
        params = []
        if len(words) > 2:
            if words[2] != "params":
                err(f"expected 'params', found {words[2]!r}", lineno)
            params = words[3:]
        return AlgebraEntry(words[1], params=params)
    if head == "bialgebra":
        if len(words) != 3:
            err("bialgebra needs exactly two names", lineno)
        return BialgebraEntry(words[1], words[2])
    if head == "rmatrix":
        if len(words) != 3:
            err("rmatrix needs exactly two names", lineno)
        return RMatrixEntry(words[1], words[2])
    if head == "poisson":
        if len(words) != 4 or words[3] not in ("sklyanin", "pi"):
            err("poisson needs two names and a method (sklyanin|pi)", lineno)
        return PoissonEntry(words[1], words[2], words[3])
    if head == "frame":
        if len(words) != 2:
            err("frame needs a name", lineno)
        return FrameEntry(words[1])
    if head == "membership":
        if len(words) != 2 or words[1] not in ("table8", "table9"):
            err("membership needs table8 or table9", lineno)
        return MembershipEntry(words[1])
    if len(words) != 2:
        err("fixture needs a name", lineno)
    return FixtureEntry(words[1])


def _payload_line(entry, head, words, line, err, lineno, expr):
    if head == "source":
        entry.source = line[len("source") :].strip()
        return
    if head == "status":
        if len(words) != 2 or words[1] != "flagged":
            err("status must be 'flagged'", lineno)
        entry.status = "flagged"
        return
    if head == "note":
        entry.note = line[len("note") :].strip()
        return
    if head == "constraint" and entry.kind == "algebra":
        body = line[len("constraint") :]
        if "!=" not in body:
            err("constraint must be of the form EXPR != EXPR", lineno)
        lhs, rhs = body.split("!=", 1)
        entry.constraints.append(
            Constraint(
                _over_params(expr(lhs, lineno), entry, err, lineno),
                _over_params(expr(rhs, lineno), entry, err, lineno),
            )
        )
        return
    if head == "bracket" and entry.kind == "algebra":
        body = line[len("bracket") :].strip()
        if "->" not in body:
            err("bracket must be 'bracket i j -> coeff k [, coeff k]'", lineno)
        left, right = body.split("->", 1)
        lw = left.split()
        if len(lw) != 2:
            err("bracket needs two basis indices", lineno)
        i, j = _index(lw[0], err, lineno), _index(lw[1], err, lineno)
        terms = []
        for chunk in right.split(","):
            cw = chunk.strip().rsplit(maxsplit=1)
            if len(cw) != 2:
                err(f"bad bracket term {chunk.strip()!r}", lineno)
            terms.append(
                (
                    _over_params(expr(cw[0], lineno), entry, err, lineno),
                    _index(cw[1], err, lineno),
                )
            )
        key = (i, j)
        if key in entry.brackets:
            err(f"duplicate bracket {key}", lineno)
        entry.brackets[key] = terms
        return
    if head == "r" and entry.kind == "rmatrix":
        body = line[1:].strip()
        for chunk in body.split(";"):
            cw = chunk.strip().rsplit(maxsplit=3)
            if len(cw) != 4 or cw[2] not in ("wedge", "tensor"):
                err(f"bad r term {chunk.strip()!r}", lineno)
            entry.terms.append(
                (
                    expr(cw[0], lineno),
                    _index(cw[1], err, lineno),
                    _index(cw[3], err, lineno),
                    cw[2],
                )
            )
        return
    if head == "rfree" and entry.kind == "rmatrix":
        entry.rfree.extend(words[1:])
        return
    if head == "schouten" and entry.kind == "rmatrix":
        if words[1:] == ["zero"]:
            entry.schouten_terms = None
            return
        body = line[len("schouten") :].strip()
        entry.schouten_terms = entry.schouten_terms or []
        for chunk in body.split(";"):
            cw = chunk.strip().rsplit(maxsplit=3)
            if len(cw) != 4:
                err(f"bad schouten term {chunk.strip()!r}", lineno)
            entry.schouten_terms.append(
                (
                    expr(cw[0], lineno),
                    _index(cw[1], err, lineno),
                    _index(cw[2], err, lineno),
                    _index(cw[3], err, lineno),
                )
            )
        return
    if head == "pb" and entry.kind == "poisson":
        body = line[len("pb") :].strip()
        if "=" not in body:
            err("pb must be 'pb i j = EXPR'", lineno)
        left, right = body.split("=", 1)
        lw = left.split()
        if len(lw) != 2:
            err("pb needs two coordinate indices", lineno)
        key = (_index(lw[0], err, lineno), _index(lw[1], err, lineno))
        if key in entry.brackets:
            err(f"duplicate pb {key}", lineno)
        entry.brackets[key] = expr(right, lineno)
        return
    if head in ("xl", "xr") and entry.kind == "frame":
        body = line[2:].strip()
        if "=" not in body:
            err(f"{head} must be '{head} i = EXPR'", lineno)
        left, right = body.split("=", 1)
        i = _index(left.strip(), err, lineno)
        table = entry.xl if head == "xl" else entry.xr
        if i in table:
            err(f"duplicate {head} {i}", lineno)
        table[i] = expr(right, lineno)
        return
    if head == "pair" and entry.kind == "membership":
        if len(words) != 3:
            err("pair needs two names", lineno)
        entry.pairs.append((words[1], words[2]))
        return
    if entry.kind == "fixture" and head in ("ref", "expr", "matrix", "val"):
        body = line[len(head) :].strip()
        if "=" not in body:
            err(f"{head} must be '{head} KEY = ...'", lineno)
        key, rhs = (s.strip() for s in body.split("=", 1))
        if head == "ref":
            entry.refs[key] = rhs
        elif head == "expr":
            entry.exprs[key] = expr(rhs, lineno)
        elif head == "val":
            entry.vals[key] = expr(rhs, lineno)
        else:
            rows = []
            for rtext in rhs.split(";"):
                rows.append(
                    [
                        expr(cell, lineno)
                        for cell in rtext.split()
                    ]
                )
            if any(len(r) != len(rows[0]) for r in rows):
                err("matrix rows have unequal lengths", lineno)
            entry.matrices[key] = rows
        return
    err(f"unknown payload keyword {head!r} in {entry.kind} block", lineno)


def _index(tok, err, lineno):
    # ASCII digits only: int() also reads other scripts' digits, signs and "1_0"
    if not (tok.isascii() and tok.isdigit()):
        err(f"expected a basis index, found {tok!r}", lineno)
    v = int(tok)
    if not 1 <= v <= 8:
        err(f"basis index {v} out of range", lineno)
    return v


def _names(e):
    """The parameters and coordinates that the tree e names."""
    if e.op == "param":
        yield e.args[0]
    elif e.op == "coord":
        yield f"x{e.args[0]}"
    else:
        for a in e.args:
            if isinstance(a, Expr):
                yield from _names(a)


def _over_params(e, entry, err, lineno):
    """e, when it names only the algebra's declared parameters: a constraint
    or bracket coefficient over anything else would have no value at any
    binding."""
    stray = sorted(set(_names(e)) - set(entry.params))
    if stray:
        err(f"{entry.name} declares no parameter {', '.join(stray)}", lineno)
    return e


def validate_references(entries):
    """Cross-entry name resolution (run after all corpus files are merged)."""
    algebras = {e.name for e in entries if e.kind == "algebra"}
    for e in entries:
        refs = []
        if e.kind in ("bialgebra", "rmatrix", "poisson"):
            refs = [e.g, e.dual]
        elif e.kind == "frame":
            refs = [e.name]
        elif e.kind == "membership":
            refs = [n for pair in e.pairs for n in pair]
        for n in refs:
            if n not in algebras:
                raise CorpusSyntaxError(
                    f"unresolved algebra name {n!r} in {e.kind} block {getattr(e, 'name', '')}"
                )


# --------------------------------------------------------------------------
# serialization (canonical, re-parseable)
# --------------------------------------------------------------------------


# --------------------------------------------------------------------------
# registry and instantiation
# --------------------------------------------------------------------------


class Corpus:
    """Indexed view over a list of parsed entries."""

    def __init__(self, entries):
        validate_references(entries)
        self.entries = entries
        self.algebras = {}
        self.bialgebras = []
        self.rmatrices = {}
        self.poisson = []
        self.frames = {}
        self.memberships = {}
        self.fixtures = {}
        for e in entries:
            if e.kind == "algebra":
                if e.name in self.algebras:
                    raise InputError(f"duplicate algebra {e.name}")
                self.algebras[e.name] = e
            elif e.kind == "bialgebra":
                self.bialgebras.append(e)
            elif e.kind == "rmatrix":
                self.rmatrices[(e.g, e.dual)] = e
            elif e.kind == "poisson":
                self.poisson.append(e)
            elif e.kind == "frame":
                self.frames[e.name] = e
            elif e.kind == "membership":
                self.memberships[e.table] = e
            else:
                self.fixtures[e.name] = e

    def algebra(self, name) -> AlgebraEntry:
        if name not in self.algebras:
            raise InputError(f"unknown algebra {name!r}")
        return self.algebras[name]

    def pair_params(self, g, dual):
        return sorted(set(self.algebra(g).params) | set(self.algebra(dual).params))

    def pair_constraints(self, g, dual):
        return self.algebra(g).constraints + self.algebra(dual).constraints

    def grid_bindings(self, g, dual=None, cap=None):
        """Cartesian grid over the pair's parameters filtered by constraints.

        Entries without parameters yield the single empty binding.
        """
        from itertools import product

        params = (
            self.pair_params(g, dual) if dual is not None else self.algebra(g).params
        )
        params = sorted(set(params))
        constraints = (
            self.pair_constraints(g, dual)
            if dual is not None
            else self.algebra(g).constraints
        )
        if not params:
            return [{}]
        out = []
        for combo in product(DEFAULT_GRID, repeat=len(params)):
            binding = dict(zip(params, combo))
            if all(c.ok(binding) for c in constraints):
                out.append(binding)
                if cap is not None and len(out) >= cap:
                    break
        return out

    def instantiate(self, name, binding=None) -> StructureConstants:
        return self.algebra(name).structure_constants(binding)


def load(paths=None) -> Corpus:
    """Load a corpus from explicit files, a directory, or the packaged data."""
    import os

    if paths is None:
        entries = []
        pkg = resources.files("liebialg").joinpath("data")
        for item in sorted(pkg.iterdir(), key=lambda p: p.name):
            if item.name.endswith(".txt"):
                entries.extend(parse(item.read_text("utf-8"), filename=item.name))
        return Corpus(entries)
    if isinstance(paths, (str, bytes)) and os.path.isdir(paths):
        files = sorted(
            os.path.join(paths, n) for n in os.listdir(paths) if n.endswith(".txt")
        )
        paths = files
    elif isinstance(paths, (str, bytes)):
        paths = [paths]
    entries = []
    for p in paths:
        with open(p, "r", encoding="utf-8") as fh:
            entries.extend(parse(fh.read(), filename=os.path.basename(p)))
    return Corpus(entries)
