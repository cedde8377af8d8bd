"""Machine-readable table corpus: format, parser, and parameter instantiation.

Line-oriented UTF-8 format.  A block opens with a header keyword at the start
of a line and owns the indented/keyword payload lines that follow:

    algebra NAME [params p1 p2 ...]
      bracket i j -> COEFF k [, COEFF k ...]      (i != j)
      constraint EXPR != EXPR
    bialgebra G DUAL
    rmatrix G DUAL
      r COEFF i wedge|tensor j [; ...]
      rfree p1 [p2 ...]
      schouten zero | schouten COEFF i j k
    poisson G DUAL sklyanin|pi
      pb i j = EXPR                               (i != j)
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
+ - * / ^, exp/sin/cos/sinh/cosh, parentheses).

A basis index (in bracket, r, schouten, pb, xl and xr lines) is 1..4: every
block is 4-dimensional.  A bracket or pb pair is an unordered pair of
distinct indices, written in either order (`pb j i = E` states {x_i, x_j} =
-E).  A key appears once in its table of a block (a bracket or pb pair, an
xl or xr index, a fixture key), and a block takes at most one schouten,
source, note and status line.  A fixture key is an identifier.  Across the
corpus a block's kind and name are unique, every algebra name a block names
(a fixture's ref values included) is an algebra of the corpus, and an rfree
name is not a parameter of its pair.  A payload expression names only the
parameters of the algebras its block names and the free names of its kind:
an algebra's constraints and brackets its own parameters, r and schouten
lines the rfree names, pb lines x1..x4, and xl and xr lines x1..x4 and
d1..d4.  Every error names its file and line.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .core import StructureConstants
from .errors import CorpusSyntaxError, EvalError, InputError
from .exprtree import Expr, linear_parts, parse_expr, to_text
from .ratlinalg import _bump
from .rmatrix import TensorElement, wedge3

DEFAULT_GRID = (Fraction(-2), Fraction(-1, 2), Fraction(1, 3), Fraction(2))
RFREE_GRID = (Fraction(0), Fraction(1))
_X_NAMES = ("x1", "x2", "x3", "x4")
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


@dataclass(kw_only=True)
class _Entry:
    """The payload lines every block takes, and where it was read: the file,
    the header's line, `line_names`, (line, label, names) for each payload
    line whose expressions name anything, and `named_at`, {name: line} for
    the algebra names of `pair` and `ref` lines.  A subclass sets `kind`,
    its header keyword; `named_algebras`, the algebra names the block names;
    and `free_names`, what its expressions may name besides those algebras'
    parameters, which `rule` states."""

    source: str = ""
    status: str = ""
    note: str = ""
    filename: str = field(default=None, compare=False, repr=False)
    line: int = field(default=None, compare=False, repr=False)
    line_names: list = field(default_factory=list, compare=False, repr=False)
    named_at: dict = field(default_factory=dict, compare=False, repr=False)
    named_algebras = ()
    free_names = frozenset()

    @property
    def key(self):
        """The block's key in its `Corpus` table."""
        return self.name

    def resolve(self, algebras):
        """Check the block against the corpus's {name: AlgebraEntry}: every
        algebra name it names is there, and each payload line names only
        their parameters and the free names; anything else would have no
        value at any binding of the block."""
        for n in self.named_algebras:
            if n not in algebras:
                what = f"unresolved algebra name {n!r} in {self.kind} block {self.name}"
                raise self.error(what, self.named_at.get(n))
        allowed = self.free_names.union(*(algebras[n].params for n in self.named_algebras))
        for line, label, names in self.line_names:
            stray = sorted(n for n in names if n not in allowed)
            if stray:
                what = f"{', '.join(stray)}, not {self.rule}"
                raise self.error(f"{self.name}: {label} names {what}", line)

    def error(self, message, line=None):
        """A CorpusSyntaxError at `line` of the block's file, or at its header."""
        return CorpusSyntaxError(message, line=line or self.line, filename=self.filename)


@dataclass
class AlgebraEntry(_Entry):
    name: str
    params: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    brackets: dict = field(default_factory=dict)  # (i, j) -> [(Expr, k)]
    kind = "algebra"
    rule = "a declared parameter"

    @property
    def free_names(self):
        return frozenset(self.params)

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
class _PairEntry(_Entry):
    """A block headed by an algebra and its dual."""

    g: str
    dual: str

    @property
    def named_algebras(self):
        return (self.g, self.dual)


@dataclass
class BialgebraEntry(_PairEntry):
    kind = "bialgebra"

    @property
    def name(self):
        return f"({self.g}, {self.dual})"


@dataclass
class RMatrixEntry(_PairEntry):
    terms: list = field(default_factory=list)  # (Expr, i, j, kind)
    rfree: list = field(default_factory=list)
    schouten_terms: list = None  # None -> zero; else [(Expr, i, j, k)]
    kind = "rmatrix"
    rule = "a parameter of the pair or an rfree name"

    @property
    def name(self):
        return f"r({self.g}, {self.dual})"

    @property
    def key(self):
        return (self.g, self.dual)

    @property
    def free_names(self):
        return frozenset(self.rfree)

    def resolve(self, algebras):
        """Also: no rfree name is a parameter of the pair, which the r-free
        {0, 1} product would rebind for r alone."""
        super().resolve(algebras)
        params = algebras[self.g].params + algebras[self.dual].params
        clash = [p for p in self.rfree if p in params]
        if clash:
            raise self.error(f"{self.name}: rfree {', '.join(clash)} is a parameter of its pair")

    def tensor(self, binding) -> TensorElement:
        return TensorElement.from_terms(
            [(e.eval_exact(binding), i, j, knd) for (e, i, j, knd) in self.terms]
        )

    def expected_schouten(self, binding):
        """The printed [[r, r]] as a rank-3 map (see `rmatrix.wedge3`), or
        None for `schouten zero`."""
        if not self.schouten_terms:
            return None
        acc = {}
        for (e, i, j, k) in self.schouten_terms:
            for key, v in wedge3(i, j, k, e.eval_exact(binding)).items():
                _bump(acc, key, v)
        return acc


@dataclass
class PoissonEntry(_PairEntry):
    method: str  # 'sklyanin' | 'pi'
    brackets: dict = field(default_factory=dict)  # (i, j) -> Expr, i != j, as printed
    kind = "poisson"
    free_names = frozenset(_X_NAMES)
    rule = "a parameter of the pair or x1..x4"

    @property
    def name(self):
        return f"pb({self.g}, {self.dual})[{self.method}]"

    def closed_map(self, binding):
        """The printed brackets as the bivector {(a, b): P^ab, a < b}, 0-based,
        over the nonzero ones; a `pb j i` line, j > i, gives P^ij negated."""
        out = {}
        for (i, j), e in self.brackets.items():
            f = e.to_closed(binding)
            if f:
                out[min(i, j) - 1, max(i, j) - 1] = f if i < j else -f
        return out


@dataclass
class FrameEntry(_Entry):
    name: str
    xl: dict = field(default_factory=dict)  # i -> Expr over x's and d1..d4
    xr: dict = field(default_factory=dict)
    kind = "frame"
    free_names = frozenset(_X_NAMES + _D_NAMES)
    rule = "a parameter of the algebra, x1..x4 or d1..d4"

    @property
    def named_algebras(self):
        return (self.name,)

    def components(self, side, i, binding):
        """Field i of side 'L'/'R' as 4 ClosedFunction components: the
        coefficients of d1..d4 read in one walk, with the parameters read
        from the binding (`exprtree.linear_parts`).  InputError names the
        frame and the field when the block has no such line, or when the
        field is not linear in d1..d4 or has a term free of them."""
        table = self.xl if side == "L" else self.xr
        where = f"frame {self.name}: x{side.lower()} {i}"
        if i not in table:
            raise InputError(f"{where} is missing")
        parts = linear_parts(table[i], _D_NAMES, binding)
        if parts is None:
            raise InputError(f"{where} is not linear in d1..d4")
        free, comps = parts
        if free:
            raise InputError(f"{where} has a term free of d1..d4")
        return comps


@dataclass
class MembershipEntry(_Entry):
    table: str  # 'table8' | 'table9'
    pairs: list = field(default_factory=list)
    kind = "membership"

    @property
    def name(self):
        return self.table

    @property
    def named_algebras(self):
        return [n for pair in self.pairs for n in pair]


@dataclass
class FixtureEntry(_Entry):
    name: str
    refs: dict = field(default_factory=dict)
    exprs: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)
    vals: dict = field(default_factory=dict)
    kind = "fixture"

    @property
    def named_algebras(self):
        return tuple(self.refs.values())


_BLOCKS = {  # header keyword -> entry class
    cls.kind: cls
    for cls in (AlgebraEntry, BialgebraEntry, RMatrixEntry, PoissonEntry,
                FrameEntry, MembershipEntry, FixtureEntry)
}


def parse(text, filename="<corpus>"):
    """Parse corpus text into a list of entries with location diagnostics;
    each entry keeps its file and header line, and the names each labelled
    payload line uses, for `Corpus` to check.  Equal expression texts in one
    file share one tree: a tree is never changed after its parse, and only a
    parse that succeeds is kept, so a text that fails is parsed again where
    it recurs and every diagnostic names its own line."""
    entries = []
    trees = {}  # text -> (tree, the names it uses)
    seen = set()  # the keys of the open block's once-only payload lines
    lineno = 0

    def err(msg):
        raise CorpusSyntaxError(msg, line=lineno, filename=filename)

    def expr(body, label=None):
        """The tree of `body`; on a labelled line its names join the line's
        record (line, label, the names the line uses)."""
        hit = trees.get(body)
        if hit is None:
            tree = parse_expr(body, line=lineno, filename=filename)
            hit = trees[body] = tree, tuple(_names(tree, set()))
        if label and hit[1]:
            records, names = entries[-1].line_names, hit[1]
            if records and records[-1][0] == lineno:  # a later expression of the line
                names = tuple({*records.pop()[2], *names})
            records.append((lineno, label, names))
        return hit[0]

    def once(*key):
        if key in seen:
            err("duplicate " + " ".join(map(str, key)))
        seen.add(key)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head in _BLOCKS:
            entries.append(_open_block(head, words, err))
            entries[-1].filename, entries[-1].line = filename, lineno
            seen.clear()
            continue
        if not entries:
            err(f"payload line outside any block: {head!r}")
        try:
            named = _payload_line(entries[-1], head, line, err, expr, once)
        except EvalError as ex:  # a constant division by zero in the text
            err(str(ex))
        for n in named or ():
            entries[-1].named_at.setdefault(n, lineno)
    return entries


def _open_block(head, words, err):
    if head == "algebra":
        if len(words) < 2:
            err("algebra needs a name")
        if len(words) > 2 and words[2] != "params":
            err(f"expected 'params', found {words[2]!r}")
        return AlgebraEntry(words[1], params=words[3:])
    if head == "poisson":
        if len(words) != 4 or words[3] not in ("sklyanin", "pi"):
            err("poisson needs two names and a method (sklyanin|pi)")
    elif head == "membership":
        if len(words) != 2 or words[1] not in ("table8", "table9"):
            err("membership needs table8 or table9")
    elif head in ("bialgebra", "rmatrix"):
        if len(words) != 3:
            err(f"{head} needs exactly two names")
    elif len(words) != 2:
        err(f"{head} needs a name")
    return _BLOCKS[head](*words[1:])


def _payload_line(entry, head, line, err, expr, once):
    """Reads one payload line into `entry`; returns the algebra names a
    `pair` or `ref` line names."""
    body = line[len(head) :].strip()
    match head:
        case "source" | "note":
            once(head)
            setattr(entry, head, body)
        case "status":
            once(head)
            if body != "flagged":
                err("status must be 'flagged'")
            entry.status = "flagged"
        case "constraint" if entry.kind == "algebra":
            lhs, rhs = _sides(head, body, "!=", "EXPR != EXPR", err)
            entry.constraints.append(Constraint(expr(lhs, head), expr(rhs, head)))
        case "bracket" if entry.kind == "algebra":
            shape = "i j -> COEFF k [, COEFF k ...]"
            left, right = _sides(head, body, "->", shape, err)
            key = _two_indices(head, left, err)
            once(head, *sorted(key))
            label = "bracket %d %d" % key
            entry.brackets[key] = [
                (expr(c, label), _index(k, err)) for c, k in _terms(head, right, ",", 2, err)
            ]
        case "r" if entry.kind == "rmatrix":
            for c, i, knd, j in _terms(head, body, ";", 4, err):
                if knd not in ("wedge", "tensor"):
                    err(f"bad r term {' '.join((c, i, knd, j))!r}")
                entry.terms.append((expr(c, "an r line"), _index(i, err), _index(j, err), knd))
        case "rfree" if entry.kind == "rmatrix":
            entry.rfree.extend(body.split())
        case "schouten" if entry.kind == "rmatrix":
            once(head)
            if body != "zero":
                entry.schouten_terms = [
                    (expr(c, "the schouten line"), _index(i, err), _index(j, err), _index(k, err))
                    for c, i, j, k in _terms(head, body, ";", 4, err)
                ]
        case "pb" if entry.kind == "poisson":
            left, right = _sides(head, body, "=", "i j = EXPR", err)
            key = _two_indices(head, left, err)
            once(head, *sorted(key))
            entry.brackets[key] = expr(right, "pb %d %d" % key)
        case "xl" | "xr" if entry.kind == "frame":
            left, right = _sides(head, body, "=", "i = EXPR", err)
            i = _index(left.strip(), err)
            once(head, i)
            (entry.xl if head == "xl" else entry.xr)[i] = expr(right, f"{head} {i}")
        case "pair" if entry.kind == "membership":
            names = body.split()
            if len(names) != 2:
                err("pair needs two names")
            entry.pairs.append(tuple(names))
            return names
        case "ref" | "expr" | "matrix" | "val" if entry.kind == "fixture":
            key, rhs = (s.strip() for s in _sides(head, body, "=", "KEY = ...", err))
            if not key.isidentifier():
                err(f"{head} key must be an identifier, found {key!r}")
            once(head, key)
            if head == "ref":
                entry.refs[key] = rhs
                return (rhs,)
            elif head == "matrix":
                rows = [[expr(cell) for cell in row.split()] for row in rhs.split(";")]
                if any(len(r) != len(rows[0]) for r in rows):
                    err("matrix rows have unequal lengths")
                entry.matrices[key] = rows
            else:
                (entry.exprs if head == "expr" else entry.vals)[key] = expr(rhs)
        case _:
            err(f"unknown payload keyword {head!r} in {entry.kind} block")


def _sides(head, body, sep, shape, err):
    """LEFT and RIGHT of the body of a `head LEFT sep RIGHT` line."""
    if sep not in body:
        err(f"{head} must be '{head} {shape}'")
    return body.split(sep, 1)


def _terms(head, body, sep, width, err):
    """The `sep`-separated terms of body, each split into `width` words from
    the right, so that the leading coefficient may hold spaces."""
    out = []
    for chunk in body.split(sep):
        words = chunk.strip().rsplit(maxsplit=width - 1)
        if len(words) != width:
            err(f"bad {head} term {chunk.strip()!r}")
        out.append(words)
    return out


def _two_indices(head, left, err):
    words = left.split()
    if len(words) != 2:
        err(f"{head} needs two indices")
    i, j = _index(words[0], err), _index(words[1], err)
    if i == j:
        err(f"{head} needs two distinct indices, found {i} {j}")
    return i, j


def _index(tok, err):
    # ASCII digits only: int() also reads other scripts' digits, signs and "1_0"
    if not (tok.isascii() and tok.isdigit()):
        err(f"expected a basis index, found {tok!r}")
    v = int(tok)
    if not 1 <= v <= 4:  # every block is 4-dimensional
        err(f"basis index {v} out of range 1..4")
    return v


def _names(e, out):
    """out with the parameters and coordinates that the tree e names added."""
    op = e.op
    if op == "param":
        out.add(e.args[0])
    elif op == "coord":
        out.add(_X_NAMES[e.args[0] - 1])
    elif op != "const":
        for a in e.args:
            if isinstance(a, Expr):
                _names(a, out)
    return out


# --------------------------------------------------------------------------
# registry and instantiation
# --------------------------------------------------------------------------


class Corpus:
    """Indexed view over a list of parsed entries."""

    def __init__(self, entries):
        """One pass indexes each block by kind and key, rejecting a repeated
        one; every block is resolved after it, since a block may come before
        the algebras it names."""
        self.entries = entries
        index = {kind: {} for kind in _BLOCKS}
        for e in entries:
            first = index[e.kind].setdefault(e.key, e)
            if first is not e:
                where = f"{first.filename}:{first.line}"
                raise e.error(f"duplicate {e.kind} {e.name}, first at {where}")
        self.algebras = index["algebra"]
        for e in entries:
            e.resolve(self.algebras)
        self.bialgebras = list(index["bialgebra"].values())
        self.rmatrices = index["rmatrix"]
        self.poisson = list(index["poisson"].values())
        self.frames = index["frame"]
        self.memberships = index["membership"]
        self.fixtures = index["fixture"]

    def algebra(self, name) -> AlgebraEntry:
        if name not in self.algebras:
            raise InputError(f"unknown algebra {name!r}")
        return self.algebras[name]

    def grid_bindings(self, g, dual=None, cap=None):
        """Cartesian grid over the parameters of g, or of the pair, filtered
        by their constraints.

        Entries without parameters yield the single empty binding.
        """
        from itertools import product

        algebras = [self.algebra(n) for n in (g, dual) if n is not None]
        params = sorted({p for a in algebras for p in a.params})
        if not params:
            return [{}]
        out = []
        for combo in product(DEFAULT_GRID, repeat=len(params)):
            binding = dict(zip(params, combo))
            if all(c.ok(binding) for a in algebras for c in a.constraints):
                out.append(binding)
                if cap is not None and len(out) >= cap:
                    break
        return out

    def instantiate(self, name, binding=None) -> StructureConstants:
        return self.algebra(name).structure_constants(binding)


def load(paths=None) -> Corpus:
    """Load a corpus from the packaged data, a file or directory path, or a
    list of file paths; a path is a str."""
    import os
    from pathlib import Path

    if isinstance(paths, bytes):
        raise InputError("a corpus path is a str, not bytes")
    if isinstance(paths, str) and not os.path.isdir(paths):
        paths = [paths]
    if paths is None or isinstance(paths, str):
        folder = Path(paths) if paths else resources.files("liebialg").joinpath("data")
        files = [f for f in folder.iterdir() if f.name.endswith(".txt")]
        files.sort(key=lambda f: f.name)
    else:
        files = [Path(p) for p in paths]
    entries = []
    for f in files:
        entries.extend(parse(f.read_text("utf-8"), filename=f.name))
    return Corpus(entries)
