"""Verification campaigns over the corpus: one function per reference table.

Entry outcomes are pass / fail / flagged.  A flagged outcome records a
discrepancy between a derived object and the printed corpus payload on an
entry marked `status flagged`; it never fails a run.  Mathematical defects
(Jacobi failures, missing r-matrices, non-multiplicative bivectors) always fail.
"""

from dataclasses import dataclass, field, asdict
from fractions import Fraction
import functools
import time

from itertools import product

from . import corpus as corpus_mod
from .core import bialgebra_failure, find_symplectic
from .closedfun import ClosedFunction, cf_matexp_sparse
from .errors import ComputationError, InputError, InvariantError
from .groupgeom import (
    GroupChart,
    double_adjoint,
    frame_bracket_residuals,
    invariant_frame,
)
from .poisson import (
    multiplicative_check,
    pi_bivector,
    sklyanin_bivector,
    symplectic_classify,
)
from .render import render_closed_function
from .rmatrix import (
    classify_r,
    generates_cocommutator,
    solve_coboundary,
)

# what deriving one table entry may raise on a bad or unsupported input or a
# broken internal invariant; the entry fails and its campaign carries on
ENTRY_ERRORS = (InputError, ComputationError, InvariantError)

# rows that must match the printed payload exactly (not merely match-or-flag)
FRAME_SPOT_CHECKS = (
    ("A_4_1", {}),
    ("A_4_2_m1", {}),
    ("A_4_7", {}),
    ("A_4_9_0", {}),
    ("A_4_11_b", {"b": Fraction(1)}),
    ("VI0+R", {}),
    ("VII0+R", {}),
    ("A_4_12", {}),
)

DESIGNATED_POISSON_ROWS = (
    ("A_4_7", "A_4_7.i"),
    ("A_4_9_m12", "A_4_9_1.ii"),
    ("A_4_1", "A_4_1.i"),
    ("A_4_3", "A2+A2.i"),
    ("A_4_1", "II+R.i"),
    ("A_4_1", "II+R.iv"),
    ("A_4_2_m1", "A_4_2_m1.i"),
    ("A_4_3", "A_4_3.ii"),
    ("A_4_5_m1_m1", "A_4_5_m1_m1.i"),
    ("A_4_5_m1_b", "A_4_5_m1_b.i"),
    ("A_4_6_a_0", "II+R.ii"),
    ("A_4_9_0", "A_4_9_0.iv"),
    ("A_4_9_m12", "A_4_9_m12.iii"),
    ("A_4_9_1", "A_4_9_1.i"),
    ("A_4_9_b", "A_4_9_b.i"),
    ("A_4_12", "A_4_12.ii"),
    ("A2+A2", "A2+A2.v"),
    ("VI0+R", "II+R.xiv"),
    ("VII0+R", "II+R.xiv"),
    ("III+R", "III+R.xiii"),
    ("A_4_1", "A_4_9_0.i"),
    ("A_4_12", "A_4_12.i"),
    ("II+R.iv", "A_4_7"),
    ("A_4_7.i", "A_4_7"),
)


@dataclass
class Discrepancy:
    entry: str
    field: str
    expected: str
    derived: str

    def as_json(self):
        return asdict(self)


@dataclass
class EntryResult:
    entry: str
    status: str  # 'pass' | 'fail' | 'flagged'
    detail: str = ""
    discrepancies: list = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class RunReport:
    table: str
    results: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def failed(self):
        return [r for r in self.results if r.status == "fail"]

    @property
    def flagged(self):
        return [r for r in self.results if r.status == "flagged"]

    @property
    def ok(self):
        return not self.failed

    def counts(self):
        n = {"pass": 0, "fail": 0, "flagged": 0}
        for r in self.results:
            n[r.status] += 1
        return n


def _memo(memo, key, compute):
    """memo[key], from compute() on the first request; a compute() that
    raises stores nothing, so the next request raises again."""
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _bkey(binding):
    return tuple(sorted(binding.items()))


class Workbench:
    """The intermediates that campaigns, and the two constructions of a
    bivector, share.  One Workbench lives for one `verify_tables` call (one
    per worker process with `--jobs`) or one `liebialg derive`.

    Each memo is a dict keyed by what its result depends on:

      sc          structure constants per (algebra, the values of its own
                  parameters): a pair's bindings that differ only in the
                  other algebra's parameters share one entry
      frame       invariant frame, keyed like sc
      matexp      exp(x M) per (coordinate, size, the sparse map of M's
                  nonzero CRat entries); CRat is canonical, so equal
                  matrices share one entry
      coboundary  r-matrix solution set per ordered (g, dual, binding)
      double      the first identity (g, dual) fails as a Lie bialgebra, or
                  None, per (g, dual, binding); no 8-dimensional double
      bivector    bivector per (g, dual, method, binding)

    Jacobi and Poisson-Jacobi verdicts are no memos here: the values keep
    them (`StructureConstants.is_lie`, `PoissonBivector.is_poisson`).

    Only results are memoized: a request whose computation raises raises
    again on the next request.  Results are shared, not copied, so callers
    must not edit them.
    """

    def __init__(self, reg: "corpus_mod.Corpus"):
        self.reg = reg
        self._sc = {}
        self._frames = {}
        self._matexps = {}
        self._coboundaries = {}
        self._doubles = {}
        self._bivectors = {}

    def _own(self, name, binding):
        """(name, the values in `binding` of the algebra's own parameters):
        all that its structure constants depend on."""
        params = self.reg.algebra(name).params
        return (name, tuple((p, binding[p]) for p in params if p in binding))

    def sc(self, name, binding):
        """The structure constants of `name` at `binding`."""
        return _memo(
            self._sc, self._own(name, binding), lambda: self.reg.instantiate(name, binding)
        )

    def frame(self, name, binding):
        return _memo(
            self._frames,
            self._own(name, binding),
            lambda: invariant_frame(GroupChart(self.sc(name, binding)), self.matexp),
        )

    def matexp(self, mc, n, coord):
        """`cf_matexp_sparse(mc, n, coord)` for the n x n matrix with the
        nonzero entries mc = {(i, j): CRat}, keyed by those entries."""
        key = (coord, n, frozenset(mc.items()))
        return _memo(self._matexps, key, lambda: cf_matexp_sparse(mc, n, coord))

    def coboundary(self, g, dual, binding):
        """The r-matrix solution set of the ordered pair (g, dual)."""
        return _memo(
            self._coboundaries,
            (g, dual, _bkey(binding)),
            lambda: solve_coboundary(self.sc(g, binding), self.sc(dual, binding)),
        )

    def double(self, g, dual, binding):
        """`bialgebra_failure` of the pair (g, dual): None, "mixed Jacobi" or
        "double Jacobi"."""
        return _memo(
            self._doubles,
            (g, dual, _bkey(binding)),
            lambda: bialgebra_failure(self.sc(g, binding), self.sc(dual, binding)),
        )

    def bivector(self, g, dual, method, binding):
        """The bivector of (g, dual) by `method`."""
        return _memo(
            self._bivectors,
            (g, dual, method, _bkey(binding)),
            lambda: self._build_bivector(g, dual, method, binding),
        )

    def _build_bivector(self, g, dual, method, binding):
        if method == "sklyanin":
            sol = self.coboundary(g, dual, binding)
            if sol.empty:
                raise InputError(f"({g}, {dual}) admits no r-matrix")
            return sklyanin_bivector(self.frame(g, binding), sol.particular.antisymmetric_part())
        frame = self.frame(g, binding)
        failed = self.double(g, dual, binding)
        if failed:
            raise InputError(f"pair fails the {failed} identity")
        pi = double_adjoint(frame, self.sc(g, binding), self.sc(dual, binding), certified=True)
        return pi_bivector(pi, frame)

    def method(self, g, dual):
        """Sklyanin when an r-matrix row exists for the pair, else the
        adjoint-block construction."""
        return "sklyanin" if (g, dual) in self.reg.rmatrices else "pi"

    def bivector_any(self, g, dual, binding):
        """The bivector of (g, dual) by `method(g, dual)`."""
        return self.bivector(g, dual, self.method(g, dual), binding)


def _campaign(table):
    """Makes a campaign of an enumeration `entries(reg, bench)` of its
    entries, each a `(name, key, check, args)` tuple whose key names the
    algebra whose Workbench memos the check uses.  The campaign
    `verify(reg, bench=None)` runs them in order on `bench` (a fresh
    Workbench by default) and is timed; `.entries` keeps the enumeration for
    `verify_tables --jobs`."""

    def wrap(entries):
        @functools.wraps(entries)
        def verify(reg, bench=None):
            t0 = time.perf_counter()
            rep = RunReport(table)
            bench = Workbench(reg) if bench is None else bench
            for name, _key, check, check_args in entries(reg, bench):
                rep.results.append(_run_entry(name, check, *check_args))
            rep.seconds = time.perf_counter() - t0
            return rep

        verify.entries, verify.table = entries, table
        return verify

    return wrap


def _run_entry(name, check, *args):
    """One table entry: `check(*args)` returns (status, detail,
    discrepancies); an ENTRY_ERRORS exception fails this entry alone, with
    the exception class in its detail."""
    t0 = time.perf_counter()
    try:
        status, detail, discrepancies = check(*args)
    except ENTRY_ERRORS as ex:
        status, detail, discrepancies = "fail", f"{type(ex).__name__}: {ex}", []
    return EntryResult(name, status, detail, discrepancies, time.perf_counter() - t0)


def _each_binding(bench, at, item, bindings, entry=None, differs=None):
    """The one binding loop: `at(bench, item, b, found)` runs at each binding
    b, as stated once by the campaign that enumerates the entry, and returns
    a failure detail or None, appending its Discrepancy records to `found`;
    the first failure fails the entry.  Else the corpus `entry` (None flags
    nothing) decides: a check that compares no printed payload (`differs`
    None) is flagged whenever its entry is, and one that does is flagged
    only when something differs, and else fails with the message `differs`."""
    if not bindings:
        return "fail", "no admissible binding on the parameter grid", []
    found = []
    for b in bindings:
        failure = at(bench, item, b, found)
        if failure:
            return "fail", failure, found
    if found or differs is None:
        if entry is not None and entry.status == "flagged":
            return "flagged", entry.note, found
        if found:
            return "fail", differs, found
    return "pass", "", found


@_campaign("table1")
def verify_table1(reg, bench):
    """Base algebras: Jacobi identity and a nondegenerate closed two-form."""
    for name in sorted(reg.algebras):
        if "." in name or name == "4A_1":
            continue  # dual variants are exercised through tables 2-9
        yield name, name, _each_binding, (bench, _algebra_at, name, reg.grid_bindings(name))


def _algebra_at(bench, name, b, found):
    sc = bench.sc(name, b)
    if not sc.is_lie():
        return f"Jacobi fails at {b}"
    sym = find_symplectic(sc)
    if not sym.found:
        return f"no symplectic form at {b} (rank {sym.max_rank})"


@_campaign("table2")
def verify_table2(reg, bench):
    """Bracket/cobracket pairs: the Lie bialgebra identities.  The canonical
    pairing on the double is ad-invariant by the construction of
    `core.build_double` for every antisymmetric pair, so no row checks it."""
    for be in reg.bialgebras:
        bindings = reg.grid_bindings(be.g, be.dual)
        yield be.name, be.g, _each_binding, (bench, _bialgebra_at, be, bindings, be)


def _bialgebra_at(bench, be, b, found):
    failed = bench.double(be.g, be.dual, b)
    if failed:
        return f"{failed} fails at {b}"


@_campaign("table34")
def verify_table34(reg, bench):
    """r-matrix rows: membership, classification, and dual-direction solves."""
    for (g, dual), e in sorted(reg.rmatrices.items()):
        bindings = reg.grid_bindings(g, dual, cap=2)
        yield e.name, g, _each_binding, (bench, _rmatrix_row_at, e, bindings, e)


def _rmatrix_row_at(bench, e, b, found):
    f, fd = bench.sc(e.g, b), bench.sc(e.dual, b)
    if bench.coboundary(e.g, e.dual, b).empty:
        return f"defining system inconsistent at {b}"
    if (e.dual, e.g) in bench.reg.rmatrices and bench.coboundary(e.dual, e.g, b).empty:
        return f"dual-direction system inconsistent at {b}"
    for combo in product(corpus_mod.RFREE_GRID, repeat=len(e.rfree)):
        bb = dict(b)
        bb.update(dict(zip(e.rfree, combo)))
        r = e.tensor(bb)
        if not generates_cocommutator(r, f, fd):
            return f"printed r not in the solution set at {bb}"
        cl = classify_r(r, f)
        expected = e.expected_schouten(bb)
        if expected is None:
            if cl.kind != "triangular":
                return f"expected triangular, got {cl.kind} ({cl.violation})"
        else:
            if cl.schouten != expected:
                return "[[r,r]] differs from the printed certificate"
            if cl.kind != "quasitriangular":
                return f"nonzero [[r,r]] not quasi-triangular: {cl.violation}"


def _compare(found, entry, field, binding, printed, derived):
    """Adds a Discrepancy to `found` when the printed closed function is not
    the derived one."""
    if printed != derived:
        where = f"{field} at {binding or 'no params'}"
        shown = render_closed_function(printed), render_closed_function(derived)
        found.append(Discrepancy(entry, where, *shown))


def _compare_frame(bench, name, binding):
    fe = bench.reg.frames[name]
    fr = bench.frame(name, binding)
    out = []
    for side, derived in (("L", fr.XL), ("R", fr.XR)):
        for i in range(1, 5):
            stored = fe.components(side, i, binding)
            for k in range(4):
                field = f"X{side}_{i} d{k+1}"
                _compare(out, f"frame {name}", field, binding, stored[k], derived[i - 1][k])
    return out


@_campaign("table5")
def verify_table5(reg, bench):
    """Frames: printed payload comparison plus the structural bracket relations."""
    differs = "printed frame differs from the derivation"
    for name, fe in sorted(reg.frames.items()):
        bindings = reg.grid_bindings(name, cap=1)
        yield f"frame {name}", name, _each_binding, (bench, _frame_at, name, bindings, fe, differs)
    # spot-check set: exact match mandatory except the recorded flagged slot;
    # a corpus without one of these frames skips its spot check
    for name, binding in FRAME_SPOT_CHECKS:
        if name in reg.frames:
            yield f"frame-spot {name}", name, _spot_check_frame, (bench, name, binding)


def _frame_at(bench, name, b, found):
    found.extend(_compare_frame(bench, name, b))
    bad = frame_bracket_residuals(bench.frame(name, b), bench.sc(name, b))
    if bad:
        return f"frame bracket relations fail: {bad[:3]}"


def _spot_check_frame(bench, name, binding):
    disc = _compare_frame(bench, name, binding)
    allowed = [d for d in disc if "x3^3" in d.expected]
    if name == "A_4_11_b" and not allowed:
        return "fail", "expected flagged x3^3 discrepancy was not reported", disc
    if len(disc) == len(allowed):
        return "pass", "", disc
    return "fail", f"{len(disc)-len(allowed)} unexpected mismatches", disc


@_campaign("table67")
def verify_table67(reg, bench):
    """Bivectors: one per row by the row's method, Poisson-Jacobi, the
    Poisson-Lie identity (`multiplicative_check`), and the printed brackets."""
    for pe in reg.poisson:
        yield pe.name, pe.g, _poisson_row, (bench, pe, reg.grid_bindings(pe.g, pe.dual, cap=1))


def _poisson_row(bench, pe, bindings):
    differs = "printed brackets differ from the derivation"
    if (pe.g, pe.dual) in DESIGNATED_POISSON_ROWS:
        differs = "designated row differs from the printed brackets"
    status, detail, found = _each_binding(bench, _poisson_at, pe, bindings, pe, differs)
    if status != "fail":
        # whether non-membership rows are genuinely degenerate is not
        # stated anywhere, so the computed rank is always reported
        P = bench.bivector(pe.g, pe.dual, pe.method, bindings[-1])
        rank = symplectic_classify(P).max_rank
        detail = f"{detail} [rank {rank}]" if detail else f"rank {rank}"
    return status, detail, found


def _poisson_at(bench, pe, b, found):
    P = bench.bivector(pe.g, pe.dual, pe.method, b)
    if not P.is_poisson:
        return f"Poisson Jacobi fails at {b}"
    bad = multiplicative_check(P, bench.frame(pe.g, b), bench.sc(pe.dual, b))
    if bad:
        return f"L_XL{bad[0]} P^{bad[1]}{bad[2]} is not (delta X{bad[0]})^L at {b}"
    printed, zero = pe.closed_map(b), ClosedFunction.zero()
    for ab in sorted(printed.keys() | P.p.keys()):
        pair = "{x%d,x%d}" % (ab[0] + 1, ab[1] + 1)
        _compare(found, pe.name, pair, b, printed.get(ab, zero), P.p.get(ab, zero))


@_campaign("table89")
def verify_table89(reg, bench):
    """Invertibility of the bivectors named in the membership tables."""
    for table in ("table8", "table9"):
        entry = reg.memberships.get(table)
        if entry is None:
            continue
        for (g, dual) in entry.pairs:
            args = (bench, _membership_at, (table, g, dual), reg.grid_bindings(g, dual, cap=1))
            yield f"{table} ({g}, {dual})", g, _each_binding, args


def _membership_at(bench, pair, b, found):
    table, g, dual = pair
    cl = symplectic_classify(bench.bivector_any(g, dual, b))
    if not cl.symplectic:
        return f"degenerate at {b} (rank {cl.max_rank})"
    if cl.closed_ok is False:
        return f"inverse two-form not closed at {b}"
    if table == "table8" and not symplectic_classify(bench.bivector_any(dual, g, b)).symplectic:
        return f"swapped pair degenerate at {b}"


@_campaign("integrable")
def verify_integrable(reg, bench):
    """Darboux form, symmetry closure, Leibniz, and the functions that commute
    with the Hamiltonian Q2, each an exact identity."""
    for ex_id in (1, 2):
        yield f"example {ex_id}", f"example {ex_id}", _check_example, (bench, ex_id)


def _check_example(bench, ex_id):
    from .integrable import (
        closure_check,
        commuting_check,
        darboux_check,
        leibniz_check,
        load_example,
    )

    ex = load_example(bench.reg, ex_id)
    for what, check in (
        ("Darboux", darboux_check),
        ("closure", closure_check),
        ("Leibniz", leibniz_check),
        ("commuting", lambda ex: commuting_check(ex, hamiltonian=2)),
    ):
        rep = check(ex)
        if not rep.passed:
            return "fail", f"{what} brackets fail: {', '.join(rep.failing)}", []
    return "pass", "", []


TABLES = {
    "1": verify_table1,
    "2": verify_table2,
    "3": verify_table34,
    "4": verify_table34,
    "5": verify_table5,
    "6": verify_table67,
    "7": verify_table67,
    "8": verify_table89,
    "9": verify_table89,
    "integrable": verify_integrable,
}


def _campaign_order(selector):
    if selector in ("all", None):
        keys = ["1", "2", "3", "5", "6", "8", "integrable"]
    else:
        keys = []
        for item in selector.split(","):
            lo, dash, hi = (part.strip() for part in item.partition("-"))
            if not dash:
                keys += [lo] if lo else []
            elif (lo + hi).isascii() and lo.isdigit() and hi.isdigit() and (
                1 <= int(lo) <= int(hi) <= 9
            ):
                keys += [str(n) for n in range(int(lo), int(hi) + 1)]
            else:
                raise InputError(f"bad table range {item.strip()!r}")
    fns = []
    for k in keys:
        fn = TABLES.get(k)
        if fn is None:
            raise InputError(f"unknown table selector {k!r}")
        if fn not in fns:
            fns.append(fn)
    if not fns:
        # a run that checks nothing must not read as a pass
        raise InputError(f"table selector {selector!r} names no table")
    return fns


def _shards(campaigns, jobs):
    """Groups the entries of `campaigns` (one entry list per campaign) by key
    into shards of `(campaign, index, name)`, largest shard first; returns
    the worker count, at most one per shard, and the shards."""
    groups = {}
    for c, entries in enumerate(campaigns):
        for i, (name, key, *_) in enumerate(entries):
            groups.setdefault(key, []).append((c, i, name))
    shards = sorted(groups.values(), key=len, reverse=True)
    return min(jobs, len(shards)), shards


_WORKER = {}


def _init_worker(campaigns):
    _WORKER["campaigns"] = campaigns


def _run_shard(shard):
    out = []
    for c, i, name in shard:
        _name, _key, check, args = _WORKER["campaigns"][c][i]
        out.append((c, i, _run_entry(name, check, *args)))
    return out


def verify_tables(reg, selector="all", jobs=1):
    """Run the campaigns named by selector ('all', '1', '3-4', '1-5', 'integrable',
    ...); 'A-B' names every table from A to B.

    With jobs > 1 the entries are sharded by base algebra over worker
    processes, each of which gets the parent's list of entries (inherited
    under fork, pickled under spawn), so each runs on its own copy of the
    parent's empty Workbench; a campaign's seconds are then the sum of its
    entries'.  The report order always follows the selector and each
    campaign's entries.
    """
    fns = _campaign_order(selector)
    bench = Workbench(reg)
    if jobs <= 1:
        return [fn(reg, bench) for fn in fns]
    campaigns = [list(fn.entries(reg, bench)) for fn in fns]
    workers, shards = _shards(campaigns, jobs)
    runs = [RunReport(fn.table, [None] * len(entries)) for fn, entries in zip(fns, campaigns)]
    if shards:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers, initializer=_init_worker, initargs=(campaigns,)
        ) as pool:
            for done in pool.map(_run_shard, shards):
                for c, i, result in done:
                    runs[c].results[i] = result
    for rep in runs:
        rep.seconds = sum(r.seconds for r in rep.results)
    return runs
