"""Command-line surface: exit codes, JSON output, determinism."""

import hashlib
import json
import os
import pickle
import re
import subprocess
import sys

import pytest

import liebialg
from liebialg import corpus as corpus_mod
from liebialg import core, groupgeom, harness, integrable
from liebialg.closedfun import ClosedFunction, cf_const, cf_coord
from liebialg.cli import _report_lines, main
from liebialg.errors import (
    EvalError,
    InvariantError,
    NonUnitDeterminant,
    UnsupportedSpectrum,
)
from liebialg.harness import Workbench

# ad X4 acts on span(X1, X2) with eigenvalues +-sqrt(2), outside Q + iQ
SQRT2_CORPUS = """
algebra R2
  bracket 1 4 -> 1 2
  bracket 2 4 -> 2 1

algebra 4A_1

poisson R2 4A_1 pi

poisson 4A_1 4A_1 pi

membership table8
  pair R2 4A_1
"""

IDENTITY_FRAME = "".join(f"  x{side} {i} = d{i}\n" for side in "lr" for i in range(1, 5))

# the R2 algebra of SQRT2_CORPUS and the abelian one, each with a frame
SQRT2_FRAMES_CORPUS = f"""
algebra R2
  bracket 1 4 -> 1 2
  bracket 2 4 -> 2 1

algebra 4A_1

frame R2
{IDENTITY_FRAME}
frame 4A_1
{IDENTITY_FRAME}"""

ABELIAN_CORPUS = """
algebra 4A_1

poisson 4A_1 4A_1 pi
"""

# (A_4_1, A_4_1.i) with its printed adjoint-block brackets
A41_CORPUS = """
algebra A_4_1
  bracket 2 4 -> 1 1
  bracket 3 4 -> 1 2

algebra A_4_1.i
  bracket 1 2 -> 1 3
  bracket 2 3 -> 1 4

poisson A_4_1 A_4_1.i pi
  pb 1 2 = x3 + x4^3/6
  pb 1 3 = -x4^2/2
  pb 2 3 = x4
"""

# a family whose constraints reject every value of the parameter grid
UNGRIDDED_CORPUS = """
algebra X params b
  constraint b != -2
  constraint b != -1/2
  constraint b != 1/3
  constraint b != 2
  bracket 1 2 -> b 2
  bracket 1 3 -> b 3
  bracket 1 4 -> b 4

bialgebra X X

poisson X X pi
  pb 1 2 = 0
"""

CONTRACT_SHA256 = "c1dce0def27159364b7362a5b3cdb390de97b23b01380c5a9ef57301f0d18c3c"


def test_verify_table1_exit_zero(capsys):
    assert main(["verify", "--table", "1"]) == 0
    out = capsys.readouterr().out
    assert "[table1]" in out
    assert "fail=0" in out


def test_verify_unknown_table_exit_two(capsys):
    assert main(["verify", "--table", "99"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_table_range_runs_every_table_in_it(capsys):
    assert main(["--json", "verify", "--table", "1-3"]) == 0
    tables = [json.loads(line)["table"] for line in capsys.readouterr().out.splitlines()]
    assert list(dict.fromkeys(tables)) == ["table1", "table2", "table34"]


@pytest.mark.parametrize(
    "selector, campaigns",
    [
        ("3-4", ["table34"]),
        ("6-7", ["table67"]),
        ("8-9", ["table89"]),
        ("6-9", ["table67", "table89"]),
        ("1-5", ["table1", "table2", "table34", "table5"]),
        ("all", ["table1", "table2", "table34", "table5", "table67", "table89", "integrable"]),
    ],
)
def test_table_selector_campaigns(selector, campaigns):
    assert [fn.table for fn in harness._campaign_order(selector)] == campaigns


# "\u0661-\u0662" is 1-2 in Arabic-Indic digits, which int() also reads
@pytest.mark.parametrize("selector", ["9-3", "0-2", "1-10", "3-", "1-integrable", "\u0661-\u0662"])
def test_verify_bad_table_range_exit_two(selector, capsys):
    assert main(["verify", "--table", selector]) == 2
    assert "bad table range" in capsys.readouterr().err


@pytest.mark.parametrize("selector", ["", ",", " , "])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_verify_empty_table_selector_exit_two(selector, json_flag, capsys):
    assert main([*json_flag, "verify", "--table", selector]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: table selector {selector!r} names no table"]


def test_verify_missing_corpus_exit_two(capsys):
    assert main(["--corpus", "/nonexistent/path.txt", "verify", "--table", "1"]) == 2


def test_verify_json_schema(capsys):
    assert main(["--json", "verify", "--table", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"table", "entry", "status", "detail", "discrepancies"}
        assert rec["status"] in ("pass", "fail", "flagged")


def test_verify_deterministic_output(capsys):
    assert main(["--json", "--seed", "7", "verify", "--table", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "--seed", "7", "verify", "--table", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical machine reports


@pytest.mark.parametrize("seed", ["40", "263"])
def test_verify_symplectic_tables_independent_of_seed(seed):
    # a sampled closedness check once failed table8/table9 rows at these seeds
    assert main(["--json", "--seed", seed, "verify", "--table", "8-9"]) == 0


def test_verify_all_contract_report(capsys):
    # the behaviour contract: the full seed-0 report is byte-identical
    assert main(["--seed", "0", "--json", "verify", "--table", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 527
    assert hashlib.sha256(out.encode()).hexdigest() == CONTRACT_SHA256


def test_verify_unsupported_spectrum_fails_only_its_entry(tmp_path, capsys):
    path = tmp_path / "sqrt2.txt"
    path.write_text(SQRT2_CORPUS)
    out = []
    for jobs in ("1", "2"):  # inside a worker as well as serially
        argv = ["--corpus", str(path), "--json", "verify", "--table", "6-9", "--jobs", jobs]
        assert main(argv) == 1
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]
    recs = {r["entry"]: r for r in map(json.loads, out[0].splitlines())}
    for entry in ("pb(R2, 4A_1)[pi]", "table8 (R2, 4A_1)"):
        assert recs[entry]["status"] == "fail"
        assert recs[entry]["detail"].startswith("UnsupportedSpectrum: ")
    # the campaign carried on past the failing entry
    assert recs["pb(4A_1, 4A_1)[pi]"]["status"] == "pass"


@pytest.mark.parametrize("table, entries", [("1-2", ["X", "(X, X)"]), ("6", ["pb(X, X)[pi]"])])
def test_an_entry_with_no_admissible_binding_fails(tmp_path, capsys, table, entries):
    path = tmp_path / "ungridded.txt"
    path.write_text(UNGRIDDED_CORPUS)
    assert main(["--corpus", str(path), "--json", "verify", "--table", table]) == 1
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["entry"], r["status"], r["detail"]) for r in recs] == [
        (e, "fail", "no admissible binding on the parameter grid") for e in entries
    ]


def test_verify_table5_unsupported_spectrum_fails_only_its_frame(tmp_path, capsys):
    path = tmp_path / "frames.txt"
    path.write_text(SQRT2_FRAMES_CORPUS)
    out = []
    for jobs in ("1", "2"):  # inside a worker as well as serially
        argv = ["--corpus", str(path), "--json", "verify", "--table", "5", "--jobs", jobs]
        assert main(argv) == 1
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]
    recs = {r["entry"]: r for r in map(json.loads, out[0].splitlines())}
    assert set(recs) == {"frame R2", "frame 4A_1"}
    assert recs["frame R2"]["status"] == "fail"
    assert recs["frame R2"]["detail"].startswith("UnsupportedSpectrum: ")
    assert recs["frame 4A_1"]["status"] == "pass"


@pytest.mark.parametrize(
    "table, module, name",
    [
        ("1", harness, "find_symplectic"),
        ("2", core, "mixed_jacobi_check"),
        ("3-4", harness, "solve_coboundary"),
        ("integrable", integrable, "darboux_check"),
    ],
)
def test_verify_entry_error_fails_each_entry_not_the_run(table, module, name, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvariantError("planted")

    monkeypatch.setattr(module, name, broken)
    assert main(["--json", "verify", "--table", table]) == 1
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert recs
    for rec in recs:
        assert (rec["status"], rec["detail"]) == ("fail", "InvariantError: planted")


def test_invariant_failure_fails_its_entry(tmp_path, monkeypatch, capsys):
    assert not issubclass(InvariantError, ValueError)  # never a usage error
    # a wrong F' fails the F' = B E - A^T F check of (A_4_1, A_4_1.i), whose
    # dual slices are nonzero; the zero dual of the abelian row builds no F.
    # The check is handed x_coord I for F, so the F' it decides on is I
    exact = groupgeom.derivative_is

    def wrong_derivative(x, coord, mc, y):
        n = len(x)
        planted = [[cf_coord(coord) if r == j else cf_const(0) for j in range(n)] for r in range(n)]
        return exact(planted, coord, mc, y)

    monkeypatch.setattr(groupgeom, "derivative_is", wrong_derivative)
    path = tmp_path / "two.txt"
    path.write_text(A41_CORPUS + ABELIAN_CORPUS)
    assert main(["--corpus", str(path), "--json", "verify", "--table", "6"]) == 1
    bad, good = map(json.loads, capsys.readouterr().out.splitlines())
    assert (bad["status"], good["status"]) == ("fail", "pass")
    assert bad["detail"] == (
        "InvariantError: lower-left block of the double's exponential fails F' = B E - A^T F"
    )


def test_dropped_integral_term_fails_its_entry(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a41.txt"
    path.write_text(A41_CORPUS)
    argv = ["--corpus", str(path), "--json", "verify", "--table", "6"]
    assert main(argv) == 0
    capsys.readouterr()
    exact = ClosedFunction.integral

    def lossy(self, i):
        terms = dict(exact(self, i).terms)
        if terms:
            del terms[next(iter(terms))]
        return ClosedFunction(terms)

    monkeypatch.setattr(ClosedFunction, "integral", lossy)
    assert main(argv) == 1
    (rec,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert rec["status"] == "fail"
    assert rec["detail"].startswith("InvariantError: ")


def test_workbench_caches_bivectors_but_not_failures(tmp_path):
    path = tmp_path / "sqrt2.txt"
    path.write_text(SQRT2_CORPUS)
    wb = Workbench(corpus_mod.load(str(path)))
    for _ in range(2):
        with pytest.raises(UnsupportedSpectrum):
            wb.bivector("R2", "4A_1", "pi", {})
    P = wb.bivector("4A_1", "4A_1", "pi", {})
    assert wb.bivector("4A_1", "4A_1", "pi", {}) is P


def test_verify_vacuous_pass_on_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# deliberately empty corpus\n")
    assert main(["--corpus", str(empty), "verify", "--table", "6"]) == 0
    assert "fail=0" in capsys.readouterr().out


def test_verify_parallel_jobs_matches_serial(capsys):
    assert main(["--json", "verify", "--table", "1,2", "--jobs", "2"]) == 0
    par = capsys.readouterr().out
    assert main(["--json", "verify", "--table", "1,2"]) == 0
    ser = capsys.readouterr().out
    assert par == ser
    # the whole contract report, sharded
    assert main(["--seed", "0", "--json", "verify", "--table", "all", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 527
    assert hashlib.sha256(out.encode()).hexdigest() == CONTRACT_SHA256


def test_verify_single_campaign_runs_sharded(capsys):
    assert main(["--json", "verify", "--table", "6-7", "--jobs", "2"]) == 0
    par = capsys.readouterr().out
    assert main(["--json", "verify", "--table", "6-7"]) == 0
    assert par == capsys.readouterr().out


def test_verify_sharded_text_report_times_are_entry_sums():
    reg = corpus_mod.load()
    (rep,) = harness.verify_tables(reg, "integrable", jobs=2)
    assert rep.seconds == sum(r.seconds for r in rep.results) > 0


@pytest.mark.parametrize("jobs", ["0", "-1", "two", "1.5"])
def test_verify_rejects_jobs_below_one(jobs, capsys):
    with pytest.raises(SystemExit) as ex:
        main(["verify", "--table", "1", "--jobs", jobs])
    assert ex.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [1, 2, 10**6])
def test_shards_group_entries_by_algebra(reg, jobs):
    fns = harness._campaign_order("all")
    campaigns = [list(fn.entries(reg, Workbench(reg))) for fn in fns]
    workers, shards = harness._shards(campaigns, jobs)
    assert workers == min(jobs, len(shards))  # no worker without a shard
    assert [len(s) for s in shards] == sorted((len(s) for s in shards), reverse=True)
    # every entry lands in exactly one shard
    placed = [(c, i) for shard in shards for c, i, _ in shard]
    assert sorted(placed) == [(c, i) for c, es in enumerate(campaigns) for i in range(len(es))]
    # table2/34/5/67/89 entries of one base algebra share a shard, so a
    # worker's Workbench memos serve all of them
    algebra = {
        "table2": lambda a: a[2].g,
        "table34": lambda a: a[2].g,
        # a frame row runs `_frame_at` on its name; a frame-spot row takes
        # (bench, name, binding)
        "table5": lambda a: a[2] if a[1] is harness._frame_at else a[1],
        "table67": lambda a: a[1].g,
        "table89": lambda a: a[2][1],
    }
    shard_of_algebra = {}
    tables_of_algebra = {}
    for n, shard in enumerate(shards):
        for c, i, name in shard:
            of = algebra.get(fns[c].table)
            if of:
                g = of(campaigns[c][i][3])
                assert shard_of_algebra.setdefault(g, n) == n, name
                tables_of_algebra.setdefault(g, set()).add(fns[c].table)
    assert len(shard_of_algebra) > 1
    # the grouping is not vacuous: some algebra has entries in all five
    assert set(algebra) in tables_of_algebra.values()
    # reassembly by (campaign, index) reproduces the serial order
    runs = [[None] * len(es) for es in campaigns]
    for shard in shards:
        for c, i, name in shard:
            runs[c][i] = name
    assert runs == [[e[0] for e in es] for es in campaigns]


def test_worker_runs_the_entries_the_parent_listed(reg, monkeypatch):
    monkeypatch.setattr(harness, "_WORKER", {})
    bench = Workbench(reg)
    fns = (harness.verify_table1, harness.verify_table2)
    campaigns = [list(fn.entries(reg, bench)) for fn in fns]
    harness._init_worker(campaigns)
    assert harness._WORKER["campaigns"] is campaigns  # not enumerated again
    shard = [(1, 2, campaigns[1][2][0]), (0, 0, campaigns[0][0][0])]
    done = harness._run_shard(shard)
    assert [(c, i, r.entry) for c, i, r in done] == shard
    assert all(r.status == "pass" for _, _, r in done)
    assert bench._sc  # the listed entries run on the Workbench they name


def test_a_pickled_corpus_gives_the_same_report(reg):
    # a spawned worker gets the parent's corpus pickled, a forked one as is
    back = pickle.loads(pickle.dumps(reg))
    assert back is not reg and sorted(back.algebras) == sorted(reg.algebras)
    want = _report_lines(harness.verify_tables(reg, "6-7"), True)
    assert len(want) > 100
    assert _report_lines(harness.verify_tables(back, "6-7"), True) == want


def test_derive_poisson_worked_row(capsys):
    rc = main(
        ["derive", "poisson", "--algebra", "A_4_7", "--dual", "A_4_7.i",
         "--method", "sklyanin"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "{x2,x3}" in out and "exp(-2*x4)" in out


def test_derive_fields_abelian_identity(capsys):
    assert main(["derive", "fields", "--algebra", "4A_1"]) == 0
    out = capsys.readouterr().out
    assert out.count("(1) d") == 8


def test_derive_rmatrix_contains_expected_term(capsys):
    rc = main(["derive", "rmatrix", "--algebra", "A_4_9_1", "--dual", "II+R.ii"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "-1/3 X1(x)X2" in out


def test_derive_rmatrix_inconsistent_pair(capsys):
    rc = main(["derive", "rmatrix", "--algebra", "A_4_1", "--dual", "A_4_1.i"])
    assert rc == 0
    assert "none" in capsys.readouterr().out


def test_derive_with_parameter_binding(capsys):
    rc = main(
        ["derive", "poisson", "--algebra", "A_4_9_b", "--dual", "A_4_9_b.i",
         "--param", "b=1/3"]
    )
    assert rc == 0
    assert "{x1,x2}" in capsys.readouterr().out


def test_derive_unknown_algebra_exit_two(capsys):
    assert main(["derive", "fields", "--algebra", "NOPE"]) == 2


def test_derive_unbound_parameter_exit_two(capsys):
    assert main(["derive", "fields", "--algebra", "A_4_9_b"]) == 2


def test_derive_zero_denominator_parameter_exit_two(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["derive", "fields", "--algebra", "A_4_11_b", "--param", "b=1/0"])
    assert ex.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "liebialg derive: error: argument --param: zero denominator in 'b=1/0'"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        # found after parsing, by the corpus
        ["derive", "poisson", "--algebra", "A_4_7", "--dual", "A_4_7.i", "--param", "q=1"],
        # found while parsing, by the type function
        ["derive", "fields", "--algebra", "A_4_11_b", "--param", "b=1/0"],
    ],
)
def test_a_derive_param_error_names_the_derive_command(argv, capsys):
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: liebialg derive ")
    assert [line for line in err.splitlines() if "error:" in line][0].startswith(
        "liebialg derive: error: argument --param: "
    )


def test_derive_unsupported_spectrum_exit_one(tmp_path, capsys):
    for cls in (UnsupportedSpectrum, NonUnitDeterminant, EvalError):
        assert not issubclass(cls, ValueError)  # never a usage error
    path = tmp_path / "sqrt2.txt"
    path.write_text(SQRT2_CORPUS)
    argv = ["--corpus", str(path), "derive", "poisson", "--algebra", "R2",
            "--dual", "4A_1", "--method", "pi"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: UnsupportedSpectrum: ")


def test_derive_fields_names_a_non_unit_determinant(capsys):
    # R of VII0+R.iii has determinant 1 - q x2, which vanishes at x2 = 1/q
    assert main(["derive", "fields", "--algebra", "VII0+R.iii", "--param", "q=-2"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1
    assert lines[0].startswith("error: NonUnitDeterminant: determinant 1 + 2*x2 ")
    assert "leaves the closed class" in lines[0]


def test_corpus_constant_division_by_zero_exit_two(tmp_path, capsys):
    path = tmp_path / "div0.txt"
    path.write_text("algebra X\n  bracket 1 2 -> 1/0 3\n")
    assert main(["--corpus", str(path), "verify", "--table", "1"]) == 2
    assert "div0.txt:2:" in capsys.readouterr().err


def test_corpus_non_ascii_digit_exit_two_with_its_location(tmp_path, capsys):
    # "2²" once reached int() whole and ended the run with a bare
    # "invalid literal for int()" and no location
    path = tmp_path / "sup.txt"
    path.write_text("algebra X\n  bracket 1 2 -> 2² 3\n", encoding="utf-8")
    assert main(["--corpus", str(path), "verify", "--table", "1"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: sup.txt:2:2: unexpected character '²'"


def test_python_m_liebialg_help():
    src = os.path.dirname(os.path.dirname(os.path.abspath(liebialg.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-m", "liebialg", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: liebialg")


def test_derive_requires_dual_for_rmatrix(capsys):
    assert main(["derive", "rmatrix", "--algebra", "A_4_7"]) == 2


def test_integrable_example_checks(capsys):
    assert main(["integrable", "--example", "1"]) == 0
    out = capsys.readouterr().out
    assert "darboux pass" in out and "closure pass" in out


def _edited_corpus(path, old, new):
    """The packaged corpus files, written to `path` with `old` replaced by
    `new` wherever it occurs."""
    data = liebialg.__path__[0] + "/data"
    for name in os.listdir(data):
        if name.endswith(".txt"):
            text = open(os.path.join(data, name), encoding="utf-8").read()
            (path / name).write_text(text.replace(old, new), encoding="utf-8")


def test_integrable_names_the_failing_brackets(tmp_path, capsys):
    # example 2 with the printed y2, which has x3 where x2 closes the brackets
    _edited_corpus(tmp_path, "y2 = -(2*exp(x3)*x1*x4 + x2)/x1", "y2 = -(2*exp(x3)*x1*x4 + x3)/x1")
    assert main(["--corpus", str(tmp_path), "integrable", "--example", "2"]) == 1
    out = capsys.readouterr().out
    assert "example 2: darboux FAIL {y1,y2} {y2,y3} {y2,y4}\n" in out
    assert "example 2: closure pass" in out
    assert main(["--corpus", str(tmp_path), "--json", "verify", "--table", "integrable"]) == 1
    recs = {r["entry"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert recs["example 1"]["status"] == "pass"
    assert recs["example 2"]["detail"] == "Darboux brackets fail: {y1,y2}, {y2,y3}, {y2,y4}"


@pytest.mark.parametrize(
    "old, new, located",
    [
        ("ref phase = A_4_9_m12", "ref = A_4_9_m12", "fixtures.txt:24: ref key must"),
        ("expr y1 = x2", "expr = x2", "fixtures.txt:26: expr key must"),
        ("expr y1 = x2", "expr 21 = x2", "fixtures.txt:26: expr key must"),
        ("expr y1 = x2", "expr y9 = x2", None),
    ],
)
def test_a_fixture_that_lost_a_key_fails_to_load_or_fails_its_example(
    tmp_path, capsys, old, new, located
):
    # each made verify raise KeyError out of the integrable campaign
    _edited_corpus(tmp_path, old, new)
    argv = ["--corpus", str(tmp_path), "--json", "verify", "--table", "integrable"]
    if located:
        assert main(argv) == 2
        assert located in capsys.readouterr().err
        return
    assert main(argv) == 1
    recs = {r["entry"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert recs["example 1"]["detail"] == "InputError: fixture example1 has no y1"
    assert recs["example 2"]["status"] == "pass"


@pytest.mark.parametrize(
    "name, old, new, table, message",
    [
        ("frames.txt", "xl 1 = d1", "xl 1 = k*d1", "5",
         "A_4_1: xl 1 names k, not a parameter of the algebra, x1..x4 or d1..d4"),
        ("poisson.txt", "pb 1 2 = x3 - x4^4/2", "pb 1 2 = x3 - k*x4^4/2", "6",
         "pb(A_4_1, A_4_1.iii)[sklyanin]: pb 1 2 names k, not a parameter of the pair or x1..x4"),
    ],
    ids=["xl", "pb"],
)
def test_a_payload_line_with_a_stray_name_fails_to_load_at_its_line(
    tmp_path, capsys, name, old, new, table, message
):
    # each loaded and then failed its verify row, or failed to load with no line
    _edited_corpus(tmp_path, old, new)
    line = (tmp_path / name).read_text(encoding="utf-8").splitlines().index("  " + new) + 1
    assert main(["--corpus", str(tmp_path), "--json", "verify", "--table", table]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {name}:{line}: {message}\n")


def test_integrable_zero_duration(capsys):
    rc = main(
        ["integrable", "--example", "1", "--integrate", "--t-end", "0", "--dt", "1e-3"]
    )
    assert rc == 0
    assert "drift 0.00e+00" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--hamiltonian", "0"),
        ("--hamiltonian", "7"),
        ("--t-end", "inf"),
        ("--t-end", "-1"),
        ("--t-end", "nan"),
        ("--dt", "-1"),
        ("--dt", "0"),
        ("--dt", "nan"),
        ("--dt", "inf"),
    ],
)
def test_integrable_rejects_out_of_range_arguments(flag, value, capsys):
    with pytest.raises(SystemExit) as ex:
        main(["integrable", "--example", "1", "--integrate", flag, value])
    assert ex.value.code == 2
    assert flag in capsys.readouterr().err


def test_integrable_flow_and_csv(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    rc = main(
        ["integrable", "--example", "2", "--integrate", "--t-end", "0.05",
         "--dt", "1e-3", "--csv", str(csv)]
    )
    assert rc == 0
    assert csv.exists()
    header = csv.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,x4,Q1,Q2,Q3,Q4"


def test_integrable_step_limit_is_a_usage_error():
    # 1e203 finite steps: the flow would run until killed
    src = os.path.dirname(os.path.dirname(os.path.abspath(liebialg.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-m", "liebialg", "integrable", "--example", "1", "--integrate",
         "--t-end", "1e200", "--dt", "1e-3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "limit" in done.stderr
    assert "Traceback" not in done.stderr


def test_integrable_step_count_overflow_is_a_usage_error():
    # each argument is finite, but t_end / dt overflows to inf
    src = os.path.dirname(os.path.dirname(os.path.abspath(liebialg.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-m", "liebialg", "integrable", "--example", "1", "--integrate",
         "--t-end", "1e300", "--dt", "1e-10"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


# an identifier that starts with an underscore, such as `_parse_param`
PRIVATE_NAME = re.compile(r"(?<![\w./-])_[A-Za-z]\w*")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["derive", "fields", "--algebra", "A_4_9_b", "--param", "b=x"],
         "argument --param: 'x' is not a rational number"),
        (["derive", "fields", "--algebra", "A_4_9_b", "--param", "b"],
         "argument --param: needs NAME=RAT, got 'b'"),
        (["derive", "fields", "--algebra", "A_4_9_b", "--param", "=1"],
         "argument --param: needs NAME=RAT, got '=1'"),
        (["verify", "--jobs", "x"], "argument --jobs: must be an integer >= 1, got 'x'"),
        (["integrable", "--example", "1", "--t-end", "x"], "argument --t-end: not a number: 'x'"),
        (["integrable", "--example", "1", "--dt", "x"], "argument --dt: not a number: 'x'"),
        # numbers are ASCII: int, float and Fraction also read other digits
        (["derive", "fields", "--algebra", "A_4_11_b", "--param", "b=\u0661"],
         "argument --param: '\u0661' is not a rational number"),
        (["verify", "--jobs", "\u0662"], "argument --jobs: must be an integer >= 1, got '\u0662'"),
        (["integrable", "--example", "1", "--t-end", "\u0661"],
         "argument --t-end: not a number: '\u0661'"),
        (["integrable", "--example", "1", "--dt", "\u0661"], "argument --dt: not a number: '\u0661'"),
        # a NAME the algebra does not declare, or a repeated one, was ignored
        (["derive", "fields", "--algebra", "A_4_7", "--param", "zz=1"],
         "argument --param: no parameter 'zz' in A_4_7"),
        (["derive", "fields", "--algebra", "A_4_11_b", "--param", "b=1", "--param", "b=2"],
         "argument --param: 'b' is given twice"),
        (["derive", "rmatrix", "--algebra", "A_4_9_b", "--dual", "A_4_9_b.i", "--param", "q=1"],
         "argument --param: no parameter 'q' in A_4_9_b or A_4_9_b.i"),
    ],
)
def test_bad_option_value_names_the_problem(argv, message, capsys):
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 2
    (line,) = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
    assert line.endswith("error: " + message)
    assert not PRIVATE_NAME.search(line)


def test_fuzzed_command_lines_exit_0_1_or_2_without_a_traceback(tmp_path, monkeypatch):
    """Drawn argv over the subcommands, their flags, bad values, table
    selectors and unknown names, on commands that each take well under a
    second: every run ends in exit code 0, 1 or 2 and prints no traceback."""
    import contextlib
    import io

    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # derandomize fixes the seed; the local constant pool of imported modules
    # would still make the draws depend on which tests were collected
    from hypothesis.internal.conjecture import providers

    monkeypatch.setattr(providers.HypothesisProvider, "_maybe_draw_constant", lambda *a, **k: None)

    def opt(flag, values):
        return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))

    names = ["4A_1", "A_4_1", "A_4_1.i", "A_4_9_b", "VII0+R.iii", "NOPE", ""]
    params = ["b=1/3", "q=-2", "q=1", "b=1/0", "b", "=1", "b=x", "b=1/3=2"]
    global_flags = st.tuples(
        st.booleans(),
        opt("--seed", ["0", "7", "-1", "x"]),
        opt("--corpus", [str(tmp_path / "missing.txt"), str(tmp_path)]),
    ).map(lambda t: (["--json"] if t[0] else []) + t[1] + t[2])
    # no default selector: it runs every table
    verify = st.tuples(
        st.sampled_from(["1", "integrable", "1,integrable", "1-1", "", ",", "zz", "99",
                         "0-2", "9-3", "3-", "1-integrable"]),
        opt("--jobs", ["1", "0", "-1", "x"]),
    ).map(lambda t: ["verify", "--table", t[0]] + t[1])
    derive = st.tuples(
        st.sampled_from(["fields", "rmatrix", "poisson", "frames"]),
        st.sampled_from(names),
        opt("--dual", names),
        opt("--method", ["auto", "pi", "sklyanin", "exact"]),
        st.lists(st.sampled_from(params), max_size=2),
    ).map(lambda t: ["derive", t[0], "--algebra", t[1]] + t[2] + t[3]
          + [a for p in t[4] for a in ("--param", p)])
    integrable = st.tuples(
        opt("--example", ["1", "2", "3", "x"]),
        st.sampled_from([[], ["--integrate"]]),
        opt("--t-end", ["0", "0.01", "-1", "nan", "1e200", "x"]),
        opt("--dt", ["1e-3", "0", "-1", "1e-10"]),
        opt("--hamiltonian", ["1", "4", "5"]),
        opt("--csv", [str(tmp_path / "no" / "dir" / "t.csv")]),
    ).map(lambda t: ["integrable"] + [a for part in t for a in part])
    other = st.sampled_from([[], ["bogus"], ["-h"], ["verify", "--nope"], ["derive"]])
    argvs = st.tuples(global_flags, st.one_of(verify, derive, integrable, other)).map(
        lambda t: t[0] + t[1]
    )

    seen = set()

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(argvs)
    @hyp.example(["derive", "fields", "--algebra", "VII0+R.iii", "--param", "q=-2"])
    @hyp.example(["derive", "fields", "--algebra", "A_4_9_b", "--param", "b=x"])
    @hyp.example(["verify", "--table", "1", "--jobs", "x"])
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as ex:  # argparse: usage errors and --help
                rc = ex.code
        assert rc in (0, 1, 2), (argv, rc)
        assert "Traceback" not in err.getvalue(), argv
        for line in err.getvalue().splitlines():
            if "error:" in line:
                # says what is wrong, not which private converter refused it
                assert not PRIVATE_NAME.search(line), (argv, line)
        seen.add(rc)

    check()
    assert seen == {0, 1, 2}


def test_no_module_samples_at_random():
    # every verdict is exact: no module may import random or call np.random
    import ast

    pkg = os.path.dirname(os.path.abspath(liebialg.__file__))
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(pkg, name), encoding="utf-8").read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "random":
                mods = ["np.random"]
            else:
                continue
            assert not any(m.split(".")[0] == "random" or m.endswith(".random") for m in mods), (
                f"{name}:{node.lineno} samples at random"
            )


def test_loading_the_corpus_does_not_import_numpy():
    # numpy is imported lazily, only to estimate the roots of a
    # characteristic factor of degree 3 or more, which only an irreducible
    # diagonal block of size 3 or more of an adjoint matrix has.  A 1 x 1
    # block gives its diagonal entry, and a 2 x 2 block's quadratic is solved
    # exactly over Q(i), so building all 47 corpus frames at their first
    # binding (13 of them have a 2 x 2 block, such as VII0+R and A_4_12)
    # loads it for none.
    src = os.path.dirname(os.path.dirname(os.path.abspath(liebialg.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = (
        "import sys; from liebialg import corpus, harness; reg = corpus.load(); "
        "bench = harness.Workbench(reg); "
        "built = [bench.frame(name, reg.grid_bindings(name, cap=1)[0]) for name in sorted(reg.frames)]; "
        "print(len(built), 'numpy' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "47 False\n"
