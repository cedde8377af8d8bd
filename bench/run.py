#!/usr/bin/env python3
"""liebialg benchmark: three workloads through the public API and the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (one client, closed loop, in this
process):

  verify-all         `liebialg --seed 0 --json verify --table all`, serially,
                     through the CLI's entry point (the behaviour contract;
                     see CONTRACT_SEED), in passes for about S seconds
  verify-all-jobs2   the same with `--jobs 2`
  derive-cold        seeded shuffle of 311 single derivations, each on a
                     fresh Workbench (166 bivectors, 47 frames, 98 r-matrix
                     solves), in passes for about S seconds

With --trace 0 the run prints the end-to-end metrics, which every workload
has.  Times are given at a reference speed, because this host's speed swings
far more than the program's own timings do: each is scaled by how long a
fixed reference task that runs none of the program took in the same moments
(see benchlib.REF_CHUNK_S).  The times as measured are printed in the
`# info` line.

  setup_s      median of 10 fresh interpreters up to `corpus.load()`, 5 spawned
               before the body and 5 after it, with byte code cached; each
               scaled by an interpreter launch that imports numpy right
               after it (see setup_sample)
  wall_s       median time of one pass of the workload body, each pass
               scaled by reference chunks timed every 0.2 s during it
  peak_rss_mb  peak RSS of this process plus that of its largest child

derive-cold also prints its latency percentiles over requests, as measured,
as `#` lines.  With --trace 1 the body runs once untraced, which gives those
percentiles as per-layer metrics, and once with spans wrapped around each
layer's public functions, and the run prints the per-layer metrics.  Every
output is checked; a failed check makes the run exit 1.  The last stdout
line is the JSON result.
"""

import argparse
import contextlib
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import subprocess
import sys
import time

import benchlib
from benchlib import median, percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

WORKLOADS = ("verify-all", "verify-all-jobs2", "derive-cold")
KINDS = ("poisson", "fields", "rmatrix")
SETUP_REPS = 5
# wall time of `python -c "import numpy"` at the speed the bounds were set at
REF_LAUNCH_S = 0.18
KERNEL_SAMPLE = 12
KERNEL_MIN_S = 0.2

# sha256 over the sorted (request, rendered output) pairs of derive-cold,
# recorded on the seed commit
DERIVE_DIGEST = "e0f0a564a3aea27ca1c121ea1b4555c67c6bc9766592c2fd2b4ffe60f8cb311b"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


# `liebialg --seed` picks the random sample points of the program's numeric
# checks.  At a few seeds (40, 263 and 401 among 0-401) the numeric closedness
# check of `symplectic_classify` wrongly fails one table8/table9 entry, a
# known defect that ROADMAP item 4 removes.  The verify workloads therefore
# run the behaviour-contract command at its own seed, the one its report
# sha256 was recorded at; the benchmark seed does not reach them.
CONTRACT_SEED = 0


def child_env():
    env = dict(os.environ)
    # set-up is timed with byte code cached, as an installed package has it,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --------------------------------------------------------------------------
# run header
# --------------------------------------------------------------------------


def run_header(args):
    import numpy

    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    corpus = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "liebialg", "data", "*.txt"))):
        with open(path, "rb") as fh:
            corpus.update(os.path.basename(path).encode() + b"\0" + fh.read())
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": CONTRACT_SEED if args.workload.startswith("verify-all") else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "corpus_sha256": corpus.hexdigest(),
        "src_lines": src_lines,
    }


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


class Tally:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok


def launch(code):
    """Wall time of a fresh interpreter running `code`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True, timeout=120)
    return time.perf_counter() - t0


def setup_once():
    """Wall time of a fresh interpreter up to `corpus.load()` returning."""
    return launch("from liebialg import corpus; corpus.load()")


def setup_sample():
    """One set-up time, as measured and at the reference speed.  Start-up
    is page faults and file mapping more than arithmetic, so its reference
    is not the CPU chunk but the launch, right after it, of an interpreter
    that imports numpy: the largest part of set-up that is not the
    program's."""
    raw = setup_once()
    return raw, raw * REF_LAUNCH_S / launch("import numpy")


def verify_argv(jobs):
    argv = ["--seed", str(CONTRACT_SEED), "--json", "verify", "--table", "all"]
    return argv + (["--jobs", str(jobs)] if jobs > 1 else [])


def verify_once(jobs, tally):
    """One `liebialg verify` run through the CLI's entry point in this
    process, so that the speed probe samples the core it runs on."""
    from liebialg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(verify_argv(jobs))
    check_verify(buf.getvalue(), code, tally)


def check_verify(report, returncode, tally):
    """Each verdict is an operation, and so is the report gate."""
    counts = {}
    with contextlib.suppress(ValueError, KeyError):
        counts = benchlib.verify_report_counts(report)
    tally.attempted += sum(counts.values())
    tally.failed += counts.get("fail", 0)
    problems = benchlib.verify_report_problems(report, returncode)
    tally.check(not problems, "; ".join(problems))


def another_pass(walls, t_start, seconds):
    """Run passes until one is done and another one of the median length
    would end after `seconds`."""
    if not walls:
        return True
    return time.perf_counter() - t_start + median(walls) <= seconds


def derive_requests(reg):
    """Every corpus bivector row with its printed method, every frame and
    every r-matrix pair, each at its first grid binding."""
    reqs = []
    for pe in reg.poisson:
        for b in reg.grid_bindings(pe.g, pe.dual, cap=1):
            reqs.append(("poisson", pe.g, pe.dual, pe.method, b))
    for name in sorted(reg.frames):
        for b in reg.grid_bindings(name, cap=1):
            reqs.append(("fields", name, None, None, b))
    for g, dual in sorted(reg.rmatrices):
        for b in reg.grid_bindings(g, dual, cap=1):
            reqs.append(("rmatrix", g, dual, None, b))
    return reqs


def request_key(req):
    kind, g, dual, method, b = req
    return f"{kind} {g} {dual} {method} {sorted(b.items())}"


def serve(reg, req):
    """One derivation on a fresh Workbench, rendered as `liebialg derive`
    would print it."""
    from liebialg.harness import Workbench
    from liebialg.render import render_closed_function
    from liebialg.rmatrix import solve_coboundary

    kind, g, dual, method, b = req
    if kind == "poisson":
        P = Workbench(reg).bivector(g, dual, method, b).P
        cells = [P[i][j] for i in range(4) for j in range(i + 1, 4)]
        return ";".join(render_closed_function(c) for c in cells)
    if kind == "fields":
        fr = Workbench(reg).frame(g, b)
        return ";".join(render_closed_function(c) for rows in (fr.XL, fr.XR) for row in rows for c in row)
    sol = solve_coboundary(reg.instantiate(g, b), reg.instantiate(dual, b))
    if sol.empty:
        return "none"
    return ";".join(str(x) for t in [sol.particular] + sol.kernel_basis for row in t.r for x in row)


def derive_pass(reg, order, lat, tally):
    """Every derive request once, in the given order; appends each request's
    latency (s) to `lat` by kind."""
    records = []
    for req in order:
        t0 = time.perf_counter()
        try:
            text = serve(reg, req)
        except Exception as ex:  # a raised request is a failed operation
            text = f"raised {type(ex).__name__}: {ex}"
            tally.check(False, f"{request_key(req)}: {text}")
        else:
            tally.check(True, "")
        lat[req[0]].append(time.perf_counter() - t0)
        records.append((request_key(req), text))
    got = benchlib.outputs_digest(records)
    tally.check(got == DERIVE_DIGEST, f"derive digest {got} != {DERIVE_DIGEST}")


def latency_figures(lat):
    """Median and 95th percentile over all requests, and the median of each
    kind, in ms, with their sample counts."""
    every = [t for kind in KINDS for t in lat[kind]]
    p50, n = percentile(every, 50)
    p95, _ = percentile(every, 95)
    out = {"derive.p50_ms": 1e3 * p50, "derive.p95_ms": 1e3 * p95}
    counts = {"derive": n}
    for kind in KINDS:
        value, counts[kind] = percentile(lat[kind], 50)
        out[f"derive.{kind}_p50_ms"] = 1e3 * value
    return out, counts


def run_body(args, reg, seconds, tally, probe=None):
    """The workload body in passes for about `seconds` (at least one): a
    verify run, or a seeded shuffle of every derive request.  Returns the
    pass times, the same at the reference speed (with a probe), derive-cold's
    latency figures and their sample counts."""
    jobs = 2 if args.workload == "verify-all-jobs2" else 1
    reqs = derive_requests(reg) if args.workload == "derive-cold" else None
    rng = random.Random(args.seed)
    lat = {kind: [] for kind in KINDS}
    walls, scaled = [], []
    t_start = time.perf_counter()
    while another_pass(walls, t_start, seconds):
        if reqs:
            order = list(reqs)
            rng.shuffle(order)
        mark = probe.mark() if probe else None
        t0 = time.perf_counter()
        if reqs:
            derive_pass(reg, order, lat, tally)
        else:
            verify_once(jobs, tally)
        walls.append(time.perf_counter() - t0)
        if probe:
            scaled.append(probe.at_reference_speed(walls[-1], mark))
    figures, counts = latency_figures(lat) if reqs else ({}, {})
    return walls, scaled, figures, counts


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# --------------------------------------------------------------------------
# untraced run: end-to-end metrics
# --------------------------------------------------------------------------


def end_to_end(args, tally):
    from liebialg import corpus

    setup_once()  # writes byte code; not counted
    setup = [setup_sample() for _ in range(SETUP_REPS)]
    reg = corpus.load()
    with benchlib.SpeedProbe() as probe:
        walls, scaled, figures, counts = run_body(args, reg, args.seconds, tally, probe)
    setup += [setup_sample() for _ in range(SETUP_REPS)]
    metrics = {
        "setup_s": median([s for _, s in setup]),
        "wall_s": median(scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "measured_setup_s": round(median([r for r, _ in setup]), 4),
        "measured_pass_s": [round(w, 4) for w in walls],
        "pass_s_at_reference_speed": [round(w, 4) for w in scaled],
        "cpu_speed": round(benchlib.REF_CHUNK_S / median(probe.samples), 3),
        "speed_samples": len(probe.samples),
        "samples": counts,
        "figures": figures,
    }
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}, info


# --------------------------------------------------------------------------
# traced run: per-layer metrics
# --------------------------------------------------------------------------

# Which end-to-end metric each layer's per-layer metrics should move, and on
# which workload.
LAYERS = {
    "corpus.": "setup_s on every workload",
    "harness.": "wall_s on verify-all and verify-all-jobs2; flat on derive-cold",
    "core.": "wall_s on verify-all (table1/2) and derive.poisson_p50_ms on derive-cold",
    "rmatrix.": "derive.rmatrix_p50_ms on derive-cold and wall_s on verify-all (table34)",
    "ratlinalg.": "derive.rmatrix_p50_ms on derive-cold (beneath rmatrix)",
    "closedfun.": "derive.poisson_p50_ms, derive.fields_p50_ms and wall_s on verify-all "
                  "(cfm_eval through its integrable campaign); flat on derive.rmatrix_p50_ms",
    "groupgeom.": "derive.fields_p50_ms, derive.poisson_p50_ms and wall_s on verify-all",
    "poisson.": "wall_s on verify-all (table67/89) and derive.poisson_p50_ms on derive-cold",
    "integrable.": "wall_s on verify-all (its integrable campaign); flat on derive-cold",
    "exprtree.": "wall_s on verify-all (its integrable campaign); flat on derive-cold",
    "render.": "derive.p50_ms and derive.p95_ms on derive-cold",
    "derive.": "wall_s on derive-cold (its untraced request latencies; 0 on other workloads)",
    "trace.": "none: the cost of tracing itself",
}

SPANNED = {
    "corpus": ["load"],
    "harness": ["Workbench.frame", "Workbench.bivector"],
    "core": ["jacobi_check", "mixed_jacobi_check", "build_double", "pairing_ad_invariant",
             "find_symplectic"],
    "rmatrix": ["solve_coboundary", "classify_r", "generates_cocommutator"],
    "ratlinalg": ["rref"],
    "closedfun": ["cf_matexp", "cfm_inverse_unitdet", "cfm_mul", "cfm_det", "cfm_eq",
                  "cfm_eval"],
    "groupgeom": ["invariant_frame", "double_adjoint", "frame_bracket_residuals"],
    "poisson": ["sklyanin_bivector", "pi_bivector", "poisson_jacobi_check",
                "linearization_check", "symplectic_classify"],
    "integrable": ["darboux_check", "closure_check", "leibniz_check", "flow_conserve"],
    "render": ["render_closed_function"],
}
# spans of one function reported under one name per matrix size
SPLIT = {"closedfun.cf_matexp": ("closedfun.cf_matexp4", "closedfun.cf_matexp8")}
CAMPAIGNS = ("table1", "table2", "table34", "table5", "table67", "table89", "integrable")
COUNTED = ("exprtree.Expr.evalf", "exprtree.Expr.diff")
EXTRA = {
    "harness.worker_busy_ratio": ("ratio", "higher"),
    "harness.frame_hit_ratio": ("ratio", "higher"),
    "harness.bivector.distinct_ratio": ("ratio", "higher"),
    "closedfun.cf_matexp.distinct_ratio": ("ratio", "higher"),
    "closedfun.bivector_terms": ("count", "lower"),
    "closedfun.cf_mul.us": ("us", "lower"),
    "closedfun.cf_diff.us": ("us", "lower"),
    "closedfun.crat_mul.ns": ("ns", "lower"),
    "closedfun.crat_hash.ns": ("ns", "lower"),
    "derive.p50_ms": ("ms", "lower"),
    "derive.p95_ms": ("ms", "lower"),
    "derive.poisson_p50_ms": ("ms", "lower"),
    "derive.fields_p50_ms": ("ms", "lower"),
    "derive.rmatrix_p50_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_names():
    """{metric: (unit, better)} in a fixed order."""
    out = {}
    for mod, fns in SPANNED.items():
        for fn in fns:
            for base in SPLIT.get(f"{mod}.{fn}", (f"{mod}.{fn}",)):
                out[f"{base}.calls"] = ("count", "lower")
                out[f"{base}.s"] = ("s", "lower")
    for c in CAMPAIGNS:
        out[f"harness.{c}.s"] = ("s", "lower")
    for name in COUNTED:
        out[f"{name}.calls"] = ("count", "lower")
    out.update(EXTRA)
    return out


def _frac_key(m):
    from fractions import Fraction

    return tuple(tuple(Fraction(x) for x in row) for row in m)


class LayerProbe:
    """Installs the tracer on the package and keeps what the hooks see."""

    def __init__(self):
        self.tracer = benchlib.Tracer()
        self.bivector_keys = []
        self.matexp_keys = []
        self.bivectors = []
        self.reports = []

    def install(self):
        import liebialg.cli  # noqa: F401  (bind its imported names before wrapping)
        from liebialg import exprtree, harness

        owners = {mod: importlib.import_module(f"liebialg.{mod}") for mod in SPANNED}
        mods = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "liebialg"]
        hooks = {
            "harness.Workbench.bivector": lambda a, k, out: self.bivector_keys.append(
                (a[1], a[2], a[3], tuple(sorted(a[4].items())))
            ),
            "closedfun.cf_matexp": lambda a, k, out: self.matexp_keys.append((_frac_key(a[0]), a[1])),
            "poisson.sklyanin_bivector": lambda a, k, out: self.bivectors.append(out),
            "poisson.pi_bivector": lambda a, k, out: self.bivectors.append(out),
        }
        tr = self.tracer
        for mod, fns in SPANNED.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                if name in SPLIT:
                    name = lambda m, coord, _n=name: f"{_n}{len(m)}"  # noqa: E731
                owner, attr = owners[mod], fn
                if "." in fn:
                    cls, attr = fn.split(".")
                    owner = getattr(owner, cls)
                tr.span(mods, owner, attr, name, hooks.get(f"{mod}.{fn}"))
        tr.span(mods, harness, "verify_tables", "harness.verify_tables",
                lambda a, k, out: self.reports.extend(out))
        tr.count(mods, exprtree.Expr, "evalf", "exprtree.Expr.evalf")
        tr.count(mods, exprtree.Expr, "diff", "exprtree.Expr.diff")

    def metrics(self, jobs):
        tr = self.tracer
        own = benchlib.self_times(tr.spans)
        values = {}
        for name in per_layer_names():
            base, _, field = name.rpartition(".")
            if field in ("calls", "s") and base in own:
                values[name] = own[base][0] if field == "calls" else own[base][1]
            elif field == "calls" and base in COUNTED:
                values[name] = tr.counts.get(base, 0)
            else:
                values[name] = 0
        for rep in self.reports:
            values[f"harness.{rep.table}.s"] = rep.seconds
        verify_span = [e - s for n, s, e, _ in tr.spans if n == "harness.verify_tables"]
        if verify_span and self.reports:
            values["harness.worker_busy_ratio"] = sum(r.seconds for r in self.reports) / (
                jobs * sum(verify_span)
            )
        frames = own.get("harness.Workbench.frame", (0, 0))[0]
        if frames:
            values["harness.frame_hit_ratio"] = 1 - own.get("groupgeom.invariant_frame", (0, 0))[0] / frames
        if self.bivector_keys:
            values["harness.bivector.distinct_ratio"] = len(set(self.bivector_keys)) / len(self.bivector_keys)
        if self.matexp_keys:
            values["closedfun.cf_matexp.distinct_ratio"] = len(set(self.matexp_keys)) / len(self.matexp_keys)
        values["closedfun.bivector_terms"] = sum(
            len(c.terms) for pb in self.bivectors for row in pb.P for c in row
        )
        values.update(kernel_timings(self.bivectors))
        return values


def kernel_timings(bivectors):
    """Per-operation cost of the exact kernel on a fixed sample of the
    workload's own bivector entries."""
    import timeit

    seen = {}
    for pb in bivectors:
        for i in range(4):
            for j in range(i + 1, 4):
                c = pb.P[i][j]
                if c:
                    seen.setdefault(hash(c), c)
    funcs = sorted(seen.values(), key=lambda c: (len(c.terms), repr(sorted(map(repr, c.terms)))))
    if not funcs:
        return {}
    step = max(1, len(funcs) // KERNEL_SAMPLE)
    sample = funcs[::step][:KERNEL_SAMPLE]
    crats = [c for f in sample for c in f.terms.values()][:64]
    crats += [r for f in sample for (_, z) in f.terms for r in z if r][:64]

    def per_op(fn, ops):
        timer = timeit.Timer(fn)
        n, t = 1, 0.0
        while t < KERNEL_MIN_S:
            t = timer.timeit(n)
            n *= 2
        return t / (n // 2) / ops

    return {
        "closedfun.cf_mul.us": 1e6 * per_op(lambda: [a * b for a in sample for b in sample], len(sample) ** 2),
        "closedfun.cf_diff.us": 1e6 * per_op(lambda: [f.diff(i) for f in sample for i in (1, 2, 3, 4)], 4 * len(sample)),
        "closedfun.crat_mul.ns": 1e9 * per_op(lambda: [a * b for a in crats for b in crats[:8]], 8 * len(crats)),
        "closedfun.crat_hash.ns": 1e9 * per_op(lambda: [hash(c) for c in crats], len(crats)),
    }


def per_layer(args, tally, header):
    """One untraced pass (its own figures and the tracing baseline), then one
    traced pass, both in this process."""
    from liebialg import corpus

    def body():
        # the in-process CLI loads the corpus itself
        reg = None if args.workload.startswith("verify-all") else corpus.load()
        return run_body(args, reg, 0, tally)

    plain, _, figures, counts = body()
    probe = LayerProbe()
    probe.install()
    try:
        traced, _, _, _ = body()
    finally:
        probe.tracer.uninstall()
    jobs = 2 if args.workload == "verify-all-jobs2" else 1
    values = probe.metrics(jobs)
    values.update(figures)
    values["trace.overhead_s"] = traced[0] - plain[0]
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
    probe.tracer.dump(path, dict(header, counts=dict(probe.tracer.counts)))
    info = {"trace_file": os.path.relpath(path, ROOT), "spans": len(probe.tracer.spans),
            "samples": counts}
    if jobs > 1:
        info["note"] = ("campaigns run in pool workers, which record no spans; harness.*.s "
                        "and the busy ratio come from the reports they return")
    units = per_layer_names()
    return {k: {"value": values[k], "unit": units[k][0]} for k in units}, info


# --------------------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a stopped run unwinds, so the child processes it started are stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "liebialg", "cli.py")):
        print(f"error: no liebialg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    header = run_header(args)
    print("# header " + json.dumps(header, sort_keys=True), flush=True)
    tally = Tally()
    if args.trace:
        metrics, info = per_layer(args, tally, header)
        for prefix, moves in LAYERS.items():
            print(f"# {prefix}* moves {moves}")
    else:
        metrics, info = end_to_end(args, tally)
        for name, value in info.pop("figures").items():
            print(f"# {name} = {value:.6g}")
    print("# info " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# fail_ratio = {tally.failed}/{tally.attempted} = {ratio:.4g}")
    for problem in tally.problems[:20]:
        print(f"# FAILED: {problem}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
