"""Command-line entry point: verification campaigns, derivations, examples.

Exit codes: 0 all pass (flagged rows do not fail a run), 1 any failure,
including a derivation the exact machinery cannot carry through (an
unsupported spectrum, a non-unit determinant, a singular evaluation),
2 input / usage errors.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from . import corpus as corpus_mod
from .errors import ComputationError, CorpusSyntaxError, InputError
from .harness import Workbench, verify_tables
from .render import render_closed_function


# argparse reports an ArgumentTypeError raised by a type function with its
# own message; any other ValueError only as "invalid <function name> value"
def _parse_param(text):
    name, eq, val = text.partition("=")
    if not (eq and name.strip()):
        raise argparse.ArgumentTypeError(f"needs NAME=RAT, got {text!r}")
    try:
        return name.strip(), Fraction(val.strip())
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"{val.strip()!r} is not a rational number") from None


def _duration(text):
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(x) and x >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return x


def _step(text):
    x = _duration(text)
    if not x:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return x


def _jobs(text):
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _load(args):
    return corpus_mod.load(args.corpus)


def _report_lines(runs, as_json):
    lines = []
    for rep in runs:
        c = rep.counts()
        if as_json:
            # timings are omitted so that every run's report is byte-identical
            for r in rep.results:
                lines.append(
                    json.dumps(
                        {
                            "table": rep.table,
                            "entry": r.entry,
                            "status": r.status,
                            "detail": r.detail,
                            "discrepancies": [d.as_json() for d in r.discrepancies],
                        },
                        sort_keys=True,
                    )
                )
        else:
            lines.append(
                f"[{rep.table}] pass={c['pass']} flagged={c['flagged']} "
                f"fail={c['fail']} ({rep.seconds:.1f}s)"
            )
            for r in rep.results:
                if r.status != "pass":
                    lines.append(f"  {r.status.upper()}: {r.entry} {r.detail}".rstrip())
                for d in r.discrepancies:
                    lines.append(
                        f"    discrepancy {d.entry} {d.field}: printed "
                        f"{d.expected!r}, derived {d.derived!r}"
                    )
    return lines


def cmd_verify(args):
    reg = _load(args)
    runs = verify_tables(reg, args.table, jobs=args.jobs, corpus_paths=args.corpus)
    for line in _report_lines(runs, args.json):
        print(line)
    return 1 if any(not rep.ok for rep in runs) else 0


def cmd_derive(args):
    reg = _load(args)
    binding = dict(args.param or [])
    bench = Workbench(reg)
    out = {}
    if args.what == "fields":
        fr = bench.frame(args.algebra, binding)
        for side, rows in (("XL", fr.XL), ("XR", fr.XR)):
            for i in range(4):
                out[f"{side}_{i+1}"] = _field_text(rows[i])
    elif args.what == "rmatrix":
        sol = bench.coboundary(args.algebra, args.dual, binding)
        if sol.empty:
            out["solution"] = "none (system inconsistent)"
        else:
            out["particular"] = _tensor_text(sol.particular)
            for n, k in enumerate(sol.kernel_basis):
                out[f"kernel_{n+1}"] = _tensor_text(k)
    elif args.what == "poisson":
        method = args.method
        if method == "auto":
            method = bench.method(args.algebra, args.dual)
        P = bench.bivector(args.algebra, args.dual, method, binding)
        for i in range(4):
            for j in range(i + 1, 4):
                if P.P[i][j]:
                    out[f"{{x{i+1},x{j+1}}}"] = render_closed_function(P.P[i][j])
        out["method"] = method
    else:
        raise InputError(f"unknown derivation {args.what!r}")
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        for k in sorted(out):
            print(f"{k} = {out[k]}")
    return 0


def _field_text(row):
    parts = []
    for k, comp in enumerate(row):
        if comp:
            parts.append(f"({render_closed_function(comp)}) d{k+1}")
    return " + ".join(parts) if parts else "0"


def _tensor_text(t):
    parts = []
    for i in range(4):
        for j in range(4):
            if t.r[i][j]:
                parts.append(f"{t.r[i][j]} X{i+1}(x)X{j+1}")
    return " + ".join(parts) if parts else "0"


def cmd_integrable(args):
    from .integrable import (
        closure_check,
        darboux_check,
        flow_conserve,
        load_example,
        write_trajectory_csv,
    )

    reg = _load(args)
    ex = load_example(reg, args.example)
    ok = True
    lines = []
    for what, check in (("darboux", darboux_check), ("closure", closure_check)):
        rep = check(ex)
        ok = ok and rep.passed
        verdict = "pass" if rep.passed else "FAIL " + " ".join(rep.failing)
        lines.append(f"example {args.example}: {what} {verdict}")
    if args.integrate:
        fl = flow_conserve(
            ex, hamiltonian=args.hamiltonian, t_end=args.t_end, dt=args.dt,
            record=bool(args.csv),
        )
        drift = fl.max_drift()
        ok = ok and drift < 1e-6
        lines.append(
            f"example {args.example}: flow drift {drift:.2e} over conserved "
            f"Q{fl.conserved}"
        )
        if args.csv:
            write_trajectory_csv(fl, args.csv)
            lines.append(f"trajectory written to {args.csv}")
    if args.json:
        print(json.dumps({"lines": lines, "ok": ok}))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="liebialg",
        description="Workbench for 4-dimensional Lie bialgebras of symplectic "
        "type and their Poisson-Lie groups",
    )
    p.add_argument("--corpus", default=None, help="corpus file or directory "
                   "(default: packaged data)")
    p.add_argument("--seed", type=int, default=0,
                   help="no effect: every check is exact; still accepted so "
                   "that command lines that pass it keep working")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run table verification campaigns")
    v.add_argument("--table", default="all", help="table selector: all, 1, 2, "
                   "3-4, 5, 6-7, 8-9, integrable, a comma list, or a range "
                   "A-B of table numbers")
    v.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes (>= 1); entries are sharded by base "
                   "algebra, so each worker's Workbench computes what an "
                   "algebra's entries share once")
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("derive", help="derive frames, r-matrices, or bivectors")
    d.add_argument("what", choices=["fields", "rmatrix", "poisson"])
    d.add_argument("--algebra", required=True)
    d.add_argument("--dual")
    d.add_argument("--method", default="auto", choices=["auto", "sklyanin", "pi"])
    d.add_argument("--param", action="append", type=_parse_param,
                   metavar="NAME=RAT")
    d.set_defaults(fn=cmd_derive)

    i = sub.add_parser("integrable", help="run the integrable-system checks")
    i.add_argument("--example", type=int, choices=[1, 2], required=True)
    i.add_argument("--integrate", action="store_true")
    i.add_argument("--hamiltonian", type=int, default=2, choices=[1, 2, 3, 4])
    i.add_argument("--t-end", type=_duration, default=1.0)
    i.add_argument("--dt", type=_step, default=1e-3)
    i.add_argument("--csv", help="trajectory dump path")
    i.set_defaults(fn=cmd_integrable)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "what", None) in ("rmatrix", "poisson") and not args.dual:
            raise InputError("--dual is required for this derivation")
        return args.fn(args)
    except (InputError, CorpusSyntaxError, FileNotFoundError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except ComputationError as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
