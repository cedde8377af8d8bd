"""Pure helpers for the benchmark: percentiles, the CPU speed reference,
correctness gates, span tracing from outside the package, and self-time
arithmetic.

Nothing here imports liebialg at module level, so the unit tests run without
the package on the path.
"""

import functools
import hashlib
import json
import math
import os
import signal
import time
from collections import Counter
from fractions import Fraction


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------


def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it.  Returns (value, sample count)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered)


def median(samples):
    """Middle sample, or the mean of the two middle ones."""
    if not samples:
        raise ValueError("median of an empty sample")
    s = sorted(samples)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


# --------------------------------------------------------------------------
# CPU speed reference
# --------------------------------------------------------------------------

# The host the benchmark runs on changes speed by up to 2x over seconds to
# minutes (other tenants, clock changes), which swamps the program's own
# run-to-run variation.  Timings are therefore scaled by how long a fixed
# reference chunk takes in the same moments: REF_CHUNK_S is its thread CPU
# time at the speed the bounds were set at (a 2-vCPU x86-64 host).
REF_CHUNK_S = 0.0025


def reference_chunk():
    """A fixed piece of stdlib work like the exact kernel's (Fraction
    arithmetic, tuple-keyed dict stores) that runs none of the program."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 200):
        a = Fraction(i, i % 7 + 1)
        b = Fraction(i % 13 + 1, i)
        acc += a * b - b / (a + 1)
        table[(a, b, i)] = acc
    return len(table)


def time_reference():
    """Thread CPU time of one reference chunk: waiting for a core is left
    out, the speed of the core is not."""
    t0 = time.thread_time()
    reference_chunk()
    return time.thread_time() - t0


def at_reference_speed(seconds, ref_times):
    """`seconds` scaled to the reference speed by the mean of the reference
    chunk times taken while they elapsed."""
    if not ref_times:
        raise ValueError("no reference times")
    return seconds * REF_CHUNK_S * len(ref_times) / sum(ref_times)


class SpeedProbe:
    """While the block runs, times one reference chunk every `interval`
    seconds from a SIGALRM handler in the main thread; it costs about
    1% of the time at the default interval."""

    def __init__(self, interval=0.2):
        self.interval = interval
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(time_reference())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        self.samples.append(time_reference())
        return len(self.samples) - 1

    def at_reference_speed(self, seconds, mark):
        """`seconds` that elapsed since `mark()`, scaled by the samples
        taken since, the one `mark()` took included."""
        return at_reference_speed(seconds, self.samples[mark:])


# --------------------------------------------------------------------------
# correctness gates
# --------------------------------------------------------------------------

# `liebialg --seed N --json verify --table all`; the report does not depend
# on N, and the serial and --jobs 2 reports are byte-identical.
VERIFY_REPORT_SHA256 = "c1dce0def27159364b7362a5b3cdb390de97b23b01380c5a9ef57301f0d18c3c"
VERIFY_REPORT_COUNTS = {"pass": 512, "flagged": 15, "fail": 0}


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_report_counts(text):
    """Status tally of a --json verify report (one JSON object per line)."""
    n = Counter()
    for line in text.splitlines():
        if line.strip():
            n[json.loads(line)["status"]] += 1
    return {k: n.get(k, 0) for k in ("pass", "flagged", "fail")}


def verify_report_problems(text, returncode, sha=VERIFY_REPORT_SHA256,
                           counts=VERIFY_REPORT_COUNTS):
    """Every way a verify run misses its recorded outcome; empty when it
    matches.  A single flipped verdict changes the digest."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    got = sha256_text(text)
    if got != sha:
        problems.append(f"report sha256 {got} != {sha}")
    try:
        tally = verify_report_counts(text)
    except (ValueError, KeyError) as ex:
        problems.append(f"report does not parse: {ex}")
    else:
        if tally != counts:
            problems.append(f"verdicts {tally} != {counts}")
    return problems


def outputs_digest(records):
    """Order-independent digest of (request key, rendered output) pairs."""
    h = hashlib.sha256()
    for key, text in sorted(records):
        h.update(f"{key}\t{text}\n".encode("utf-8"))
    return h.hexdigest()


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------


class Tracer:
    """Span recorder that wraps package functions from the outside.

    A span is [name, start, end, parent index]; spans are kept in memory and
    written out by `dump`.  Wrapped callables are replaced everywhere the
    original object is bound in the given modules, so `from x import f`
    copies are traced too, and recursive calls through the module name nest.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._undo = []

    def _wrap_span(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            rec = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    def _wrap_count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, modules, owner, attr, wrapper):
        original = getattr(owner, attr)
        functools.update_wrapper(wrapper, original)
        targets = [owner] + [
            m for m in modules if m is not owner and getattr(m, attr, None) is original
        ]
        for t in targets:
            self._undo.append((t, attr, t.__dict__[attr]))
            setattr(t, attr, wrapper)

    def span(self, modules, owner, attr, name, hook=None):
        """Record a span around every call of owner.attr."""
        self._install(modules, owner, attr, self._wrap_span(name, getattr(owner, attr), hook))

    def count(self, modules, owner, attr, name):
        """Count calls of owner.attr without recording spans."""
        self._install(modules, owner, attr, self._wrap_count(name, getattr(owner, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path, header):
        """Write the header and one span per line as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{name: (calls, self seconds)}: each span's duration minus the part of
    its interval that its child spans cover.  Recursive calls of one name
    nest, so they are not counted twice."""
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered = [
            (max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end
        ]
        own = (end - start) - _union_length(covered)
        calls, secs = out.get(name, (0, 0.0))
        out[name] = (calls + 1, secs + own)
    return out

