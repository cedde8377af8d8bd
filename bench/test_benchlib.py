"""Unit tests for the benchmark's own arithmetic and gates.

    python3 -m pytest bench/test_benchlib.py -q
"""

import json
import signal
import time
import types

import pytest

import benchlib


def test_percentile_nearest_rank_with_sample_count():
    samples = list(range(1, 101))  # 1..100
    assert benchlib.percentile(samples, 50) == (50, 100)
    assert benchlib.percentile(samples, 95) == (95, 100)
    assert benchlib.percentile(samples, 100) == (100, 100)
    # order of the input does not matter; the count is reported
    assert benchlib.percentile([5.0, 1.0, 3.0], 50) == (3.0, 3)
    assert benchlib.percentile([2.0, 1.0], 95) == (2.0, 2)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        benchlib.percentile([], 50)
    with pytest.raises(ValueError):
        benchlib.percentile([1.0], 0)


def test_median_even_and_odd():
    assert benchlib.median([3, 1, 2]) == 2
    assert benchlib.median([4, 1, 2, 3]) == 2.5


def test_at_reference_speed_scales_by_mean_chunk_time():
    ref = benchlib.REF_CHUNK_S
    assert benchlib.at_reference_speed(10.0, [ref, ref]) == pytest.approx(10.0)
    # chunks took twice as long: the host ran at half speed
    assert benchlib.at_reference_speed(10.0, [2 * ref, 2 * ref]) == pytest.approx(5.0)
    assert benchlib.at_reference_speed(10.0, [ref, 3 * ref]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        benchlib.at_reference_speed(1.0, [])


def test_speed_probe_samples_while_active_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with benchlib.SpeedProbe(interval=0.01) as probe:
        mark = probe.mark()
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    assert len(probe.samples) - mark >= 5
    assert all(t > 0 for t in probe.samples)
    assert probe.at_reference_speed(0.2, mark) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_self_time_nesting_and_recursion():
    spans = [
        ["double_adjoint", 0.0, 10.0, -1],  # 0
        ["cf_matexp", 1.0, 4.0, 0],  # 1
        ["cf_matexp", 5.0, 7.0, 0],  # 2
        ["cfm_det", 7.5, 9.5, 0],  # 3: recursive det
        ["cfm_det", 8.0, 9.0, 3],  # 4
        ["cfm_det", 8.2, 8.6, 4],  # 5
    ]
    own = benchlib.self_times(spans)
    assert own["double_adjoint"] == (1, pytest.approx(10.0 - 3.0 - 2.0 - 2.0))
    assert own["cf_matexp"] == (2, pytest.approx(5.0))
    # outer 2.0 - 1.0, middle 1.0 - 0.4, inner 0.4: total equals the outer span
    assert own["cfm_det"] == (3, pytest.approx(2.0))
    total = sum(s for _, s in own.values())
    assert total == pytest.approx(10.0)


def test_self_time_overlapping_children_counted_once():
    spans = [["p", 0.0, 4.0, -1], ["c", 1.0, 3.0, 0], ["c", 2.0, 3.5, 0]]
    assert benchlib.self_times(spans)["p"][1] == pytest.approx(1.5)


def _report(statuses):
    lines = [
        json.dumps({"table": "t", "entry": f"e{i}", "status": s, "detail": "", "discrepancies": []},
                   sort_keys=True)
        for i, s in enumerate(statuses)
    ]
    return "\n".join(lines) + "\n"


def test_flipped_verdict_trips_the_verify_gate():
    good = _report(["pass", "pass", "flagged"])
    sha = benchlib.sha256_text(good)
    counts = {"pass": 2, "flagged": 1, "fail": 0}
    assert benchlib.verify_report_problems(good, 0, sha, counts) == []
    for flipped in (_report(["pass", "fail", "flagged"]), _report(["pass", "pass", "pass"])):
        problems = benchlib.verify_report_problems(flipped, 0, sha, counts)
        assert any("sha256" in p for p in problems)
        assert any("verdicts" in p for p in problems)
    assert benchlib.verify_report_problems(good, 1, sha, counts) == ["exit code 1"]


def test_outputs_digest_ignores_order():
    a = [("k1", "x"), ("k2", "y")]
    assert benchlib.outputs_digest(a) == benchlib.outputs_digest(a[::-1])
    assert benchlib.outputs_digest(a) != benchlib.outputs_digest([("k1", "x"), ("k2", "z")])


def test_tracer_wraps_every_binding_and_restores():
    mod = types.ModuleType("m")
    exec("def fact(n):\n    return 1 if n <= 1 else n * fact(n - 1)\n", mod.__dict__)
    user = types.ModuleType("u")
    user.fact = mod.fact
    original = mod.fact
    tr = benchlib.Tracer()
    seen = []
    tr.span([mod, user], mod, "fact", "m.fact", lambda a, k, out: seen.append(out))
    assert user.fact(3) == 6
    assert [s[0] for s in tr.spans] == ["m.fact"] * 3
    assert [s[3] for s in tr.spans] == [-1, 0, 1]
    assert seen == [1, 2, 6]
    tr.uninstall()
    assert mod.fact is original and user.fact is original
