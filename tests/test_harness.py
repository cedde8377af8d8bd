"""The binding driver of the table checks: its verdict policy on stub steps
and stub entries, and what a check finds on a pair's full grid that the
campaign's own bindings leave unseen."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from liebialg import harness
from liebialg.harness import ENTRY_ERRORS, Discrepancy, Workbench

FLAGGED = SimpleNamespace(status="flagged", note="recorded misprint")
PLAIN = SimpleNamespace(status="", note="")
DIFFERS = "printed payload differs from the derivation"


def _step(fails=(), differs=(), seen=None):
    """A stub per-binding step: fails at the bindings in `fails`, records a
    discrepancy at those in `differs`, and logs each binding it runs at."""

    def at(bench, item, b, found):
        if seen is not None:
            seen.append(b)
        if b in differs:
            found.append(Discrepancy(item, f"slot at {b}", "printed", "derived"))
        if b in fails:
            return f"broken at {b}"

    return at


def test_the_first_failing_binding_wins_and_ends_the_loop():
    seen = []
    at = _step(fails=(2, 3), differs=(1,), seen=seen)
    status, detail, found = harness._each_binding(None, at, "e", [1, 2, 3, 4], FLAGGED, DIFFERS)
    assert (status, detail) == ("fail", "broken at 2")
    assert seen == [1, 2]  # bindings 3 and 4 are not run
    assert [d.field for d in found] == ["slot at 1"]  # what was found before the failure


@pytest.mark.parametrize(
    "entry, differs, found_at, verdict",
    [
        (FLAGGED, DIFFERS, (2,), ("flagged", FLAGGED.note)),  # flagged, and something differs
        (FLAGGED, None, (), ("flagged", FLAGGED.note)),  # flagged, no payload compared
        (FLAGGED, DIFFERS, (), ("pass", "")),  # flagged, the payload matches (frame VI0+R.iv)
        (PLAIN, DIFFERS, (2,), ("fail", DIFFERS)),  # unflagged, and something differs
        (PLAIN, DIFFERS, (), ("pass", "")),
        (PLAIN, None, (), ("pass", "")),
        (None, None, (), ("pass", "")),  # no corpus entry flags nothing
    ],
)
def test_the_entry_status_decides_only_what_the_steps_left_open(entry, differs, found_at, verdict):
    at = _step(differs=found_at)
    status, detail, found = harness._each_binding(None, at, "e", [1, 2, 3], entry, differs)
    assert (status, detail) == verdict
    assert len(found) == len(found_at)


def test_an_entry_with_no_binding_fails_unchecked():
    seen = []
    status, detail, found = harness._each_binding(None, _step(seen=seen), "e", [], FLAGGED, DIFFERS)
    assert (status, detail, found) == ("fail", "no admissible binding on the parameter grid", [])
    assert seen == []


def test_the_flagged_frame_that_matches_its_payload_passes(reg):
    # `frame VI0+R.iv` is marked flagged, but its printed payload agrees
    assert reg.frames["VI0+R.iv"].status == "flagged"
    rep = harness.verify_table5(reg)
    assert {r.entry: r.status for r in rep.results}["frame VI0+R.iv"] == "pass"


@pytest.mark.parametrize("error", ENTRY_ERRORS)
def test_an_entry_error_in_a_step_fails_that_entry_alone(error):
    def raising(bench, item, b, found):
        if b == 2:
            raise error("no such thing")

    @harness._campaign("stub")
    def stub(reg, bench):
        yield "raises", "k", harness._each_binding, (bench, raising, "e", [1, 2, 3])
        yield "passes", "k", harness._each_binding, (bench, _step(), "e", [1, 2, 3])

    rep = stub(None, bench=object())
    assert [(r.entry, r.status) for r in rep.results] == [("raises", "fail"), ("passes", "pass")]
    assert rep.results[0].detail == f"{error.__name__}: no such thing"


def test_the_full_grid_finds_the_printed_bracket_the_first_binding_hides(reg):
    # table67 checks each pair at its first binding only, q1 = q2 = -2, where
    # the printed {x1,x2} = -(q1 - q2) x2^2 / 2 and the derived +(q1 - q2)
    # x2^2 / 2 both vanish; every binding with q1 != q2 tells them apart
    pe = next(p for p in reg.poisson if p.name == "pb(A_4_9_0, A_4_9_0.v)[pi]")
    bench = Workbench(reg)
    bindings = reg.grid_bindings(pe.g, pe.dual)
    assert len(bindings) == 16
    differing = []
    for b in bindings:
        found = []
        assert harness._poisson_at(bench, pe, b, found) is None
        if found:
            differing.append((b, found))
    assert [b for b, _ in differing] == [b for b in bindings if b["q1"] != b["q2"]]
    b, found = differing[0]
    assert b == {"q1": Fraction(-2), "q2": Fraction(-1, 2)}
    assert [(d.field.split(" at ")[0], d.expected, d.derived) for d in found] == [
        ("{x1,x2}", "3/4*x2^2", "-3/4*x2^2")
    ]
    # the campaign's binding is the first, where nothing differs
    table67 = {name: args for name, _key, _check, args in harness.verify_table67.entries(reg, bench)}
    assert table67[pe.name][2] == bindings[:1]
