"""Corpus format: parsing, diagnostics, canonical serialization, instantiation."""

from fractions import Fraction
from importlib import resources

import pytest

from liebialg import corpus as corpus_mod
from liebialg.errors import CorpusSyntaxError, InputError

SAMPLE = """
# a comment
algebra demo params b
  constraint b != 0
  bracket 1 4 -> 1 + b 1
  bracket 2 4 -> 1 2
  source somewhere

algebra demo_dual
  bracket 1 2 -> 1/2 3, -1/2 4

bialgebra demo demo_dual

rmatrix demo demo_dual
  r -1/2 1 wedge 4 ; c 2 tensor 2
  rfree c
  schouten zero

poisson demo demo_dual sklyanin
  pb 1 2 = 1 - exp(-2*x4)
  pb 1 3 = x4^2/2

frame demo
  xl 1 = exp(x4)*d1
  xl 2 = d2
  xl 3 = d3
  xl 4 = d4
  xr 1 = d1
  xr 2 = d2
  xr 3 = d3
  xr 4 = d4 - x1*d1

membership table8
  pair demo demo_dual

fixture sample
  ref algebra = demo
  val level = 3/2
  expr y1 = x1/x2
  matrix M = 1 0 ; 0 1
"""


def test_parse_block_inventory():
    entries = corpus_mod.parse(SAMPLE)
    kinds = [e.kind for e in entries]
    assert kinds == [
        "algebra",
        "algebra",
        "bialgebra",
        "rmatrix",
        "poisson",
        "frame",
        "membership",
        "fixture",
    ]


def test_bracket_payload_values():
    entries = corpus_mod.parse(SAMPLE)
    reg = corpus_mod.Corpus(entries)
    sc = reg.instantiate("demo", {"b": Fraction(-1, 2)})
    assert sc.f[0][3][0] == Fraction(1, 2)
    assert sc.f[1][3][1] == 1


def test_abelian_block():
    entries = corpus_mod.parse("algebra empty\n")
    assert not corpus_mod.Corpus(entries).instantiate("empty").nonzero()


def test_constraint_violation_rejected():
    reg = corpus_mod.Corpus(corpus_mod.parse(SAMPLE))
    with pytest.raises(InputError):
        reg.instantiate("demo", {"b": Fraction(0)})


def test_unbound_parameter_rejected():
    reg = corpus_mod.Corpus(corpus_mod.parse(SAMPLE))
    with pytest.raises(InputError):
        reg.instantiate("demo")


def test_identity_binding_on_parameter_free_entry():
    reg = corpus_mod.Corpus(corpus_mod.parse(SAMPLE))
    assert reg.instantiate("demo_dual", {}) == reg.instantiate("demo_dual")


def test_syntax_error_location():
    with pytest.raises(CorpusSyntaxError) as exc:
        corpus_mod.parse("algebra x\n  bracket 1 -> 1 1\n", filename="f.txt")
    assert exc.value.line == 2


def test_constant_division_by_zero_is_located():
    with pytest.raises(CorpusSyntaxError) as exc:
        corpus_mod.parse("algebra x\n  bracket 1 2 -> 1/0 3\n", filename="f.txt")
    assert exc.value.line == 2


def test_unknown_keyword_rejected():
    with pytest.raises(CorpusSyntaxError):
        corpus_mod.parse("algebra x\n  nonsense 1 2 3\n")


def test_payload_outside_block_rejected():
    with pytest.raises(CorpusSyntaxError):
        corpus_mod.parse("bracket 1 2 -> 1 3\n")


def test_out_of_range_index_rejected():
    with pytest.raises(CorpusSyntaxError):
        corpus_mod.parse("algebra x\n  bracket 1 9 -> 1 1\n")


def test_unresolved_reference_rejected():
    with pytest.raises(CorpusSyntaxError):
        corpus_mod.Corpus(corpus_mod.parse("bialgebra ghost ghost2\n"))


def test_serialize_roundtrip_sample():
    entries = corpus_mod.parse(SAMPLE)
    text = corpus_mod.serialize(entries)
    again = corpus_mod.parse(text)
    assert corpus_mod.serialize(again) == text
    assert again == entries


def test_serialize_roundtrip_packaged(reg):
    text = corpus_mod.serialize(reg.entries)
    again = corpus_mod.parse(text)
    assert again == reg.entries


def test_grid_bindings_filter_constraints(reg):
    grid = reg.grid_bindings("A_4_9_b")
    values = {b["b"] for b in grid}
    assert Fraction(-1, 2) not in values
    assert values <= {Fraction(-2), Fraction(1, 3), Fraction(2)}
    assert reg.grid_bindings("A_4_7") == [{}]


def test_grid_bindings_join_pair_parameters(reg):
    grid = reg.grid_bindings("A_4_9_b", "A_4_9_b.i")
    assert all(set(b) == {"b"} for b in grid)
    grid2 = reg.grid_bindings("A_4_12", "A_4_12.i")
    assert all(set(b) == {"q1", "q2"} for b in grid2)


def test_instantiate_matches_separately_listed_family_member(reg):
    generic = reg.algebras["A_4_9_b"]
    special = corpus_mod.AlgebraEntry(
        name="tmp",
        params=["b"],
        constraints=[],
        brackets=generic.brackets,
    )
    at_half = special.structure_constants({"b": Fraction(-1, 2)})
    assert at_half == reg.instantiate("A_4_9_m12")


def test_packaged_corpus_loads_and_tables_present(reg):
    assert len(reg.algebras) > 90
    assert len(reg.bialgebras) == 138
    assert len(reg.rmatrices) > 90
    assert len(reg.poisson) > 150
    assert set(reg.memberships) == {"table8", "table9"}
    assert {"example1", "example2"} <= set(reg.fixtures)


def test_frames_extract_linear_components(reg):
    import random

    fe = reg.frames["A_4_7"]
    comps = fe.components("L", 2, {})
    rng = random.Random(0)
    # linearity spot check: field = sum of components against unit vectors
    for _ in range(5):
        p = [rng.uniform(-1, 1) for _ in range(4)]
        dvals = {f"d{k}": Fraction(rng.randint(-3, 3)) for k in range(1, 5)}
        full = fe.xl[2].subs_params(dvals).to_closed().eval(p)
        parts = sum(float(dvals[f"d{k+1}"]) * comps[k].eval(p) for k in range(4))
        assert abs(full - parts) < 1e-9


def test_poisson_closed_matrix_antisymmetric(reg):
    pe = next(p for p in reg.poisson if p.g == "A_4_7")
    m = pe.closed_matrix({})
    for i in range(4):
        for j in range(4):
            assert m[i][j] == -m[j][i]


def test_json_export_roundtrippable_text(reg):
    import json

    data = corpus_mod.to_json(reg.entries)
    blob = json.dumps(data)
    assert json.loads(blob) == data
    kinds = {rec["kind"] for rec in data}
    assert kinds == {
        "algebra",
        "bialgebra",
        "rmatrix",
        "poisson",
        "frame",
        "membership",
        "fixture",
    }
    demo = next(r for r in data if r["kind"] == "algebra" and r["name"] == "A_4_1")
    assert demo["brackets"]["2,4"] == [["1", 1]]


def test_q_zero_binding_rejected_for_scaled_dual(reg):
    with pytest.raises(InputError):
        reg.instantiate("A_4_3.iii", {"q": Fraction(0)})


# --- token-level fuzzing of the packaged corpus text -------------------------


def test_rmatrix_block_without_r_line_round_trips():
    # serialize wrote a bare "  r " for it, which parse rejects
    entries = corpus_mod.parse("rmatrix demo demo_dual\n  schouten zero\n")
    assert entries[0].terms == []
    once = corpus_mod.serialize(entries)
    assert corpus_mod.serialize(corpus_mod.parse(once)) == once


def _packaged_texts():
    pkg = resources.files("liebialg").joinpath("data")
    return [
        (item.name, item.read_text("utf-8"))
        for item in sorted(pkg.iterdir(), key=lambda p: p.name)
        if item.name.endswith(".txt")
    ]


def test_parse_of_edited_corpus_text_rejects_or_round_trips(monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # derandomize fixes the seed, but Hypothesis also mixes into its draws the
    # literals of every non-test module imported so far (its local constant
    # pool), so which tests were collected would change the examples drawn
    from hypothesis.internal.conjecture import providers

    monkeypatch.setattr(providers.HypothesisProvider, "_maybe_draw_constant", lambda *a, **k: None)
    texts = _packaged_texts()
    vocab = sorted({tok for _, text in texts for tok in text.split()})
    vocab += ["", "1/0", "0/0", "x9", "->", "=", ";", ",", "#", "--", "(", ")", "99", "-0"]

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(st.data())
    def check(data):
        name, text = data.draw(st.sampled_from(texts))
        lines = text.splitlines()
        at = data.draw(st.integers(0, len(lines) - 1))
        line = lines[at]
        indent = line[: len(line) - len(line.lstrip())]
        toks = line.split()
        op = data.draw(st.sampled_from(("replace", "delete", "insert", "truncate")))
        pos = data.draw(st.integers(0, max(len(toks) - 1, 0)))
        if op == "truncate":
            line = line[: data.draw(st.integers(0, len(line)))]
        else:
            if op == "insert" or not toks:
                toks.insert(pos, data.draw(st.sampled_from(vocab)))
            elif op == "replace":
                toks[pos] = data.draw(st.sampled_from(vocab))
            else:
                del toks[pos]
            line = indent + " ".join(toks)
        lines[at] = line
        try:
            entries = corpus_mod.parse("\n".join(lines), filename=name)
        except CorpusSyntaxError:
            return
        once = corpus_mod.serialize(entries)
        assert corpus_mod.serialize(corpus_mod.parse(once)) == once

    check()
