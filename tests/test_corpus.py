"""Corpus format: parsing, diagnostics, round trips through the reference
writer `evalref.serialize`, instantiation."""

import hashlib
import re
from fractions import Fraction
from importlib import resources
from itertools import product

import pytest

from evalref import (
    bivector,
    closed_matrix_by_substitution,
    components_by_substitution,
    scaled_ints,
    serialize,
    tensor_dense,
)
from liebialg import corpus as corpus_mod
from liebialg import harness, ratlinalg
from liebialg.errors import CorpusSyntaxError, InputError
from liebialg.exprtree import parse_expr, to_text
from liebialg.poisson import PoissonBivector

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


@pytest.mark.parametrize(
    "line", ["constraint p != 0", "constraint x1 != 0", "bracket 1 2 -> p 3", "bracket 1 2 -> b*x2 3"]
)
def test_an_algebra_line_names_only_declared_parameters(line):
    # an undeclared name has no value at any binding: such a constraint
    # never rejected one, and such a coefficient failed only at instantiation
    label = "constraint" if line.startswith("constraint") else "bracket 1 2"
    stray = next(n for n in ("p", "x1", "x2") if re.search(rf"\b{n}\b", line))
    message = f"x: {label} names {stray}, not a declared parameter"
    text = f"algebra x params b\n  bracket 1 4 -> b 1\n  {line}\n"
    with pytest.raises(CorpusSyntaxError, match=re.escape(message)) as exc:
        corpus_mod.Corpus(corpus_mod.parse(text, filename="f.txt"))
    assert (exc.value.filename, exc.value.line) == ("f.txt", 3)


def test_a_constraint_side_with_no_value_rejects_the_binding():
    reg = corpus_mod.Corpus(corpus_mod.parse("algebra x params b\n  constraint 1/(1+2*b) != 0\n"))
    assert [g["b"] for g in reg.grid_bindings("x")] == [Fraction(-2), Fraction(1, 3), Fraction(2)]
    with pytest.raises(InputError, match="violates constraint"):
        reg.instantiate("x", {"b": Fraction(-1, 2)})
    # a side with no exact value at all is an error, not a pass
    reg = corpus_mod.Corpus(corpus_mod.parse("algebra x params b\n  constraint exp(b) != 1\n"))
    with pytest.raises(InputError, match="no exact rational value"):
        reg.grid_bindings("x")


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


@pytest.mark.parametrize(
    "payload",
    [
        "algebra x\n  bracket 1 2 -> 1 3\n  bracket 1 3 -> 1 5\n",
        "rmatrix g d\n  r 1 1 wedge 2\n  r 1 1 wedge 5\n",
        "rmatrix g d\n  rfree c\n  schouten 1 1 2 5\n",
        "poisson g d pi\n  pb 1 2 = x3\n  pb 1 5 = x3\n",
        "frame x\n  xl 1 = d1\n  xl 5 = x1*d1\n",
        "frame x\n  xr 1 = d1\n  xr 5 = x1*d1\n",
    ],
    ids=["bracket", "r", "schouten", "pb", "xl", "xr"],
)
def test_a_basis_index_above_four_is_located(payload):
    # every block is 4-dimensional: index 5 crashed `verify` with an
    # IndexError, and an `xl 5` or `xr 5` line was never compared
    with pytest.raises(CorpusSyntaxError, match="basis index 5 out of range 1..4") as exc:
        corpus_mod.parse(payload, filename="f.txt")
    assert (exc.value.filename, exc.value.line) == ("f.txt", 3)


def test_unresolved_reference_rejected():
    with pytest.raises(CorpusSyntaxError, match="unresolved algebra name 'ghost'") as exc:
        corpus_mod.Corpus(corpus_mod.parse("algebra a\nbialgebra ghost ghost2\n", filename="f.txt"))
    assert (exc.value.filename, exc.value.line) == ("f.txt", 2)


@pytest.mark.parametrize(
    "block, message",
    [
        ("frame demo\n  xl 1 = d1\n", "duplicate frame demo"),
        ("rmatrix demo demo_dual\n  schouten zero\n", "duplicate rmatrix r(demo, demo_dual)"),
        ("membership table8\n", "duplicate membership table8"),
        ("fixture sample\n", "duplicate fixture sample"),
        ("bialgebra demo demo_dual\n", "duplicate bialgebra (demo, demo_dual)"),
        ("poisson demo demo_dual sklyanin\n", "duplicate poisson pb(demo, demo_dual)[sklyanin]"),
    ],
)
def test_a_repeated_block_is_rejected_naming_its_kind_and_key(block, message):
    # the second block replaced the first, whose payload was never checked;
    # the error is at the second header and names where the first is
    first = SAMPLE.splitlines().index(block.splitlines()[0]) + 1
    message += f", first at f.txt:{first}"
    with pytest.raises(CorpusSyntaxError, match=re.escape(message)) as exc:
        corpus_mod.Corpus(corpus_mod.parse(SAMPLE + block, filename="f.txt"))
    assert (exc.value.filename, exc.value.line) == ("f.txt", SAMPLE.count("\n") + 1)


@pytest.mark.parametrize(
    "payload",
    [
        "fixture f\n  ref k = a\n  ref k = b\n",
        "fixture f\n  expr k = x1\n  expr k = x2\n",
        "fixture f\n  val k = 1\n  val k = 2\n",
        "fixture f\n  matrix k = 1 0 ; 0 1\n  matrix k = 1\n",
        "rmatrix g d\n  schouten 1 1 2 3\n  schouten zero\n",
        "rmatrix g d\n  schouten zero\n  schouten 1 1 2 3\n",
        "rmatrix g d\n  schouten 1 1 2 3\n  schouten 1 1 2 4\n",
        "algebra a\n  bracket 1 2 -> 1 3\n  bracket 1 2 -> 1 4\n",
        "poisson g d pi\n  pb 1 2 = 1\n  pb 1 2 = 2\n",
        "frame a\n  xl 1 = d1\n  xl 1 = d2\n",
    ],
)
def test_a_repeated_key_or_schouten_line_is_located(payload):
    # a second fixture key overwrote the first, and a second schouten line
    # dropped or extended the printed certificate; the bracket, pb and xl
    # tables already took each key once, by the same rule
    with pytest.raises(CorpusSyntaxError, match="duplicate") as exc:
        corpus_mod.parse(payload, filename="f.txt")
    assert (exc.value.filename, exc.value.line) == ("f.txt", 3)


@pytest.mark.parametrize(
    "payload, message",
    [
        # each loaded: {x1,x1} cancelled to 0, [X1,X1] failed at instantiate
        ("poisson g d pi\n  pb 1 2 = x2\n  pb 1 1 = x1\n", "pb needs two distinct indices"),
        ("algebra a\n  bracket 1 2 -> 1 3\n  bracket 1 1 -> 1 2\n", "bracket needs two distinct"),
        # each loaded as the sum of its two lines: {x1,x2} = x2 - x3 and
        # [X1,X2] = X3 - X4
        ("poisson g d pi\n  pb 1 2 = x2\n  pb 2 1 = x3\n", "duplicate pb 1 2"),
        ("algebra a\n  bracket 1 2 -> 1 3\n  bracket 2 1 -> 1 4\n", "duplicate bracket 1 2"),
        ("poisson g d pi\n  pb 4 1 = x2\n  pb 1 4 = x2\n", "duplicate pb 1 4"),
    ],
)
def test_a_bracket_or_pb_pair_is_unordered_distinct_and_once(payload, message):
    with pytest.raises(CorpusSyntaxError, match=message) as exc:
        corpus_mod.parse(payload, filename="f.txt")
    assert (exc.value.filename, exc.value.line) == ("f.txt", 3)


def test_a_reversed_bracket_or_pb_line_states_the_negated_pair():
    text = "algebra a\n  bracket 2 1 -> 1 3\npoisson a a pi\n  pb 2 1 = x3\n  pb 4 3 = -x1\n"
    c = corpus_mod.Corpus(corpus_mod.parse(text))
    f = c.instantiate("a").f
    assert (f[0][1][2], f[1][0][2]) == (-1, 1)
    x1, x3 = (parse_expr(v).to_closed() for v in ("x1", "x3"))
    assert c.poisson[0].closed_map({}) == {(0, 1): -x3, (2, 3): x1}


@pytest.mark.parametrize(
    "text",
    [
        "algebra a\nmembership table8\n  pair a a\n  pair a ghost\n",
        "algebra a\nfixture f\n  expr k = x1\n  ref phase = ghost\n",
        "algebra a\nfixture f\n  ref phase = a\n  ref symmetry = ghost\n",
    ],
)
def test_an_unresolved_pair_or_ref_name_is_located_at_its_line(text):
    # it was reported at the block's header, line 2
    with pytest.raises(CorpusSyntaxError, match="unresolved algebra name 'ghost'") as exc:
        corpus_mod.Corpus(corpus_mod.parse(text, filename="m.txt"))
    assert (exc.value.filename, exc.value.line) == ("m.txt", 4)
    # a name in a header stays at the header
    with pytest.raises(CorpusSyntaxError, match="unresolved algebra name 'ghost'") as exc:
        corpus_mod.Corpus(corpus_mod.parse("algebra a\n\nbialgebra a ghost\n", filename="m.txt"))
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "line",
    ["source Table 2", "note printed twice", "status flagged"],
)
@pytest.mark.parametrize("block", ["algebra a", "fixture f", "poisson g d pi"])
def test_a_repeated_shared_line_is_located(block, line):
    # the last one silently won: a second source or note replaced the first
    corpus_mod.parse(f"{block}\n  {line}\n")
    with pytest.raises(CorpusSyntaxError, match="duplicate " + line.split()[0]) as exc:
        corpus_mod.parse(f"{block}\n  {line}\n  {line}\n", filename="f.txt")
    assert (exc.value.filename, exc.value.line) == ("f.txt", 3)


def test_a_fixture_ref_names_an_algebra_of_the_corpus():
    # a misspelt ref surfaced only when a test read it
    text = "algebra a\nfixture f\n  ref phase = {}\n  expr k = x1\n"
    assert corpus_mod.Corpus(corpus_mod.parse(text.format("a"))).fixtures["f"].refs == {
        "phase": "a"
    }
    with pytest.raises(CorpusSyntaxError, match="unresolved algebra name 'ghost' in fixture block f"):
        corpus_mod.Corpus(corpus_mod.parse(text.format("ghost")))


@pytest.mark.parametrize("side", ["g", "d"])
def test_an_rfree_name_is_not_a_parameter_of_its_pair(side):
    # the r-free {0, 1} product would bind it for r alone, while f and fd
    # stay at the grid value
    text = (
        f"algebra g{' params b' if side == 'g' else ''}\n"
        f"algebra d{' params b' if side == 'd' else ''}\n"
        "rmatrix g d\n  r b 1 wedge 2\n  rfree b\n"
    )
    with pytest.raises(CorpusSyntaxError, match=re.escape("r(g, d): rfree b is a parameter of its pair")) as exc:
        corpus_mod.Corpus(corpus_mod.parse(text, filename="f.txt"))
    assert (exc.value.filename, exc.value.line) == ("f.txt", 3)  # the block's header
    corpus_mod.Corpus(corpus_mod.parse(text.replace("rfree b", "rfree c").replace("r b", "r c")))


@pytest.mark.parametrize(
    "block, message",
    [
        # each loaded and then failed its verify row, with no line named
        ("rmatrix g d\n  r c 1 wedge 2\n",
         "r(g, d): an r line names c, not a parameter of the pair or an rfree name"),
        ("rmatrix g d\n  r x1 1 wedge 2\n",
         "r(g, d): an r line names x1, not a parameter of the pair or an rfree name"),
        ("rmatrix g d\n  r a 1 wedge 2\n  rfree a\n  schouten k 1 2 3\n",
         "r(g, d): the schouten line names k, not a parameter of the pair or an rfree name"),
        ("poisson g d pi\n  pb 1 2 = k*x1\n",
         "pb(g, d)[pi]: pb 1 2 names k, not a parameter of the pair or x1..x4"),
    ],    ids=["r-undeclared", "r-coordinate", "schouten-undeclared", "pb-undeclared"],
)
def test_a_pair_payload_names_only_the_pair_parameters(block, message):
    text = "algebra g params b\nalgebra d params q\n" + block
    with pytest.raises(CorpusSyntaxError, match=re.escape(message)) as exc:
        corpus_mod.Corpus(corpus_mod.parse(text, filename="f.txt"))
    assert (exc.value.filename, exc.value.line) == ("f.txt", text.count("\n"))  # the last line
    # the pair's parameters, the rfree names and, in a pb line, x1..x4 load
    fixed = text.replace("r c ", "r b ").replace("r x1 ", "r q ").replace("k", "b*q")
    corpus_mod.Corpus(corpus_mod.parse(fixed))


@pytest.mark.parametrize("field, stray", [("xl 1 = k*d1", "k"), ("xr 2 = d2 + q*x1*d1", "q")])
def test_a_frame_field_names_only_its_algebra_parameters(field, stray):
    # each loaded and then failed its table5 row, with no line named
    text = f"algebra g params b\nalgebra d params q\nframe g\n  {field}\n"
    message = f"g: {field[:4]} names {stray}, not a parameter of the algebra, x1..x4 or d1..d4"
    with pytest.raises(CorpusSyntaxError, match=re.escape(message)) as exc:
        corpus_mod.Corpus(corpus_mod.parse(text, filename="f.txt"))
    assert (exc.value.filename, exc.value.line) == ("f.txt", 4)
    # the algebra's parameters, x1..x4 and d1..d4 load
    corpus_mod.Corpus(corpus_mod.parse(text.replace(f"{stray}*", "b*x4*")))


@pytest.mark.parametrize("line", ["ref = a", "expr = x2", "expr 21 = x2", "val y1 y2 = 1"])
def test_a_fixture_key_is_an_identifier(line):
    # an empty or numeric key loaded, and the example that lost its key
    # then raised KeyError out of the campaign
    with pytest.raises(CorpusSyntaxError, match="key must be an identifier") as exc:
        corpus_mod.parse(f"fixture f\n  {line}\n", filename="f.txt")
    assert (exc.value.filename, exc.value.line) == ("f.txt", 2)


def test_load_takes_str_paths(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("algebra a\n", encoding="utf-8")
    assert list(corpus_mod.load(str(tmp_path)).algebras) == ["a"]
    assert list(corpus_mod.load([str(path)]).algebras) == ["a"]
    with pytest.raises(InputError, match="a corpus path is a str"):
        corpus_mod.load(str(tmp_path).encode())


def test_the_packaged_corpus_parses_to_pinned_entries(reg):
    # the verify contract prints no fixture and no r-matrix certificate, so
    # this hash is what sees a change to a parsed entry
    digest = hashlib.sha256(serialize(reg.entries).encode()).hexdigest()
    assert digest == "538436dc292659a9a92db555a079a5f1a4a33e5b6377a9cc2fb16938ff624199"


def test_serialize_roundtrip_sample():
    entries = corpus_mod.parse(SAMPLE)
    text = serialize(entries)
    again = corpus_mod.parse(text)
    assert serialize(again) == text
    assert again == entries


def test_serialize_roundtrip_packaged(reg):
    text = serialize(reg.entries)
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
        full = fe.xl[2].to_closed(dvals).eval(p)
        parts = sum(float(dvals[f"d{k+1}"]) * comps[k].eval(p) for k in range(4))
        assert abs(full - parts) < 1e-9


def test_components_equal_the_substitution_route_on_every_frame_field(reg):
    fields = 0
    for name, fe in sorted(reg.frames.items()):
        for binding in reg.grid_bindings(name):
            for side, table in (("L", fe.xl), ("R", fe.xr)):
                for i in sorted(table):
                    got = fe.components(side, i, binding)
                    assert got == components_by_substitution(fe, side, i, binding), (name, side, i)
                    fields += 1
    assert fields >= 376


def test_printed_brackets_equal_the_substitution_route_on_the_full_grid(reg):
    # every grid binding of the pair, with no cap: the contract reads a
    # row at its first binding only
    bindings = 0
    for pe in reg.poisson:
        for b in reg.grid_bindings(pe.g, pe.dual):
            assert pe.closed_map(b) == bivector(closed_matrix_by_substitution(pe, b)), (pe.name, b)
            bindings += 1
    assert bindings == 369


def test_printed_r_equals_the_dense_route_on_the_full_grid(reg):
    # every grid binding of the pair, with no cap, and every {0, 1}
    # combination of the rfree names: the sparse map is the dense matrix's
    # nonzero entries, and its integer form the dense route's
    tensors = 0
    for (g, dual), e in sorted(reg.rmatrices.items()):
        for b in reg.grid_bindings(g, dual):
            for combo in product(corpus_mod.RFREE_GRID, repeat=len(e.rfree)):
                bb = {**b, **dict(zip(e.rfree, combo))}
                r, dense = e.tensor(bb), tensor_dense(e, bb)
                assert r.r == dense, (e.name, bb)
                den, rows = scaled_ints(dense)
                flat = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}
                assert ratlinalg._int_map(r.entries.items()) == (flat, den), (e.name, bb)
                tensors += 1
    assert tensors == 762


FRAME_HEAD = """algebra demo
  bracket 1 4 -> 1 1
frame demo
  xl 1 = d1
  xl 3 = d3
  xl 4 = d4
"""


@pytest.mark.parametrize(
    "field, why",
    [
        ("d1 + x2", "has a term free of d1..d4"),
        ("x2", "has a term free of d1..d4"),
        ("d1*d2", "is not linear in d1..d4"),
        ("d2^2", "is not linear in d1..d4"),
        ("x1/d2", "is not linear in d1..d4"),
        ("exp(d2)", "is not linear in d1..d4"),
        ("exp(x1)*(d1 + x4*d2)*d3", "is not linear in d1..d4"),
    ],
)
def test_a_field_not_linear_and_homogeneous_in_d_is_rejected(field, why):
    reg = corpus_mod.Corpus(corpus_mod.parse(FRAME_HEAD + f"  xl 2 = {field}\n"))
    fe = reg.frames["demo"]
    assert fe.components("L", 1, {})[0] == parse_expr("1").to_closed()
    with pytest.raises(InputError, match=re.escape(f"frame demo: xl 2 {why}")):
        fe.components("L", 2, {})


def test_a_linear_field_reads_its_coefficients():
    reg = corpus_mod.Corpus(corpus_mod.parse(FRAME_HEAD + "  xl 2 = -(exp(x4)*(d2 - x4*d1))/x1 + 0*d3\n"))
    got = reg.frames["demo"].components("L", 2, {})
    want = ["x4*exp(x4)/x1", "-exp(x4)/x1", "0", "0"]
    assert got == [parse_expr(w).to_closed() for w in want]


def test_equal_texts_in_one_file_share_one_tree():
    text = "algebra a params b\n  bracket 1 2 -> 1 + b 3\n  bracket 1 3 -> 1 + b 2\n  bracket 2 3 -> 1 4\n"
    first, second = corpus_mod.parse(text), corpus_mod.parse(text)
    (e12, _), = first[0].brackets[1, 2]
    (e13, _), = first[0].brackets[1, 3]
    assert e12 is e13 and to_text(e12) == "(1 + b)"
    # each parse has its own trees
    assert second[0].brackets[1, 2][0][0] is not e12
    assert second[0].brackets[1, 2][0][0] == e12


def test_packaged_frames_share_a_tree_per_distinct_text():
    text = resources.files("liebialg").joinpath("data", "frames.txt").read_text("utf-8")
    frames = corpus_mod.parse(text, filename="frames.txt")
    trees = [e for f in frames if f.kind == "frame" for e in (*f.xl.values(), *f.xr.values())]
    assert len({id(e) for e in trees}) == len({to_text(e) for e in trees}) < len(trees)


def test_a_recurring_bad_text_is_reported_at_its_first_line():
    text = "algebra a\n  bracket 1 2 -> 1 3\n  bracket 1 3 -> 2² 2\n  bracket 2 3 -> 2² 4\n"
    with pytest.raises(CorpusSyntaxError) as exc:
        corpus_mod.parse(text, filename="f.txt")
    assert (exc.value.filename, exc.value.line, exc.value.col) == ("f.txt", 3, 2)


@pytest.mark.parametrize("tok", ["١", "+1", "1_0", "²"])
def test_a_basis_index_is_ascii_digits(tok):
    with pytest.raises(CorpusSyntaxError, match="expected a basis index"):
        corpus_mod.parse(f"algebra x\n  bracket {tok} 2 -> 1 3\n")


def test_poisson_closed_matrix_antisymmetric(reg):
    # the one row with reversed lines, pb 4 1 and pb 3 2: each folds into
    # the pair above the diagonal with its sign
    pe = next(p for p in reg.poisson if p.name == "pb(A_4_9_1, A_4_9_1.i)[sklyanin]")
    assert sorted(pe.brackets) == [(1, 2), (1, 3), (3, 2), (4, 1)]
    p = pe.closed_map({})
    assert sorted(p) == [(0, 1), (0, 2), (0, 3), (1, 2)]
    assert p[0, 3] == -pe.brackets[4, 1].to_closed({})
    assert p[1, 2] == -pe.brackets[3, 2].to_closed({})
    m = PoissonBivector(p).P
    for i in range(4):
        for j in range(4):
            assert m[i][j] == -m[j][i]
    assert m[3][0] == pe.brackets[4, 1].to_closed({})


def test_q_zero_binding_rejected_for_scaled_dual(reg):
    with pytest.raises(InputError):
        reg.instantiate("A_4_3.iii", {"q": Fraction(0)})


# --- token-level fuzzing of the packaged corpus text -------------------------


def test_rmatrix_block_without_r_line_round_trips():
    # serialize wrote a bare "  r " for it, which parse rejects
    entries = corpus_mod.parse("rmatrix demo demo_dual\n  schouten zero\n")
    assert entries[0].terms == []
    once = serialize(entries)
    assert serialize(corpus_mod.parse(once)) == once


def _packaged_texts():
    pkg = resources.files("liebialg").joinpath("data")
    return [
        (item.name, item.read_text("utf-8"))
        for item in sorted(pkg.iterdir(), key=lambda p: p.name)
        if item.name.endswith(".txt")
    ]


@pytest.fixture
def hyp(monkeypatch):
    """Hypothesis, with its draws fixed by `derandomize` alone."""
    hyp = pytest.importorskip("hypothesis")
    # derandomize fixes the seed, but Hypothesis also mixes into its draws the
    # literals of every non-test module imported so far (its local constant
    # pool), so which tests were collected would change the examples drawn
    from hypothesis.internal.conjecture import providers

    monkeypatch.setattr(providers.HypothesisProvider, "_maybe_draw_constant", lambda *a, **k: None)
    return hyp


EXTRA_TOKENS = ["", "1/0", "0/0", "x9", "->", "=", ";", ",", "#", "--", "(", ")", "99", "-0"]


def _edit_one_line(data, lines, vocab):
    """`lines` with one drawn line given one token replaced, deleted or
    inserted from `vocab`, or cut short."""
    from hypothesis import strategies as st

    lines = list(lines)
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
    return "\n".join(lines)


def test_parse_of_edited_corpus_text_rejects_or_round_trips(hyp):
    st = hyp.strategies
    texts = _packaged_texts()
    vocab = sorted({tok for _, text in texts for tok in text.split()}) + EXTRA_TOKENS

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(st.data())
    def check(data):
        name, text = data.draw(st.sampled_from(texts))
        try:
            entries = corpus_mod.parse(_edit_one_line(data, text.splitlines(), vocab), filename=name)
        except CorpusSyntaxError:
            return
        once = serialize(entries)
        assert serialize(corpus_mod.parse(once)) == once

    check()


# each packaged file: the campaigns that read it (every campaign reads
# algebras.txt) and how many edits of it to draw, fewer where they cost more
READERS = {
    "algebras.txt": ("all", 15),
    "bialgebras.txt": ("2", 20),
    "fixtures.txt": ("integrable", 30),
    "frames.txt": ("5", 30),
    "membership.txt": ("8", 20),
    "poisson.txt": ("6,integrable", 15),
    "rmatrices.txt": ("3,8", 20),
}


def test_an_edited_corpus_file_fails_to_load_or_fails_only_its_entries(hyp):
    # an edited fixture key, or a frame block that lost a field, loaded and
    # then made verify raise KeyError out of its campaign; a frame or pb
    # line naming a stray parameter failed to load with no line
    st = hyp.strategies
    texts = dict(_packaged_texts())
    assert sorted(texts) == sorted(READERS)
    parsed = {n: corpus_mod.parse(text, filename=n) for n, text in texts.items()}
    vocab = sorted({tok for text in texts.values() for tok in text.split()}) + EXTRA_TOKENS + ["k"]

    def check(data, name, selector):
        text = _edit_one_line(data, texts[name].splitlines(), vocab)
        try:
            entries = corpus_mod.parse(text, filename=name)
            c = corpus_mod.Corpus(
                [e for n, es in parsed.items() for e in (entries if n == name else es)]
            )
        except CorpusSyntaxError as ex:
            # an edited algebra can make a block of another file name it wrongly
            assert ex.filename == name or name == "algebras.txt", ex
            assert 1 <= ex.line <= len(texts[ex.filename].splitlines()), ex
            return
        runs = harness.verify_tables(c, selector)
        bench = harness.Workbench(c)
        campaigns = harness._campaign_order(selector)
        assert [len(r.results) for r in runs] == [len(list(v.entries(c, bench))) for v in campaigns]

    for name, (selector, examples) in READERS.items():
        settings = hyp.settings(max_examples=examples, deadline=None, derandomize=True)
        settings(hyp.given(st.data(), st.just(name), st.just(selector))(check))()
