from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpolab import expo
from dcpolab.cli import (
    emit_dot,
    emit_poset_file,
    generate_basis_corpus,
    generate_corpus,
    generate_ep_corpus,
    generate_lattice_corpus,
    main,
    parse_basis_file,
    parse_poset_file,
)
from dcpolab.errors import CycleDetected, OrderTheoryError, ParseError
from dcpolab.finposet import closure_from_covers, validate_ep_pair
from dcpolab.idealcomp import validate_abstract_basis

TWO_CHAIN = "poset\nelements: a b\ncovers: a<b\n"


def test_parse_two_chain():
    p = parse_poset_file(TWO_CHAIN)
    assert p.elements == ("a", "b") and p.le("a", "b")


def test_parse_empty_covers_gives_antichain():
    p = parse_poset_file("poset\nelements: a b c\ncovers:\n")
    assert p.n == 3
    assert not p.le("a", "b") and not p.le("b", "a")


def test_parse_malformed_header():
    with pytest.raises(ParseError):
        parse_poset_file("lattice\nelements: a\ncovers:\n")


def test_parse_malformed_cover_token():
    with pytest.raises(ParseError):
        parse_poset_file("poset\nelements: a b\ncovers: ab\n")


def test_parse_cycle_rejected():
    with pytest.raises(CycleDetected):
        parse_poset_file("poset\nelements: a b\ncovers: a<b b<a\n")


def test_roundtrip_semantic_identity():
    for poset in generate_corpus(2, 30, 6):
        again = parse_poset_file(emit_poset_file(poset))
        assert again.elements == poset.elements
        assert (again.leq == poset.leq).all()


NAME = st.text(st.characters(categories=("L", "N"), max_codepoint=0x2FF), min_size=1, max_size=3)


@st.composite
def posets(draw):
    names = draw(st.lists(NAME, unique=True, max_size=6))
    n = len(names)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return closure_from_covers(names, [(names[i], names[j]) for (i, j), e in zip(pairs, edges) if e])


@settings(deadline=None)
@given(posets())
def test_emit_parse_roundtrip_property(poset):
    again = parse_poset_file(emit_poset_file(poset))
    assert again.elements == poset.elements
    assert (again.leq == poset.leq).all()


GRAMMAR_TEXT = st.one_of(
    st.text(),
    st.builds(
        lambda head, elements, rel, body: f"{head}\nelements: {elements}\n{rel}: {body}",
        st.sampled_from(["poset", "basis", "Poset", ""]),
        st.text(st.sampled_from("ab <\n")),
        st.sampled_from(["covers", "rel", "cover"]),
        st.text(st.sampled_from("abc< \n")),
    ),
)


@settings(deadline=None)
@given(GRAMMAR_TEXT)
def test_grammar_fuzz_raises_only_order_theory_errors(text):
    for parse in (parse_poset_file, parse_basis_file):
        try:
            parse(text)
        except OrderTheoryError:
            pass


def test_parse_basis_file_and_counterexample():
    good = parse_basis_file("basis\nelements: a b\nrel: a<a b<b a<b\n")
    ok, _ = validate_abstract_basis(good)
    assert ok
    bad = parse_basis_file("basis\nelements: a b\nrel: a<b\n")
    ok, witness = validate_abstract_basis(bad)
    assert not ok and witness[0] == "nullary-interpolation"
    with pytest.raises(ParseError):
        parse_basis_file("")


def test_emit_dot_single_node():
    p = parse_poset_file("poset\nelements: only\ncovers:\n")
    dot = emit_dot(p)
    assert '"only";' in dot and "->" not in dot


def test_emit_dot_diamond_stable(diamond):
    dot1, dot2 = emit_dot(diamond), emit_dot(diamond)
    assert dot1 == dot2
    assert dot1.count("->") == 4


def test_generate_corpus_reproducible_and_bounded():
    a = generate_corpus(0, 25, 7)
    b = generate_corpus(0, 25, 7)
    assert all(x == y for x, y in zip(a, b))
    assert all(2 <= p.n <= 7 for p in a)


def test_generate_lattice_corpus():
    for p in generate_lattice_corpus(5, 10, 4):
        assert p.is_lattice()


def test_generate_ep_corpus():
    pairs = generate_ep_corpus(6, 10, 5)
    assert len(pairs) == 10
    assert all(validate_ep_pair(p) for p in pairs)


def test_generate_ep_corpus_deflations_are_pinned():
    # The deflation is drawn by rng.choice over monotone_graphs row order, so
    # these pin that order as well as the corpus.
    pairs = generate_ep_corpus(6, 10, 5)
    assert [tuple(p.embed.graph[v] for v in p.project.graph) for p in pairs] == [
        (0, 0, 0, 3), (0, 1, 2), (0, 1, 2, 3, 4), (0, 0, 2, 3, 4), (0, 1, 2),
        (0, 0, 2, 3, 4), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4), (0, 1, 2, 3), (0, 0, 0),
    ]


def test_generate_basis_corpus_half_reflexive():
    bases = generate_basis_corpus(7, 20, 5)
    assert len(bases) == 20
    assert sum(1 for b in bases if b.is_reflexive()) == 10
    for b in bases:
        ok, witness = validate_abstract_basis(b)
        assert ok, witness


# ---------------------------------------------------------------- verbs

def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cmd_check_and_waybelow(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(TWO_CHAIN)
    assert run(capsys, "check", str(f))[0] == 0
    code, out = run(capsys, "waybelow", str(f), "a", "b")
    assert code == 0 and out.strip() == "true"
    code, out = run(capsys, "waybelow", str(f), "b", "a")
    assert code == 1 and out.strip() == "false"


def test_cmd_compacts(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(TWO_CHAIN)
    code, out = run(capsys, "compacts", str(f))
    assert code == 0 and out.split() == ["a", "b"]


def test_cmd_basis_check(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(TWO_CHAIN)
    code, out = run(capsys, "basis-check", str(f))
    assert code == 0 and "small-compact-basis: true" in out
    code, out = run(capsys, "basis-check", str(f), "x=b")
    assert code == 1


def test_cmd_interpolate(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(TWO_CHAIN)
    code, out = run(capsys, "interpolate", str(f), "a", "b")
    assert code == 0 and out.strip() in {"a", "b"}


def test_cmd_idl(tmp_path, capsys):
    f = tmp_path / "b.txt"
    f.write_text("basis\nelements: a b\nrel: a<a b<b a<b\n")
    code, out = run(capsys, "idl", str(f))
    assert code == 0
    assert "elements: {a} {a,b}" in out
    f.write_text("basis\nelements: a b\nrel: a<b\n")
    code, out = run(capsys, "idl", str(f))
    assert code == 1 and "nullary-interpolation" in out


def test_cmd_idl_iso(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(TWO_CHAIN)
    code, out = run(capsys, "idl-iso", str(f))
    assert code == 0
    assert "idl-iso-continuous: true" in out and "idl-iso-algebraic: true" in out


def test_cmd_exp(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(TWO_CHAIN)
    code, out = run(capsys, "exp", str(f), str(f), "--step-basis")
    assert code == 0
    assert "elements: f0 f1 f2" in out
    assert "step-basis-compact: true" in out


TRANSCRIPTS = Path(__file__).parent / "transcripts"


def _poset_file(tmp_path, capsys, which):
    """A poset file: the two-chain, or the powerset of two points as the
    ``example`` verb emits it."""
    f = tmp_path / f"{which}.txt"
    if which == "two_chain":
        f.write_text(TWO_CHAIN)
    else:
        f.write_text(run(capsys, "example", "powerset:2", "--emit", "poset")[1])
    return str(f)


@pytest.mark.parametrize("which", ["two_chain", "powerset2"])
@pytest.mark.parametrize("flag", [None, "--step-basis", "--dot"])
def test_cmd_exp_transcript(tmp_path, capsys, which, flag):
    f = _poset_file(tmp_path, capsys, which)
    suffix = "" if flag is None else "_" + flag[2:].replace("-", "_")
    expected = (TRANSCRIPTS / f"exp_{which}{suffix}.txt").read_text()
    assert run(capsys, "exp", f, f, *([flag] if flag else [])) == (0, expected)


def test_cmd_exp_builds_the_exponential_once(tmp_path, capsys, monkeypatch):
    calls = []
    build = expo.exponential
    monkeypatch.setattr(expo, "exponential", lambda *args: calls.append(args) or build(*args))
    f = _poset_file(tmp_path, capsys, "two_chain")
    assert run(capsys, "exp", f, f, "--step-basis")[0] == 0
    assert len(calls) == 1


def test_cmd_exp_step_basis_refuses_a_non_lattice_target(tmp_path, capsys):
    d, e = tmp_path / "d.txt", tmp_path / "e.txt"
    d.write_text(TWO_CHAIN)
    e.write_text("poset\nelements: a b c\ncovers: a<b a<c\n")
    plain = run(capsys, "exp", str(d), str(e))
    assert plain[0] == 0
    refused = (1, plain[1] + "NotALattice: poset lacks a least element or binary joins\n")
    assert run(capsys, "exp", str(d), str(e), "--step-basis") == refused


@pytest.mark.parametrize(
    "which, x, y, transcript",
    [
        ("two_chain", "a", "b", (0, "true\n")),
        ("two_chain", "b", "a", (1, "false\n")),
        ("two_chain", "b", "b", (0, "true\n")),
        ("powerset2", "{}", "{x0,x1}", (0, "true\n")),
        ("powerset2", "{x0}", "{x0,x1}", (0, "true\n")),
        ("powerset2", "{x1}", "{x0}", (1, "false\n")),
    ],
)
def test_cmd_waybelow_transcript(tmp_path, capsys, which, x, y, transcript):
    assert run(capsys, "waybelow", _poset_file(tmp_path, capsys, which), x, y) == transcript


@pytest.mark.parametrize(
    "rel, transcript",
    [
        ("a<a b<b a<b", (0, "poset\nelements: {a} {a,b}\ncovers: {a}<{a,b}\n")),
        (
            "a<a a<b b<b a<c b<c c<c",
            (0, "poset\nelements: {a} {a,b} {a,b,c}\ncovers: {a}<{a,b} {a,b}<{a,b,c}\n"),
        ),
        ("a<b", (1, "not an abstract basis: nullary-interpolation a\n")),
    ],
)
def test_cmd_idl_transcript(tmp_path, capsys, rel, transcript):
    f = tmp_path / "b.txt"
    elements = " ".join(sorted({x for pair in rel.split() for x in pair.split("<")}))
    f.write_text(f"basis\nelements: {elements}\nrel: {rel}\n")
    assert run(capsys, "idl", str(f)) == transcript


def test_cmd_tower_report(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code, out = run(capsys, "tower", "--stages", "2", "--report", str(report))
    assert code == 0
    text = report.read_text()
    assert "stage_sizes: 2 3 10" in text
    assert "law_bilimit_small_compact_basis: pass" in text
    code, out = run(capsys, "tower", "--stages", "3")
    assert code == 2
    code, out = run(capsys, "tower", "--stages", "-1")
    assert code == 2 and "--stages" in out and "law_" not in out
    for stages in ("0", "1"):
        code, out = run(capsys, "tower", "--stages", stages)
        laws = [line for line in out.splitlines() if line.startswith("law_")]
        assert code == 0 and len(laws) == 5
        assert all(line.endswith(": pass") for line in laws)


def test_cmd_tower_unsafe_stage3_fails_honestly(capsys):
    code, out = run(capsys, "tower", "--stages", "3", "--unsafe-stage-3")
    assert code == 1 and "TooLarge" in out


TOWER_LAWS = (
    "law_ep_pairs: pass\n"
    "law_embeddings_transfer_way_below: pass\n"
    "law_bilimit_iso_top_stage: pass\n"
    "law_stage_bases_compact: pass\n"
    "law_bilimit_small_compact_basis: pass\n"
)
TOWER_TRANSCRIPTS = {
    "0": (
        "stage_sizes: 2\n"
        "basis_sizes: 2\n"
        "bilimit_size: 2\n"
        "bilimit_basis_size: 2\n"
    )
    + TOWER_LAWS,
    "1": (
        "stage_sizes: 2 3\n"
        "basis_sizes: 2 3\n"
        "bilimit_size: 3\n"
        "bilimit_basis_size: 5\n"
    )
    + TOWER_LAWS,
    "2": (
        "stage_sizes: 2 3 10\n"
        "basis_sizes: 2 3 10\n"
        "bilimit_size: 10\n"
        "bilimit_basis_size: 15\n"
    )
    + TOWER_LAWS,
}


@pytest.mark.parametrize("stages", sorted(TOWER_TRANSCRIPTS))
def test_cmd_tower_transcript(capsys, stages):
    assert run(capsys, "tower", "--stages", stages) == (0, TOWER_TRANSCRIPTS[stages])


def test_cmd_dyadic(capsys):
    assert run(capsys, "dyadic", "cmp", "L.M", "M") == (0, "lt\n")
    assert run(capsys, "dyadic", "interp", "M", "R.M") == (0, "R.L.M\n")
    assert run(capsys, "dyadic", "rat", "R.L.M") == (0, "1/4\n")
    code, out = run(capsys, "dyadic", "ideal-member", "principal:R.M", "M", "--fuel", "2")
    assert code == 0 and out.strip() == "yes"
    code, out = run(
        capsys, "dyadic", "ideal-member", "principal:R.M", "R.R.M", "--fuel", "2"
    )
    assert code == 1 and out.strip() == "no-within-fuel"


def test_cmd_example(capsys):
    code, out = run(capsys, "example", "sierpinski")
    assert code == 0 and "elements: bot top" in out
    code, out = run(capsys, "example", "lifting:2", "--emit", "dot")
    assert code == 0 and out.count("->") == 2
    code, out = run(capsys, "example", "powerset:2", "--emit", "basis")
    assert code == 0 and "-> {x0,x1}" in out


def test_cmd_ind_reflect(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(TWO_CHAIN)
    code, out = run(capsys, "ind-reflect", str(f))
    assert code == 0 and out.count("~") == 3


@pytest.mark.parametrize("which", ["two_chain", "corpus13"])
def test_cmd_ind_reflect_transcript(tmp_path, capsys, which):
    # corpus13 is poset 15 of corpus seed 3: 13 elements, 168 directed subsets
    f = tmp_path / f"{which}.txt"
    f.write_text(TWO_CHAIN if which == "two_chain" else emit_poset_file(generate_corpus(3, 16, 16)[15]))
    expected = (TRANSCRIPTS / f"ind_reflect_{which}.txt").read_text()
    assert run(capsys, "ind-reflect", str(f)) == (0, expected)


@pytest.mark.parametrize(
    "argv",
    [
        ("example", "lifting:abc"),
        ("example", "lifting:-3"),
        ("example", "powerset:"),
        ("example", "powerset:-1"),
        ("dyadic", "cmp", "M"),
        ("dyadic", "interp", "M"),
        ("dyadic", "ideal-member", "principal:M"),
        ("tower", "--stages", "1", "--report", "{missing}/report.txt"),
    ],
)
def test_malformed_arguments_are_parse_errors(tmp_path, capsys, argv):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    code, out = run(capsys, *argv)
    assert code == 2 and out.startswith("parse error: ") and out.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("dyadic", "rat", "M", "L.M"),
        ("corpus", "--max-size", "1"),
        ("corpus", "--max-size", "0"),
    ],
)
def test_out_of_range_arguments_are_parse_errors(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2 and out.startswith("parse error: ") and out.count("\n") == 1


def test_cmd_corpus_reproducible(capsys):
    code1, out1 = run(capsys, "corpus", "--seed", "3", "--count", "4")
    code2, out2 = run(capsys, "corpus", "--seed", "3", "--count", "4")
    assert code1 == code2 == 0 and out1 == out2


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("nonsense\n")
    code, out = run(capsys, "check", str(f))
    assert code == 2 and "parse error" in out
    for text in (
        "poset\nelements: a b\ncovers: a<b b<a\n",
        "poset\nelements: a a\ncovers:\n",
        "poset\nelements: a\ncovers: a<zz\n",
        "poset\nelements: a b\ncovers: a<b\njunk\n",
    ):
        f.write_text(text)
        code, out = run(capsys, "check", str(f))
        assert code == 2 and "parse error" in out
    for text in ("basis\nelements: a a\nrel:\n", "basis\nelements: a\nrel: a<zz\n"):
        f.write_text(text)
        code, out = run(capsys, "idl", str(f))
        assert code == 2 and "parse error" in out
    f.write_text(TWO_CHAIN)
    for argv in (
        ("waybelow", str(f), "a", "zz"),
        ("waybelow", str(f), "zz", "b"),
        ("interpolate", str(f), "a", "zz"),
        ("interpolate", str(f), "a", "a", "zz"),
        ("basis-check", str(f), "x=zz"),
        ("idl-iso", str(f), "x=a", "y=zz"),
    ):
        code, out = run(capsys, *argv)
        assert code == 2 and "parse error" in out and "'zz'" in out


def test_parse_rejects_line_after_relation():
    with pytest.raises(ParseError) as err:
        parse_poset_file(TWO_CHAIN + "\nextra\n")
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_basis_file("basis\nelements: a\nrel: a<a\nmore: stuff\n")
    assert err.value.line == 4
    assert parse_poset_file(TWO_CHAIN + "\n\n").n == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-verb"])
    assert err.value.code == 2
