import pathlib
import random
import re

import pytest

from belieffusion import (
    NotModularError,
    ParseError,
    PedigreedBeliefState,
    agr,
    export_dot,
    format_scenario,
    fuse,
    parse_pedigree,
    parse_scenario,
    serialize_pedigree,
    to_layers,
    universe,
)
from belieffusion import scenario
from belieffusion.states import Block, LayeredForm
from helpers import (
    export_dot_oracle,
    random_agents,
    random_layered,
    random_profile,
    scenario_tokens_oracle,
    small_universe,
)

MINIMAL = """\
worlds a b c
source s0 rank 1
  layers [a c] > [b]
agent A1 = s0
"""

EXAMPLE4 = """\
# the three-source profile with one higher-ranked source
worlds a b c
source s0 rank 1
  pairs b < a, b < c
source s1 rank 1
  pairs a < b, c < b
source s2 rank 2
  pairs a < b, c < b
agent A1p = s0 s2
agent A2p = s1 s2
"""


def test_parse_minimal_scenario():
    s = parse_scenario(MINIMAL)
    assert s.universe.worlds == ("a", "b", "c")
    assert len(s.profile) == 1
    assert s.profile.sources[0].state.relation.pairs == {("a", "b"), ("c", "b")}
    assert [a.id for a in s.agents] == ["A1"]


def test_parse_rejects_non_modular_pairs_source():
    text = "worlds a b c\nsource bad rank 1\n  pairs a < b\n"
    with pytest.raises(NotModularError) as exc:
        parse_scenario(text)
    assert exc.value.subject == "bad"
    assert "bad" in str(exc.value)


def test_parse_example4_and_aggregate():
    s = parse_scenario(EXAMPLE4)
    assert agr(s.profile).relation.pairs == {("a", "b"), ("c", "b")}


def test_parse_vars_and_aliases():
    text = """\
vars F D
world ok = F D
world crashed = !F D
source st rank 2
  layers [crashed] > [F.!D !F.!D] > [ok]
agent A = st
"""
    s = parse_scenario(text)
    assert s.universe.worlds == ("ok", "F.!D", "crashed", "!F.!D")
    assert s.prop.valuation("crashed") == {"F": False, "D": True}
    st_rel = s.profile.sources[0].state.relation
    assert st_rel.has("crashed", "ok")


def test_alias_to_the_canonical_name_is_a_no_op():
    body = "source s rank 1\n  layers [F.D] > [F.!D !F.D !F.!D]\n"
    s = parse_scenario("vars F D\nworld F.D = F D\n" + body)
    assert s == parse_scenario("vars F D\n" + body)
    # no alias line is printed for a canonically named world
    assert format_scenario(s).splitlines()[:3] == ["# format 1", "vars F D", "source s rank 1"]
    assert parse_scenario(format_scenario(s)) == s


def test_alias_to_another_worlds_name_is_in_use():
    with pytest.raises(ParseError) as exc:
        parse_scenario("vars F D\nworld F.!D = F D\n")
    assert (exc.value.line, exc.value.column) == (2, 17)
    assert exc.value.reason == "world name 'F.!D' already in use"
    assert exc.value.token == ""


@pytest.mark.parametrize(
    "text, reason",
    [
        ("worlds a b a\n", "world identifiers must be unique"),
        ("vars F 1x # comment\n", "invalid variable name '1x'"),
        ("vars F D\nworld F.!D = F D\n", "world name 'F.!D' already in use"),
        ("worlds a b\nsource s rank 1\n  layers [a] > [a b]\n", "world(s) in more than one layer: a"),
        ("worlds a b c\nsource s rank 1\n  layers [a] > [b]\n", "layers must cover every world; missing c"),
    ],
)
def test_library_rules_are_end_of_line_errors(text, reason):
    # the reader translates each rule the library enforces the same way
    lines = text.splitlines()
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert (exc.value.line, exc.value.column, exc.value.reason, exc.value.token) == (
        len(lines), len(lines[-1]) + 1, reason, ""
    )


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "no universe"),
        ("worlds a a\n", "unique"),
        ("worlds a\nworlds b\n", "already declared"),
        ("vars F\nvars D\n", "already declared"),
        ("worlds a b\nsource s rank -1\n", "negative rank"),
        ("worlds a b\nsource s rank x\n", "non-negative integer"),
        ("worlds a b\nsource s rank 1\nsource s rank 2\n", "duplicate source"),
        ("worlds a b\nsource s rank 1\n  pairs a < z\n", "unknown world"),
        ("worlds a b\nsource s rank 1\n  layers [a] > [a b]\n", "more than one layer"),
        ("worlds a b\nsource s rank 1\n  layers [a]\n", "missing b"),
        ("worlds a b\nsource s rank 1\n  layers []\n", "empty layer"),
        ("worlds a b\npairs a < b\n", "indented"),
        ("worlds a b\nsource s rank 1\n  layers [a] > [b]\n  pairs a < b\n", "already has"),
        ("worlds a b\nsource s rank 1\n  pairs a < b\n  layers [a] > [b]\n", "mixes"),
        ("worlds a b\nagent A = ghost\n", "unknown source"),
        ("worlds a b\nagent A =\nagent A =\n", "duplicate agent"),
        ("worlds a b\nsource s rank 1\nagent A = s s\n", "twice"),
        ("worlds a b\nworld w = F\n", "'vars'"),
        ("vars F\nsource s rank 0\nworld w = F\n", "precede sources"),
        ("vars F\nworld w = G\n", "unknown variable"),
        ("vars F D\nworld w = F\n", "missing D"),
        ("vars F\nworld w = F\nworld w2 = F\n", "already renamed"),
        ("worlds a b\nbogus\n", "unknown declaration"),
        ("worlds a b\nsource s rank 1 extra\n", "trailing"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert fragment in str(exc.value)
    assert exc.value.line >= 1 and exc.value.column >= 1


@pytest.mark.parametrize("rank", ["²", "1²", "①", "⑴"])
def test_digits_int_rejects_are_positioned_rank_errors(rank):
    # str.isdigit() accepts these, int() does not
    reason = f"rank must be a non-negative integer, found {rank!r}"
    with pytest.raises(ParseError) as exc:
        parse_scenario(f"worlds a b\nsource s rank {rank}\n")
    assert (exc.value.line, exc.value.column, exc.value.reason, exc.value.token) == (2, 15, reason, rank)
    pedigree_line = f"a < b @ {rank}"
    with pytest.raises(ParseError) as exc:
        parse_pedigree(f"pedigree\n{pedigree_line}\n", universe("a", "b"))
    assert (exc.value.line, exc.value.column, exc.value.reason, exc.value.token) == (
        2, len("a < b @ ") + 1, reason, rank
    )


def test_decimal_digits_of_any_script_are_ranks():
    s = parse_scenario("worlds a b\nsource s rank ٣١\n")  # Arabic-Indic 31
    assert s.profile.sources[0].rank == 31
    pbs = parse_pedigree("pedigree\na < b @ १\n", universe("a", "b"))  # Devanagari 1
    assert pbs.entries == (("a", "b", 1),)


@pytest.mark.parametrize("line, name", [("vars true F", "true"), ("vars F false", "false")])
def test_keyword_variables_are_positioned_errors(line, name):
    # no formula can name them: parse_formula reads them as constants
    with pytest.raises(ParseError) as exc:
        parse_scenario("# header\n" + line + "\n")
    assert (exc.value.line, exc.value.column, exc.value.reason, exc.value.token) == (
        2, len(line) + 1, f"invalid variable name {name!r}", ""
    )


def test_parse_error_position_is_exact():
    with pytest.raises(ParseError) as exc:
        parse_scenario("worlds a b\nsource s rank 1\n  pairs a < zz\n")
    assert exc.value.line == 3
    assert exc.value.column == 13
    assert exc.value.token == "zz"


@pytest.mark.parametrize("line, column", [("bogus x y", 1), ("  bogus", 3), ("\tbogus # c", 2)])
def test_unknown_declaration_points_at_its_keyword(line, column):
    with pytest.raises(ParseError) as exc:
        parse_scenario(f"worlds a b\n{line}\n")
    assert (exc.value.line, exc.value.column, exc.value.reason, exc.value.token) == (
        2, column, "unknown declaration 'bogus'", "bogus"
    )


def test_format_scenario_round_trip_value_and_bytes():
    for text in (MINIMAL, EXAMPLE4):
        s = parse_scenario(text)
        printed = format_scenario(s)
        again = parse_scenario(printed)
        assert again == s
        assert format_scenario(again) == printed


def test_format_scenario_round_trip_randomized():
    rng = random.Random(31)
    for _ in range(30):
        u = small_universe(rng.randint(1, 5))
        profile = random_profile(rng, u, max_sources=4)
        agents = []
        for i in range(rng.randint(0, 3)):
            ids = [s.id for s in profile.sources if rng.random() < 0.5]
            agents.append((f"A{i}", ids))
        lines = ["worlds " + " ".join(u.worlds)]
        for src in profile.sources:
            lines.append(f"source {src.id} rank {src.rank}")
            pairs = scenario._pair_lines(src.state.relation)
            if pairs:
                lines.append("  pairs " + ", ".join(pairs))
        for aid, ids in agents:
            lines.append(f"agent {aid} = " + " ".join(ids))
        s = parse_scenario("\n".join(lines) + "\n")
        assert parse_scenario(format_scenario(s)) == s


def test_pedigree_wire_format():
    u = universe("a", "b", "c")
    pbs = PedigreedBeliefState(u, (("c", "b", 2), ("a", "b", 2)))
    assert serialize_pedigree(pbs) == "pedigree\na < b @ 2\nc < b @ 2\n"
    assert serialize_pedigree(PedigreedBeliefState(u, ())) == "pedigree\n"
    assert parse_pedigree("pedigree\na < b @ 2\nc < b @ 2\n", u) == pbs


def test_pedigree_round_trip_randomized():
    rng = random.Random(32)
    for _ in range(50):
        u = small_universe(rng.randint(1, 6))
        entries = []
        for x in u.worlds:
            for y in u.worlds:
                if rng.random() < 0.3:
                    entries.append((x, y, rng.randint(0, 5)))
        pbs = PedigreedBeliefState(u, tuple(entries))
        assert parse_pedigree(serialize_pedigree(pbs), u) == pbs


def test_pedigree_parse_errors():
    u = universe("a", "b")
    for text in (
        "",
        "a < b @ 1\n",
        "pedigree\na < z @ 1\n",
        "pedigree\na < b @ x\n",
        "pedigree\na < b\n",
        "pedigree\na < b @ 1\na < b @ 2\n",
    ):
        with pytest.raises(ParseError):
            parse_pedigree(text, u)


def test_both_readers_say_negative_rank():
    with pytest.raises(ParseError) as exc:
        parse_scenario("worlds a b\nsource s rank -1\n")
    assert (exc.value.line, exc.value.column, exc.value.reason, exc.value.token) == (2, 15, "negative rank", "-1")
    with pytest.raises(ParseError) as exc:
        parse_pedigree("pedigree\na < b @ -1\n", universe("a", "b"))
    assert (exc.value.line, exc.value.column, exc.value.reason, exc.value.token) == (2, 9, "negative rank", "-1")


def test_pedigree_duplicate_pair_position():
    u = universe("a", "b", "c")
    text = "pedigree\na < b @ 1\nc < b @ 2\n\na < b @ 2\n"
    with pytest.raises(ParseError) as exc:
        parse_pedigree(text, u)
    assert (exc.value.line, exc.value.column) == (5, 1)
    assert exc.value.reason == "duplicate pair a < b"
    # a pair and its reverse are different pairs
    assert parse_pedigree("pedigree\na < b @ 1\nb < a @ 1\n", u).label("b", "a") == 1


def test_export_dot_layered():
    u = universe("a", "b", "c")
    lf = LayeredForm(
        u, (Block(frozenset({"a", "c"}), False), Block(frozenset({"b"}), False))
    )
    assert export_dot(lf) == (
        "digraph belief_state {\n"
        '  n0 [label="a,c"];\n'
        '  n1 [label="b"];\n'
        "  n0 -> n1;\n"
        "}\n"
    )
    connected = LayeredForm(universe("a", "b"), (Block(frozenset({"a", "b"}), True),))
    assert export_dot(connected) == (
        "digraph belief_state {\n"
        '  n0 [label="a,b"];\n'
        "  n0 -> n0;\n"
        "}\n"
    )
    lonely = LayeredForm(universe("a"), (Block(frozenset({"a"}), False),))
    assert export_dot(lonely) == (
        "digraph belief_state {\n"
        '  n0 [label="a"];\n'
        "}\n"
    )


def test_export_dot_escapes_quotes_and_backslashes_in_labels():
    s = parse_scenario('worlds a"b c\\d e\nsource s rank 1\n  layers [a"b c\\d] > [e]\n')
    assert export_dot(to_layers(s.source("s").state)) == (
        "digraph belief_state {\n"
        '  n0 [label="a\\"b,c\\\\d"];\n'
        '  n1 [label="e"];\n'
        "  n0 -> n1;\n"
        "}\n"
    )


def test_export_dot_pedigree_labels_edges():
    u = universe("a", "b", "c")
    pbs = PedigreedBeliefState(u, (("a", "b", 2), ("c", "b", 1)))
    out = export_dot(pbs)
    assert 'n0 [label="a,c"];' in out
    assert 'n0 -> n1 [label="1,2"];' in out


def test_export_dot_pedigree_matches_pair_scan_oracle():
    rng = random.Random(661)
    labelled_loops = multi_rank = 0
    for _ in range(150):
        u = small_universe(rng.randint(2, 7))
        pedigrees = [a.pedigree() for a in random_agents(rng, u, rng.randint(1, 3))]
        for pbs in pedigrees + [fuse(pedigrees), fuse(pedigrees[:2])]:
            out = export_dot(pbs)
            assert out == export_dot_oracle(pbs)
            labelled_loops += bool(re.search(r"n(\d+) -> n\1 \[label", out))
            multi_rank += bool(re.search(r'-> n\d+ \[label="\d+,', out))
    # connected blocks with labelled self-loops, and edges with several ranks
    assert labelled_loops > 200 and multi_rank >= 10


def test_fuzz_smoke_parsers_raise_structured_errors():
    rng = random.Random(33)
    u = universe("a", "b")
    for _ in range(500):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
        text = blob.decode("utf-8", errors="replace")
        for parser in (parse_scenario, lambda t: parse_pedigree(t, u)):
            try:
                parser(text)
            except (ParseError, NotModularError):
                pass


def test_shipped_sample_scenarios_parse_and_round_trip():
    scenarios_dir = pathlib.Path(__file__).parent.parent / "scenarios"
    paths = sorted(scenarios_dir.glob("*.scn"))
    assert len(paths) >= 2
    for path in paths:
        s = parse_scenario(path.read_text())
        assert s.profile.sources and s.agents
        assert parse_scenario(format_scenario(s)) == s


def test_telemetry_scenario_semantics():
    scenarios_dir = pathlib.Path(__file__).parent.parent / "scenarios"
    s = parse_scenario((scenarios_dir / "telemetry.scn").read_text())
    assert s.universe.worlds == ("nominal", "F.!D", "!F.D", "!F.!D")
    merged = agr(s.profile).relation
    # both failure worlds beat both healthy-link worlds; the two rank-1
    # holdouts disagree about "nominal", leaving a recorded conflict
    assert merged.has("!F.!D", "nominal") and merged.has("!F.D", "F.!D")
    assert merged.has("nominal", "F.!D") and merged.has("F.!D", "nominal")


def test_layers_round_trip_through_scenario_text():
    rng = random.Random(34)
    from belieffusion import format_layers, from_layers

    for _ in range(40):
        u = small_universe(rng.randint(1, 5))
        layered = random_layered(rng, u)
        text = (
            "worlds " + " ".join(u.worlds) + "\n"
            "source s rank 0\n"
            "  layers " + format_layers(layered) + "\n"
        )
        parsed = parse_scenario(text)
        assert parsed.profile.sources[0].state == from_layers(layered)
        assert to_layers(parsed.profile.sources[0].state) == layered


def test_line_tokenizer_matches_the_character_walk():
    rng = random.Random(4114)
    # punctuation, '#', words, literals, Unicode and control whitespace,
    # and characters the formats never use
    alphabet = "ab!F.D_9<>=,[]*#@ \t\u00a0\u2003\x1c\x85\u00e9\u20ac"
    lines = ["", "   ", "#", "a#b c", "  pairs a < b, c < d   # note", "[a c]* > [b]"]
    for _ in range(3000):
        lines.append("".join(rng.choice(alphabet) for _ in range(rng.randrange(25))))
    for line in lines:
        expected = scenario_tokens_oracle(line)
        assert scenario._tokenize_line(line) == expected, repr(line)
        assert scenario._line_tokens(line) == [tok for tok, _ in expected], repr(line)


def test_vars_cap_is_a_positioned_error_before_the_universe_is_built(monkeypatch):
    def refuse(variables):
        raise AssertionError(f"generate_universe called with {len(variables)} variables")

    monkeypatch.setattr(scenario, "generate_universe", refuse)
    names = [f"V{i}" for i in range(scenario.MAX_VARS + 1)]
    line = "vars " + " ".join(names)
    with pytest.raises(ParseError) as exc:
        parse_scenario("# header\n" + line + "\n")
    assert (exc.value.line, exc.value.token) == (2, names[-1])
    assert exc.value.column == line.index(names[-1]) + 1
    assert f"at most {scenario.MAX_VARS}" in exc.value.reason
    # at the cap, the line reaches generate_universe
    with pytest.raises(AssertionError, match=f"with {scenario.MAX_VARS} variables"):
        parse_scenario("vars " + " ".join(names[:-1]) + "\n")


def test_worlds_cap_is_a_positioned_error_before_the_universe_is_built(monkeypatch):
    def refuse(worlds):
        raise AssertionError(f"WorldUniverse called with {len(worlds)} worlds")

    monkeypatch.setattr(scenario, "WorldUniverse", refuse)
    cap = 2**scenario.MAX_VARS
    names = [f"w{i}" for i in range(cap + 1)]
    line = "worlds " + " ".join(names)
    with pytest.raises(ParseError) as exc:
        parse_scenario("# header\n" + line + "\n")
    assert (exc.value.line, exc.value.token) == (2, names[-1])
    assert exc.value.column == line.index(" " + names[-1]) + 2
    assert exc.value.reason == f"worlds declares {cap + 1} worlds; at most {cap} are allowed"
    # at the cap, the line reaches WorldUniverse
    with pytest.raises(AssertionError, match=f"with {cap} worlds"):
        parse_scenario("worlds " + " ".join(names[:-1]) + "\n")
