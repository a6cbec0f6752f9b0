import pathlib
from itertools import product

import pytest
from click.testing import CliRunner

from belieffusion import relation, universe
from belieffusion.cli import main
from belieffusion.scenario import MAX_VARS
from helpers import choice_oracle, layered_pairs

EXAMPLE4 = """\
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

ROBOT = """\
vars F D
source st rank 2
  layers [!F.D] > [F.D !F.!D] > [F.!D]
source sm rank 1
  layers [F.D F.!D] > [!F.D !F.!D]
agent A = st sm
"""

BAD = """\
worlds a b c
source rogue rank 1
  pairs a < b
"""

TWO_AGENT = """\
worlds a b
source s1 rank 2
  pairs a < b
source s2 rank 1
  pairs b < a
agent A1 = s1
agent A2 = s2
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scenario_file(tmp_path):
    def write(text, name="scenario.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_validate_ok(runner, scenario_file):
    result = runner.invoke(main, ["validate", scenario_file(EXAMPLE4)])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "OK s0 B,T<,Q<"
    assert lines[1] == "OK s1 B,T<,Q<"
    assert lines[2] == "OK s2 B,T<,Q<"


def test_validate_invalid_source(runner, scenario_file):
    result = runner.invoke(main, ["validate", scenario_file(BAD)])
    assert result.exit_code == 1
    assert "rogue" in result.output
    assert "not modular" in result.output


def test_validate_missing_file(runner):
    result = runner.invoke(main, ["validate", "no-such-file.txt"])
    assert result.exit_code == 2


def test_aggregate_agr(runner, scenario_file):
    result = runner.invoke(main, ["aggregate", scenario_file(EXAMPLE4), "--op", "agr"])
    assert result.exit_code == 0
    assert result.output == "a < b\nc < b\nlayers: [a c] > [b]\n"


def test_aggregate_agrstar(runner, scenario_file):
    result = runner.invoke(
        main, ["aggregate", scenario_file(EXAMPLE4), "--op", "agrstar"]
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[:7] == [
        "a < a",
        "a < b",
        "a < c",
        "b < b",
        "c < a",
        "c < b",
        "c < c",
    ]
    assert "layers: [a c]* > [b]*" in result.output


def test_aggregate_single_source(runner, scenario_file):
    result = runner.invoke(
        main,
        ["aggregate", scenario_file(EXAMPLE4), "--op", "un", "--sources", "s0"],
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[:2] == ["b < a", "b < c"]


def test_aggregate_unknown_source(runner, scenario_file):
    result = runner.invoke(
        main, ["aggregate", scenario_file(EXAMPLE4), "--sources", "nope"]
    )
    assert result.exit_code == 2


def test_fuse_outputs_pedigree_and_induced(runner, scenario_file):
    result = runner.invoke(main, ["fuse", scenario_file(EXAMPLE4)])
    assert result.exit_code == 0
    assert result.output == (
        "pedigree\na < b @ 2\nc < b @ 2\ninduced\na < b\nc < b\n"
    )


def test_fuse_agent_order_is_irrelevant(runner, scenario_file):
    path = scenario_file(EXAMPLE4)
    one = runner.invoke(main, ["fuse", path, "--agents", "A1p,A2p"])
    two = runner.invoke(main, ["fuse", path, "--agents", "A2p,A1p"])
    assert one.output == two.output


def test_fuse_writes_wire_format(runner, scenario_file, tmp_path):
    out = tmp_path / "fused.pedigree"
    result = runner.invoke(
        main, ["fuse", scenario_file(EXAMPLE4), "--out", str(out)]
    )
    assert result.exit_code == 0
    assert out.read_text() == "pedigree\na < b @ 2\nc < b @ 2\n"


def test_fuse_unknown_agent(runner, scenario_file):
    result = runner.invoke(main, ["fuse", scenario_file(EXAMPLE4), "--agents", "zz"])
    assert result.exit_code == 2


def test_query_belief(runner, scenario_file):
    result = runner.invoke(
        main,
        [
            "query", scenario_file(ROBOT),
            "--agent", "A", "--if", "true", "--then", "!F",
        ],
    )
    assert result.exit_code == 0
    assert result.output == "BEL\nchoice: !F.D\n"


def test_query_agnostic(runner, scenario_file):
    # sm's top block {F.D, F.!D} is disconnected and mixed on D
    result = runner.invoke(
        main,
        [
            "query", scenario_file(ROBOT),
            "--sources", "sm", "--if", "true", "--then", "D",
        ],
    )
    assert result.exit_code == 0
    assert result.output == "AGN\nchoice: F.D F.!D\n"


def test_query_vacuous(runner, scenario_file):
    result = runner.invoke(
        main,
        [
            "query", scenario_file(ROBOT),
            "--agent", "A", "--if", "F & !F", "--then", "D",
        ],
    )
    assert result.exit_code == 1
    assert result.output.splitlines()[0] == "VACUOUS"


def test_query_syntax_error(runner, scenario_file):
    result = runner.invoke(
        main,
        [
            "query", scenario_file(ROBOT),
            "--agent", "A", "--if", "F &", "--then", "D",
        ],
    )
    assert result.exit_code == 2


def test_query_long_and_deep_formulas(runner):
    # A flat 3000-conjunct condition and a 1000-deep "!" chain answer as
    # the one-variable condition they are equivalent to.
    path = str(pathlib.Path(__file__).parent.parent / "scenarios" / "telemetry.scn")
    args = ["query", path, "--agent", "center1", "--then", "D", "--if"]
    short = runner.invoke(main, [*args, "F"])
    assert (short.exit_code, short.output) == (0, "BEL\nchoice: nominal\n")
    for condition in (" & ".join(["F"] * 3000), "!" * 1000 + "F"):
        result = runner.invoke(main, [*args, condition])
        assert (result.exit_code, result.output) == (0, short.output)


def test_query_needs_vars(runner, scenario_file):
    result = runner.invoke(
        main,
        [
            "query", scenario_file(EXAMPLE4),
            "--agent", "A1p", "--if", "true", "--then", "true",
        ],
    )
    assert result.exit_code == 2


def test_query_sources_selector(runner, scenario_file):
    result = runner.invoke(
        main,
        [
            "query", scenario_file(ROBOT),
            "--sources", "st", "--if", "true", "--then", "!F & D",
        ],
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "BEL"


def test_simulate_two_agents(runner, scenario_file):
    result = runner.invoke(
        main,
        ["simulate", scenario_file(TWO_AGENT), "--topology", "complete", "--seed", "1"],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("rounds: ")
    assert lines[1].startswith("messages: ")
    assert lines[2] == "converged: true"
    assert "agent A1: a < b" in lines
    assert "agent A2: a < b" in lines
    assert lines[-1] == "MATCHES_GLOBAL: true"


def test_simulate_is_deterministic(runner, scenario_file):
    path = scenario_file(EXAMPLE4)
    args = ["simulate", path, "--seed", "7", "--dup", "0.5", "--drop", "0.25"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_simulate_seeds_agree_on_final_states(runner, scenario_file):
    path = scenario_file(TWO_AGENT)
    outputs = []
    for seed in ("1", "2"):
        result = runner.invoke(main, ["simulate", path, "--seed", seed])
        agent_lines = [l for l in result.output.splitlines() if l.startswith("agent")]
        outputs.append(agent_lines)
    assert outputs[0] == outputs[1]


def test_simulate_empty_topology(runner, scenario_file):
    result = runner.invoke(
        main, ["simulate", scenario_file(TWO_AGENT), "--topology", "edges:"]
    )
    assert result.exit_code == 2


def test_simulate_no_edges_diverges(runner, scenario_file):
    text = TWO_AGENT + "agent A3 = s1\n"
    result = runner.invoke(
        main,
        ["simulate", scenario_file(text), "--topology", "edges:A1-A3"],
    )
    assert result.exit_code == 0
    assert "converged: true" in result.output
    assert "MATCHES_GLOBAL: false" in result.output


def test_simulate_bad_topology(runner, scenario_file):
    result = runner.invoke(
        main, ["simulate", scenario_file(TWO_AGENT), "--topology", "mesh"]
    )
    assert result.exit_code == 2


def test_export_dot_source(runner, scenario_file):
    result = runner.invoke(
        main, ["export-dot", scenario_file(EXAMPLE4), "--source", "s2"]
    )
    assert result.exit_code == 0
    assert result.output == (
        "digraph belief_state {\n"
        '  n0 [label="a,c"];\n'
        '  n1 [label="b"];\n'
        "  n0 -> n1;\n"
        "}\n"
    )


def test_export_dot_fused_to_file(runner, scenario_file, tmp_path):
    out = tmp_path / "fused.dot"
    result = runner.invoke(
        main, ["export-dot", scenario_file(EXAMPLE4), "--fused", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert 'n0 -> n1 [label="2"];' in out.read_text()


def test_export_dot_requires_one_selector(runner, scenario_file):
    path = scenario_file(EXAMPLE4)
    assert runner.invoke(main, ["export-dot", path]).exit_code == 2
    assert (
        runner.invoke(
            main, ["export-dot", path, "--source", "s0", "--fused"]
        ).exit_code
        == 2
    )


def test_exit_code_2_on_scenario_parse_error(runner, scenario_file):
    result = runner.invoke(main, ["validate", scenario_file("worlds a a\n")])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "data, line, column",
    [
        (b"worlds a b\n\xff\n", 2, 1),
        # columns count characters, and "\r\n" ends one line, as in the parser
        (b"worlds \xc3\xa9 b\r\nsource s rank 1\r\n  layers [\xc3\xa9] \x80 [b]\n", 3, 14),
        (b"\xc3(", 1, 1),
    ],
)
def test_non_utf8_scenario_is_a_positioned_parse_error(runner, tmp_path, data, line, column):
    path = tmp_path / "bad.scn"
    path.write_bytes(data)
    for command in (["validate"], ["aggregate", "--op", "agr"]):
        result = runner.invoke(main, command + [str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"{path}: line {line}, column {column}: not valid UTF-8\n"


def test_cli_at_256_worlds(runner, scenario_file):
    # Eight variables; the sources are layered by construction, so every
    # expected output follows from the blocks. s0 ranks A-worlds above the
    # rest. s1 ranks the all-false world w0 first, then the B-worlds
    # (conflicted), then the others; p0 (pairs) puts w0 below nothing,
    # which s1 already says, so rank 1 as a whole is just s1. Refining s0
    # by s1 gives the lexicographic layering, which is already transitive.
    names = "ABCDEFGH"
    vals = {
        ".".join(v if b else "!" + v for v, b in zip(names, bits)): dict(zip(names, bits))
        for bits in product((True, False), repeat=len(names))
    }
    worlds = list(vals)
    w0 = worlds[-1]
    s0 = [([w for w in worlds if vals[w]["A"]], False), ([w for w in worlds if not vals[w]["A"]], False)]
    s1 = [
        ([w0], False),
        ([w for w in worlds if vals[w]["B"]], True),
        ([w for w in worlds if not vals[w]["B"] and w != w0], False),
    ]
    expected_blocks = [
        ([w for w in outer if w in inner], connected)
        for outer, _ in s0
        for inner, connected in s1
        if set(outer) & set(inner)
    ]
    agr_pairs = layered_pairs(expected_blocks)

    def layers_line(blocks):
        return " > ".join(f"[{' '.join(ws)}]" + ("*" if c else "") for ws, c in blocks)

    text = "\n".join(
        [
            "vars " + " ".join(names),
            "source s0 rank 2",
            "  layers " + layers_line(s0),
            "source s1 rank 1",
            "  layers " + layers_line(s1),
            "source p0 rank 1",
            "  pairs " + ", ".join(f"{w0} < {w}" for w in worlds if w != w0),
            "agent a0 = s0 s1 p0",
            "agent a1 = s1 p0",
        ]
    )
    path = scenario_file(text + "\n")

    def pair_lines(lines):
        return [tuple(line.split(" < ")) for line in lines]

    def read_layers(line):
        blocks = []
        for part in line.split(" > "):
            ws, _, star = part.partition("]")
            blocks.append((ws.lstrip("[").split(), star == "*"))
        return layered_pairs(blocks)

    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 0
    # s0 and p0 are irreflexive and s1 is not; none is total (each has a
    # disconnected block of several worlds). s0 and p0 are asymmetric and
    # transitive, hence strict parts of total quasi-transitive relations.
    assert result.output == "OK s0 B,T<,Q<\nOK s1 B\nOK p0 B,T<,Q<\n"

    result = runner.invoke(main, ["aggregate", path, "--op", "agr"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    printed = pair_lines(lines[:-1])
    assert printed == sorted(agr_pairs, key=lambda p: (worlds.index(p[0]), worlds.index(p[1])))
    assert lines[-1] == "layers: " + layers_line(expected_blocks)
    assert read_layers(lines[-1][len("layers: "):]) == set(printed)

    expected_state = relation(universe(*worlds), agr_pairs)
    for args, p_worlds, q_worlds in (
        (["--agent", "a0", "--if", "B & !C", "--then", "D"],
         {w for w in worlds if vals[w]["B"] and not vals[w]["C"]},
         {w for w in worlds if vals[w]["D"]}),
        (["--sources", "all", "--if", "!A", "--then", "!B"],
         {w for w in worlds if not vals[w]["A"]},
         {w for w in worlds if not vals[w]["B"]}),
    ):
        result = runner.invoke(main, ["query", path, *args])
        assert result.exit_code == 0
        chosen = choice_oracle(expected_state, frozenset(p_worlds))
        hits = chosen & q_worlds
        connected = all((x, y) in agr_pairs for x in chosen for y in chosen)
        disconnected = not any((x, y) in agr_pairs for x in chosen for y in chosen)
        flags = [
            name
            for name, on in (
                ("BEL", hits == chosen),
                ("DISBEL", not hits),
                ("AGN", disconnected and hits and hits != chosen),
                ("CON", connected),
            )
            if on
        ]
        assert result.output == f"{' '.join(flags)}\nchoice: {' '.join(w for w in worlds if w in chosen)}\n"

    result = runner.invoke(main, ["fuse", path])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    cut = lines.index("induced")
    s0_pairs, s1_pairs = layered_pairs(s0), layered_pairs(s1)
    labels = {p: 2 for p in s0_pairs}
    labels.update(
        {(x, y): 1 for x, y in s1_pairs if (x, y) not in s0_pairs and (y, x) not in s0_pairs}
    )
    fused = {}
    for line in lines[1:cut]:
        pair, _, rank = line.rpartition(" @ ")
        fused[tuple(pair.split(" < "))] = int(rank)
    assert lines[0] == "pedigree" and fused == labels and len(fused) == cut - 1
    assert set(pair_lines(lines[cut + 1 :])) == agr_pairs


NO_AGENTS = """\
worlds a b
source s rank 1
  pairs a < b
"""

FOUR_AGENTS = """\
worlds a b c
source s0 rank 1
  pairs b < a, b < c
source s1 rank 1
  pairs a < b, c < b
source s2 rank 2
  pairs a < b, c < b
agent A = s0
agent B = s1
agent C = s2
agent D =
"""


def outcome(result):
    return (result.exit_code, result.stdout, result.stderr)


@pytest.mark.parametrize(
    "selector, result",
    [
        (["--source", "", "--fused"], (2, "", "exactly one of --source, --agent, or --fused is required\n")),
        (["--source", "s0", "--agent", ""], (2, "", "exactly one of --source, --agent, or --fused is required\n")),
        (["--agent", ""], (2, "", "unknown agent id ''\n")),
    ],
)
def test_export_dot_counts_empty_selectors(runner, scenario_file, selector, result):
    got = runner.invoke(main, ["export-dot", scenario_file(EXAMPLE4), *selector])
    assert outcome(got) == result


def test_validate_prints_total_classes_of_connected_blocks(runner, scenario_file):
    text = "worlds a b c\nsource s rank 1\n  layers [a b]* > [c]*\n"
    result = runner.invoke(main, ["validate", scenario_file(text)])
    assert outcome(result) == (0, "OK s B,T,Q\n", "")


def test_aggregate_intransitive_union_prints_no_layers(runner, scenario_file):
    result = runner.invoke(main, ["aggregate", scenario_file(EXAMPLE4), "--op", "un"])
    assert outcome(result) == (0, "a < b\nb < a\nb < c\nc < b\n", "")


def test_aggregate_intransitive_refinement_prints_no_layers(runner, scenario_file):
    # s0 and s1 share rank 1, so their refinement is their union
    result = runner.invoke(
        main, ["aggregate", scenario_file(EXAMPLE4), "--op", "agrrf", "--sources", "s0,s1"]
    )
    assert outcome(result) == (0, "a < b\nb < a\nb < c\nc < b\n", "")


@pytest.mark.parametrize(
    "args, stderr",
    [
        (["fuse"], "scenario declares no agents\n"),
        (["simulate"], "scenario declares no agents\n"),
        (["export-dot", "--fused"], "scenario declares no agents\n"),
    ],
)
def test_commands_without_agents(runner, scenario_file, args, stderr):
    result = runner.invoke(main, [args[0], scenario_file(NO_AGENTS), *args[1:]])
    assert outcome(result) == (2, "", stderr)


@pytest.mark.parametrize(
    "selector, stderr",
    [
        (["--agent", "A", "--sources", "all"], "exactly one of --agent or --sources is required\n"),
        ([], "exactly one of --agent or --sources is required\n"),
        (["--agent", "zz"], "unknown agent id 'zz'\n"),
        (["--sources", "st,zz"], "unknown source id 'zz'\n"),
    ],
)
def test_query_selector_errors(runner, scenario_file, selector, stderr):
    result = runner.invoke(
        main, ["query", scenario_file(ROBOT), *selector, "--if", "true", "--then", "D"]
    )
    assert outcome(result) == (2, "", stderr)


@pytest.mark.parametrize("command", [["aggregate"], ["query", "--if", "true", "--then", "D"]])
@pytest.mark.parametrize(
    "sources, stderr",
    [
        (["--sources", ","], "unknown source id ''\n"),
        (["--sources="], "unknown source id ''\n"),
        (["--sources", "zz,yy"], "unknown source id 'zz'\n"),
    ],
)
def test_unknown_sources_name_the_first_unknown_id(runner, scenario_file, command, sources, stderr):
    result = runner.invoke(main, [command[0], scenario_file(ROBOT), *sources, *command[1:]])
    assert outcome(result) == (2, "", stderr)


def test_query_undeclared_variable(runner, scenario_file):
    result = runner.invoke(
        main, ["query", scenario_file(ROBOT), "--agent", "A", "--if", "Z", "--then", "D | Y"]
    )
    assert outcome(result) == (2, "", "formula: undeclared variable(s): Z\n")


@pytest.mark.parametrize(
    "topology, rounds, head",
    [
        ("ring", "10", "rounds: 2\nmessages: 16\nconverged: true\n"),
        ("star:C", "1", "rounds: 1\nmessages: 6\nconverged: false\n"),
    ],
)
def test_simulate_ring_and_star(runner, scenario_file, topology, rounds, head):
    result = runner.invoke(
        main,
        ["simulate", scenario_file(FOUR_AGENTS), "--topology", topology, "--rounds", rounds],
    )
    agents = "".join(f"agent {a}: a < b, c < b\n" for a in "ABCD")
    assert outcome(result) == (0, head + agents + "MATCHES_GLOBAL: true\n", "")


def test_export_dot_agent(runner, scenario_file):
    result = runner.invoke(main, ["export-dot", scenario_file(EXAMPLE4), "--agent", "A1p"])
    assert outcome(result) == (
        0,
        "digraph belief_state {\n"
        '  n0 [label="a,c"];\n'
        '  n1 [label="b"];\n'
        '  n0 -> n1 [label="2"];\n'
        "}\n",
        "",
    )


@pytest.mark.parametrize(
    "args, stderr",
    [
        (["export-dot", "--agent", "zz"], "unknown agent id 'zz'\n"),
        (["export-dot", "--source", "zz"], "unknown source id 'zz'\n"),
        (["aggregate", "--sources", "s0,zz"], "unknown source id 'zz'\n"),
        (["fuse", "--agents", "A1p,zz"], "unknown agent id 'zz'\n"),
        (["simulate", "--topology", "star:zz"], "unknown agent id 'zz'\n"),
        (["simulate", "--topology", "edges:A1p-zz,yy-A1p"], "unknown agent id 'zz'\n"),
    ],
)
def test_unknown_ids_are_usage_errors(runner, scenario_file, args, stderr):
    result = runner.invoke(main, [args[0], scenario_file(EXAMPLE4), *args[1:]])
    assert outcome(result) == (2, "", stderr)


WORLDS_OVER_CAP = "worlds " + " ".join(f"w{i}" for i in range(2**MAX_VARS + 1)) + "\n"


@pytest.mark.parametrize(
    "data, args, code, alike",
    [
        # a repeated source id counts once
        pytest.param(ROBOT, ["aggregate", "--sources", "st,sm,st"], 0, ["aggregate", "--sources", "st,sm"],
                     id="aggregate-repeated-source"),
        pytest.param(ROBOT, ["query", "--sources", "st,st", "--if", "D", "--then", "F"], 0,
                     ["query", "--sources", "st", "--if", "D", "--then", "F"], id="query-repeated-source"),
        # each failure is one stderr line, and nothing on stdout
        pytest.param(EXAMPLE4, ["fuse", "--out", "{missing}/fused.txt"], 2, None, id="fuse-unwritable-out"),
        pytest.param(EXAMPLE4, ["export-dot", "--fused", "--out", "{missing}/fused.dot"], 2, None,
                     id="export-dot-unwritable-out"),
        pytest.param("vars true F\n", ["validate"], 2, None, id="keyword-variable"),
        pytest.param(WORLDS_OVER_CAP, ["validate"], 2, None, id="worlds-over-cap"),
        pytest.param(BAD, ["validate"], 1, None, id="invalid-source"),
        pytest.param(EXAMPLE4, ["aggregate", "--sources", "s0,zz"], 2, None, id="unknown-source"),
        pytest.param(EXAMPLE4, ["query", "--agent", "zz", "--if", "a", "--then", "b"], 2, None,
                     id="unknown-agent"),
        pytest.param(EXAMPLE4, ["simulate", "--topology", "edges:A1p"], 2, None, id="bad-edge"),
        pytest.param(EXAMPLE4, ["simulate", "--topology", "tree"], 2, None, id="bad-topology"),
        pytest.param(ROBOT, ["query", "--agent", "A", "--if", "F &", "--then", "D"], 2, None, id="bad-formula"),
        pytest.param(b"worlds a b\n\xff\n", ["validate"], 2, None, id="not-utf-8"),
    ],
)
def test_no_input_ends_in_a_traceback(runner, tmp_path, data, args, code, alike):
    path = tmp_path / "scenario.scn"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())

    def run(args):
        args = [a.replace("{missing}", str(tmp_path / "missing")) for a in args]
        return runner.invoke(main, [args[0], str(path), *args[1:]])

    result = run(args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == code
    if alike is not None:
        assert outcome(result) == outcome(run(alike))
    else:
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1, result.stderr


def test_unwritable_out_is_a_usage_error(runner, scenario_file, tmp_path):
    target = tmp_path / "missing" / "fused.txt"
    result = runner.invoke(main, ["fuse", scenario_file(EXAMPLE4), "--out", str(target)])
    assert outcome(result)[:2] == (2, "")
    assert result.stderr.startswith(f"cannot write {target}: ")
