"""The scenario and pedigree parsers against the cursor-parser oracle.

On every input of a seeded corpus, the parser and the oracle in
``helpers`` must return equal values, or raise a ParseError with the same
line, column, reason and token, or raise the same validation error with
the same text. The corpus: the shipped scenarios, generated ``vars``
scenarios at 5 and 8 variables with ``layers`` and ``pairs`` sources, small
``worlds`` scenarios, pedigree texts, and thousands of token- and
line-level mutations of them.
"""

import collections
import pathlib
import random

from belieffusion import (
    Block,
    LayeredForm,
    NotModularError,
    NotTransitiveError,
    ParseError,
    PedigreedBeliefState,
    WorldUniverse,
    format_layers,
    generate_universe,
    parse_pedigree,
    parse_scenario,
    relation,
    serialize_pedigree,
)
from belieffusion.scenario import MAX_VARS
from helpers import (
    parse_pedigree_oracle,
    parse_scenario_oracle,
    random_layered,
    scenario_tokens_oracle,
    small_universe,
)

SCENARIOS = pathlib.Path(__file__).parent.parent / "scenarios"


def outcome(parse, text):
    try:
        return ("value", parse(text))
    except ParseError as e:
        return ("ParseError", e.line, e.column, e.reason, e.token, str(e))
    except (NotModularError, NotTransitiveError) as e:
        return (type(e).__name__, str(e))


def pair_lines(pairs, per_line):
    return [
        "  pairs " + ", ".join(f"{x} < {y}" for x, y in pairs[i : i + per_line])
        for i in range(0, len(pairs), per_line)
    ]


def random_scenario(rng: random.Random, u: WorldUniverse, header: list[str]) -> str:
    """Layered sources, valid pairs sources, arbitrary (mostly invalid)
    pairs sources, an empty source, and agents over them."""
    lines = list(header)
    ids = []
    for i in range(rng.randint(1, 4)):
        sid = f"s{i}"
        ids.append(sid)
        lines.append(f"source {sid} rank {rng.randint(0, 3)}")
        kind = rng.random()
        if kind < 0.45:
            lines.append("  layers " + format_layers(random_layered(rng, u)))
        elif kind < 0.9:
            if kind < 0.7:
                layered = random_layered(rng, u)
                if len(u) > 32:
                    # one or two worlds on top: a few hundred pairs, not tens of thousands
                    top = frozenset(rng.sample(u.worlds, rng.randint(1, 2)))
                    layered = LayeredForm(u, (Block(top, rng.random() < 0.5), Block(frozenset(u.worlds) - top, False)))
                pairs = [
                    (x, y)
                    for i, b in enumerate(layered.blocks)
                    for x in sorted(b.worlds)
                    for later in layered.blocks[i + (not b.connected) :]
                    for y in sorted(later.worlds)
                ]
            else:
                pairs = [(rng.choice(u.worlds), rng.choice(u.worlds)) for _ in range(rng.randint(1, 6))]
            pairs = sorted(relation(u, pairs).pairs, key=lambda p: (u.index(p[0]), u.index(p[1])))
            lines += pair_lines(pairs, rng.choice([4, 16, 64])) if pairs else []
    for i in range(rng.randint(0, 3)):
        lines.append(f"agent A{i} = " + " ".join(rng.sample(ids, rng.randint(0, len(ids)))))
    return "\n".join(lines) + "\n"


def vars_scenario(rng: random.Random, k: int) -> str:
    variables = [f"V{i}" for i in range(k)]
    pu = generate_universe(variables)
    header = ["# format 1", "vars " + " ".join(variables)]
    worlds = list(pu.universe.worlds)
    for alias in ("ok", "bad")[: rng.randint(0, 2)]:
        target = worlds.pop(rng.randrange(len(worlds)))
        header.append(f"world {alias} = {target.replace('.', ' ')}")
        pu = pu.rename_world(target, alias)
    return random_scenario(rng, pu.universe, header)


def base_scenarios(rng: random.Random) -> dict[str, list[str]]:
    small = [path.read_text() for path in sorted(SCENARIOS.glob("*.scn"))]
    for _ in range(40):
        u = small_universe(rng.randint(1, 5))
        small.append(random_scenario(rng, u, ["worlds " + " ".join(u.worlds)]))
    return {
        "small": small,
        "k5": [vars_scenario(rng, 5) for _ in range(3)],
        "k8": [vars_scenario(rng, 8) for _ in range(3)],
    }


# Tokens a mutation may insert: punctuation out of place, unknown and
# malformed names, empty blocks, keywords, ranks int() rejects.
NOISE = ["*", ">", "<", ",", "=", "[", "]", "[]", "zz", "a", "s0", "rank", "pairs",
         "layers", "source", "-1", "x", "²", "٣", "!V0", "V0", "#", "# note"]


def mutate_line(rng: random.Random, line: str) -> str:
    indent = line[: len(line) - len(line.lstrip())]
    tokens = [tok for tok, _ in scenario_tokens_oracle(line)]
    if not tokens:
        return line + rng.choice(["x", " # c", "\t"])
    i = rng.randrange(len(tokens))
    op = rng.randrange(10)
    if op == 0:
        del tokens[i]
    elif op == 1:
        tokens.insert(i, tokens[i])  # [a a] when tokens[i] is a world in a block
    elif op == 9:
        # a world in two blocks, or a pair reversed
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(tokens))
    elif op == 2 and len(tokens) > 1:
        j = rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif op == 3:
        tokens[i] = rng.choice(NOISE)
    elif op == 4:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(NOISE))
    elif op == 5:
        tokens.append(rng.choice(NOISE))
    elif op == 6 and "]" in tokens:
        del tokens[tokens.index("]")]  # an unterminated block, or two merged
    elif op == 7:
        indent = rng.choice(["", "\t", " ", "  ", " \t "])
    else:
        tokens = tokens[: rng.randrange(len(tokens) + 1)]
    sep = rng.choice([" ", " ", "\t", " ", "  "])
    return indent + sep.join(tokens) + rng.choice(["", "", " # trailing comment", "\t"])


def mutate(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines = ["worlds a"]
        i = rng.randrange(len(lines))
        op = rng.randrange(10)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            lines[i] = "vars " + " ".join(f"W{j}" for j in range(rng.randint(MAX_VARS + 1, MAX_VARS + 3)))
        else:
            lines[i] = mutate_line(rng, lines[i])
    return "\n".join(lines) + rng.choice(["\n", "", "\r\n"])


def mutate_body(rng: random.Random, text: str) -> str:
    """One or two token mutations of one ``pairs`` or ``layers`` line."""
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if line.lstrip().startswith(("pairs", "layers"))]
    if body:
        i = rng.choice(body)
        for _ in range(rng.randint(1, 2)):
            lines[i] = mutate_line(rng, lines[i])
    return "\n".join(lines) + "\n"


def layers_variant(rng: random.Random, u: WorldUniverse) -> str:
    """A layers line that may repeat, drop or shuffle worlds, or add an
    empty block: overlaps, gaps, ``[a a]`` and ``[]``."""
    blocks = [(sorted(b.worlds), b.connected) for b in random_layered(rng, u).blocks]
    for _ in range(rng.randint(0, 3)):
        worlds = rng.choice(blocks)[0]
        op = rng.randrange(4)
        if op == 0:
            worlds += rng.sample(u.worlds, rng.randint(1, min(3, len(u))))
        elif op == 1 and worlds:
            worlds.remove(rng.choice(worlds))
        elif op == 2:
            blocks.insert(rng.randrange(len(blocks) + 1), ([], rng.random() < 0.5))
        else:
            rng.shuffle(worlds)
    return " > ".join("[" + " ".join(ws) + "]" + "*" * c for ws, c in blocks)


def test_scenario_parser_matches_the_cursor_oracle():
    rng = random.Random(8080)
    bases = base_scenarios(rng)
    corpus = [text for group in bases.values() for text in group]
    # A pair of parses costs about 0.1 ms on a small base, 3 ms at 32
    # worlds and 8 ms at 256 worlds: the mutations are spread to match.
    for group, count in (("small", 3400), ("k5", 300), ("k8", 100)):
        corpus += [mutate(rng, rng.choice(bases[group])) for _ in range(count)]
    corpus += [mutate_body(rng, rng.choice(bases["small"])) for _ in range(2000)]
    for _ in range(600):
        # declaration order is not name order, so that lists of worlds in
        # errors show which order they follow
        u = WorldUniverse(tuple(rng.sample("abcdefgh", rng.randint(1, 6))))
        corpus.append(f"worlds {' '.join(u.worlds)}\nsource s rank 1\n  layers {layers_variant(rng, u)}\n")
    # keyword variables, and each universe declaration at and over its cap
    corpus += ["vars true F\n", "vars F false # c\n", "vars F F true\n"]
    for keyword, cap in (("vars", MAX_VARS), ("worlds", 2**MAX_VARS)):
        corpus += [f"{keyword} " + " ".join(f"W{j}" for j in range(count)) + "\n" for count in (cap, cap + 1)]
    # an alias to another world's name, and to the world's own name
    corpus += ["vars F D\nworld F.!D = F D\n", "vars F D\nworld F.!D = F D # c\t\n", "vars F D\nworld F.D = F D\n"]
    kinds = collections.Counter()
    reasons = []
    for text in corpus:
        got = outcome(parse_scenario, text)
        assert got == outcome(parse_scenario_oracle, text), repr(text)
        kinds[got[0]] += 1
        if got[0] == "ParseError":
            reasons.append(got[3])
    # every kind of outcome is exercised, and many positioned errors
    assert kinds["value"] >= 500, kinds
    assert kinds["ParseError"] >= 3000, kinds
    assert kinds["NotModularError"] >= 20 and kinds["NotTransitiveError"] >= 5, kinds
    for fragment in ("in more than one layer", "must cover every world", "empty layer block"):
        assert sum(fragment in reason for reason in reasons) >= 30, (fragment, kinds)


def test_pedigree_parser_matches_the_cursor_oracle():
    rng = random.Random(8081)
    universes = [small_universe(n) for n in range(1, 6)] + [generate_universe(["F", "D", "E"]).universe]
    bases = []
    for _ in range(60):
        u = rng.choice(universes)
        entries = [(x, y, rng.randint(0, 4)) for x in u.worlds for y in u.worlds if rng.random() < 0.4]
        bases.append((u, serialize_pedigree(PedigreedBeliefState(u, entries))))
    corpus = bases + [(u, mutate(rng, text)) for u, text in rng.choices(bases, k=3000)]
    kinds = collections.Counter()
    for u, text in corpus:
        got = outcome(lambda t: parse_pedigree(t, u), text)
        assert got == outcome(lambda t: parse_pedigree_oracle(t, u), text), repr(text)
        kinds[got[0]] += 1
    assert kinds["value"] >= 300 and kinds["ParseError"] >= 1500, kinds
