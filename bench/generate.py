"""Seeded inputs for the benchmark: scenarios, an invalid source, formulas.

Everything here is plain Python over world-name strings. Nothing is
imported from the package under test, so the generated text and the
facts the generator records about it (valuations, pairs, the first
violating triple of the invalid source, each formula's truth function)
are an independent description of the input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from oracles import closure, layered_pairs, refine

Pair = tuple[str, str]
Block = tuple[tuple[str, ...], bool]  # (worlds, connected)
VARIABLES = "ABCDEFGH"
F, T = False, True  # block flags: agnostic, conflicted


def random_blocks(rng: random.Random, worlds: tuple[str, ...], shape: list[tuple[int, bool]]) -> list[Block]:
    """Shuffle the worlds into blocks of the given (size, connected) shape,
    the blocks in random order."""
    ws = list(worlds)
    rng.shuffle(ws)
    shape = list(shape)
    rng.shuffle(shape)
    blocks, start = [], 0
    for size, connected in shape:
        blocks.append((tuple(ws[start : start + size]), connected))
        start += size
    return blocks


def swapped(rng: random.Random, blocks: list[Block], swaps: int) -> list[Block]:
    """The same shape with ``swaps`` random pairs of worlds exchanged
    between blocks: a source that mostly agrees with ``blocks``."""
    ws = [list(b) for b, _ in blocks]
    for _ in range(swaps):
        i, j = rng.sample(range(len(ws)), 2)
        a, b = rng.randrange(len(ws[i])), rng.randrange(len(ws[j]))
        ws[i][a], ws[j][b] = ws[j][b], ws[i][a]
    return [(tuple(w), c) for w, (_, c) in zip(ws, blocks)]


@dataclass
class GenSource:
    id: str
    rank: int
    kind: str  # "layers" or "pairs"
    blocks: list[Block]
    pairs: frozenset[Pair]


@dataclass
class GenScenario:
    variables: tuple[str, ...]
    worlds: tuple[str, ...]
    valuation: dict[str, tuple[bool, ...]]
    sources: list[GenSource]
    agents: list[tuple[str, tuple[str, ...]]]
    index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.index = {w: i for i, w in enumerate(self.worlds)}

    def source(self, sid: str) -> GenSource:
        return next(s for s in self.sources if s.id == sid)

    def text(self) -> str:
        lines = ["# format 1", "vars " + " ".join(self.variables)]
        for s in self.sources:
            lines.append(f"source {s.id} rank {s.rank}")
            if s.kind == "layers":
                lines.append("  layers " + " > ".join("[" + " ".join(ws) + "]" + ("*" if c else "") for ws, c in s.blocks))
            else:
                ordered = sorted(s.pairs, key=lambda p: (self.index[p[0]], self.index[p[1]]))
                for i in range(0, len(ordered), 16):
                    lines.append("  pairs " + ", ".join(f"{x} < {y}" for x, y in ordered[i : i + 16]))
        for aid, sids in self.agents:
            lines.append(f"agent {aid} = " + " ".join(sids))
        return "\n".join(lines) + "\n"


def _universe(k: int) -> tuple[tuple[str, ...], tuple[str, ...], dict]:
    """Variables, worlds and valuations in the scenario format's order:
    first variable most significant, true before false, each world named
    by its dot-joined literals (``A.!B``)."""
    variables = tuple(VARIABLES[:k])
    valuation = {}
    for i in range(2**k):
        bits = tuple((i >> (k - 1 - j)) & 1 == 0 for j in range(k))
        valuation[".".join(v if b else "!" + v for v, b in zip(variables, bits))] = bits
    return variables, tuple(valuation), valuation


# Every workload draws its scenario in two steps. A template is drawn once
# from a fixed seed: the block sizes of each source, which blocks are
# conflicted, how the sources overlap and which agent holds which source.
# The run's seed then relabels the worlds with a random permutation. All
# seeds thus give isomorphic scenarios that cost the program the same
# work (pair counts, closure additions, pedigree sizes), so two sets of
# runs on different seeds differ by measurement noise only; the seed still
# decides every world name in every relation, the formulas and the
# simulator's schedules.


def relabelled(template: GenScenario, rng: random.Random) -> GenScenario:
    """The template with its worlds permuted at random."""
    image = list(template.worlds)
    rng.shuffle(image)
    mapping = dict(zip(template.worlds, image))
    sources = []
    for s in template.sources:
        blocks = [(tuple(mapping[w] for w in ws), c) for ws, c in s.blocks]
        pairs = frozenset((mapping[x], mapping[y]) for x, y in s.pairs)
        sources.append(GenSource(s.id, s.rank, s.kind, blocks, pairs))
    return GenScenario(template.variables, template.worlds, template.valuation, sources, list(template.agents))


def _source(sid: str, rank: int, blocks: list[Block], kind: str = "layers") -> GenSource:
    return GenSource(sid, rank, kind, blocks, layered_pairs(blocks))



def cli_scenario(seed: int) -> GenScenario:
    """A 5-variable scenario: four ranked ``layers`` sources, one valid
    ``pairs`` source, and three agents over the shared sources.

    The two rank-2 sources mostly agree (one is the other with two pairs
    of worlds exchanged), so their union has a few conflicts, and the
    template is redrawn until the transitive closure adds pairs both to
    the whole refinement and to the queried agent's (a1) refinement.
    """
    variables, worlds, valuation = _universe(5)
    rng = random.Random("cli-k5/template")
    agents = [("a0", ("s0", "s3")), ("a1", ("s1", "s2", "p0")), ("a2", ("s2", "s3", "p0"))]
    while True:
        s1 = random_blocks(rng, worlds, [(2, T), (6, F), (24, F)])
        sources = [
            _source("s0", 3, random_blocks(rng, worlds, [(4, F), (4, F), (24, F)])),
            _source("s1", 2, s1),
            _source("s2", 2, swapped(rng, s1, 2)),
            _source("s3", 1, random_blocks(rng, worlds, [(8, F), (24, F)])),
            _source("p0", 1, random_blocks(rng, worlds, [(4, F), (4, F), (24, F)]), kind="pairs"),
        ]
        template = GenScenario(variables, worlds, valuation, sources, agents)
        refined = refine(sources)
        queried = refine(template.source(i) for i in agents[1][1])
        if closure(refined, worlds) != refined and closure(queried, worlds) != queried:
            return relabelled(template, random.Random(f"cli-k5/{seed}"))


@dataclass
class InvalidSource:
    """A ``pairs`` source that is not modular, and its expected witness."""

    scenario: GenScenario
    witness: tuple[str, str, str]


def invalid_scenario(seed: int) -> InvalidSource:
    """One ``pairs`` source: a layered relation with one pair (a, c)
    removed, where a block lies strictly between a's and c's.

    Only triples that use the removed pair can violate modularity, because
    the layered relation is modular and transitive: (a, y, c) with a < y
    still present and c < y absent, and (x, c, a) with x < c present and
    x < a absent. The scenario format reports the first such triple in
    declaration order of (x, y), so the generator picks the minimum over
    those two families.
    """
    variables, worlds, valuation = _universe(5)
    rng = random.Random(f"invalid/{seed}")
    blocks = random_blocks(rng, worlds, [(8, F), (8, F), (16, F)])
    rel = layered_pairs(blocks)
    a = rng.choice(blocks[0][0])
    c = rng.choice(blocks[2][0])
    broken = rel - {(a, c)}
    index = {w: i for i, w in enumerate(worlds)}
    candidates = [(a, y, c) for y in worlds if (a, y) in broken and (c, y) not in rel]
    candidates += [(x, c, a) for x in worlds if (x, c) in broken and (x, a) not in rel]
    witness = min(candidates, key=lambda t: (index[t[0]], index[t[1]]))
    src = GenSource("bad", 1, "pairs", blocks, broken)
    return InvalidSource(GenScenario(variables, worlds, valuation, [src], []), witness)


def sim_scenario(seed: int) -> GenScenario:
    """A 5-variable pool of six ``layers`` sources (ranks 3, 2, 2, 1, 1, 0)
    and nine agents, each informed by two or three of them.

    Every source is held by at least one agent, so the fixpoint of a ring
    exchange is the pedigree of the whole pool.
    """
    variables, worlds, valuation = _universe(5)
    rng = random.Random("sim-ring-k5/template")
    shapes = [
        [(4, F), (4, T), (8, F), (16, F)],
        [(2, T), (6, F), (8, F), (16, F)],
        [(8, F), (8, T), (16, F)],
        [(4, F), (12, F), (16, F)],
        [(6, F), (10, F), (16, F)],
        [(4, T), (4, T), (8, F), (16, F)],
    ]
    sources = [
        _source(f"s{i}", rank, random_blocks(rng, worlds, shape))
        for i, (rank, shape) in enumerate(zip([3, 2, 2, 1, 1, 0], shapes))
    ]
    ids = [s.id for s in sources]
    agents = []
    for i in range(9):
        own = ids[i % len(ids)]
        held = [own] + rng.sample([x for x in ids if x != own], rng.randint(1, 2))
        agents.append((f"a{i}", tuple(sorted(held, key=ids.index))))
    template = GenScenario(variables, worlds, valuation, sources, agents)
    return relabelled(template, random.Random(f"sim-ring-k5/{seed}"))


def query_scenario(seed: int) -> GenScenario:
    """An 8-variable (256-world) scenario of four ``layers`` sources."""
    variables, worlds, valuation = _universe(8)
    rng = random.Random("query-k8/template")
    shapes = [
        [(16, T), (32, F), (64, F), (144, F)],
        [(8, F), (24, T), (96, F), (128, F)],
        [(32, F), (32, F), (64, F), (128, F)],
        [(4, T), (60, F), (64, T), (128, F)],
    ]
    sources = [_source(f"s{i}", 1, random_blocks(rng, worlds, shape)) for i, shape in enumerate(shapes)]
    template = GenScenario(variables, worlds, valuation, sources, [])
    return relabelled(template, random.Random(f"query-k8/{seed}"))


@dataclass(frozen=True)
class GenFormula:
    text: str
    truth: Callable[[dict[str, bool]], bool]


def random_formula(rng: random.Random, variables: tuple[str, ...], leaves: int) -> GenFormula:
    """A random formula with exactly ``leaves`` variable occurrences, fully
    parenthesised, together with its truth function."""
    if leaves == 1:
        v = rng.choice(variables)
        if rng.random() < 0.3:
            return GenFormula(f"!{v}", lambda val, v=v: not val[v])
        return GenFormula(v, lambda val, v=v: val[v])
    left_n = rng.randint(1, leaves - 1)
    left = random_formula(rng, variables, left_n)
    right = random_formula(rng, variables, leaves - left_n)
    op = rng.choice(["&", "|", "->", "<->", "&", "|"])
    lt, rt = left.truth, right.truth
    truth = {
        "&": lambda val: lt(val) and rt(val),
        "|": lambda val: lt(val) or rt(val),
        "->": lambda val: (not lt(val)) or rt(val),
        "<->": lambda val: lt(val) == rt(val),
    }[op]
    text = f"({left.text} {op} {right.text})"
    if rng.random() < 0.2:
        return GenFormula(f"!{text}", lambda val: not truth(val))
    return GenFormula(text, truth)


def contradiction(rng: random.Random, variables: tuple[str, ...], leaves: int) -> GenFormula:
    """``f & !f`` for a random f: a condition no world satisfies."""
    f = random_formula(rng, variables, leaves)
    return GenFormula(f"({f.text} & !{f.text})", lambda val: f.truth(val) and not f.truth(val))
