"""Scenario files, the pedigree wire format, and DOT export.

A scenario is a line-oriented UTF-8 text (``#`` starts a comment, one
declaration per line):

    worlds a b c                  # abstract worlds, XOR:
    vars F D                      # valuation-generated worlds
    world crashed = !F D          # optional alias, lits cover all vars
    source s0 rank 1              # body lines are indented
      pairs b < a, b < c          # any number of pairs lines, or
      layers [a c] > [b]          # exactly one layers line; * = connected
    agent A1 = s0 s2

``pairs`` sources are validated into belief states (modular + transitive)
and name the offending source on failure; ``layers`` sources are belief
states by construction. Serialized pedigrees use the canonical wire format

    pedigree
    a < b @ 2
    c < b @ 2

with one line per labeled pair, sorted by universe order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .aggregation import Profile, Source
from .bitset import bits
from .formulas import PropUniverse, canonical_world_name, generate_universe
from .pedigree import Agent, PedigreedBeliefState, induced_state
from .relations import WorldUniverse, relation
from .states import BeliefState, Block, LayeredForm, from_layers, to_layers

FORMAT_HEADER = "# format 1"

# A token is one punctuation character or a run of characters that are
# neither whitespace, punctuation nor '#'; whitespace is skipped.
_TOKEN_RE = re.compile(r"[<>=,\[\]*]|[^\s<>=,\[\]*#]+")

#: The most variables a ``vars`` line may declare. ``vars`` builds all
#: 2^k worlds at once, and a relation over 2^12 = 4096 worlds already
#: takes about 2 MB of row masks, so a longer line is a parse error
#: rather than an attempt to exhaust memory.
MAX_VARS = 12


class ParseError(ValueError):
    """A structured parse failure; line and column are 1-based."""

    def __init__(self, line: int, column: int, message: str, token: str = ""):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message
        self.token = token


@dataclass(frozen=True)
class Scenario:
    universe: WorldUniverse
    prop: PropUniverse | None
    profile: Profile
    agents: tuple[Agent, ...]

    def source(self, source_id: str) -> Source:
        for s in self.profile.sources:
            if s.id == source_id:
                return s
        raise KeyError(f"unknown source id {source_id!r}")

    def agent(self, agent_id: str) -> Agent:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise KeyError(f"unknown agent id {agent_id!r}")


def _tokenize_line(text: str) -> list[tuple[str, int]]:
    """Split one line into (token, 1-based column) pairs; '#' starts a comment."""
    code = text.partition("#")[0]
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(code)]


class _LineParser:
    """Cursor over one tokenized line."""

    def __init__(self, lineno: int, tokens: list[tuple[str, int]], raw: str):
        self.lineno = lineno
        self.tokens = tokens
        self.raw = raw
        self.pos = 0

    def error(self, message: str, token: str = "") -> ParseError:
        col = self.tokens[self.pos][1] if self.pos < len(self.tokens) else len(self.raw) + 1
        return ParseError(self.lineno, col, message, token)

    def error_at_last(self, message: str, token: str = "") -> ParseError:
        """Like error(), but pointing at the most recently consumed token."""
        self.pos = max(0, self.pos - 1)
        return self.error(message, token)

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> str:
        tok = self.peek()
        if tok is None:
            raise self.error(f"expected {what}, found end of line")
        self.pos += 1
        return tok

    def expect(self, literal: str) -> None:
        tok = self.next(repr(literal))
        if tok != literal:
            self.pos -= 1
            raise self.error(f"expected {literal!r}, found {tok!r}", tok)

    def done(self) -> None:
        if self.peek() is not None:
            raise self.error(f"unexpected trailing token {self.peek()!r}", self.peek())


@dataclass
class _SourceDraft:
    id: str
    rank: int
    pairs: list[tuple[str, str]]
    layers: LayeredForm | None = None


def parse_scenario(text: str) -> Scenario:
    universe: WorldUniverse | None = None
    prop: PropUniverse | None = None
    drafts: list[_SourceDraft] = []
    agent_rows: list[tuple[str, list[str]]] = []
    sources_started = False

    def finish(draft: _SourceDraft) -> Source:
        if draft.layers is not None:
            state = from_layers(draft.layers)
        else:
            r = relation(universe, draft.pairs)
            state = BeliefState.from_relation(r, subject=draft.id)
        return Source(draft.id, draft.rank, state)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw)
        if not tokens:
            continue
        lp = _LineParser(lineno, tokens, raw)
        indented = tokens[0][1] > 1
        keyword = lp.next("a declaration keyword")

        if keyword in ("worlds", "vars"):
            if universe is not None:
                raise lp.error("universe already declared")
            names = []
            while lp.peek() is not None:
                names.append(lp.next("a name"))
            if not names:
                raise lp.error(f"{keyword} needs at least one name")
            if keyword == "vars" and len(names) > MAX_VARS:
                first_over, column = tokens[1 + MAX_VARS]
                raise ParseError(
                    lineno, column,
                    f"vars declares {len(names)} variables; at most {MAX_VARS} are allowed",
                    first_over,
                )
            if keyword == "worlds":
                try:
                    universe = WorldUniverse(tuple(names))
                except ValueError as e:
                    raise lp.error(str(e))
            else:
                for n in names:
                    if not _is_var_name(n):
                        raise lp.error(f"invalid variable name {n!r}", n)
                try:
                    prop = generate_universe(tuple(names))
                except ValueError as e:
                    raise lp.error(str(e))
                universe = prop.universe
            continue

        if keyword == "world":
            if prop is None:
                raise lp.error("'world' aliases need a 'vars' declaration first")
            if sources_started:
                raise lp.error("'world' aliases must precede sources")
            alias = lp.next("an alias name")
            lp.expect("=")
            lits = []
            while lp.peek() is not None:
                lits.append(lp.next("a literal"))
            values = _lits_to_bits(lits, prop.variables, lp)
            canonical = canonical_world_name(prop.variables, values)
            if canonical not in prop.universe.worlds:
                raise lp.error("alias target already renamed")
            try:
                prop = prop.rename_world(canonical, alias)
            except ValueError as e:
                raise lp.error(str(e), alias)
            universe = prop.universe
            continue

        if keyword == "source":
            if universe is None:
                raise lp.error("declare 'worlds' or 'vars' before sources")
            sources_started = True
            sid = lp.next("a source id")
            lp.expect("rank")
            rank_tok = lp.next("a rank")
            if rank_tok.startswith("-"):
                raise lp.error_at_last("negative rank", rank_tok)
            if not rank_tok.isdigit():
                raise lp.error_at_last(f"rank must be a non-negative integer, found {rank_tok!r}", rank_tok)
            lp.done()
            if any(d.id == sid for d in drafts):
                raise lp.error(f"duplicate source id {sid!r}", sid)
            drafts.append(_SourceDraft(sid, int(rank_tok), []))
            continue

        if keyword == "pairs":
            if not indented or not drafts:
                raise lp.error("'pairs' must be indented under a source")
            draft = drafts[-1]
            if draft.layers is not None:
                raise lp.error("source already has a 'layers' line")
            while True:
                x = _expect_world(lp, universe)
                lp.expect("<")
                y = _expect_world(lp, universe)
                draft.pairs.append((x, y))
                if lp.peek() == ",":
                    lp.expect(",")
                    continue
                lp.done()
                break
            continue

        if keyword == "layers":
            if not indented or not drafts:
                raise lp.error("'layers' must be indented under a source")
            draft = drafts[-1]
            if draft.layers is not None:
                raise lp.error("source already has a 'layers' line")
            if draft.pairs:
                raise lp.error("source mixes 'pairs' and 'layers'")
            draft.layers = _parse_layers(lp, universe)
            continue

        if keyword == "agent":
            if universe is None:
                raise lp.error("declare 'worlds' or 'vars' before agents")
            aid = lp.next("an agent id")
            lp.expect("=")
            ids = []
            while lp.peek() is not None:
                ids.append(lp.next("a source id"))
            if any(a[0] == aid for a in agent_rows):
                raise lp.error(f"duplicate agent id {aid!r}", aid)
            if len(set(ids)) != len(ids):
                raise lp.error(f"agent {aid!r} lists a source twice")
            for sid in ids:
                if not any(d.id == sid for d in drafts):
                    raise lp.error(f"agent {aid!r} references unknown source {sid!r}", sid)
            agent_rows.append((aid, ids))
            continue

        raise lp.error(f"unknown declaration {keyword!r}", keyword)

    if universe is None:
        raise ParseError(1, 1, "scenario declares no universe")

    sources = tuple(finish(d) for d in drafts)
    profile = Profile(universe, sources)
    by_id = {s.id: s for s in sources}
    agents = tuple(
        Agent(aid, Profile(universe, tuple(by_id[s] for s in ids)))
        for aid, ids in agent_rows
    )
    return Scenario(universe, prop, profile, agents)


def _is_var_name(name: str) -> bool:
    return re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) is not None


def _expect_world(lp: _LineParser, universe: WorldUniverse) -> str:
    name = lp.next("a world name")
    if name not in universe:
        raise lp.error_at_last(f"unknown world {name!r}", name)
    return name


def _lits_to_bits(lits: list[str], variables: tuple[str, ...], lp: _LineParser) -> tuple[bool, ...]:
    assigned: dict[str, bool] = {}
    for lit in lits:
        value = not lit.startswith("!")
        var = lit[1:] if lit.startswith("!") else lit
        if var not in variables:
            raise lp.error(f"unknown variable {var!r} in world alias", lit)
        if var in assigned:
            raise lp.error(f"variable {var!r} assigned twice in world alias", lit)
        assigned[var] = value
    missing = [v for v in variables if v not in assigned]
    if missing:
        raise lp.error(f"world alias must cover all variables; missing {', '.join(missing)}")
    return tuple(assigned[v] for v in variables)


def _parse_layers(lp: _LineParser, universe: WorldUniverse) -> LayeredForm:
    blocks = []
    while True:
        lp.expect("[")
        worlds = []
        while lp.peek() != "]":
            worlds.append(_expect_world(lp, universe))
            if lp.peek() is None:
                raise lp.error("unterminated block, expected ']'")
        lp.expect("]")
        connected = False
        if lp.peek() == "*":
            lp.expect("*")
            connected = True
        if not worlds:
            raise lp.error("empty layer block")
        blocks.append(Block(frozenset(worlds), connected))
        if lp.peek() == ">":
            lp.expect(">")
            continue
        lp.done()
        break
    seen: set[str] = set()
    for b in blocks:
        dup = seen & b.worlds
        if dup:
            raise lp.error(f"world(s) in more than one layer: {', '.join(sorted(dup))}")
        seen |= b.worlds
    missing = [w for w in universe.worlds if w not in seen]
    if missing:
        raise lp.error(f"layers must cover every world; missing {', '.join(missing)}")
    return LayeredForm(universe, tuple(blocks))


def format_layers(layered: LayeredForm) -> str:
    """The layers-line syntax: ``[a c] > [b]``, ``*`` marking connected."""
    u = layered.universe
    parts = []
    for block in layered.blocks:
        names = " ".join(sorted(block.worlds, key=u.index))
        parts.append(f"[{names}]" + ("*" if block.connected else ""))
    return " > ".join(parts)


def format_scenario(s: Scenario) -> str:
    """Canonical scenario text; parse_scenario round-trips it exactly."""
    lines = [FORMAT_HEADER]
    if s.prop is not None:
        lines.append("vars " + " ".join(s.prop.variables))
        for name, values in s.prop.valuations:
            if name != canonical_world_name(s.prop.variables, values):
                lits = " ".join(
                    v if b else "!" + v for v, b in zip(s.prop.variables, values)
                )
                lines.append(f"world {name} = {lits}")
    else:
        lines.append("worlds " + " ".join(s.universe.worlds))
    for src in s.profile.sources:
        lines.append(f"source {src.id} rank {src.rank}")
        pairs = src.state.relation.sorted_pairs()
        if pairs:
            lines.append("  pairs " + ", ".join(f"{x} < {y}" for x, y in pairs))
    for agent in s.agents:
        ids = " ".join(src.id for src in agent.informants.sources)
        lines.append(f"agent {agent.id} =" + (f" {ids}" if ids else ""))
    return "\n".join(lines) + "\n"


def serialize_pedigree(pbs: PedigreedBeliefState) -> str:
    lines = ["pedigree"]
    for x, y, r in pbs.entries:
        lines.append(f"{x} < {y} @ {r}")
    return "\n".join(lines) + "\n"


def parse_pedigree(text: str, universe: WorldUniverse) -> PedigreedBeliefState:
    entries = []
    seen: set[tuple[str, str]] = set()
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw)
        if not tokens:
            continue
        lp = _LineParser(lineno, tokens, raw)
        if not header_seen:
            lp.expect("pedigree")
            lp.done()
            header_seen = True
            continue
        x = _expect_world(lp, universe)
        lp.expect("<")
        y = _expect_world(lp, universe)
        at = lp.next("'@'")
        if at != "@":
            lp.pos -= 1
            raise lp.error(f"expected '@', found {at!r}", at)
        rank_tok = lp.next("a rank")
        if not rank_tok.isdigit():
            raise lp.error(f"rank must be a non-negative integer, found {rank_tok!r}", rank_tok)
        lp.done()
        if (x, y) in seen:
            raise lp.error(f"duplicate pair {x} < {y}")
        seen.add((x, y))
        entries.append((x, y, int(rank_tok)))
    if not header_seen:
        raise ParseError(1, 1, "missing 'pedigree' header")
    return PedigreedBeliefState(universe, tuple(entries))


def export_dot(obj: LayeredForm | PedigreedBeliefState) -> str:
    """Render a layered belief state as a DOT digraph.

    One node per block, labeled with its worlds in universe order; an edge
    to the immediately following block; a self-loop on connected blocks. A
    pedigreed state is rendered via its induced state's layers, with edges
    annotated by the rank labels of the pedigree pairs they summarize
    (pairs spanning non-adjacent blocks stay implicit, matching the
    transitive-reduction style of the node graph).
    """
    if isinstance(obj, PedigreedBeliefState):
        layered = to_layers(induced_state(obj))
        levels = obj.levels
    else:
        layered = obj
        levels = ()

    u = layered.universe
    masks = [u.mask(block.worlds) for block in layered.blocks]

    def edge(a: int, b: int) -> str:
        ranks = sorted(
            r for r, rel in levels if any(rel.rows[x] & masks[b] for x in bits(masks[a]))
        )
        attr = f' [label="{",".join(str(r) for r in ranks)}"]' if ranks else ""
        return f"  n{a} -> n{b}{attr};"

    lines = ["digraph belief_state {"]
    for i, block in enumerate(layered.blocks):
        name = ",".join(sorted(block.worlds, key=u.index))
        lines.append(f'  n{i} [label="{name}"];')
    for i, block in enumerate(layered.blocks):
        if block.connected:
            lines.append(edge(i, i))
        if i + 1 < len(layered.blocks):
            lines.append(edge(i, i + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
