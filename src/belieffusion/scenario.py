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
states by construction. A rank is a run of decimal digits
(``str.isdecimal``: digits of any script, each one that ``int`` reads).

Each line is read as a list of plain token strings. A ``pairs`` line is
one index loop that ORs each pair's bit into the source's row masks; a
``layers`` line is one loop that builds a mask per block and hands the
blocks to the library: the partition rule and the row builder are those
of ``from_layers``, and a pedigree's per-rank relations come from the
level builder of ``PedigreedBeliefState``. The reader only turns tokens
into masks and positions; nothing is validated twice. Errors are raised
at a token index, and only then is the line tokenized again to find the
column, so every ParseError still carries its line, column, reason and
token. Serialized pedigrees use the canonical wire format

    pedigree
    a < b @ 2
    c < b @ 2

with one line per labeled pair, sorted by universe order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregation import Profile, Source
from .bitset import bits
from .formulas import PropUniverse, canonical_world_name, generate_universe
from .pedigree import Agent, PedigreedBeliefState, _levels, induced_state
from .relations import Relation, WorldUniverse
from .states import BeliefState, LayeredForm, _layer_rows

FORMAT_HEADER = "# format 1"

# A token is one punctuation character or a run of characters that are
# neither whitespace, punctuation nor '#'; whitespace is skipped.
_PUNCTUATION = [(c, f" {c} ") for c in "<>=,[]*"]

#: The most variables a ``vars`` line may declare. ``vars`` builds all
#: 2^k worlds at once, and a relation over 2^12 = 4096 worlds already
#: takes about 2 MB of row masks, so a longer line is a parse error
#: rather than an attempt to exhaust memory. A ``worlds`` line may
#: declare at most 2 ** MAX_VARS worlds, for the same reason.
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
        return _by_id(self.profile.sources, source_id, "source")

    def agent(self, agent_id: str) -> Agent:
        return _by_id(self.agents, agent_id, "agent")


def _by_id(items, key: str, noun: str):
    """The item of ``items`` whose ``id`` is ``key``, or a KeyError that
    names the unknown id."""
    for item in items:
        if item.id == key:
            return item
    raise KeyError(f"unknown {noun} id {key!r}")


def _line_tokens(text: str) -> list[str]:
    """The tokens of one line; '#' starts a comment.

    With spaces around every punctuation character, ``str.split`` finds
    exactly the tokens, and in less time than a regular-expression scan:
    it splits at whitespace as ``str.isspace`` defines it, which is
    what ``\\s`` matches in a regular expression.
    """
    code = text.partition("#")[0]
    for c, spaced in _PUNCTUATION:
        code = code.replace(c, spaced)
    return code.split()


def _tokenize_line(text: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs of one line, for error messages.

    Only whitespace lies between two tokens, and no token starts with
    whitespace, so a token stands where it first occurs after the end of
    the previous one.
    """
    tokens = []
    end = 0
    for tok in _line_tokens(text):
        start = text.index(tok, end)
        tokens.append((tok, start + 1))
        end = start + len(tok)
    return tokens


class _TokenError(Exception):
    """A parse failure at token ``at`` of its line; an ``at`` past the
    last token is the end of the line. Lines are read as plain token
    strings, so the column is found only here, when the line reader turns
    this into a ParseError."""

    def __init__(self, at: int, reason: str, token: str = ""):
        self.at = at
        self.reason = reason
        self.token = token

    def at_line(self, lineno: int, raw: str) -> ParseError:
        tokens = _tokenize_line(raw)
        column = tokens[self.at][1] if self.at < len(tokens) else len(raw) + 1
        return ParseError(lineno, column, self.reason, self.token)


def _take(t: list[str], i: int, what: str) -> str:
    if i >= len(t):
        raise _TokenError(i, f"expected {what}, found end of line")
    return t[i]


def _expect(t: list[str], i: int, literal: str) -> None:
    if _take(t, i, repr(literal)) != literal:
        raise _TokenError(i, f"expected {literal!r}, found {t[i]!r}", t[i])


def _done(t: list[str], i: int) -> None:
    if i < len(t):
        raise _TokenError(i, f"unexpected trailing token {t[i]!r}", t[i])


def _world(t: list[str], i: int, index: dict[str, int]) -> int:
    name = _take(t, i, "a world name")
    if name not in index:
        raise _TokenError(i, f"unknown world {name!r}", name)
    return index[name]


def _rank(t: list[str], i: int) -> int:
    """The rank at token ``i``: a run of decimal digits. The one rank rule
    of the scenario and pedigree readers."""
    rank = _take(t, i, "a rank")
    if rank.startswith("-"):
        raise _TokenError(i, "negative rank", rank)
    # isdecimal, not isdigit: int() rejects digits such as "²"
    if not rank.isdecimal():
        raise _TokenError(i, f"rank must be a non-negative integer, found {rank!r}", rank)
    return int(rank)


@dataclass
class _SourceDraft:
    id: str
    rank: int
    rows: list[int]
    body: str = ""  # "pairs" or "layers", once a body line is read


def parse_scenario(text: str) -> Scenario:
    """Read a scenario text; a malformed line raises a positioned ParseError.

    The reader checks the syntax; the library checks its own rules (unique
    world names, variable names, a layers partition). A ``ValueError``
    from one of those rules is translated in one place, into a ParseError
    at the end of the line with an empty token; so are the alias rules (a
    target not renamed yet, a free alias name), which the reader checks
    as it renames the worlds in place. An invalid ``pairs`` source
    raises NotModularError or NotTransitiveError after the whole text is
    read.
    """
    universe: WorldUniverse | None = None
    prop: PropUniverse | None = None
    drafts: dict[str, _SourceDraft] = {}
    draft: _SourceDraft | None = None  # the source body lines belong to
    agent_ids: dict[str, list[str]] = {}
    # While 'world' lines rename worlds: each world's name to its index.
    # The renamed universe is built once, at the next line of another
    # kind or at the end of the text.
    renaming: dict[str, int] | None = None

    def finish(draft: _SourceDraft) -> Source:
        r = Relation(universe, draft.rows)
        if draft.body == "layers":
            state = BeliefState(r)
        else:
            state = BeliefState.from_relation(r, subject=draft.id)
        return Source(draft.id, draft.rank, state)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        t = _line_tokens(raw)
        if not t:
            continue
        keyword = t[0]
        n = len(t)
        if renaming is not None and keyword != "world":
            prop, renaming = _renamed(prop, renaming), None
            universe = prop.universe
        try:
            if keyword == "pairs" or keyword == "layers":
                # A line that starts with a token is not indented.
                if not raw[0].isspace() or draft is None:
                    raise _TokenError(1, f"{keyword!r} must be indented under a source")
                if draft.body == "layers":
                    raise _TokenError(1, "source already has a 'layers' line")
                if keyword == "pairs":
                    _read_pairs(t, universe, draft.rows)
                else:
                    if draft.body:
                        raise _TokenError(1, "source mixes 'pairs' and 'layers'")
                    draft.rows = _read_layers(t, universe)
                draft.body = keyword

            elif keyword == "worlds" or keyword == "vars":
                if universe is not None:
                    raise _TokenError(1, "universe already declared")
                names = t[1:]
                if not names:
                    raise _TokenError(n, f"{keyword} needs at least one name")
                cap, noun = {"vars": (MAX_VARS, "variables"), "worlds": (2**MAX_VARS, "worlds")}[keyword]
                if len(names) > cap:
                    raise _TokenError(
                        1 + cap,
                        f"{keyword} declares {len(names)} {noun}; at most {cap} are allowed",
                        t[1 + cap],
                    )
                if keyword == "worlds":
                    universe = WorldUniverse(tuple(names))
                else:
                    prop = generate_universe(tuple(names))
                    universe = prop.universe

            elif keyword == "world":
                if prop is None:
                    raise _TokenError(1, "'world' aliases need a 'vars' declaration first")
                if drafts:
                    raise _TokenError(1, "'world' aliases must precede sources")
                alias = _take(t, 1, "an alias name")
                _expect(t, 2, "=")
                values = _lits_to_bits(t, prop.variables)
                canonical = canonical_world_name(prop.variables, values)
                if renaming is None:
                    renaming = {w: i for i, w in enumerate(universe.worlds)}
                if canonical not in renaming:
                    raise _TokenError(n, "alias target already renamed")
                if alias != canonical:
                    if alias in renaming:
                        raise _TokenError(n, f"world name {alias!r} already in use")
                    renaming[alias] = renaming.pop(canonical)

            elif keyword == "source":
                if universe is None:
                    raise _TokenError(1, "declare 'worlds' or 'vars' before sources")
                sid = _take(t, 1, "a source id")
                _expect(t, 2, "rank")
                rank = _rank(t, 3)
                _done(t, 4)
                if sid in drafts:
                    raise _TokenError(4, f"duplicate source id {sid!r}", sid)
                draft = drafts[sid] = _SourceDraft(sid, rank, [0] * len(universe))

            elif keyword == "agent":
                if universe is None:
                    raise _TokenError(1, "declare 'worlds' or 'vars' before agents")
                aid = _take(t, 1, "an agent id")
                _expect(t, 2, "=")
                ids = t[3:]
                if aid in agent_ids:
                    raise _TokenError(n, f"duplicate agent id {aid!r}", aid)
                if len(set(ids)) != len(ids):
                    raise _TokenError(n, f"agent {aid!r} lists a source twice")
                for sid in ids:
                    if sid not in drafts:
                        raise _TokenError(n, f"agent {aid!r} references unknown source {sid!r}", sid)
                agent_ids[aid] = ids

            else:
                raise _TokenError(0, f"unknown declaration {keyword!r}", keyword)
        except _TokenError as e:
            raise e.at_line(lineno, raw) from None
        except ValueError as e:
            # a rule the library enforces, reported at the end of the line
            raise _TokenError(len(t), str(e)).at_line(lineno, raw) from None

    if universe is None:
        raise ParseError(1, 1, "scenario declares no universe")
    if renaming is not None:
        prop = _renamed(prop, renaming)
        universe = prop.universe

    by_id = {sid: finish(d) for sid, d in drafts.items()}
    profile = Profile(universe, tuple(by_id.values()))
    agents = tuple(
        Agent(aid, Profile(universe, tuple(by_id[s] for s in ids)))
        for aid, ids in agent_ids.items()
    )
    return Scenario(universe, prop, profile, agents)


def _renamed(prop: PropUniverse, renaming: dict[str, int]) -> PropUniverse:
    """``prop`` with its worlds named as ``renaming`` maps names to
    world indexes."""
    worlds = tuple(sorted(renaming, key=renaming.__getitem__))
    values = [v for _, v in prop.valuations]
    return PropUniverse(prop.variables, WorldUniverse(worlds), tuple(zip(worlds, values)))


def _lits_to_bits(t: list[str], variables: tuple[str, ...]) -> tuple[bool, ...]:
    """The valuation named by the literals ``t[3:]`` of a ``world`` line."""
    assigned: dict[str, bool] = {}
    for lit in t[3:]:
        value = not lit.startswith("!")
        var = lit[1:] if lit.startswith("!") else lit
        if var not in variables:
            raise _TokenError(len(t), f"unknown variable {var!r} in world alias", lit)
        if var in assigned:
            raise _TokenError(len(t), f"variable {var!r} assigned twice in world alias", lit)
        assigned[var] = value
    missing = [v for v in variables if v not in assigned]
    if missing:
        raise _TokenError(len(t), f"world alias must cover all variables; missing {', '.join(missing)}")
    return tuple(assigned[v] for v in variables)


def _read_pairs(t: list[str], u: WorldUniverse, rows: list[int]) -> None:
    """``pairs x < y, ...``: OR each pair's bit into ``rows``."""
    index = u._index
    n = len(t)
    i = 1
    while True:
        x = index.get(t[i]) if i < n else None
        y = index.get(t[i + 2]) if i + 2 < n else None
        if x is None or y is None or t[i + 1] != "<":
            # Find the first fault of the pair, token by token.
            _world(t, i, index)
            _expect(t, i + 1, "<")
            _world(t, i + 2, index)
        rows[x] |= 1 << y
        i += 3
        if i < n and t[i] == ",":
            i += 1
            continue
        _done(t, i)
        return


def _read_layers(t: list[str], u: WorldUniverse) -> list[int]:
    """``layers [a c] > [b]*``: the row masks of the layered state, whose
    blocks (``*`` marks a connected one) must partition the universe."""
    index = u._index
    n = len(t)
    blocks: list[tuple[int, bool]] = []
    i = 1
    while True:
        _expect(t, i, "[")
        i += 1
        m = 0
        while i < n and t[i] != "]":
            w = index.get(t[i])
            if w is None:
                raise _TokenError(i, f"unknown world {t[i]!r}", t[i])
            m |= 1 << w
            i += 1
        if i == n:
            if not m:
                raise _TokenError(i, "expected a world name, found end of line")
            raise _TokenError(i, "unterminated block, expected ']'")
        i += 1
        connected = i < n and t[i] == "*"
        i += connected
        if not m:
            raise _TokenError(i, "empty layer block")
        blocks.append((m, connected))
        if i < n and t[i] == ">":
            i += 1
            continue
        _done(t, i)
        return _layer_rows(u, blocks)


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
        pairs = _pair_lines(src.state.relation)
        if pairs:
            lines.append("  pairs " + ", ".join(pairs))
    for agent in s.agents:
        ids = " ".join(src.id for src in agent.informants.sources)
        lines.append(f"agent {agent.id} =" + (f" {ids}" if ids else ""))
    return "\n".join(lines) + "\n"


def _pair_lines(r: Relation) -> list[str]:
    """Each pair of ``r`` as ``x < y``, row-major: the one writer of pair text."""
    u = r.universe
    return [f"{x} < {y}" for x, row in zip(u.worlds, r.rows) for y in u.names(row)]


def serialize_pedigree(pbs: PedigreedBeliefState) -> str:
    lines = ["pedigree"]
    for x, y, r in pbs.entries:
        lines.append(f"{x} < {y} @ {r}")
    return "\n".join(lines) + "\n"


def parse_pedigree(text: str, universe: WorldUniverse) -> PedigreedBeliefState:
    index = universe._index
    seen = [0] * len(universe)
    by_rank: dict[int, list[int]] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        t = _line_tokens(raw)
        if not t:
            continue
        try:
            if not header_seen:
                _expect(t, 0, "pedigree")
                _done(t, 1)
                header_seen = True
                continue
            x = _world(t, 0, index)
            _expect(t, 1, "<")
            y = _world(t, 2, index)
            _expect(t, 3, "@")
            rank = _rank(t, 4)
            _done(t, 5)
            bit = 1 << y
            if seen[x] & bit:
                raise _TokenError(0, f"duplicate pair {t[0]} < {t[2]}")
            seen[x] |= bit
            by_rank.setdefault(rank, [0] * len(universe))[x] |= bit
        except _TokenError as e:
            raise e.at_line(lineno, raw) from None
    if not header_seen:
        raise ParseError(1, 1, "missing 'pedigree' header")
    # The parse checked that no pair is labelled twice.
    return PedigreedBeliefState.from_levels(universe, _levels(universe, by_rank))


def export_dot(obj: LayeredForm | PedigreedBeliefState) -> str:
    """Render a layered belief state as a DOT digraph.

    One node per block, labeled with its worlds in universe order; an edge
    to the immediately following block; a self-loop on connected blocks. A
    pedigreed state is rendered via its induced state's layers, with edges
    annotated by the rank labels of the pedigree pairs they summarize
    (pairs spanning non-adjacent blocks stay implicit, matching the
    transitive-reduction style of the node graph).
    """
    u = obj.universe
    if isinstance(obj, PedigreedBeliefState):
        blocks = induced_state(obj).blocks  # certified, so never None
        levels = obj.levels
    else:
        blocks = [(u.mask(block.worlds), block.connected) for block in obj.blocks]
        levels = ()

    def edge(a: int, b: int) -> str:
        ranks = sorted(
            r for r, rel in levels if any(rel.rows[x] & blocks[b][0] for x in bits(blocks[a][0]))
        )
        attr = f' [label="{",".join(str(r) for r in ranks)}"]' if ranks else ""
        return f"  n{a} -> n{b}{attr};"

    lines = ["digraph belief_state {"]
    for i, (m, _) in enumerate(blocks):
        # a DOT string escapes backslash and double quote
        name = ",".join(u.names(m)).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{name}"];')
    for i, (_, connected) in enumerate(blocks):
        if connected:
            lines.append(edge(i, i))
        if i + 1 < len(blocks):
            lines.append(edge(i, i + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
