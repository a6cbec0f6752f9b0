"""Shared generators and independent oracles for the test suite.

The oracles deliberately re-derive results from the raw definitions
(path enumeration, triple loops over worlds) rather than reusing the
library's sweeps, so that each check has two routes to the answer.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from belieffusion import (
    Agent,
    BeliefState,
    Block,
    FormulaSyntaxError,
    LayeredForm,
    ParseError,
    PedigreedBeliefState,
    Profile,
    PropUniverse,
    Relation,
    Scenario,
    SimConfig,
    SimReport,
    Source,
    SplitMix64,
    Topology,
    WorldUniverse,
    from_layers,
    fuse,
    generate_universe,
    global_reference,
    induced_state,
    relation,
    to_layers,
)
from belieffusion.formulas import (
    And,
    Const,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    canonical_world_name,
)
from belieffusion.scenario import MAX_VARS

LETTERS = "abcdefgh"


def small_universe(n: int) -> WorldUniverse:
    return WorldUniverse(tuple(LETTERS[:n]))


def all_relations(u: WorldUniverse):
    """Every relation over u (2^(n*n) of them)."""
    cells = [(x, y) for x in u.worlds for y in u.worlds]
    for mask in range(2 ** len(cells)):
        yield relation(u, (c for i, c in enumerate(cells) if mask >> i & 1))


def closure_oracle(pairs: frozenset, worlds) -> frozenset:
    """Reachability via >= 1 steps, by breadth-first search per world."""
    succ = {w: set() for w in worlds}
    for x, y in pairs:
        succ[x].add(y)
    out = set()
    for start in worlds:
        frontier = list(succ[start])
        seen = set()
        while frontier:
            w = frontier.pop()
            if w in seen:
                continue
            seen.add(w)
            frontier.extend(succ[w])
        out.update((start, w) for w in seen)
    return frozenset(out)


def _transitive_pairs(pairs: frozenset) -> bool:
    return all((x, z) in pairs for x, y in pairs for y2, z in pairs if y == y2)


def properties_oracle(r: Relation) -> dict[str, bool]:
    """The ten ``classify_properties`` flags from their pair-set
    definitions. Quasi-transitivity and acyclicity are judged on the
    strict part; acyclic means no world reaches itself through it."""
    ws, pairs = r.universe.worlds, r.pairs
    strict = frozenset((x, y) for x, y in pairs if (y, x) not in pairs)
    reach = closure_oracle(strict, ws)
    return {
        "reflexive": all((w, w) in pairs for w in ws),
        "irreflexive": not any((w, w) in pairs for w in ws),
        "symmetric": all((y, x) in pairs for x, y in pairs),
        "asymmetric": not any((y, x) in pairs for x, y in pairs),
        "antisymmetric": all(x == y for x, y in pairs if (y, x) in pairs),
        "total": all((x, y) in pairs or (y, x) in pairs for x in ws for y in ws),
        "modular": all((x, z) in pairs or (z, y) in pairs for x, y in pairs for z in ws),
        "transitive": _transitive_pairs(pairs),
        "quasi_transitive": _transitive_pairs(strict),
        "acyclic": not any((w, w) in reach for w in ws),
    }


def q_strict_oracle(r: Relation) -> bool:
    """Whether r is the strict part of a total quasi-transitive relation.

    Only one total relation can have strict part r: its completion, r plus
    every pair incomparable in r plus the diagonal. Totality forces each
    incomparable pair and each self-loop in, in both directions so that
    they stay out of the strict part; any other added pair reverses one
    of r's. So the completion alone is judged."""
    ws, pairs = r.universe.worlds, r.pairs
    completion = pairs | {
        (x, y) for x in ws for y in ws if (x, y) not in pairs and (y, x) not in pairs
    }
    strict = frozenset((x, y) for x, y in completion if (y, x) not in completion)
    flags = properties_oracle(relation(r.universe, completion))
    return flags["total"] and flags["quasi_transitive"] and strict == pairs


def random_strict_order(rng: random.Random, u: WorldUniverse, density: float) -> frozenset:
    """The transitive closure of random pairs that all point forward in a
    shuffled world order: a strict partial order."""
    ws = list(u.worlds)
    rng.shuffle(ws)
    forward = frozenset(
        (x, y) for i, x in enumerate(ws) for y in ws[i + 1 :] if rng.random() < density
    )
    return closure_oracle(forward, ws)


def modular_oracle(r: Relation) -> bool:
    ws = r.universe.worlds
    return all(
        (not r.has(x, y)) or r.has(x, z) or r.has(z, y)
        for x in ws
        for y in ws
        for z in ws
    )


def transitive_oracle(r: Relation) -> bool:
    ws = r.universe.worlds
    return all(
        (not (r.has(x, y) and r.has(y, z))) or r.has(x, z)
        for x in ws
        for y in ws
        for z in ws
    )


def first_modularity_witness(r: Relation):
    """The first (x, y, z) in row-major universe order, then world order, with
    x < y but neither x < z nor z < y; None if the relation is modular."""
    ws, pairs = r.universe.worlds, r.pairs
    for x in ws:
        for y in ws:
            if (x, y) not in pairs:
                continue
            for z in ws:
                if (x, z) not in pairs and (z, y) not in pairs:
                    return (x, y, z)
    return None


def first_transitivity_witness(r: Relation):
    """The first (x, y, z) in row-major universe order, then world order, with
    x < y and y < z but not x < z; None if the relation is transitive."""
    ws, pairs = r.universe.worlds, r.pairs
    for x in ws:
        for y in ws:
            if (x, y) not in pairs:
                continue
            for z in ws:
                if (y, z) in pairs and (x, z) not in pairs:
                    return (x, y, z)
    return None


def layered_pairs(blocks) -> frozenset:
    """The pairs of an ordered block list [(worlds, connected), ...], most
    likely block first: each world is below every world of later blocks,
    and of its own block when that block is connected."""
    out = set()
    for i, (bi, connected) in enumerate(blocks):
        if connected:
            out.update((x, y) for x in bi for y in bi)
        for bj, _ in blocks[i + 1 :]:
            out.update((x, y) for x in bi for y in bj)
    return frozenset(out)


def all_belief_states(u: WorldUniverse):
    """Every layered form over ``u``: every ordered partition of its worlds
    into blocks, with every choice of connected flags (2, 10, 74, 730 and
    9,002 of them over 1-5 worlds)."""

    def ordered_partitions(ws):
        if not ws:
            yield ()
            return
        for k in range(1, len(ws) + 1):
            for first in itertools.combinations(ws, k):
                rest = [w for w in ws if w not in first]
                for tail in ordered_partitions(rest):
                    yield (frozenset(first), *tail)

    for blocks in ordered_partitions(list(u.worlds)):
        for flags in itertools.product((False, True), repeat=len(blocks)):
            yield LayeredForm(u, tuple(map(Block, blocks, flags)))


def choice_oracle(r: Relation, xs: frozenset) -> frozenset:
    def strictly_under(a, b):
        return r.has(a, b) and not r.has(b, a)

    return frozenset(x for x in xs if not any(strictly_under(y, x) for y in xs))


def nonempty_subsets(worlds):
    for k in range(1, len(worlds) + 1):
        for combo in itertools.combinations(worlds, k):
            yield frozenset(combo)


def random_layered(rng: random.Random, u: WorldUniverse) -> LayeredForm:
    ws = list(u.worlds)
    rng.shuffle(ws)
    k = rng.randint(1, len(ws))
    cuts = sorted(rng.sample(range(1, len(ws)), k - 1)) if k > 1 else []
    blocks = []
    start = 0
    for cut in cuts + [len(ws)]:
        blocks.append(Block(frozenset(ws[start:cut]), rng.random() < 0.5))
        start = cut
    return LayeredForm(u, tuple(blocks))


def random_state(rng: random.Random, u: WorldUniverse):
    return from_layers(random_layered(rng, u))


def random_profile(
    rng: random.Random,
    u: WorldUniverse,
    max_sources: int = 5,
    max_rank: int = 3,
    min_sources: int = 0,
    distinct_ranks: bool = False,
    equal_ranks: bool = False,
    prefix: str = "s",
) -> Profile:
    n = rng.randint(min_sources, max_sources)
    if distinct_ranks:
        ranks = rng.sample(range(max(n, max_rank + 1)), n)
    elif equal_ranks:
        ranks = [rng.randint(0, max_rank)] * n
    else:
        ranks = [rng.randint(0, max_rank) for _ in range(n)]
    sources = tuple(
        Source(f"{prefix}{i}", ranks[i], random_state(rng, u)) for i in range(n)
    )
    return Profile(u, sources)


def random_agents(rng: random.Random, u: WorldUniverse, count: int) -> list[Agent]:
    """Agents over a shared pool of sources (sources may be shared)."""
    pool = list(random_profile(rng, u, max_sources=6, min_sources=1).sources)
    agents = []
    for i in range(count):
        take = rng.sample(pool, rng.randint(0, len(pool)))
        agents.append(Agent(f"A{i}", Profile(u, tuple(take))))
    return agents


_FORMULA_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><->|->|[!&|()]))"
)


def formula_tokens_oracle(text: str) -> list[tuple[str, int]]:
    """The formula tokenizer as it was before it became one scan: a
    regex match per token, re-slicing the rest of the text each time."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos:].isspace():
            break
        m = _FORMULA_TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise FormulaSyntaxError(bad, f"unexpected character {text[bad]!r}")
        tokens.append((m.group("name") or m.group("op"), m.start("name") if m.group("name") else m.start("op")))
        pos = m.end()
    return tokens


_FORMULA_OPERATORS = frozenset({"<->", "->", "!", "&", "|", "(", ")"})


class _FormulaParserOracle:
    def __init__(self, text: str):
        self.text = text
        self.tokens = formula_tokens_oracle(text)
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def offset(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def take(self, expected: str) -> None:
        if self.peek() != expected:
            raise FormulaSyntaxError(
                self.offset(), f"expected {expected!r}, found {self.peek()!r}"
            )
        self.pos += 1

    def parse(self) -> Formula:
        f = self.iff()
        if self.peek() is not None:
            raise FormulaSyntaxError(
                self.offset(), f"unexpected trailing token {self.peek()!r}"
            )
        return f

    def iff(self) -> Formula:
        f = self.imp()
        while self.peek() == "<->":
            self.take("<->")
            f = Iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        f = self.disj()
        if self.peek() == "->":
            self.take("->")
            return Implies(f, self.imp())
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.take("|")
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.take("&")
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError(self.offset(), "expected a formula, found end of input")
        if tok == "!":
            self.take("!")
            return Not(self.unary())
        if tok == "(":
            self.take("(")
            f = self.iff()
            self.take(")")
            return f
        if tok == "true":
            self.take("true")
            return Const(True)
        if tok == "false":
            self.take("false")
            return Const(False)
        if tok not in _FORMULA_OPERATORS:
            self.pos += 1
            return Var(tok)
        raise FormulaSyntaxError(self.offset(), f"expected a formula, found {tok!r}")


def parse_formula_oracle(text: str):
    """The formula parser as it was before it became one precedence loop:
    recursive descent, one method per grammar level."""
    return _FormulaParserOracle(text).parse()


_SCENARIO_PUNCT = {"<", ">", "=", ",", "[", "]", "*"}


def scenario_tokens_oracle(text: str) -> list[tuple[str, int]]:
    """The scenario line tokenizer as it was before it became one regex:
    a walk over the line one character at a time."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "#":
            break
        if c.isspace():
            i += 1
            continue
        if c in _SCENARIO_PUNCT:
            tokens.append((c, i + 1))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in _SCENARIO_PUNCT and text[j] != "#":
            j += 1
        tokens.append((text[i:j], i + 1))
        i = j
    return tokens


# The scenario and pedigree parsers as they were before they read plain
# token strings: a cursor object over (token, column) pairs, one method
# call per token, frozenset blocks checked as a LayeredForm and rebuilt by
# from_layers. The differential tests hold the parsers to this one on
# every input: the same value, or the same error. Ranks are read with
# isdecimal(), the digits int() accepts.


class _OracleCursor:
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
class _OracleDraft:
    id: str
    rank: int
    pairs: list[tuple[str, str]]
    layers: LayeredForm | None = None


def parse_scenario_oracle(text: str) -> Scenario:
    universe: WorldUniverse | None = None
    prop: PropUniverse | None = None
    drafts: list[_OracleDraft] = []
    agent_rows: list[tuple[str, list[str]]] = []
    sources_started = False

    def finish(draft: _OracleDraft) -> Source:
        if draft.layers is not None:
            state = from_layers(draft.layers)
        else:
            r = relation(universe, draft.pairs)
            state = BeliefState.from_relation(r, subject=draft.id)
        return Source(draft.id, draft.rank, state)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = scenario_tokens_oracle(raw)
        if not tokens:
            continue
        lp = _OracleCursor(lineno, tokens, raw)
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
            cap, noun = (MAX_VARS, "variables") if keyword == "vars" else (2**MAX_VARS, "worlds")
            if len(names) > cap:
                first_over, column = tokens[1 + cap]
                raise ParseError(
                    lineno, column,
                    f"{keyword} declares {len(names)} {noun}; at most {cap} are allowed",
                    first_over,
                )
            if keyword == "worlds":
                try:
                    universe = WorldUniverse(tuple(names))
                except ValueError as e:
                    raise lp.error(str(e))
            else:
                for n in names:
                    if not _oracle_var_name(n):
                        raise lp.error(f"invalid variable name {n!r}")
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
            values = _oracle_lits(lits, prop.variables, lp)
            canonical = canonical_world_name(prop.variables, values)
            if canonical not in prop.universe.worlds:
                raise lp.error("alias target already renamed")
            try:
                prop = prop.rename_world(canonical, alias)
            except ValueError as e:
                raise lp.error(str(e))
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
            if not rank_tok.isdecimal():
                raise lp.error_at_last(f"rank must be a non-negative integer, found {rank_tok!r}", rank_tok)
            lp.done()
            if any(d.id == sid for d in drafts):
                raise lp.error(f"duplicate source id {sid!r}", sid)
            drafts.append(_OracleDraft(sid, int(rank_tok), []))
            continue

        if keyword == "pairs":
            if not indented or not drafts:
                raise lp.error("'pairs' must be indented under a source")
            draft = drafts[-1]
            if draft.layers is not None:
                raise lp.error("source already has a 'layers' line")
            while True:
                x = _oracle_world(lp, universe)
                lp.expect("<")
                y = _oracle_world(lp, universe)
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
            draft.layers = _oracle_layers(lp, universe)
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

        raise lp.error_at_last(f"unknown declaration {keyword!r}", keyword)

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


def _oracle_var_name(name: str) -> bool:
    """A name a formula can mention as a variable: not a keyword."""
    return name not in ("true", "false") and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) is not None


def _oracle_world(lp: _OracleCursor, universe: WorldUniverse) -> str:
    name = lp.next("a world name")
    if name not in universe:
        raise lp.error_at_last(f"unknown world {name!r}", name)
    return name


def _oracle_lits(lits: list[str], variables: tuple[str, ...], lp: _OracleCursor) -> tuple[bool, ...]:
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


def _oracle_layers(lp: _OracleCursor, universe: WorldUniverse) -> LayeredForm:
    blocks = []
    while True:
        lp.expect("[")
        worlds = []
        while lp.peek() != "]":
            worlds.append(_oracle_world(lp, universe))
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


def parse_pedigree_oracle(text: str, universe: WorldUniverse) -> PedigreedBeliefState:
    entries = []
    seen: set[tuple[str, str]] = set()
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = scenario_tokens_oracle(raw)
        if not tokens:
            continue
        lp = _OracleCursor(lineno, tokens, raw)
        if not header_seen:
            lp.expect("pedigree")
            lp.done()
            header_seen = True
            continue
        x = _oracle_world(lp, universe)
        lp.expect("<")
        y = _oracle_world(lp, universe)
        at = lp.next("'@'")
        if at != "@":
            lp.pos -= 1
            raise lp.error(f"expected '@', found {at!r}", at)
        rank_tok = lp.next("a rank")
        if rank_tok.startswith("-"):
            raise lp.error_at_last("negative rank", rank_tok)
        if not rank_tok.isdecimal():
            raise lp.error_at_last(f"rank must be a non-negative integer, found {rank_tok!r}", rank_tok)
        lp.done()
        if (x, y) in seen:
            lp.pos = 0
            raise lp.error(f"duplicate pair {x} < {y}")
        seen.add((x, y))
        entries.append((x, y, int(rank_tok)))
    if not header_seen:
        raise ParseError(1, 1, "missing 'pedigree' header")
    return PedigreedBeliefState(universe, tuple(entries))


def generate_universe_oracle(variables) -> PropUniverse:
    """All 2^k valuation worlds, built one world at a time: world i's
    valuation is the bits of i, first variable most significant, with a
    0 bit read as true."""
    variables = tuple(variables)
    k = len(variables)
    rows = []
    for i in range(2**k):
        bits = tuple((i >> (k - 1 - j)) & 1 == 0 for j in range(k))
        rows.append((canonical_world_name(variables, bits), bits))
    return PropUniverse(variables, WorldUniverse(tuple(name for name, _ in rows)), tuple(rows))


def truth_oracle(f, env) -> bool:
    """A formula's truth value under one valuation, by structural recursion."""
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not truth_oracle(f.operand, env)
    a, b = truth_oracle(f.left, env), truth_oracle(f.right, env)
    return {And: a and b, Or: a or b, Implies: b or not a, Iff: a == b}[type(f)]


def models_oracle(pu: PropUniverse, f) -> frozenset:
    """The worlds whose valuation satisfies f, one world at a time, read
    from the valuations tuple, not from the variable masks under test."""
    return frozenset(
        w for w, values in pu.valuations if truth_oracle(f, dict(zip(pu.variables, values)))
    )


def conditional_oracle(r: Relation, p_worlds: frozenset, q_worlds: frozenset):
    """(bel, disbel, agn, con, choice) of "if p then q?" from the
    definitions: the choice set of the p-worlds, then pair lookups."""
    chosen = choice_oracle(r, p_worlds)
    hits = chosen & q_worlds
    pairs = [(x, y) for x in chosen for y in chosen]
    connected = all(r.has(x, y) for x, y in pairs)
    disconnected = not any(r.has(x, y) for x, y in pairs)
    return (
        hits == chosen,
        not hits,
        disconnected and bool(hits) and hits != chosen,
        connected,
        chosen,
    )


def aliased_prop_universe(rng: random.Random, variables) -> PropUniverse:
    """A valuation universe with some worlds renamed and the worlds
    declared in a shuffled order, so that a world's position in the
    universe differs from its position among the valuations."""
    pu = generate_universe(variables)
    for i, name in enumerate(rng.sample(pu.universe.worlds, len(pu.universe) // 3)):
        pu = pu.rename_world(name, f"w{i}")
    worlds = list(pu.universe.worlds)
    rng.shuffle(worlds)
    return PropUniverse(pu.variables, WorldUniverse(tuple(worlds)), pu.valuations)


def random_formula(rng: random.Random, variables, depth: int):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(variables))
    kind = rng.choice((Not, And, Or, Implies, Iff))
    if kind is Not:
        return Not(random_formula(rng, variables, depth - 1))
    return kind(random_formula(rng, variables, depth - 1), random_formula(rng, variables, depth - 1))


def simulation_oracle(agents, topology: Topology, config: SimConfig) -> SimReport:
    """The fusion simulator's exchange loop without its shortcuts: every
    delivered copy is fused, whatever the two states. Same schedule, same
    quiescence rule (no state changed in the round, and every directed
    edge delivered since the last state change)."""
    ids = [a.id for a in agents]
    edges = topology.edge_list(ids)
    rng = SplitMix64(config.seed)
    states = {a.id: a.pedigree() for a in agents}
    directed = set(edges) | {(b, a) for a, b in edges}
    undelivered = set(directed)
    messages = rounds = 0
    converged = False
    while rounds < config.max_rounds and not converged:
        rounds += 1
        changed = False
        order = list(edges)
        rng.shuffle(order)
        for a, b in order:
            for src, dst in ((a, b), (b, a)):
                if rng.next_unit() < config.drop_prob:
                    continue
                copies = 2 if rng.next_unit() < config.duplication_prob else 1
                for _ in range(copies):
                    messages += 1
                    merged = fuse([states[dst], states[src]])
                    if merged != states[dst]:
                        states[dst] = merged
                        changed = True
                        undelivered = set(directed)
                    undelivered.discard((src, dst))
        converged = not changed and not undelivered
    reference = global_reference(agents)
    return SimReport(
        rounds_executed=rounds,
        final_states=states,
        converged=converged,
        matches_global=all(states[i] == reference for i in ids),
        message_count=messages,
    )


def export_dot_oracle(pbs) -> str:
    """``export_dot`` of a pedigree as it was before it read the rank
    levels: each edge's labels come from a scan of every labelled pair."""
    layered = to_layers(induced_state(pbs))
    labels = {(x, y): r for x, y, r in pbs.entries}
    u = layered.universe

    def edge(a: int, b: int) -> str:
        src, dst = layered.blocks[a].worlds, layered.blocks[b].worlds
        ranks = sorted({r for (x, y), r in labels.items() if x in src and y in dst})
        attr = f' [label="{",".join(str(r) for r in ranks)}"]' if ranks else ""
        return f"  n{a} -> n{b}{attr};"

    lines = ["digraph belief_state {"]
    for i, block in enumerate(layered.blocks):
        lines.append(f'  n{i} [label="{",".join(sorted(block.worlds, key=u.index))}"];')
    for i, block in enumerate(layered.blocks):
        if block.connected:
            lines.append(edge(i, i))
        if i + 1 < len(layered.blocks):
            lines.append(edge(i, i + 1))
    lines.append("}")
    return "\n".join(lines) + "\n"
