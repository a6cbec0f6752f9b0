"""Pedigreed belief states and order-invariant multi-agent fusion.

Storing every informant source forever is wasteful; storing only the
aggregated relation loses too much (two agents with identical states can
require different fusion results depending on where their opinions came
from). The sweet spot is the refined relation with each pair labeled by
the highest rank of a source asserting it. Fusing such states is a pure
set computation, and fusing the per-agent states equals aggregating the
union of everyone's sources - which is what makes fusion idempotent,
commutative, and associative, and therefore safe to iterate in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .aggregation import Level, Profile, Source, agr, refine, refinement_levels
from .bitset import bits
from .relations import (
    Relation,
    UniverseMismatchError,
    WorldUniverse,
    relation,
    transitive_closure,
    union_all,
)
from .states import BeliefState

Entry = tuple[str, str, int]


def _levels(universe: WorldUniverse, by_rank: dict[int, list[int]]) -> tuple[Level, ...]:
    """One relation per rank, from its row masks, highest rank first."""
    return tuple((r, Relation(universe, tuple(by_rank[r]))) for r in sorted(by_rank, reverse=True))


@dataclass(frozen=True, init=False, repr=False)
class PedigreedBeliefState:
    """A refined relation whose every pair carries a rank label.

    Stored as one relation per rank: ``levels`` lists (rank, pairs) for
    every rank that labels at least one pair, highest rank first, so
    equality (labels included) is plain value equality. ``entries`` gives
    the labeled pairs as (x, y, rank) triples in universe order.
    """

    universe: WorldUniverse
    levels: tuple[Level, ...] = field(init=False)

    def __init__(self, universe: WorldUniverse, entries: Iterable[Entry]):
        n = len(universe)
        by_rank: dict[int, list[int]] = {}
        seen = [0] * n
        duplicate = False
        for x, y, r in entries:
            i = universe.index(x)
            bit = 1 << universe.index(y)
            if r < 0:
                raise ValueError("rank labels must be non-negative")
            duplicate = duplicate or bool(seen[i] & bit)
            seen[i] |= bit
            by_rank.setdefault(r, [0] * n)[i] |= bit
        if duplicate:
            raise ValueError("duplicate labeled pair")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "levels", _levels(universe, by_rank))

    @classmethod
    def from_levels(cls, universe: WorldUniverse, levels: Iterable[Level]) -> "PedigreedBeliefState":
        """Build from non-empty, disjoint levels, highest rank first."""
        pbs = cls.__new__(cls)
        object.__setattr__(pbs, "universe", universe)
        object.__setattr__(pbs, "levels", tuple(levels))
        return pbs

    @property
    def entries(self) -> tuple[Entry, ...]:
        ws = self.universe.worlds
        out = []
        for x in range(len(ws)):
            labeled = sorted((y, r) for r, rel in self.levels for y in bits(rel.rows[x]))
            out.extend((ws[x], ws[y], r) for y, r in labeled)
        return tuple(out)

    def __repr__(self) -> str:
        return f"PedigreedBeliefState(universe={self.universe!r}, entries={self.entries!r})"

    def label(self, x: str, y: str) -> int | None:
        for r, rel in self.levels:
            if rel.has(x, y):
                return r
        return None

    def relation(self) -> Relation:
        return union_all([rel for _, rel in self.levels], self.universe)


def empty_pedigree(u: WorldUniverse) -> PedigreedBeliefState:
    return PedigreedBeliefState.from_levels(u, ())


def pedigree_from_sources(p: Profile) -> PedigreedBeliefState:
    """Refine the profile and label each surviving pair with the highest
    rank among the sources asserting it."""
    return PedigreedBeliefState.from_levels(p.universe, refinement_levels(p))


def induced_state(pbs: PedigreedBeliefState) -> BeliefState:
    """The belief state an agent acts on: closure of the labeled pairs."""
    return BeliefState.from_relation(transitive_closure(pbs.relation()))


def restrict(pbs: PedigreedBeliefState, rank: int) -> Relation:
    """Pairs labeled exactly ``rank``."""
    return dict(pbs.levels).get(rank) or relation(pbs.universe)


def fuse(
    states: Sequence[PedigreedBeliefState], u: WorldUniverse | None = None
) -> PedigreedBeliefState:
    """Fuse pedigreed states as if aggregating the union of their sources.

    A pair survives iff no state holds an opinion on it, in either
    direction, at a strictly higher rank; its new label is the highest rank
    supporting it. ``u`` is only needed for an empty argument list, where
    the identity element (the empty pedigree) is returned.

    That is the refinement of the per-rank unions of the states' levels.
    """
    if not states:
        if u is None:
            raise ValueError("fusing no states needs an explicit universe")
        return empty_pedigree(u)
    base = states[0].universe
    if u is not None and u != base:
        raise UniverseMismatchError("explicit universe differs from the states'")
    for s in states:
        if s.universe != base:
            raise UniverseMismatchError("pedigreed states span different universes")
    return PedigreedBeliefState.from_levels(base, refine(base, [level for s in states for level in s.levels]))


def fuse_equal_rank(states: Sequence[BeliefState]) -> BeliefState:
    """Shortcut when every underlying source shares one rank: the fused
    induced state is just the closure of the union of induced states.

    The union of belief states is modular and closure keeps it so, so the
    result is a belief state by construction."""
    if not states:
        raise ValueError("need at least one state")
    merged = union_all([s.relation for s in states], states[0].universe)
    return BeliefState(transitive_closure(merged))


@dataclass(frozen=True)
class Agent:
    """An agent identified with its informant profile."""

    id: str
    informants: Profile

    def pedigree(self) -> PedigreedBeliefState:
        return pedigree_from_sources(self.informants)

    def induced(self) -> BeliefState:
        """The agent's belief state: ``agr`` of its informants.

        Equal to ``induced_state(self.pedigree())``, since the pedigree's
        levels unite to ``agr_rf``, and a belief state by construction, so
        no witness search runs.
        """
        return agr(self.informants)


def union_profile(agents: Sequence[Agent]) -> Profile:
    """The combined informant profile of several agents.

    Shared sources (same id) must agree exactly; the union keeps one copy.
    """
    if not agents:
        raise ValueError("need at least one agent")
    u = agents[0].informants.universe
    seen: dict[str, Source] = {}
    for a in agents:
        if a.informants.universe != u:
            raise UniverseMismatchError("agents span different universes")
        for s in a.informants.sources:
            if s.id in seen and seen[s.id] != s:
                raise ValueError(f"source {s.id!r} differs between agents")
            seen.setdefault(s.id, s)
    return Profile(u, tuple(seen.values()))
