"""Aggregating ranked sources into a single belief state.

A source is a named belief state with an integer credibility rank (larger
is more credible). Four operators are provided:

* ``un``       - union of all opinions (modular, possibly intransitive)
* ``agr_un``   - transitive closure of the union; right when all sources
                 are equally credible
* ``agr_rf``   - refinement: keep an opinion iff every strictly more
                 credible source is agnostic about the pair; right when
                 ranks are strictly ordered
* ``agr``      - closure of the refinement; the general-purpose operator
* ``agr_star`` - per-rank closure first, then refinement across ranks.
                 Kept for comparison only: closing each rank before
                 refining lets overridden opinions leak into the result,
                 and the per-pair rank labels it yields are too weak to
                 support multi-agent fusion (see pedigree module tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .relations import (
    Relation,
    UniverseMismatchError,
    WorldUniverse,
    transitive_closure,
    union_all,
)
from .states import BeliefState

Level = tuple[int, Relation]


@dataclass(frozen=True)
class Source:
    """A named, ranked informant. Ranks are non-negative integers."""

    id: str
    rank: int
    state: BeliefState

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"source {self.id!r}: rank must be non-negative")

    def asserts(self, x: str, y: str) -> bool:
        return self.state.relation.has(x, y)

    def agnostic(self, x: str, y: str) -> bool:
        return not self.asserts(x, y) and not self.asserts(y, x)


@dataclass(frozen=True)
class Profile:
    """A finite set of sources over one universe.

    The induced credibility ordering (s at least as credible as s' iff
    rank(s) >= rank(s')) is a total pre-order by construction. Profiles may
    be empty; every aggregation operator maps the empty profile to the
    empty state.
    """

    universe: WorldUniverse
    sources: tuple[Source, ...]

    def __post_init__(self) -> None:
        ids = [s.id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ValueError("source ids must be unique within a profile")
        for s in self.sources:
            if s.state.universe != self.universe:
                raise UniverseMismatchError(
                    f"source {s.id!r} is over a different universe"
                )

    def __iter__(self):
        return iter(self.sources)

    def __len__(self) -> int:
        return len(self.sources)

    def ranks(self) -> tuple[int, ...]:
        """Ranks represented in the profile, ascending."""
        return tuple(sorted({s.rank for s in self.sources}))


def un(p: Profile) -> Relation:
    """Union of all source opinions; modular but not always transitive."""
    return union_all([s.state.relation for s in p.sources], p.universe)


def agr_un(p: Profile) -> BeliefState:
    """Equal-credibility aggregation: transitive closure of the union.

    The union of modular relations is modular and closure keeps it so,
    so the result is a belief state by construction.
    """
    return BeliefState(transitive_closure(un(p)))


def refine(u: WorldUniverse, levels: Iterable[Level]) -> list[Level]:
    """Refinement across ranks, split by rank, highest first.

    ``levels`` gives (rank, relation) pairs in any order, any number per
    rank; the relations of one rank are united first. Rank r keeps the
    pairs of its union on which no higher rank holds an opinion in either
    direction; ranks left with no pair are dropped. A pair kept at rank r
    appears at no higher rank, so r is the highest rank supporting it.
    """
    per_rank: dict[int, list[Relation]] = {}
    for rank, rel in levels:
        per_rank.setdefault(rank, []).append(rel)
    opinion = [0] * len(u)  # pairs a higher rank relates, either way round
    refined = []
    ranks = sorted(per_rank, reverse=True)
    for k, rank in enumerate(ranks):
        rel = union_all(per_rank[rank])
        kept = tuple([row & ~o for row, o in zip(rel.rows, opinion)])
        if any(kept):
            refined.append((rank, rel if kept == rel.rows else Relation(u, kept)))
        if k + 1 < len(ranks):
            opinion = [o | row | col for o, row, col in zip(opinion, rel.rows, rel.cols)]
    return refined


def refinement_levels(p: Profile) -> list[Level]:
    """``agr_rf`` split by pedigree label: (rank, pairs) per rank, highest
    first, each pair under the highest rank of a source asserting it."""
    return refine(p.universe, [(s.rank, s.state.relation) for s in p.sources])


def agr_rf(p: Profile) -> Relation:
    """Refinement: (x, y) survives iff some source asserts it and every
    strictly more credible source is agnostic about {x, y}.

    Always modular; transitive (hence a belief state) whenever the ranks
    are strictly ordered.
    """
    return union_all([rel for _, rel in refinement_levels(p)], p.universe)


def agr(p: Profile) -> BeliefState:
    """Rank-based aggregation: transitive closure of the refinement.

    Coincides with agr_un when all ranks are equal and with agr_rf when
    ranks are strictly ordered. The refinement is modular and closure
    keeps it so, so the result is a belief state by construction.
    """
    return BeliefState(transitive_closure(agr_rf(p)))


def agr_star(p: Profile) -> BeliefState:
    """Close each rank's union first, then refine across ranks.

    Each rank then holds one belief state (a union of modular relations
    is modular, and closure keeps it so), so this is ``agr_rf`` of one
    state per rank, ranks strictly ordered: the case its docstring calls
    transitive. The result is a belief state by construction.
    """
    closed = [
        (rank, transitive_closure(union_all([s.state.relation for s in p.sources if s.rank == rank])))
        for rank in p.ranks()
    ]
    return BeliefState(union_all([rel for _, rel in refine(p.universe, closed)], p.universe))
