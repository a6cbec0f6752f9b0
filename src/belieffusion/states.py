"""Generalized belief states: modular, transitive relations over worlds.

A belief state reads ``x < y`` as "there is reason to consider x strictly
more likely than y". Because the relation need not be total, the same
structure distinguishes agnosticism (neither direction present) from
conflict (both present). Modularity plus transitivity is exactly what makes
both strict likelihood and agnosticism transitive, and yields the layered
normal form: an ordered partition of the worlds into blocks that are each
fully connected (conflicted) or fully disconnected (agnostic).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .bitset import bits
from .formulas import Formula, PropUniverse, models_mask
from .relations import (
    Relation,
    WorldUniverse,
    classify_properties,
    modularity_witness,
    transitivity_witness,
)


class _WitnessError(ValueError):
    """A relation property failing on a witness triple (x, y, z); each
    subclass words the failure in its ``_TEXT``."""

    _TEXT: str

    def __init__(self, witness: tuple[str, str, str], subject: str | None = None):
        x, y, z = witness
        who = f"{subject}: " if subject else ""
        super().__init__(who + self._TEXT.format(x=x, y=y, z=z))
        self.witness = witness
        self.subject = subject


class NotModularError(_WitnessError):
    _TEXT = "not modular: {x} < {y} holds but neither {x} < {z} nor {z} < {y}"


class NotTransitiveError(_WitnessError):
    _TEXT = "not transitive: {x} < {y} and {y} < {z} hold but not {x} < {z}"


class VacuousConditionError(ValueError):
    """The condition of a conditional query has no satisfying world."""


@dataclass(frozen=True)
class BeliefState:
    """A modular, transitive relation.

    ``from_relation`` validates at once; ``BeliefState(r)`` defers the
    check to the first question. Either way, ``to_layers``,
    ``classify_class`` and ``evaluate_conditional`` answer from
    ``blocks``, the layered form, computed once on first use; for a
    relation that is not modular and transitive, each raises the witness
    error ``from_relation`` would raise.
    """

    relation: Relation

    @classmethod
    def from_relation(cls, r: Relation, subject: str | None = None) -> "BeliefState":
        state = cls(r)
        _certified(state, subject)
        return state

    @property
    def universe(self) -> WorldUniverse:
        return self.relation.universe

    @cached_property
    def blocks(self) -> tuple[tuple[int, bool], ...] | None:
        """The layered form as (mask, connected) pairs, most likely first,
        or None when the relation is not modular and transitive.

        In a layered state a world's row is the later blocks, plus its own
        block when that block is connected. So the worlds that share a
        row and a self-loop bit are one block, and rows shrink strictly
        from block to block, except that a disconnected block directly
        followed by a connected one has the same row: the block without
        the loop comes first. Rebuilding the rows of that order and
        comparing them with the relation's rows decides membership, since
        every relation with layered rows is modular and transitive.
        """
        rows = self.relation.rows
        classes: dict[tuple[int, bool], int] = {}
        for x, row in enumerate(rows):
            key = (row, bool(row >> x & 1))
            classes[key] = classes.get(key, 0) | 1 << x
        order = sorted(classes, key=lambda key: (-key[0].bit_count(), key[1]))
        blocks = tuple((classes[key], key[1]) for key in order)
        if tuple(_layer_rows(self.universe, blocks)) != rows:
            return None
        return blocks


def _certified(b: BeliefState, subject: str | None = None) -> tuple[tuple[int, bool], ...]:
    """The blocks of ``b``; a relation that is not a belief state raises
    the error naming its first modularity, else transitivity, witness."""
    blocks = b.blocks
    if blocks is None:
        r = b.relation
        w = modularity_witness(r)
        if w is not None:
            raise NotModularError(w, subject)
        raise NotTransitiveError(transitivity_witness(r), subject)
    return blocks


def from_relation(r: Relation, subject: str | None = None) -> BeliefState:
    return BeliefState.from_relation(r, subject)


def agnosticism(b: BeliefState | Relation) -> Relation:
    """Pairs related in neither direction.

    Defined for any relation; symmetric always, and transitive exactly
    when a transitive input is also modular (i.e. for belief states).
    """
    r = b.relation if isinstance(b, BeliefState) else b
    full = (1 << len(r.rows)) - 1
    return Relation(r.universe, tuple(full & ~(row | col) for row, col in zip(r.rows, r.cols)))


def conflict(b: BeliefState | Relation) -> Relation:
    """Pairs related in both directions; on transitive relations this
    coincides with cycle-based conflict."""
    r = b.relation if isinstance(b, BeliefState) else b
    return Relation(r.universe, tuple(row & col for row, col in zip(r.rows, r.cols)))


@dataclass(frozen=True)
class Block:
    worlds: frozenset[str]
    connected: bool


@dataclass(frozen=True)
class LayeredForm:
    """Ordered partition of the universe; index 0 is most likely."""

    universe: WorldUniverse
    blocks: tuple[Block, ...]


def to_layers(b: BeliefState) -> LayeredForm:
    """The layered normal form of a belief state: its ``blocks`` as
    world-name sets. The decomposition is unique and round-trips through
    from_layers. A wrapped relation that is not a belief state raises the
    witness error ``from_relation`` would raise.
    """
    u = b.universe
    return LayeredForm(u, tuple(Block(frozenset(u.names(m)), c) for m, c in _certified(b)))


def from_layers(layered: LayeredForm) -> BeliefState:
    """Rebuild the belief state from an ordered block partition.

    An unknown world raises UnknownWorldError; a bad partition raises the
    ValueError of ``_layer_rows``, worded as the scenario reader's errors.
    """
    u = layered.universe
    blocks = [(u.mask(block.worlds), block.connected) for block in layered.blocks]
    return BeliefState(Relation(u, tuple(_layer_rows(u, blocks))))


def _layer_rows(u: WorldUniverse, blocks: Sequence[tuple[int, bool]]) -> list[int]:
    """The row masks of the layered state over ``u`` whose blocks are
    given as (mask, connected), most likely first.

    The blocks must partition the worlds. This is the one check of that
    rule, for ``from_layers`` and the scenario reader's ``layers`` lines
    alike: a ValueError names an empty block, else the worlds of the first
    block that repeats earlier ones, else the worlds no block covers.
    Every world of a block is below every world of the later blocks, and
    of its own block too when that block is connected.
    """
    seen = overlap = 0
    for m, _ in blocks:
        if not m:
            raise ValueError("empty layer block")
        overlap = overlap or seen & m
        seen |= m
    if overlap:
        raise ValueError(f"world(s) in more than one layer: {', '.join(sorted(u.names(overlap)))}")
    missing = (1 << len(u)) - 1 & ~seen
    if missing:
        raise ValueError(f"layers must cover every world; missing {', '.join(u.names(missing))}")
    rows = [0] * len(u)
    below = 0
    for m, connected in reversed(blocks):
        row = below | m if connected else below
        for x in bits(m):
            rows[x] = row
        below |= m
    return rows


@dataclass(frozen=True)
class ClassFlags:
    """Membership in the classical relation classes, each decided in
    closed form from the relation's property flags.

    ``in_q_strict`` (the strict parts of total quasi-transitive relations)
    is exactly "asymmetric and transitive": such a strict part is a strict
    partial order, and a strict partial order P is the strict part of
    P plus its incomparability plus the diagonal, which is total and
    quasi-transitive.
    """

    in_b: bool
    in_t: bool
    in_t_strict: bool
    in_q: bool
    in_q_strict: bool


def classify_class(b: BeliefState | Relation) -> ClassFlags:
    """The class flags of a relation, or of a belief state's relation.

    A belief state is in B, and its flags follow from its diagonal, read
    from its ``blocks``: x < x holds exactly when x's block is connected,
    and every pair across blocks is related. So it is total, hence in T
    and Q, exactly when every block is connected, and asymmetric, hence
    in T< and Q<, exactly when none is. A wrapped relation that is not a
    belief state raises its witness error. A ``Relation`` is judged from
    its property flags.
    """
    if isinstance(b, BeliefState):
        connected = [c for _, c in _certified(b)]
        total, asymmetric = all(connected), not any(connected)
        return ClassFlags(True, total, asymmetric, total, asymmetric)
    flags = classify_properties(b)
    in_b = flags.modular and flags.transitive
    return ClassFlags(
        in_b=in_b,
        in_t=flags.total and flags.transitive,
        in_t_strict=in_b and flags.irreflexive,
        in_q=flags.total and flags.quasi_transitive,
        in_q_strict=flags.asymmetric and flags.transitive,
    )


@dataclass(frozen=True)
class ConditionalStatus:
    """Outcome of a conditional query "if p, then q?".

    ``bel``/``disbel`` report homogeneous choice sets; ``agn`` a fully
    disconnected choice set mixed on q; ``con`` a fully connected one. The
    choice set is never empty, so ``bel`` and ``disbel`` never both hold.
    The other flags are reported independently: a conflicted choice set
    can still be homogeneous on q, so ``con`` and ``bel`` may co-hold.
    """

    bel: bool
    disbel: bool
    agn: bool
    con: bool
    choice: frozenset[str]


def evaluate_conditional(
    b: BeliefState, p: Formula, q: Formula, pu: PropUniverse
) -> ConditionalStatus:
    """Answer "if p, then q?" against ``b``.

    The choice set is the p-worlds of the first block that has any, and
    it is as connected as that block. A wrapped relation that is not a
    belief state raises its witness error once both formulas are read.
    """
    if pu.universe != b.universe:
        raise ValueError("belief state and universe do not match")
    p_mask = models_mask(pu, p)
    if not p_mask:
        raise VacuousConditionError("condition has no satisfying world")
    q_mask = models_mask(pu, q)
    chosen, con = next((m & p_mask, c) for m, c in _certified(b) if m & p_mask)
    hits = chosen & q_mask
    return ConditionalStatus(
        bel=hits == chosen,
        disbel=not hits,
        agn=not con and bool(hits) and hits != chosen,
        con=con,
        choice=frozenset(b.universe.names(chosen)),
    )
