"""Deterministic multi-agent fusion simulator.

Agents repeatedly exchange their full pedigreed belief states over an
undirected topology and fuse whatever arrives. Because fusion is
idempotent, commutative, and associative, any delivery order, duplication,
or (eventually-recovered) message loss leads every agent of a connected
topology to the same fixpoint: the pedigree of the union of everyone's
sources.

Scheduling is driven by a splitmix64 generator so that runs are exactly
reproducible from (scenario, topology, config):

* state advances by adding 0x9E3779B97F4A7C15 (mod 2^64); the output is
  the new state mixed by two xor-shift-multiply rounds (constants
  0xBF58476D1CE4E5B9, 0x94D049BB133111EB) and a final ``z ^= z >> 31``;
* ``next_unit()`` maps an output to [0, 1) via ``(z >> 11) * 2**-53``;
* ``next_below(n)`` is ``next_u64() % n``;
* each round shuffles the edge list (Fisher-Yates, descending index ``i``,
  swap with ``next_below(i + 1)``), then per edge processes direction
  a->b then b->a; per direction one drop coin is drawn, and a duplication
  coin is drawn only if the message was not dropped.

``messages`` counts every delivered copy. Copies that the fusion laws
make no-ops are not fused: a second copy of a duplicated message, and a
message whose sender holds the receiver's state. Every state in the loop
is the output of a refinement (an agent's pedigree or a fusion), and
fusion is idempotent on those, so skipping them changes no state.

A run stops, ``converged``, after the first quiescent round: one in which
no state changed and every directed edge has delivered at least once
since the last state change. A delivery that makes a change counts, as
its receiver now holds the fusion with the sender's state. Every agent
has then fused each neighbour's current state without effect, so the
states are a fixpoint of the exchange. Lost messages delay that point but
do not prevent it: an edge that dropped a message may deliver in a later
round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .pedigree import Agent, PedigreedBeliefState, fuse, pedigree_from_sources, union_profile

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The fixed PRNG behind all simulation schedules."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


class TopologyError(ValueError):
    """Malformed topology: unknown agent id or bad edge."""


@dataclass(frozen=True)
class Topology:
    """An undirected exchange graph over agent ids."""

    kind: str
    center: str | None = None
    edges: tuple[tuple[str, str], ...] = ()

    @classmethod
    def complete(cls) -> "Topology":
        return cls("complete")

    @classmethod
    def ring(cls) -> "Topology":
        return cls("ring")

    @classmethod
    def star(cls, center: str) -> "Topology":
        return cls("star", center=center)

    @classmethod
    def explicit(cls, edges: Sequence[tuple[str, str]]) -> "Topology":
        return cls("explicit", edges=tuple(edges))

    def edge_list(self, agent_ids: Sequence[str]) -> list[tuple[str, str]]:
        known = set(agent_ids)
        if self.kind == "complete":
            return [
                (a, b)
                for i, a in enumerate(agent_ids)
                for b in agent_ids[i + 1 :]
            ]
        if self.kind == "ring":
            n = len(agent_ids)
            if n < 2:
                return []
            if n == 2:
                return [(agent_ids[0], agent_ids[1])]
            return [(agent_ids[i], agent_ids[(i + 1) % n]) for i in range(n)]
        if self.kind == "star":
            if self.center not in known:
                raise TopologyError(f"unknown agent id {self.center!r}")
            return [(self.center, a) for a in agent_ids if a != self.center]
        if self.kind == "explicit":
            for a, b in self.edges:
                for end in (a, b):
                    if end not in known:
                        raise TopologyError(f"unknown agent id {end!r}")
                if a == b:
                    raise TopologyError(f"self-loop edge on {a!r}")
            return list(self.edges)
        raise TopologyError(f"unknown topology kind {self.kind!r}")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    max_rounds: int = 10
    duplication_prob: float = 0.0
    drop_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        if not (0.0 <= self.duplication_prob <= 1.0):
            raise ValueError("duplication_prob must lie in [0, 1]")
        if not (0.0 <= self.drop_prob <= 1.0):
            raise ValueError("drop_prob must lie in [0, 1]")


@dataclass(frozen=True)
class SimReport:
    rounds_executed: int
    final_states: Mapping[str, PedigreedBeliefState] = field(hash=False)
    converged: bool = False
    matches_global: bool = False
    message_count: int = 0


def global_reference(agents: Sequence[Agent]) -> PedigreedBeliefState:
    """The pedigree an agent informed by everyone's sources would hold."""
    return pedigree_from_sources(union_profile(agents))


def run_simulation(
    agents: Sequence[Agent], topology: Topology, config: SimConfig
) -> SimReport:
    if not agents:
        raise ValueError("need at least one agent")
    ids = [a.id for a in agents]
    if len(set(ids)) != len(ids):
        raise ValueError("agent ids must be unique")
    edges = topology.edge_list(ids)
    rng = SplitMix64(config.seed)

    states: dict[str, PedigreedBeliefState] = {a.id: a.pedigree() for a in agents}
    directed = {d for a, b in edges for d in ((a, b), (b, a))}
    undelivered = set(directed)
    messages = 0
    rounds = 0
    converged = False
    for _ in range(config.max_rounds):
        rounds += 1
        changed = False
        order = list(edges)
        rng.shuffle(order)
        for a, b in order:
            for src, dst in ((a, b), (b, a)):
                if rng.next_unit() < config.drop_prob:
                    continue
                messages += 2 if rng.next_unit() < config.duplication_prob else 1
                # Fusion is idempotent on refinement outputs (see above).
                if states[dst] != states[src]:
                    merged = fuse([states[dst], states[src]])
                    if merged != states[dst]:
                        states[dst] = merged
                        changed = True
                        undelivered = set(directed)
                undelivered.discard((src, dst))
        if not changed and not undelivered:
            converged = True
            break

    reference = global_reference(agents)
    return SimReport(
        rounds_executed=rounds,
        final_states=dict(states),
        converged=converged,
        matches_global=all(states[i] == reference for i in ids),
        message_count=messages,
    )
