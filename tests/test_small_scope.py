"""Exhaustive small-scope checks of the paper's aggregation and fusion
propositions.

Every profile within two scopes is checked, each source being any belief
state of ``all_belief_states``: 3 sources over 2 worlds with ranks
{0, 1, 2} (27,000 profiles), and 2 sources over 3 worlds with ranks
{0, 1} (21,904 profiles). The seeded random suites of test_aggregation
and test_pedigree check the same propositions on larger universes.
"""

import itertools

import pytest

from belieffusion import (
    Agent,
    Profile,
    Source,
    agr,
    agr_rf,
    agr_un,
    from_layers,
    fuse,
    pedigree_from_sources,
)
from helpers import all_belief_states, modular_oracle, small_universe, transitive_oracle

SCOPES = [(2, 3, (0, 1, 2), 27_000), (3, 2, (0, 1), 21_904)]


@pytest.mark.parametrize("worlds, count, ranks, expected", SCOPES, ids=["2-worlds", "3-worlds"])
def test_propositions_hold_on_every_small_profile(worlds, count, ranks, expected):
    u = small_universe(worlds)
    states = [from_layers(lf) for lf in all_belief_states(u)]
    # a source kind is (rank, state index), and a source its position and
    # kind, so that memo keys hash as tuples of ints
    kinds = [(rank, k) for rank in ranks for k in range(len(states))]
    source = {(i, kind): Source(f"s{i}", kind[0], states[kind[1]]) for i in range(count) for kind in kinds}
    # each state's pairs, and the pairs it holds an opinion on either way
    pairs = [b.relation.pairs for b in states]
    opinion = [ps | {(y, x) for x, y in ps} for ps in pairs]
    is_state = {}
    pedigrees = {}

    def pedigree(key):
        # an agent's pedigree depends only on its sources; memoised so
        # each sub-profile is refined once
        if key not in pedigrees:
            pedigrees[key] = Agent("A", Profile(u, tuple(source[k] for k in key))).pedigree()
        return pedigrees[key]

    # each split of the sources into two agents, the first source kept in
    # the first agent (fusion is commutative)
    splits = [(0, *sides) for sides in itertools.product((0, 1), repeat=count - 1)]
    failures = {}
    profiles = 0
    for profile in itertools.product(kinds, repeat=count):
        profiles += 1
        keys = tuple(enumerate(profile))
        p = Profile(u, tuple(source[k] for k in keys))
        out = agr(p).relation
        refined = agr_rf(p)
        if out.rows not in is_state:
            is_state[out.rows] = modular_oracle(out) and transitive_oracle(out)
        # a source's pair survives iff every more credible source is
        # agnostic about it
        kept = set()
        for rank, k in profile:
            overruled = set().union(*(opinion[k2] for rank2, k2 in profile if rank2 > rank))
            kept |= pairs[k] - overruled
        checks = {
            "agr_rf is the refinement": refined.pairs == kept,
            "agr is a belief state": is_state[out.rows],
            "closure adds only conflicts": all(out.has(y, x) for x, y in out.pairs - refined.pairs),
            "modified Pareto": frozenset.intersection(*(pairs[k] for _, k in profile)) <= out.pairs,
        }
        rank_set = {rank for rank, _ in profile}
        if len(rank_set) == 1:
            checks["agr = agr_un on equal ranks"] = out == agr_un(p).relation
        if len(rank_set) == count:
            checks["agr = agr_rf on distinct ranks"] = out == refined
        whole = pedigree_from_sources(p)
        checks["fusion theorem"] = all(
            fuse([pedigree(tuple(k for k, side in zip(keys, sides) if side == half)) for half in (0, 1)], u) == whole
            for sides in splits
        )
        for name, holds in checks.items():
            if not holds:
                failures.setdefault(name, [(rank, sorted(pairs[k])) for rank, k in profile])
    assert profiles == expected
    assert not failures, "\n".join(f"{name} fails on {profile}" for name, profile in failures.items())
