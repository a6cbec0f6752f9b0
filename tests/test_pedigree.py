import random

import pytest
from hypothesis import given, settings, strategies as st

from belieffusion import (
    Agent,
    PedigreedBeliefState,
    Profile,
    Source,
    UniverseMismatchError,
    agr,
    agr_rf,
    classify_properties,
    empty_pedigree,
    from_relation,
    fuse,
    fuse_equal_rank,
    global_reference,
    induced_state,
    pedigree_from_sources,
    relation,
    restrict,
    transitive_closure,
    union_all,
    union_profile,
    universe,
)
from helpers import random_agents, random_profile, random_state, small_universe

U3 = universe("a", "b", "c")
U2 = universe("a", "b")


def src(sid, rank, u, *pairs):
    return Source(sid, rank, from_relation(relation(u, pairs)))


S0 = src("s0", 1, U3, ("b", "a"), ("b", "c"))
S1 = src("s1", 1, U3, ("a", "b"), ("c", "b"))
S2 = src("s2", 2, U3, ("a", "b"), ("c", "b"))


def test_single_source_pedigree_labels_everything_with_its_rank():
    state = random_state(random.Random(7), U3)
    p = Profile(U3, (Source("s", 3, state),))
    pbs = pedigree_from_sources(p)
    assert pbs.relation() == state.relation
    assert all(r == 3 for _, _, r in pbs.entries)


def test_pedigree_of_mixed_rank_profile():
    pbs = pedigree_from_sources(Profile(U3, (S0, S2)))
    assert pbs.entries == (("a", "b", 2), ("c", "b", 2))


def test_empty_pedigree():
    assert pedigree_from_sources(Profile(U3, ())) == empty_pedigree(U3)
    assert induced_state(empty_pedigree(U3)).relation.pairs == frozenset()


def test_induced_state_is_closure():
    pbs = PedigreedBeliefState(U3, (("a", "b", 2), ("c", "b", 2)))
    assert induced_state(pbs).relation.pairs == {("a", "b"), ("c", "b")}


def test_strictly_ranked_pedigrees_need_no_closure():
    rng = random.Random(8)
    for _ in range(200):
        u = small_universe(rng.randint(1, 5))
        p = random_profile(rng, u, distinct_ranks=True)
        pbs = pedigree_from_sources(p)
        rel = pbs.relation()
        assert transitive_closure(rel) == rel


def test_restrict_partitions_the_pair_set():
    pbs = PedigreedBeliefState(U3, (("a", "b", 2), ("c", "b", 1), ("a", "c", 2)))
    assert restrict(pbs, 2).pairs == {("a", "b"), ("a", "c")}
    assert restrict(pbs, 1).pairs == {("c", "b")}
    assert restrict(pbs, 0).pairs == frozenset()
    union = union_all([restrict(pbs, r) for r in (0, 1, 2)], U3)
    assert union == pbs.relation()


def test_restrict_characterization_randomized():
    # a pair is labeled r iff some rank-r source asserts it and every
    # strictly more credible source is agnostic
    rng = random.Random(9)
    for _ in range(200):
        u = small_universe(rng.randint(2, 5))
        p = random_profile(rng, u, min_sources=1)
        pbs = pedigree_from_sources(p)
        ranks = {s.rank for s in p.sources}
        for r in ranks | {max(ranks) + 1}:
            restricted = restrict(pbs, r)
            for x in u.worlds:
                for y in u.worlds:
                    expected = any(
                        s.rank == r
                        and s.asserts(x, y)
                        and all(t.agnostic(x, y) for t in p.sources if t.rank > r)
                        for s in p.sources
                    )
                    assert restricted.has(x, y) == expected


def test_fuse_single_state_is_identity():
    pbs = pedigree_from_sources(Profile(U3, (S0, S2)))
    assert fuse([pbs]) == pbs


def test_fuse_two_agent_example():
    hi = src("s1", 2, U2, ("a", "b"))
    lo = src("s2", 1, U2, ("b", "a"))
    a1 = Agent("A1", Profile(U2, (hi,)))
    a2 = Agent("A2", Profile(U2, (lo,)))
    fused = fuse([a1.pedigree(), a2.pedigree()])
    assert induced_state(fused).relation.pairs == {("a", "b")}
    # flipping the ranks flips the outcome
    hi2 = src("s1", 1, U2, ("a", "b"))
    lo2 = src("s2", 2, U2, ("b", "a"))
    fused2 = fuse(
        [
            Agent("A1", Profile(U2, (hi2,))).pedigree(),
            Agent("A2", Profile(U2, (lo2,))).pedigree(),
        ]
    )
    assert induced_state(fused2).relation.pairs == {("b", "a")}


def test_fuse_matches_union_aggregation_example():
    a1p = Agent("A1p", Profile(U3, (S0, S2)))
    a2p = Agent("A2p", Profile(U3, (S1, S2)))
    fused = fuse([a1p.pedigree(), a2p.pedigree()])
    assert fused.entries == (("a", "b", 2), ("c", "b", 2))
    assert induced_state(fused).relation.pairs == {("a", "b"), ("c", "b")}
    assert fused == pedigree_from_sources(Profile(U3, (S0, S1, S2)))
    assert fused == global_reference([a1p, a2p])


def test_pedigree_constructor_checks_labels_and_reprs_its_entries():
    pbs = PedigreedBeliefState(U2, [("b", "b", 0), ("a", "b", 1)])
    assert pbs.entries == (("a", "b", 1), ("b", "b", 0))
    assert repr(pbs) == (
        "PedigreedBeliefState(universe=WorldUniverse(worlds=('a', 'b')), "
        "entries=(('a', 'b', 1), ('b', 'b', 0)))"
    )
    with pytest.raises(ValueError, match="^rank labels must be non-negative$"):
        PedigreedBeliefState(U2, [("a", "b", 1), ("b", "a", -1)])
    with pytest.raises(ValueError, match="^duplicate labeled pair$"):
        PedigreedBeliefState(U2, [("a", "b", 1), ("a", "b", 2)])
    assert pbs.label("a", "b") == 1
    assert pbs.label("b", "a") is None


def test_fuse_empty_and_mismatched():
    assert fuse([], U3) == empty_pedigree(U3)
    with pytest.raises(ValueError):
        fuse([])
    with pytest.raises(UniverseMismatchError):
        fuse([empty_pedigree(U3), empty_pedigree(U2)])
    with pytest.raises(UniverseMismatchError, match="^explicit universe differs from the states'$"):
        fuse([empty_pedigree(U3)], U2)


def test_fusion_theorem_random_partitions():
    rng = random.Random(10)
    for _ in range(200):
        u = small_universe(rng.randint(2, 5))
        pool = list(random_profile(rng, u, max_sources=6, min_sources=1).sources)
        agent_count = rng.randint(1, 4)
        agents = []
        for i in range(agent_count):
            take = [s for s in pool if rng.random() < 0.6]
            agents.append(Agent(f"A{i}", Profile(u, tuple(take))))
        fused = fuse([a.pedigree() for a in agents], u)
        assert fused == pedigree_from_sources(union_profile(agents))


def test_fuse_equal_rank_examples():
    a = from_relation(relation(U2, [("a", "b")]))
    b = from_relation(relation(U2, [("b", "a")]))
    merged = fuse_equal_rank([a, b])
    assert merged.relation.pairs == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}
    assert fuse_equal_rank([a]).relation == a.relation
    empty = from_relation(relation(U3))
    assert fuse_equal_rank([empty, empty]).relation.pairs == frozenset()
    with pytest.raises(ValueError, match="^need at least one state$"):
        fuse_equal_rank([])


def test_equal_rank_shortcut_matches_pedigree_fusion():
    rng = random.Random(12)
    for _ in range(200):
        u = small_universe(rng.randint(2, 5))
        shared_rank = rng.randint(0, 3)
        agents = []
        for i in range(rng.randint(1, 4)):
            sources = tuple(
                Source(f"a{i}s{j}", shared_rank, random_state(rng, u))
                for j in range(rng.randint(0, 3))
            )
            agents.append(Agent(f"A{i}", Profile(u, sources)))
        via_pedigrees = induced_state(fuse([a.pedigree() for a in agents], u))
        via_states = fuse_equal_rank([a.induced() for a in agents])
        assert via_pedigrees == via_states


def test_agent_induced_is_the_induced_state_of_its_pedigree():
    rng = random.Random(13)
    for n in range(1, 7):
        u = small_universe(n)
        for _ in range(40):
            for agent in random_agents(rng, u, 3):
                assert agent.induced() == induced_state(agent.pedigree())


def test_redundant_closure_lemma():
    rng = random.Random(13)
    for _ in range(300):
        u = small_universe(rng.randint(1, 6))
        rels = [
            relation(
                u,
                (
                    (x, y)
                    for x in u.worlds
                    for y in u.worlds
                    if rng.random() < 0.25
                ),
            )
            for _ in range(rng.randint(0, 4))
        ]
        closed_then_union = union_all([transitive_closure(r) for r in rels], u)
        assert transitive_closure(closed_then_union) == transitive_closure(
            union_all(rels, u)
        )


def labeled_states(u):
    pair_ranks = st.dictionaries(
        st.tuples(st.sampled_from(u.worlds), st.sampled_from(u.worlds)),
        st.integers(min_value=0, max_value=3),
        max_size=6,
    )
    return pair_ranks.map(
        lambda d: PedigreedBeliefState(u, tuple((x, y, r) for (x, y), r in d.items()))
    )


@settings(max_examples=200)
@given(labeled_states(U3), labeled_states(U3), labeled_states(U3))
def test_fusion_algebra(p, q, r):
    assert fuse([p, p]) == fuse([p])
    assert fuse([p, q]) == fuse([q, p])
    assert fuse([fuse([p, q]), r]) == fuse([p, fuse([q, r])])


def test_agr_star_pedigree_is_not_fusion_sufficient():
    # identical per-agent labeled states, different union aggregations:
    # the per-rank-closure operator cannot support fusion
    from belieffusion import agr_star

    def star_pedigree(profile):
        rel = agr_star(profile).relation
        entries = tuple(
            (x, y, max(s.rank for s in profile.sources if s.asserts(x, y)))
            for (x, y) in rel.pairs
        )
        return PedigreedBeliefState(profile.universe, entries)

    s_only = Profile(U3, (S2,))
    s1p = Profile(U3, (S0, S2))
    s2p = Profile(U3, (S1, S2))
    peds = [star_pedigree(p) for p in (s_only, s_only, s1p, s2p)]
    assert len(set(peds)) == 1

    union_small = agr_star(s_only).relation.pairs
    union_large = agr_star(Profile(U3, (S0, S1, S2))).relation.pairs
    assert union_small == {("a", "b"), ("c", "b")}
    assert union_large == {
        ("a", "b"),
        ("c", "b"),
        ("a", "c"),
        ("c", "a"),
        ("a", "a"),
        ("b", "b"),
        ("c", "c"),
    }
    assert union_small != union_large


def test_union_profile_rejects_conflicting_shared_ids():
    a1 = Agent("A1", Profile(U3, (S0,)))
    a2 = Agent("A2", Profile(U3, (src("s0", 2, U3, ("a", "b"), ("c", "b")),)))
    with pytest.raises(ValueError):
        union_profile([a1, a2])


def test_union_profile_needs_agents_over_one_universe():
    with pytest.raises(ValueError, match="^need at least one agent$"):
        union_profile([])
    a1 = Agent("A1", Profile(U3, (S0,)))
    a2 = Agent("A2", Profile(U2, ()))
    with pytest.raises(UniverseMismatchError, match="^agents span different universes$"):
        union_profile([a1, a2])
