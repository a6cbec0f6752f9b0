import random

import pytest

from belieffusion import (
    Block,
    LayeredForm,
    Profile,
    Source,
    UniverseMismatchError,
    agnosticism,
    agr,
    agr_rf,
    agr_star,
    agr_un,
    classify_properties,
    from_layers,
    from_relation,
    in_conflict,
    relation,
    un,
    universe,
)
from helpers import random_profile, random_state, small_universe

U3 = universe("a", "b", "c")
U2 = universe("a", "b")
ALL3 = frozenset((x, y) for x in "abc" for y in "abc")


def src(sid, rank, u, *pairs):
    return Source(sid, rank, from_relation(relation(u, pairs)))


def layered_src(sid, rank, u, *blocks):
    lf = LayeredForm(u, tuple(Block(frozenset(ws), conn) for ws, conn in blocks))
    return Source(sid, rank, from_layers(lf))


@pytest.fixture
def opposed_profile():
    # two equally-ranked sources with opposite strict chains
    return Profile(
        U3,
        (
            src("s1", 1, U3, ("a", "b"), ("a", "c")),
            src("s2", 1, U3, ("b", "a"), ("c", "a")),
        ),
    )


@pytest.fixture
def example4_profile():
    return Profile(
        U3,
        (
            src("s0", 1, U3, ("b", "a"), ("b", "c")),
            src("s1", 1, U3, ("a", "b"), ("c", "b")),
            src("s2", 2, U3, ("a", "b"), ("c", "b")),
        ),
    )


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile(U3, (src("s", 0, U3), src("s", 1, U3)))
    with pytest.raises(UniverseMismatchError):
        Profile(U3, (src("s", 0, U2),))
    with pytest.raises(ValueError):
        Source("s", -1, from_relation(relation(U3)))


def test_un(opposed_profile):
    merged = un(opposed_profile)
    assert merged.pairs == {("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")}
    flags = classify_properties(merged)
    assert flags.modular and not flags.transitive
    only = Profile(U3, (src("s", 2, U3, ("a", "b"), ("a", "c")),))
    assert un(only).pairs == {("a", "b"), ("a", "c")}
    assert un(Profile(U3, ())).pairs == frozenset()


def test_agr_un(opposed_profile):
    assert agr_un(opposed_profile).relation.pairs == ALL3
    single = Profile(U3, (src("s", 0, U3, ("a", "b"), ("c", "b")),))
    assert agr_un(single).relation.pairs == {("a", "b"), ("c", "b")}
    assert agr_un(Profile(U3, ())).relation.pairs == frozenset()


def test_agr_rf_single_source_is_identity():
    state = random_state(random.Random(3), U3)
    p = Profile(U3, (Source("s", 5, state),))
    assert agr_rf(p) == state.relation


def test_agr_rf_example(example4_profile):
    assert agr_rf(example4_profile).pairs == {("a", "b"), ("c", "b")}


def test_agr_rf_lower_rank_refines():
    hi = layered_src("hi", 2, U3, ({"a"}, False), ({"b", "c"}, False))
    lo = layered_src("lo", 1, U3, ({"b"}, False), ({"c"}, False), ({"a"}, False))
    assert hi.state.relation.pairs == {("a", "b"), ("a", "c")}
    assert lo.state.relation.pairs == {("b", "c"), ("b", "a"), ("c", "a")}
    assert agr_rf(Profile(U3, (hi, lo))).pairs == {
        ("a", "b"),
        ("a", "c"),
        ("b", "c"),
    }


def test_agr_star_example(example4_profile):
    assert agr_star(example4_profile).relation.pairs == {
        ("a", "b"),
        ("c", "b"),
        ("a", "c"),
        ("c", "a"),
        ("a", "a"),
        ("b", "b"),
        ("c", "c"),
    }


def test_agr_star_special_cases(opposed_profile):
    state = random_state(random.Random(4), U3)
    single = Profile(U3, (Source("s", 3, state),))
    assert agr_star(single).relation == state.relation
    assert agr_star(opposed_profile).relation == agr_un(opposed_profile).relation


def test_agr_example(example4_profile):
    assert agr(example4_profile).relation.pairs == {("a", "b"), ("c", "b")}


def test_agr_equal_ranks_fully_connected(opposed_profile):
    assert agr(opposed_profile).relation.pairs == ALL3


def test_agr_single_source():
    state = random_state(random.Random(5), U3)
    p = Profile(U3, (Source("s", 1, state),))
    assert agr(p).relation == state.relation


def test_outputs_are_belief_states_randomized():
    rng = random.Random(1001)
    for _ in range(300):
        u = small_universe(rng.randint(1, 6))
        p = random_profile(rng, u)
        for op in (agr_un, agr_star, agr):
            state = op(p)  # built without validation: check membership here
            flags = classify_properties(state.relation)
            assert flags.modular and flags.transitive
        refined = agr_rf(p)
        assert classify_properties(refined).modular


def test_agr_rf_belief_state_under_strict_ranks():
    rng = random.Random(1002)
    for _ in range(200):
        u = small_universe(rng.randint(1, 5))
        p = random_profile(rng, u, distinct_ranks=True)
        flags = classify_properties(agr_rf(p))
        assert flags.modular and flags.transitive


def test_special_case_equalities_randomized():
    rng = random.Random(1003)
    for _ in range(200):
        u = small_universe(rng.randint(1, 5))
        equal = random_profile(rng, u, equal_ranks=True)
        assert agr(equal).relation == agr_un(equal).relation
        strict = random_profile(rng, u, distinct_ranks=True)
        assert agr(strict).relation == agr_rf(strict)


def test_modified_pareto_randomized():
    rng = random.Random(1004)
    hits = 0
    for _ in range(300):
        u = small_universe(rng.randint(2, 5))
        p = random_profile(rng, u, min_sources=1)
        out = agr(p).relation
        for x in u.worlds:
            for y in u.worlds:
                if all(s.asserts(x, y) for s in p.sources):
                    hits += 1
                    assert out.has(x, y)
    assert hits > 0


def test_modified_iia_randomized():
    # paired profiles, identical ranks, every source agreeing on the
    # membership of both (x, y) and (y, x)
    rng = random.Random(1005)
    checked = 0
    while checked < 200:
        u = small_universe(rng.randint(2, 4))
        x, y = rng.sample(u.worlds, 2)
        left = random_profile(rng, u, min_sources=1)
        rights = []
        for s in left.sources:
            candidate = random_state(rng, u)
            if candidate.relation.has(x, y) != s.asserts(x, y) or candidate.relation.has(
                y, x
            ) != s.asserts(y, x):
                candidate = s.state
            rights.append(Source(s.id, s.rank, candidate))
        right = Profile(u, tuple(rights))
        out_l = agr(left).relation
        out_r = agr(right).relation
        if in_conflict(out_l, x, y) or in_conflict(out_r, x, y):
            continue
        checked += 1
        assert out_l.has(x, y) == out_r.has(x, y)


def test_modified_non_dictatorship_constructive():
    # equal ranks: another source's reversed opinion always contests
    u = small_universe(3)
    x, y = "a", "b"
    for dictator in range(2):
        sources = []
        for i in range(2):
            if i == dictator:
                layers = LayeredForm(
                    u, (Block(frozenset({x}), False), Block(frozenset({y, "c"}), False))
                )
            else:
                layers = LayeredForm(
                    u, (Block(frozenset({y}), False), Block(frozenset({x, "c"}), False))
                )
            sources.append(Source(f"s{i}", 1, from_layers(layers)))
        p = Profile(u, tuple(sources))
        assert sources[dictator].asserts(x, y)
        assert not sources[dictator].asserts(y, x)
        out = agr(p).relation
        assert out.has(x, y) and out.has(y, x)


def test_closure_additions_are_conflicts_randomized():
    rng = random.Random(1006)
    for _ in range(300):
        u = small_universe(rng.randint(2, 5))
        p = random_profile(rng, u)
        base = agr_rf(p)
        closed = agr(p).relation
        for pair in closed.pairs - base.pairs:
            assert closed.has(*pair) and closed.has(pair[1], pair[0])


def test_agnosticism_of_aggregates_is_transitive():
    rng = random.Random(1007)
    for _ in range(100):
        u = small_universe(rng.randint(1, 5))
        p = random_profile(rng, u)
        assert classify_properties(agnosticism(agr(p))).transitive
