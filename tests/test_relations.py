import random

import pytest

from belieffusion import (
    EmptySubsetError,
    Relation,
    UniverseMismatchError,
    UnknownWorldError,
    WorldUniverse,
    choice_set,
    classify_properties,
    in_conflict,
    relation,
    strict_version,
    transitive_closure,
    union_all,
    universe,
)
from helpers import (
    all_relations,
    choice_oracle,
    closure_oracle,
    modular_oracle,
    nonempty_subsets,
    small_universe,
    transitive_oracle,
)

U3 = universe("a", "b", "c")
U2 = universe("a", "b")
FULL2 = relation(U2, [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")])


def test_universe_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        WorldUniverse(())
    with pytest.raises(ValueError):
        WorldUniverse(("a", "a"))


def test_names_match_a_bit_by_bit_oracle():
    def oracle(u, m):
        return [w for i, w in enumerate(u.worlds) if m >> i & 1]

    for n in range(1, 9):
        u = small_universe(n)
        for m in range(1 << n):
            assert u.names(m) == oracle(u, m)
    u = WorldUniverse(tuple(f"w{i}" for i in range(4096)))
    rng = random.Random(4096)
    full = (1 << 4096) - 1
    masks = [0, full, 1 << 4095] + [rng.getrandbits(4096) for _ in range(20)]
    masks += [rng.getrandbits(4096) & rng.getrandbits(4096) >> rng.randrange(4096) for _ in range(20)]
    for m in masks:
        assert u.names(m) == oracle(u, m)


def test_relation_rejects_foreign_worlds():
    with pytest.raises(UnknownWorldError):
        relation(U2, [("a", "c")])


def test_has_is_false_for_unknown_worlds():
    r = relation(U2, [("a", "b")])
    assert r.has("a", "b") and ("a", "b") in r
    assert not r.has("a", "zz") and not r.has("zz", "b") and ("zz", "zz") not in r


def test_relation_constructor_checks_row_masks():
    u = small_universe(3)
    r = Relation(u, [0b011, 0, 0b100])
    assert r.rows == (0b011, 0, 0b100)
    assert r.pairs == {("a", "a"), ("a", "b"), ("c", "c")}
    message = "a relation over 3 worlds needs 3 row masks below 2**3"
    for rows in ((), (0, 0), (0, 0, 0, 0), (0, 0b1000, 0), (0, 0, 1 << 70), (0, -1, 0)):
        with pytest.raises(ValueError) as exc:
            Relation(u, rows)
        assert str(exc.value) == message


def test_classify_empty_relation():
    flags = classify_properties(relation(U3))
    assert flags.modular and flags.transitive
    assert not flags.total and not flags.reflexive
    assert flags.irreflexive and flags.acyclic


def test_classify_single_pair_not_modular():
    flags = classify_properties(relation(U3, [("a", "b")]))
    assert not flags.modular
    assert flags.transitive


def test_classify_fully_connected():
    flags = classify_properties(FULL2)
    assert flags.reflexive and flags.symmetric and flags.total
    assert flags.modular and flags.transitive and flags.acyclic


def test_strict_version_cancels_mutual_pairs():
    r = relation(U3, [("a", "b"), ("b", "a"), ("a", "c")])
    assert strict_version(r).pairs == {("a", "c")}
    assert strict_version(relation(U3)).pairs == frozenset()
    assert strict_version(FULL2).pairs == frozenset()


def test_transitive_closure_examples():
    assert transitive_closure(relation(U3, [("a", "b"), ("b", "c")])).pairs == {
        ("a", "b"),
        ("b", "c"),
        ("a", "c"),
    }
    assert transitive_closure(relation(U3)).pairs == frozenset()
    two_cycles = relation(U3, [("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")])
    assert transitive_closure(two_cycles).pairs == frozenset(
        (x, y) for x in "abc" for y in "abc"
    )


def test_choice_set_examples():
    assert choice_set(relation(U3), {"a", "b", "c"}) == {"a", "b", "c"}
    assert choice_set(relation(U2, [("a", "b")]), {"a", "b"}) == {"a"}
    assert choice_set(FULL2, {"a", "b"}) == {"a", "b"}


def test_choice_set_preconditions():
    with pytest.raises(EmptySubsetError):
        choice_set(relation(U2), set())
    with pytest.raises(UnknownWorldError):
        choice_set(relation(U2), {"z"})


def test_in_conflict_examples():
    assert in_conflict(FULL2, "a", "b")
    assert in_conflict(relation(U3, [("a", "b"), ("b", "c"), ("c", "a")]), "a", "c")
    assert not in_conflict(relation(U3, [("a", "b")]), "a", "b")
    with pytest.raises(UnknownWorldError):
        in_conflict(FULL2, "a", "z")


def test_self_loop_is_self_conflict():
    assert in_conflict(relation(U2, [("a", "a")]), "a", "a")
    assert not in_conflict(relation(U2, [("a", "b")]), "a", "a")


def test_union_all_examples():
    assert union_all([relation(U3), relation(U3)]).pairs == frozenset()
    assert union_all(
        [relation(U2, [("a", "b")]), relation(U2, [("b", "a")])]
    ).pairs == {("a", "b"), ("b", "a")}
    merged = union_all(
        [
            relation(U3, [("a", "b"), ("a", "c")]),
            relation(U3, [("b", "a"), ("c", "a")]),
        ]
    )
    assert merged.pairs == {("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")}


def test_union_all_universe_handling():
    assert union_all([], U2).pairs == frozenset()
    with pytest.raises(ValueError):
        union_all([])
    with pytest.raises(UniverseMismatchError):
        union_all([relation(U2), relation(U3)])
    with pytest.raises(UniverseMismatchError, match="^explicit universe differs from the relations'$"):
        union_all([relation(U2)], U3)


def test_exhaustive_small_invariants():
    # transitive => quasi-transitive => acyclic; closure preserves
    # modularity; closure is idempotent; flags match the oracles
    for n in (1, 2, 3):
        u = small_universe(n)
        for r in all_relations(u):
            flags = classify_properties(r)
            assert flags.modular == modular_oracle(r)
            assert flags.transitive == transitive_oracle(r)
            if flags.transitive:
                assert flags.quasi_transitive
            if flags.quasi_transitive:
                assert flags.acyclic
            closed = transitive_closure(r)
            assert closed.pairs == closure_oracle(r.pairs, u.worlds)
            assert transitive_closure(closed).pairs == closed.pairs
            if flags.modular:
                assert classify_properties(closed).modular


def test_choice_function_iff_acyclic_exhaustive():
    for n in (2, 3):
        u = small_universe(n)
        for r in all_relations(u):
            nonempty_everywhere = all(
                choice_set(r, xs) for xs in nonempty_subsets(u.worlds)
            )
            assert nonempty_everywhere == classify_properties(r).acyclic


def test_choice_set_matches_oracle_exhaustive():
    u = small_universe(3)
    for r in all_relations(u):
        for xs in nonempty_subsets(u.worlds):
            assert choice_set(r, xs) == choice_oracle(r, xs)


def test_strict_version_idempotent_on_asymmetric_results():
    u = small_universe(3)
    for r in all_relations(u):
        s = strict_version(r)
        assert classify_properties(s).asymmetric
        assert strict_version(s).pairs == s.pairs


def test_conflict_matches_closure_oracle_exhaustive():
    u = small_universe(3)
    for r in all_relations(u):
        reach = closure_oracle(r.pairs, u.worlds)
        for x in u.worlds:
            for y in u.worlds:
                assert in_conflict(r, x, y) == (
                    (x, y) in reach and (y, x) in reach
                )
