import collections
import dataclasses
import random

import pytest

from belieffusion import (
    BeliefState,
    PropUniverse,
    Relation,
    UndeclaredVariableError,
    Block,
    LayeredForm,
    NotModularError,
    NotTransitiveError,
    ParseError,
    UnknownWorldError,
    VacuousConditionError,
    agnosticism,
    classify_class,
    classify_properties,
    conflict,
    evaluate_conditional,
    format_layers,
    from_layers,
    from_relation,
    generate_universe,
    parse_formula,
    parse_scenario,
    relation,
    strict_version,
    to_layers,
    universe,
)
from helpers import (
    aliased_prop_universe,
    all_belief_states,
    all_relations,
    conditional_oracle,
    models_oracle,
    random_formula,
    first_modularity_witness,
    first_transitivity_witness,
    layered_pairs,
    modular_oracle,
    nonempty_subsets,
    properties_oracle,
    q_strict_oracle,
    random_layered,
    random_state,
    random_strict_order,
    small_universe,
    transitive_oracle,
)

U3 = universe("a", "b", "c")
U2 = universe("a", "b")


def pairs_over(u, *pairs):
    return relation(u, pairs)


def test_from_relation_accepts_and_rejects():
    assert from_relation(relation(U3)).relation.pairs == frozenset()
    assert from_relation(pairs_over(U3, ("a", "b"), ("c", "b")))
    with pytest.raises(NotModularError) as exc:
        from_relation(pairs_over(U3, ("a", "b")))
    assert exc.value.witness == ("a", "b", "c")


def test_from_relation_transitivity_witness():
    # modular but intransitive: needs both directions somewhere
    r = pairs_over(U3, ("a", "b"), ("b", "a"), ("a", "c"), ("b", "c"))
    flags = classify_properties(r)
    assert flags.modular and not flags.transitive
    with pytest.raises(NotTransitiveError) as exc:
        from_relation(r)
    x, y, z = exc.value.witness
    assert r.has(x, y) and r.has(y, z) and not r.has(x, z)


def test_agnosticism_lists_all_unrelated_pairs():
    # {(a,c)} is transitive but not modular; agnosticism is still defined
    # and is exactly why modularity is demanded of belief states
    r = pairs_over(U3, ("a", "c"))
    agn = agnosticism(r)
    assert ("a", "b") in agn and ("b", "a") in agn
    assert ("b", "c") in agn and ("c", "b") in agn
    assert all((w, w) in agn for w in "abc")
    assert ("a", "c") not in agn and ("c", "a") not in agn
    assert not classify_properties(agn).transitive


def test_agnosticism_extremes():
    full = from_layers(LayeredForm(U2, (Block(frozenset("ab"), True),)))
    assert agnosticism(full).pairs == frozenset()
    empty = from_relation(relation(U3))
    assert agnosticism(empty).pairs == frozenset(
        (x, y) for x in "abc" for y in "abc"
    )


def test_conflict_relation():
    full = from_layers(LayeredForm(U2, (Block(frozenset("ab"), True),)))
    assert conflict(full).pairs == frozenset((x, y) for x in "ab" for y in "ab")
    assert conflict(from_relation(pairs_over(U3, ("a", "b"), ("c", "b")))).pairs == frozenset()


def test_irreflexive_states_are_conflict_free():
    for n in (2, 3):
        u = small_universe(n)
        for r in all_relations(u):
            flags = classify_properties(r)
            if flags.modular and flags.transitive and flags.irreflexive:
                assert conflict(BeliefState(r)).pairs == frozenset()


def test_to_layers_examples():
    assert to_layers(from_relation(relation(U3))).blocks == (
        Block(frozenset("abc"), False),
    )
    full = from_layers(LayeredForm(U2, (Block(frozenset("ab"), True),)))
    assert to_layers(full).blocks == (Block(frozenset("ab"), True),)
    layered = to_layers(from_relation(pairs_over(U3, ("a", "b"), ("c", "b"))))
    assert layered.blocks == (
        Block(frozenset({"a", "c"}), False),
        Block(frozenset({"b"}), False),
    )


def test_from_layers_examples():
    lf = LayeredForm(
        U3, (Block(frozenset({"a", "c"}), False), Block(frozenset({"b"}), False))
    )
    assert from_layers(lf).relation.pairs == {("a", "b"), ("c", "b")}
    chain = LayeredForm(
        U3,
        (
            Block(frozenset("a"), False),
            Block(frozenset("b"), False),
            Block(frozenset("c"), False),
        ),
    )
    assert from_layers(chain).relation.pairs == {("a", "b"), ("a", "c"), ("b", "c")}


def test_from_layers_rejects_bad_partitions():
    with pytest.raises(ValueError):
        from_layers(LayeredForm(U3, (Block(frozenset("ab"), False),)))
    with pytest.raises(ValueError):
        from_layers(
            LayeredForm(
                U3,
                (Block(frozenset("abc"), False), Block(frozenset("a"), False)),
            )
        )


def test_from_layers_words_partition_errors_as_the_layers_line():
    def blocks(*groups):
        return LayeredForm(U3, tuple(Block(frozenset(g), False) for g in groups))

    # an empty block, wherever it stands, before an earlier overlap
    with pytest.raises(ValueError, match="^empty layer block$"):
        from_layers(blocks("ab", "a", "", "c"))
    # the first block that repeats worlds, not a later one
    with pytest.raises(ValueError, match=r"^world\(s\) in more than one layer: a, b$"):
        from_layers(blocks("c", "ab", "ba", "c"))
    with pytest.raises(ValueError, match="^layers must cover every world; missing a, c$"):
        from_layers(blocks("b"))
    # an unknown world fails before the partition is checked
    with pytest.raises(UnknownWorldError, match="^unknown world 'z'$"):
        from_layers(blocks("", "az"))


def test_from_layers_and_layers_lines_share_one_partition_rule():
    """Random block lists, partitions and near-partitions alike: from_layers
    and a ``layers`` line give the same relation, or the same reason."""
    rng = random.Random(41)
    kinds = collections.Counter()
    for _ in range(600):
        u = small_universe(rng.randint(1, 5))
        groups = [set(block.worlds) for block in random_layered(rng, u).blocks]
        for _ in range(rng.randint(0, 2)):
            at = rng.randrange(len(groups))
            move = rng.random()
            if move < 0.15:
                groups.insert(at, set())
            elif move < 0.6:
                groups[at].add(rng.choice(u.worlds))
            else:
                groups[at].discard(rng.choice(u.worlds))
        layered = LayeredForm(u, tuple(Block(frozenset(g), rng.random() < 0.5) for g in groups))
        text = f"worlds {' '.join(u.worlds)}\nsource s rank 0\n  layers {format_layers(layered)}\n"
        try:
            want = from_layers(layered).relation
        except ValueError as e:
            want = str(e)
        try:
            got = parse_scenario(text).source("s").state.relation
        except ParseError as e:
            got = e.reason
        assert got == want, text
        kinds[want.split(":")[0].split(";")[0] if isinstance(want, str) else "relation"] += 1
    assert sorted(kinds) == [
        "empty layer block",
        "layers must cover every world",
        "relation",
        "world(s) in more than one layer",
    ], kinds
    assert min(kinds.values()) >= 50, kinds


def test_layer_round_trip_exhaustive():
    counts = {}
    for n in (1, 2, 3):
        u = small_universe(n)
        members = 0
        for r in all_relations(u):
            flags = classify_properties(r)
            if not (flags.modular and flags.transitive):
                continue
            members += 1
            b = BeliefState(r)
            assert from_layers(to_layers(b)) == b
        counts[n] = members
    assert counts == {1: 2, 2: 10, 3: 74}


def test_layer_round_trip_randomized():
    rng = random.Random(97)
    for _ in range(200):
        u = small_universe(rng.randint(2, 8))
        layered = random_layered(rng, u)
        b = from_layers(layered)
        assert to_layers(b) == layered
        assert from_layers(to_layers(b)) == b


def test_blocks_certify_exactly_the_modular_transitive_relations():
    # every relation over 1-3 worlds against the triple-loop oracles; over
    # 4 worlds, against the relations of the 730 enumerated layered forms
    for n in (1, 2, 3):
        u = small_universe(n)
        for r in all_relations(u):
            member = modular_oracle(r) and transitive_oracle(r)
            assert (BeliefState(r).blocks is not None) == member, r.pairs
    u = small_universe(4)
    layered = {from_layers(lf).relation.rows for lf in all_belief_states(u)}
    certified = set()
    for cells in range(1 << 16):
        rows = tuple(cells >> 4 * x & 15 for x in range(4))
        if BeliefState(Relation(u, rows)).blocks is not None:
            certified.add(rows)
    assert certified == layered and len(layered) == 730


def test_blocks_are_the_layers_of_every_small_state():
    # the relation comes from the pair-set oracle, not from _layer_rows
    counts = {}
    for n in range(1, 6):
        u = small_universe(n)
        counts[n] = 0
        for lf in all_belief_states(u):
            blocks = [(b.worlds, b.connected) for b in lf.blocks]
            b = BeliefState(relation(u, layered_pairs(blocks)))
            assert b.blocks == tuple((u.mask(w), c) for w, c in blocks)
            assert to_layers(b) == lf
            counts[n] += 1
    assert counts == {1: 2, 2: 10, 3: 74, 4: 730, 5: 9002}


def test_class_flags_of_a_state_read_from_its_blocks():
    for n in range(1, 6):
        u = small_universe(n)
        for lf in all_belief_states(u):
            b = from_layers(lf)
            flags = classify_class(b)
            assert flags == classify_class(b.relation)
            if n <= 4:
                o = properties_oracle(b.relation)
                assert dataclasses.astuple(flags) == (
                    o["modular"] and o["transitive"],
                    o["total"] and o["transitive"],
                    o["modular"] and o["transitive"] and o["irreflexive"],
                    o["total"] and o["quasi_transitive"],
                    o["asymmetric"] and o["transitive"],
                )


def test_conditional_read_from_blocks_matches_oracle_on_every_subset():
    # One variable per world, true there alone, so that a disjunction of
    # variables selects any set of worlds. q matters only through its
    # meet with the choice set, so no q-worlds, each single world and
    # every world cover the homogeneous and the mixed cases.
    for n in range(1, 5):
        u = small_universe(n)
        pu = one_hot_universe(u)
        names = pu.variables
        subsets = [frozenset(), *nonempty_subsets(u.worlds)]
        formula = {ws: parse_formula(" | ".join(names[u.index(w)] for w in ws) or "false") for ws in subsets}
        q_sets = [ws for ws in subsets if len(ws) <= 1] + [subsets[-1]]
        for lf in all_belief_states(u):
            b = from_layers(lf)
            for p_worlds in subsets[1:]:
                for q_worlds in q_sets:
                    status = evaluate_conditional(b, formula[p_worlds], formula[q_worlds], pu)
                    got = (status.bel, status.disbel, status.agn, status.con, status.choice)
                    assert got == conditional_oracle(b.relation, p_worlds, q_worlds)


def one_hot_universe(u):
    """One variable per world, true there alone."""
    names = tuple(w.upper() for w in u.worlds)
    one_hot = tuple((w, tuple(i == j for j in range(len(u)))) for i, w in enumerate(u.worlds))
    return PropUniverse(names, u, one_hot)


def test_to_layers_of_an_invalid_state_raises_the_witness_error():
    # Every relation over 1-3 worlds: a wrapped non-belief-state raises,
    # at each reader, the error and witness from_relation raises; a
    # wrapped belief state is classified as its relation is.
    true = parse_formula("true")
    readers = (
        to_layers,
        classify_class,
        lambda b: evaluate_conditional(b, true, true, one_hot_universe(b.universe)),
    )
    invalid = 0
    for n in (1, 2, 3):
        u = small_universe(n)
        for r in all_relations(u):
            if modular_oracle(r) and transitive_oracle(r):
                assert classify_class(BeliefState(r)) == classify_class(r)
                continue
            invalid += 1
            with pytest.raises((NotModularError, NotTransitiveError)) as expected:
                from_relation(r)
            for read in readers:
                with pytest.raises(type(expected.value)) as exc:
                    read(BeliefState(r))
                assert exc.value.witness == expected.value.witness
    assert invalid == 530 - 2 - 10 - 74
    with pytest.raises(NotModularError) as exc:
        to_layers(BeliefState(pairs_over(U3, ("a", "b"))))
    assert exc.value.witness == ("a", "b", "c")
    r = pairs_over(U3, ("a", "b"), ("b", "a"), ("a", "c"), ("b", "c"))
    with pytest.raises(NotTransitiveError) as exc:
        to_layers(BeliefState(r))
    assert exc.value.witness == first_transitivity_witness(r)


def test_classify_class_examples():
    empty = relation(U3)
    flags = classify_class(empty)
    assert flags.in_b and not flags.in_q
    near_full = relation(
        U3, [(x, y) for x in "abc" for y in "abc" if (x, y) != ("b", "a")]
    )
    flags = classify_class(near_full)
    assert flags.in_q and not flags.in_b
    total_preorder = from_layers(
        LayeredForm(U3, (Block(frozenset("ab"), True), Block(frozenset("c"), True)))
    ).relation
    flags = classify_class(total_preorder)
    assert flags.in_t and flags.in_b and flags.in_q


def test_class_intersections_at_two_worlds():
    b = t = q = qs = ts = 0
    for r in all_relations(U2):
        flags = classify_class(r)
        b += flags.in_b
        t += flags.in_t
        q += flags.in_q
        qs += flags.in_q_strict
        ts += flags.in_t_strict
        assert (flags.in_q and flags.in_b) == flags.in_t
        assert (flags.in_q_strict and flags.in_b) == flags.in_t_strict
    assert (b, t, q, qs, ts) == (10, 3, 3, 3, 3)


def test_in_q_strict_search_matches_asymmetric_transitive_criterion():
    # at |W| <= 3 the exhaustive search over total quasi-transitive
    # relations, the asymmetric-and-transitive criterion read from the
    # pair-set definitions, and in_q_strict all pick the same relations
    for n in (1, 2, 3):
        u = small_universe(n)
        searched = set()
        for r in all_relations(u):
            flags = properties_oracle(r)
            if flags["total"] and flags["quasi_transitive"]:
                searched.add(strict_version(r).pairs)
        for r in all_relations(u):
            flags = properties_oracle(r)
            criterion = flags["asymmetric"] and flags["transitive"]
            assert (r.pairs in searched) == criterion
            assert classify_class(r).in_q_strict == criterion


def test_in_q_strict_matches_completion_oracle_above_three_worlds():
    # Q< membership is closed-form at every size; the oracle builds the
    # one possible total quasi-transitive relation with strict part r
    rng = random.Random(641)
    members = non_members = 0
    for _ in range(300):
        u = small_universe(rng.randint(4, 8))
        ws = u.worlds
        order = random_strict_order(rng, u, rng.choice((0.1, 0.3, 0.6)))
        x, y = rng.choice(sorted(order)) if order else (ws[0], ws[1])
        w = rng.choice(ws)
        density = rng.choice((0.05, 0.15, 0.4))
        candidates = (
            order,
            order | {(y, x)},
            order | {(w, w)},
            frozenset((a, b) for a in ws for b in ws if rng.random() < density),
        )
        for pairs in candidates:
            r = relation(u, pairs)
            expected = q_strict_oracle(r)
            assert classify_class(r).in_q_strict == expected
            members += expected
            non_members += not expected
    assert members > 300 and non_members > 600


def test_property_flags_match_pair_oracles_above_three_worlds():
    rng = random.Random(653)
    values = set()
    kinds = set()
    for _ in range(400):
        u = small_universe(rng.randint(4, 9))
        ws = u.worlds
        kind = rng.randrange(3)
        if kind == 0:
            density = rng.choice((0.05, 0.15, 0.3, 0.6, 0.9))
            pairs = {(a, b) for a in ws for b in ws if rng.random() < density}
        elif kind == 1:
            pairs = set(random_strict_order(rng, u, rng.choice((0.2, 0.5))))
        else:
            pairs = set(random_state(rng, u).relation.pairs)
        # a few random flips break or keep transitivity and acyclicity
        for _ in range(rng.choice((0, 0, 1, 2))):
            pairs ^= {(rng.choice(ws), rng.choice(ws))}
        r = relation(u, pairs)
        flags = dataclasses.asdict(classify_properties(r))
        assert flags == properties_oracle(r)
        values.update(flags.items())
        kinds.add((flags["quasi_transitive"], flags["acyclic"]))
    # every flag takes both values; quasi-transitive relations occur, and
    # cyclic and acyclic ones that are not
    assert len(values) == 2 * len(flags)
    assert kinds == {(True, True), (False, True), (False, False)}


def test_agnosticism_transitive_iff_modular():
    # over transitive relations only, both directions
    for r in all_relations(U3):
        flags = classify_properties(r)
        if not flags.transitive:
            continue
        agn = relation(
            U3,
            (
                (x, y)
                for x in U3.worlds
                for y in U3.worlds
                if not r.has(x, y) and not r.has(y, x)
            ),
        )
        agn_transitive = classify_properties(agn).transitive
        assert agn_transitive == flags.modular


def test_total_quasi_transitive_intransitive_has_intransitive_indifference():
    for r in all_relations(U3):
        flags = classify_properties(r)
        if flags.total and flags.quasi_transitive and not flags.transitive:
            sym = relation(U3, ((x, y) for (x, y) in r.pairs if r.has(y, x)))
            assert not classify_properties(sym).transitive


ROBOT_LAYERS = (
    Block(frozenset({"F.D"}), False),
    Block(frozenset({"F.!D", "!F.D"}), False),
    Block(frozenset({"!F.!D"}), False),
)


def robot_state(middle_connected=False):
    pu = generate_universe(["F", "D"])
    blocks = list(ROBOT_LAYERS)
    if middle_connected:
        blocks[1] = Block(blocks[1].worlds, True)
    return pu, from_layers(LayeredForm(pu.universe, tuple(blocks)))


def test_conditional_belief():
    pu, b = robot_state()
    status = evaluate_conditional(b, parse_formula("true"), parse_formula("F & D"), pu)
    assert status.bel and not status.disbel and not status.agn
    assert status.choice == {"F.D"}


def test_conditional_agnosticism():
    pu, b = robot_state()
    status = evaluate_conditional(
        b, parse_formula("!(F & D)"), parse_formula("D"), pu
    )
    assert status.agn and not status.bel and not status.disbel and not status.con
    assert status.choice == {"F.!D", "!F.D"}


def test_conditional_conflict():
    pu, b = robot_state(middle_connected=True)
    status = evaluate_conditional(
        b, parse_formula("!(F & D)"), parse_formula("D"), pu
    )
    assert status.con and not status.agn
    assert status.choice == {"F.!D", "!F.D"}


def test_conditional_vacuous():
    pu, b = robot_state()
    with pytest.raises(VacuousConditionError):
        evaluate_conditional(b, parse_formula("F & !F"), parse_formula("D"), pu)


def test_conditional_flags_never_contradict():
    rng = random.Random(11)
    pu = generate_universe(["F", "D", "G"])
    formulas = [
        parse_formula(t)
        for t in ("true", "F", "D | G", "!F", "F -> D", "G <-> D", "F & !G")
    ]
    for _ in range(200):
        b = from_layers(random_layered(rng, pu.universe))
        p = rng.choice(formulas)
        q = rng.choice(formulas)
        try:
            status = evaluate_conditional(b, p, q, pu)
        except VacuousConditionError:
            continue
        assert status.choice
        if status.agn:
            assert not status.con and not status.bel and not status.disbel
        assert not (status.bel and status.disbel)
        assert status.bel or status.disbel or status.agn or status.con
        if classify_properties(b.relation).acyclic:
            # homogeneous choice sets settle the query one way; mixed ones
            # are never singletons
            assert not (status.agn and status.con)
            if status.bel or status.disbel:
                assert sum((status.bel, status.disbel, status.agn)) == 1
            else:
                assert len(status.choice) >= 2


def test_witnesses_are_the_first_triples_in_pair_order():
    # Random relations are mostly not modular; unions of two belief states
    # are modular and often intransitive; single states pass; a state with
    # one pair dropped can fail either way.
    rng = random.Random(303)
    kinds = {"not modular": 0, "not transitive": 0, "valid": 0}
    for i in range(400):
        u = small_universe(rng.randint(2, 5))
        shape = i % 4
        if shape == 0:
            cells = [(x, y) for x in u.worlds for y in u.worlds]
            r = relation(u, (c for c in cells if rng.random() < 0.5))
        elif shape == 1:
            a, b = random_state(rng, u).relation, random_state(rng, u).relation
            r = relation(u, a.pairs | b.pairs)
        elif shape == 2:
            r = random_state(rng, u).relation
        else:
            pairs = sorted(random_state(rng, u).relation.pairs)
            if pairs:
                pairs.pop(rng.randrange(len(pairs)))
            r = relation(u, pairs)
        modular_witness = first_modularity_witness(r)
        transitive_witness = first_transitivity_witness(r)
        if modular_witness is not None:
            with pytest.raises(NotModularError) as exc:
                from_relation(r)
            assert exc.value.witness == modular_witness
            kinds["not modular"] += 1
        elif transitive_witness is not None:
            with pytest.raises(NotTransitiveError) as exc:
                from_relation(r)
            assert exc.value.witness == transitive_witness
            kinds["not transitive"] += 1
        else:
            assert from_relation(r).relation == r
            kinds["valid"] += 1
    assert min(kinds.values()) >= 30, kinds


def test_conditional_matches_per_world_oracle_on_aliased_universes():
    rng = random.Random(4113)
    vacuous = invalid = 0
    for case in range(400):
        pu = aliased_prop_universe(rng, ("F", "D", "G", "H")[: 2 + case % 3])
        u = pu.universe
        if case % 5 == 4:
            # arbitrary relations too, cyclic ones included: one the
            # oracles reject raises its witness error once p and q are read
            cells = [(x, y) for x in u.worlds for y in u.worlds]
            b = BeliefState(relation(u, (c for c in cells if rng.random() < 0.3)))
        else:
            b = from_layers(random_layered(rng, u))
        p = random_formula(rng, pu.variables, 4)
        q = random_formula(rng, pu.variables, 4)
        p_worlds = models_oracle(pu, p)
        if not p_worlds:
            vacuous += 1
            with pytest.raises(VacuousConditionError):
                evaluate_conditional(b, p, q, pu)
            continue
        if not (modular_oracle(b.relation) and transitive_oracle(b.relation)):
            invalid += 1
            witness = first_modularity_witness(b.relation)
            error = NotModularError if witness else NotTransitiveError
            with pytest.raises(error) as exc:
                evaluate_conditional(b, p, q, pu)
            assert exc.value.witness == (witness or first_transitivity_witness(b.relation))
            continue
        status = evaluate_conditional(b, p, q, pu)
        got = (status.bel, status.disbel, status.agn, status.con, status.choice)
        assert got == conditional_oracle(b.relation, p_worlds, models_oracle(pu, q))
    assert 10 < vacuous < 100 and invalid > 40


def test_conditional_error_order():
    pu, b = robot_state()
    other = generate_universe(["F", "G"])
    # 1. a universe mismatch comes first, before any formula is read
    with pytest.raises(ValueError) as exc:
        evaluate_conditional(b, parse_formula("Z"), parse_formula("Z"), other)
    assert type(exc.value) is ValueError
    # 2. an undeclared variable in p, even when p is also unsatisfiable
    with pytest.raises(UndeclaredVariableError, match="Z$"):
        evaluate_conditional(b, parse_formula("false & Z"), parse_formula("Y"), pu)
    # 3. a vacuous condition, before q is read
    with pytest.raises(VacuousConditionError):
        evaluate_conditional(b, parse_formula("F & !F"), parse_formula("Y"), pu)
    # 4. an undeclared variable in q
    with pytest.raises(UndeclaredVariableError, match="Y$"):
        evaluate_conditional(b, parse_formula("F"), parse_formula("Y"), pu)
