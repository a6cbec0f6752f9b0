"""Acceptance gate: worked-example reproduction plus the property suites.

Each check prints one PASS/FAIL line (run with ``pytest -s`` to watch them
stream). Expected values are exact; the randomized suites run at least
1000 cases each from fixed seeds and allow zero failures.
"""

import functools
import random

from belieffusion import (
    Agent,
    Block,
    LayeredForm,
    NotModularError,
    NotTransitiveError,
    ParseError,
    PedigreedBeliefState,
    Profile,
    SimConfig,
    Source,
    Topology,
    agr,
    agr_rf,
    agr_star,
    agr_un,
    classify_class,
    classify_properties,
    format_scenario,
    from_layers,
    from_relation,
    fuse,
    fuse_equal_rank,
    global_reference,
    induced_state,
    parse_pedigree,
    parse_scenario,
    pedigree_from_sources,
    relation,
    restrict,
    run_simulation,
    serialize_pedigree,
    strict_version,
    to_layers,
    transitive_closure,
    union_all,
    union_profile,
    universe,
)
from belieffusion import scenario
from helpers import (
    all_relations,
    choice_oracle,
    nonempty_subsets,
    random_layered,
    random_profile,
    random_state,
    small_universe,
)

CASES = 1000

U3 = universe("a", "b", "c")
U2 = universe("a", "b")


def reported(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {label}")
                raise
            print(f"PASS {label}")

        return wrapper

    return decorate


def src(sid, rank, u, *pairs):
    return Source(sid, rank, from_relation(relation(u, pairs)))


def example4_sources():
    s0 = src("s0", 1, U3, ("b", "a"), ("b", "c"))
    s1 = src("s1", 1, U3, ("a", "b"), ("c", "b"))
    s2 = src("s2", 2, U3, ("a", "b"), ("c", "b"))
    return s0, s1, s2


# --- criterion 1: worked-example reproduction --------------------------------


@reported("criterion 1a: AGR* and AGR on the three-source profile")
def test_criterion_1a_aggregation_examples():
    s0, s1, s2 = example4_sources()
    profile = Profile(U3, (s0, s1, s2))
    assert agr_star(profile).relation.pairs == {
        ("a", "b"), ("c", "b"), ("a", "c"), ("c", "a"),
        ("a", "a"), ("b", "b"), ("c", "c"),
    }
    assert agr(profile).relation.pairs == {("a", "b"), ("c", "b")}


@reported("criterion 1b: two-agent fusion follows the higher rank")
def test_criterion_1b_two_agent_fusion():
    for hi_rank, lo_rank, expected in ((2, 1, ("a", "b")), (1, 2, ("b", "a"))):
        a1 = Agent("A1", Profile(U2, (src("s1", hi_rank, U2, ("a", "b")),)))
        a2 = Agent("A2", Profile(U2, (src("s2", lo_rank, U2, ("b", "a")),)))
        fused = fuse([a1.pedigree(), a2.pedigree()])
        assert induced_state(fused).relation.pairs == {expected}


@reported("criterion 1c: fused pedigree example and AGR* pedigree regression")
def test_criterion_1c_final_example():
    s0, s1, s2 = example4_sources()
    a1p = Agent("A1p", Profile(U3, (s0, s2)))
    a2p = Agent("A2p", Profile(U3, (s1, s2)))
    fused = fuse([a1p.pedigree(), a2p.pedigree()])
    assert fused.entries == (("a", "b", 2), ("c", "b", 2))
    assert induced_state(fused).relation.pairs == {("a", "b"), ("c", "b")}

    # AGR*-based pedigrees cannot tell {A1, A2} and {A1p, A2p} apart even
    # though the union aggregations differ
    def star_pedigree(profile):
        rel = agr_star(profile).relation
        return PedigreedBeliefState(
            profile.universe,
            tuple(
                (x, y, max(s.rank for s in profile.sources if s.asserts(x, y)))
                for (x, y) in rel.pairs
            ),
        )

    only_s2 = Profile(U3, (s2,))
    pedigrees = [
        star_pedigree(p)
        for p in (only_s2, only_s2, a1p.informants, a2p.informants)
    ]
    assert len(set(pedigrees)) == 1
    assert agr_star(only_s2).relation.pairs == {("a", "b"), ("c", "b")}
    assert agr_star(Profile(U3, (s0, s1, s2))).relation.pairs == {
        ("a", "b"), ("c", "b"), ("a", "c"), ("c", "a"),
        ("a", "a"), ("b", "b"), ("c", "c"),
    }


# --- criterion 2: exhaustive enumeration at |W| <= 3 --------------------------


@reported("criterion 2: exhaustive class structure at |W| <= 3")
def test_criterion_2_exhaustive_enumeration():
    b_counts = {}
    for n in (1, 2, 3):
        u = small_universe(n)
        b_members = set()
        t_members = set()
        q_members = set()
        q_strict = set()
        q_strict_flagged = set()
        for r in all_relations(u):
            flags = classify_properties(r)
            # closure facts and the property-implication chain
            assert not flags.transitive or flags.quasi_transitive
            assert not flags.quasi_transitive or flags.acyclic
            closed = transitive_closure(r)
            if flags.modular:
                assert classify_properties(closed).modular
            assert transitive_closure(closed) == closed
            # choice sets: a choice function exists iff acyclic
            has_choice_fn = all(
                choice_oracle(r, xs) for xs in nonempty_subsets(u.worlds)
            )
            assert has_choice_fn == flags.acyclic
            if flags.modular and flags.transitive:
                b_members.add(r.pairs)
                state = from_relation(r)
                assert from_layers(to_layers(state)) == state
            if flags.total and flags.transitive:
                t_members.add(r.pairs)
            if flags.total and flags.quasi_transitive:
                q_members.add(r.pairs)
                q_strict.add(strict_version(r).pairs)
            cls = classify_class(r)
            assert cls.in_b == (flags.modular and flags.transitive)
            assert cls.in_t == (flags.total and flags.transitive)
            assert cls.in_q == (flags.total and flags.quasi_transitive)
            if cls.in_q_strict:
                q_strict_flagged.add(r.pairs)
        b_counts[n] = len(b_members)
        # in_q_strict holds exactly on the strict parts of the total
        # quasi-transitive relations enumerated above
        assert q_strict_flagged == q_strict
        # the class intersections from the comparison propositions
        assert q_members & b_members == t_members
        irreflexive_b = {
            p for p in b_members if not any((w, w) in p for w in u.worlds)
        }
        reflexive_b = {
            p for p in b_members if all((w, w) in p for w in u.worlds)
        }
        t_strict = {
            strict_version(relation(u, p)).pairs for p in t_members
        }
        assert irreflexive_b == t_strict
        assert reflexive_b == t_members
        assert q_strict & b_members == t_strict
        if n == 2:
            assert len(q_members) == 3 and len(q_strict) == 3
    assert b_counts == {1: 2, 2: 10, 3: 74}


# --- criterion 3: randomized property suites ----------------------------------


@reported("criterion 3.1: aggregation outputs stay in their classes")
def test_criterion_3_output_classes():
    rng = random.Random(301)
    for _ in range(CASES):
        u = small_universe(rng.randint(1, 6))
        p = random_profile(rng, u)
        for op in (agr_un, agr_star, agr):
            flags = classify_properties(op(p).relation)
            assert flags.modular and flags.transitive
        assert classify_properties(agr_rf(p)).modular


@reported("criterion 3.2: refinement is a belief state under strict ranks")
def test_criterion_3_refinement_strict_ranks():
    rng = random.Random(302)
    for _ in range(CASES):
        u = small_universe(rng.randint(1, 5))
        p = random_profile(rng, u, distinct_ranks=True)
        flags = classify_properties(agr_rf(p))
        assert flags.modular and flags.transitive


@reported("criterion 3.3: special-case equalities (equal / strict ranks)")
def test_criterion_3_special_cases():
    rng = random.Random(303)
    for _ in range(CASES):
        u = small_universe(rng.randint(1, 5))
        equal = random_profile(rng, u, equal_ranks=True)
        assert agr(equal).relation == agr_un(equal).relation
        strict = random_profile(rng, u, distinct_ranks=True)
        assert agr(strict).relation == agr_rf(strict)


@reported("criterion 3.4: modified Pareto principle")
def test_criterion_3_pareto():
    rng = random.Random(304)
    for _ in range(CASES):
        u = small_universe(rng.randint(2, 5))
        p = random_profile(rng, u, min_sources=1)
        out = agr(p).relation
        for x in u.worlds:
            for y in u.worlds:
                if all(s.asserts(x, y) for s in p.sources):
                    assert out.has(x, y)


@reported("criterion 3.5: modified independence of irrelevant alternatives")
def test_criterion_3_iia():
    rng = random.Random(305)
    checked = 0
    attempts = 0
    while checked < CASES:
        attempts += 1
        assert attempts < 20 * CASES
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
        out_l, out_r = agr(left).relation, agr(right).relation
        if (out_l.has(x, y) and out_l.has(y, x)) or (
            out_r.has(x, y) and out_r.has(y, x)
        ):
            continue
        checked += 1
        assert out_l.has(x, y) == out_r.has(x, y)


@reported("criterion 3.6: modified non-dictatorship, constructively")
def test_criterion_3_non_dictatorship():
    rng = random.Random(306)
    for _ in range(CASES):
        u = small_universe(rng.randint(2, 5))
        x, y = rng.sample(u.worlds, 2)
        n = rng.randint(2, 5)
        would_be = rng.randrange(n)
        opponent = rng.choice([i for i in range(n) if i != would_be])
        sources = []
        for i in range(n):
            if i == would_be:
                top, rest = x, frozenset(u.worlds) - {x}
            elif i == opponent:
                top, rest = y, frozenset(u.worlds) - {y}
            else:
                sources.append(Source(f"s{i}", 1, random_state(rng, u)))
                continue
            layers = LayeredForm(
                u, (Block(frozenset({top}), False), Block(rest, False))
            )
            sources.append(Source(f"s{i}", 1, from_layers(layers)))
        p = Profile(u, tuple(sources))
        dictator = p.sources[would_be]
        assert dictator.asserts(x, y) and not dictator.asserts(y, x)
        out = agr(p).relation
        assert out.has(x, y) and out.has(y, x)


@reported("criterion 3.7: closure additions are conflict pairs")
def test_criterion_3_closure_additions():
    rng = random.Random(307)
    for _ in range(CASES):
        u = small_universe(rng.randint(2, 5))
        p = random_profile(rng, u)
        base = agr_rf(p)
        closed = agr(p).relation
        for x, y in closed.pairs - base.pairs:
            assert closed.has(x, y) and closed.has(y, x)


@reported("criterion 3.8: closing before a union never adds information")
def test_criterion_3_redundant_closure():
    rng = random.Random(308)
    for _ in range(CASES):
        u = small_universe(rng.randint(1, 6))
        rels = [
            relation(
                u,
                ((x, y) for x in u.worlds for y in u.worlds if rng.random() < 0.25),
            )
            for _ in range(rng.randint(0, 4))
        ]
        assert transitive_closure(
            union_all([transitive_closure(r) for r in rels], u)
        ) == transitive_closure(union_all(rels, u))


@reported("criterion 3.9: rank labels characterize their support exactly")
def test_criterion_3_label_characterization():
    rng = random.Random(309)
    for _ in range(CASES):
        u = small_universe(rng.randint(2, 4))
        p = random_profile(rng, u, min_sources=1, max_sources=4)
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


@reported("criterion 3.10: fusing agents equals aggregating their union")
def test_criterion_3_fusion_theorem():
    rng = random.Random(310)
    for _ in range(CASES):
        u = small_universe(rng.randint(2, 5))
        pool = list(random_profile(rng, u, max_sources=6, min_sources=1).sources)
        agents = []
        for i in range(rng.randint(1, 4)):
            take = [s for s in pool if rng.random() < 0.6]
            agents.append(Agent(f"A{i}", Profile(u, tuple(take))))
        fused = fuse([a.pedigree() for a in agents], u)
        assert fused == pedigree_from_sources(union_profile(agents))


@reported("criterion 3.11: equal-rank fusion shortcut")
def test_criterion_3_equal_rank_shortcut():
    rng = random.Random(311)
    for _ in range(CASES):
        u = small_universe(rng.randint(2, 5))
        shared = rng.randint(0, 3)
        agents = []
        for i in range(rng.randint(1, 4)):
            sources = tuple(
                Source(f"a{i}s{j}", shared, random_state(rng, u))
                for j in range(rng.randint(0, 3))
            )
            agents.append(Agent(f"A{i}", Profile(u, sources)))
        via_pedigrees = induced_state(fuse([a.pedigree() for a in agents], u))
        assert via_pedigrees == fuse_equal_rank([a.induced() for a in agents])


@reported("criterion 3.12: strictly-ranked pedigrees are already transitive")
def test_criterion_3_strict_ranks_need_no_closure():
    rng = random.Random(312)
    for _ in range(CASES):
        u = small_universe(rng.randint(1, 5))
        p = random_profile(rng, u, distinct_ranks=True)
        rel = pedigree_from_sources(p).relation()
        assert transitive_closure(rel) == rel


@reported("criterion 3.13: fusion is idempotent, commutative, associative")
def test_criterion_3_fusion_algebra():
    rng = random.Random(313)
    for _ in range(CASES):
        u = small_universe(rng.randint(2, 4))
        trio = []
        for _ in range(3):
            if rng.random() < 0.5:
                trio.append(pedigree_from_sources(random_profile(rng, u)))
            else:
                entries = tuple(
                    (x, y, rng.randint(0, 3))
                    for x in u.worlds
                    for y in u.worlds
                    if rng.random() < 0.3
                )
                trio.append(PedigreedBeliefState(u, entries))
        p, q, r = trio
        assert fuse([p, p]) == fuse([p])
        assert fuse([p, q]) == fuse([q, p])
        assert fuse([fuse([p, q]), r]) == fuse([p, fuse([q, r])])


# --- criterion 4: simulator invariance ----------------------------------------


@reported("criterion 4: simulator converges to the global fusion, any seed")
def test_criterion_4_simulator_invariance():
    rng = random.Random(400)
    for scenario_index in range(20):
        u = small_universe(rng.randint(2, 5))
        agents = [
            Agent(f"A{i}", random_profile(rng, u, max_sources=3, prefix=f"a{i}s"))
            for i in range(rng.randint(2, 5))
        ]
        reference = global_reference(agents)
        for topology, budget in (
            (Topology.complete(), len(agents)),
            (Topology.ring(), 2 * len(agents)),
        ):
            for dup in (0.0, 0.5, 1.0):
                finals = []
                for seed in range(1, 6):
                    report = run_simulation(
                        agents,
                        topology,
                        SimConfig(
                            seed=seed,
                            max_rounds=budget,
                            duplication_prob=dup,
                            drop_prob=0.0,
                        ),
                    )
                    assert report.matches_global
                    assert all(
                        state == reference
                        for state in report.final_states.values()
                    )
                    finals.append(report.final_states)
                assert all(f == finals[0] for f in finals)


# --- criterion 5: I/O round-trips and robustness -------------------------------


def _scenario_corpus():
    texts = [
        "worlds a b c\nsource s0 rank 1\n  layers [a c] > [b]\nagent A1 = s0\n",
        "worlds a b c\n"
        "source s0 rank 1\n  pairs b < a, b < c\n"
        "source s1 rank 1\n  pairs a < b, c < b\n"
        "source s2 rank 2\n  pairs a < b, c < b\n"
        "agent A1p = s0 s2\nagent A2p = s1 s2\n",
        "vars F D\nworld ok = F D\nsource st rank 2\n"
        "  layers [!F.D] > [ok !F.!D] > [F.!D]\nagent A = st\n",
        "worlds w1 w2\nsource empty rank 0\nagent lonely =\n",
    ]
    rng = random.Random(500)
    while len(texts) < 20:
        u = small_universe(rng.randint(1, 5))
        lines = ["worlds " + " ".join(u.worlds)]
        ids = []
        for i in range(rng.randint(0, 4)):
            sid = f"s{i}"
            ids.append(sid)
            lines.append(f"source {sid} rank {rng.randint(0, 4)}")
            state = random_state(rng, u)
            pairs = scenario._pair_lines(state.relation)
            if pairs:
                lines.append("  pairs " + ", ".join(pairs))
        for i in range(rng.randint(0, 3)):
            chosen = [s for s in ids if rng.random() < 0.5]
            lines.append(f"agent A{i} = " + " ".join(chosen))
        texts.append("\n".join(lines) + "\n")
    return texts


@reported("criterion 5a: scenario and pedigree round-trips on a 20-file corpus")
def test_criterion_5_round_trips():
    corpus = _scenario_corpus()
    assert len(corpus) >= 20
    for text in corpus:
        s = parse_scenario(text)
        printed = format_scenario(s)
        assert parse_scenario(printed) == s
        assert format_scenario(parse_scenario(printed)) == printed
    rng = random.Random(501)
    for _ in range(20):
        u = small_universe(rng.randint(1, 6))
        entries = tuple(
            (x, y, rng.randint(0, 5))
            for x in u.worlds
            for y in u.worlds
            if rng.random() < 0.3
        )
        pbs = PedigreedBeliefState(u, entries)
        assert parse_pedigree(serialize_pedigree(pbs), u) == pbs


@reported("criterion 5b: 10000-case parser fuzz raises only structured errors")
def test_criterion_5_fuzz():
    rng = random.Random(502)
    u = universe("a", "b")
    structured = (ParseError, NotModularError, NotTransitiveError)
    for _ in range(10_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        text = blob.decode("utf-8", errors="replace")
        for parser in (parse_scenario, lambda t: parse_pedigree(t, u)):
            try:
                parser(text)
            except structured:
                pass
