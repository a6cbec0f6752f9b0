import pathlib
import random

import pytest

from belieffusion import (
    Agent,
    Profile,
    SimConfig,
    SplitMix64,
    Topology,
    TopologyError,
    from_relation,
    fuse,
    global_reference,
    induced_state,
    parse_scenario,
    relation,
    run_simulation,
    universe,
)
from helpers import random_profile, simulation_oracle, small_universe

U3 = universe("a", "b", "c")
U2 = universe("a", "b")


def example_agents():
    s0 = from_relation(relation(U3, [("b", "a"), ("b", "c")]))
    s12 = from_relation(relation(U3, [("a", "b"), ("c", "b")]))
    from belieffusion import Source

    a1 = Agent("A1p", Profile(U3, (Source("s0", 1, s0), Source("s2", 2, s12))))
    a2 = Agent("A2p", Profile(U3, (Source("s1", 1, s12), Source("s2", 2, s12))))
    return [a1, a2]


def random_agents(rng, n_agents):
    u = small_universe(rng.randint(2, 5))
    agents = []
    for i in range(n_agents):
        agents.append(Agent(f"A{i}", random_profile(rng, u, max_sources=3, prefix=f"a{i}s")))
    return agents


def test_splitmix64_stream_is_fixed():
    rng = SplitMix64(42)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = SplitMix64(42)
    assert [rng2.next_u64() for _ in range(3)] == first
    assert SplitMix64(43).next_u64() != first[0]
    assert all(0.0 <= SplitMix64(i).next_unit() < 1.0 for i in range(100))


def test_splitmix64_reference_values():
    # frozen reference stream for seed 0 (documented state transition)
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_topologies():
    ids = ["A", "B", "C", "D"]
    assert Topology.complete().edge_list(ids) == [
        ("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D"),
    ]
    assert Topology.ring().edge_list(ids) == [
        ("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"),
    ]
    assert Topology.ring().edge_list(["A", "B"]) == [("A", "B")]
    assert Topology.ring().edge_list(["A"]) == []
    assert Topology.star("B").edge_list(ids) == [("B", "A"), ("B", "C"), ("B", "D")]
    assert Topology.explicit([("A", "C")]).edge_list(ids) == [("A", "C")]
    with pytest.raises(TopologyError, match="^unknown agent id 'Z'$"):
        Topology.star("Z").edge_list(ids)
    with pytest.raises(TopologyError, match="^unknown agent id 'Z'$"):
        Topology.explicit([("A", "Z")]).edge_list(ids)
    with pytest.raises(TopologyError):
        Topology.explicit([("A", "A")]).edge_list(ids)
    with pytest.raises(TopologyError, match="^unknown topology kind 'mesh'$"):
        Topology("mesh").edge_list(ids)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(max_rounds=0)
    with pytest.raises(ValueError):
        SimConfig(drop_prob=1.5)
    with pytest.raises(ValueError, match=r"^duplication_prob must lie in \[0, 1\]$"):
        SimConfig(duplication_prob=1.5)
    with pytest.raises(ValueError):
        run_simulation([], Topology.complete(), SimConfig())
    a = example_agents()[0]
    with pytest.raises(ValueError, match="^agent ids must be unique$"):
        run_simulation([a, a], Topology.complete(), SimConfig())


def test_two_agents_converge_to_global():
    agents = example_agents()
    report = run_simulation(agents, Topology.complete(), SimConfig(seed=1, max_rounds=5))
    assert report.converged
    assert report.rounds_executed <= 2
    assert report.matches_global
    reference = global_reference(agents)
    assert all(state == reference for state in report.final_states.values())
    assert induced_state(reference).relation.pairs == {("a", "b"), ("c", "b")}


def test_full_duplication_changes_nothing():
    agents = example_agents()
    plain = run_simulation(agents, Topology.complete(), SimConfig(seed=3, max_rounds=6))
    doubled = run_simulation(
        agents, Topology.complete(), SimConfig(seed=3, max_rounds=6, duplication_prob=1.0)
    )
    assert plain.final_states == doubled.final_states
    assert doubled.message_count > plain.message_count


def test_no_edges_keeps_initial_states():
    from belieffusion import Source

    hi = Source("s1", 2, from_relation(relation(U2, [("a", "b")])))
    lo = Source("s2", 1, from_relation(relation(U2, [("b", "a")])))
    agents = [Agent("A1", Profile(U2, (hi,))), Agent("A2", Profile(U2, (lo,)))]
    report = run_simulation(agents, Topology.explicit([]), SimConfig(seed=5))
    assert report.converged and report.rounds_executed == 1
    assert report.message_count == 0
    for agent in agents:
        assert report.final_states[agent.id] == agent.pedigree()
    assert not report.matches_global  # A2 never learns s1's higher-ranked opinion


def test_dropping_everything_delivers_nothing():
    agents = example_agents()
    report = run_simulation(
        agents, Topology.complete(), SimConfig(seed=7, max_rounds=4, drop_prob=1.0)
    )
    assert report.message_count == 0
    assert not report.converged and report.rounds_executed == 4


def test_identical_runs_are_identical():
    agents = example_agents()
    cfg = SimConfig(seed=99, max_rounds=8, duplication_prob=0.5, drop_prob=0.3)
    a = run_simulation(agents, Topology.complete(), cfg)
    b = run_simulation(agents, Topology.complete(), cfg)
    assert a == b


def test_seed_invariance_of_final_states():
    rng = random.Random(2024)
    for _ in range(10):
        agents = random_agents(rng, rng.randint(2, 4))
        results = []
        for seed in (1, 2, 3):
            report = run_simulation(
                agents,
                Topology.complete(),
                SimConfig(seed=seed, max_rounds=len(agents) + 1),
            )
            assert report.matches_global
            results.append(report.final_states)
        assert results[0] == results[1] == results[2]


def test_ring_converges_within_double_rounds():
    rng = random.Random(2025)
    for _ in range(10):
        agents = random_agents(rng, rng.randint(2, 5))
        report = run_simulation(
            agents, Topology.ring(), SimConfig(seed=11, max_rounds=2 * len(agents))
        )
        assert report.matches_global


def test_replay_never_changes_converged_state():
    from belieffusion import fuse

    agents = example_agents()
    report = run_simulation(agents, Topology.complete(), SimConfig(seed=13, max_rounds=6))
    assert report.converged
    states = dict(report.final_states)
    for sender in agents:
        for receiver in agents:
            merged = fuse([states[receiver.id], states[sender.id]])
            assert merged == states[receiver.id]


def test_lossy_ring_reports_convergence_only_on_agreement():
    path = pathlib.Path(__file__).parent.parent / "scenarios" / "telemetry.scn"
    agents = parse_scenario(path.read_text()).agents
    report = run_simulation(agents, Topology.ring(), SimConfig(seed=0, max_rounds=50, drop_prob=0.5))
    assert report.converged and report.matches_global
    rng = random.Random(4115)
    runs = 0
    for seed in range(150):
        agents = random_agents(rng, 4)
        drop = (0.1, 0.2, 0.3)[seed % 3]
        report = run_simulation(agents, Topology.ring(), SimConfig(seed=seed, max_rounds=30, drop_prob=drop))
        runs += report.converged
        assert report.matches_global or not report.converged, (seed, drop)
    assert runs > 50


def test_heavy_loss_rings_converge_once_every_edge_delivered():
    rng = random.Random(5005)
    runs = 0
    for seed in range(200):
        agents = random_agents(rng, 4)
        report = run_simulation(agents, Topology.ring(), SimConfig(seed=seed, max_rounds=50, drop_prob=0.5))
        runs += report.converged
        assert report.matches_global or not report.converged, seed
    assert runs >= 190


def random_topology(rng, ids):
    kind = rng.choice(("ring", "complete", "star", "explicit"))
    if kind == "star":
        return Topology.star(rng.choice(ids))
    if kind != "explicit":
        return getattr(Topology, kind)()
    edges = [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 2 * len(ids)))]
    if edges:
        a, b = rng.choice(edges)
        edges += [(a, b), (b, a)]
    rng.shuffle(edges)
    return Topology.explicit(edges)


def test_simulator_matches_reference_loop():
    rng = random.Random(6006)
    converged = 0
    for i in range(320):
        agents = random_agents(rng, rng.randint(2, 5))
        topology = random_topology(rng, [a.id for a in agents])
        config = SimConfig(
            seed=i,
            max_rounds=rng.randint(1, 20),
            duplication_prob=(0.0, 0.25, 0.5, 1.0)[i % 4],
            drop_prob=(0.0, 0.1, 0.3, 0.5)[i // 4 % 4],
        )
        report = run_simulation(agents, topology, config)
        assert report == simulation_oracle(agents, topology, config), (i, topology, config)
        converged += report.converged
    assert 0 < converged < 320


def test_duplicates_and_equal_states_are_never_fused(monkeypatch):
    import belieffusion.simulation as simulation

    calls = []

    def counting_fuse(states, u=None):
        assert states[0] != states[1]
        calls.append(1)
        return fuse(states, u)

    monkeypatch.setattr(simulation, "fuse", counting_fuse)
    rng = random.Random(7007)
    total = 0
    for seed in range(20):
        agents = random_agents(rng, rng.randint(2, 5))
        topology = (Topology.ring(), Topology.complete())[seed % 2]
        reports, counts = [], []
        for dup in (0.0, 1.0):
            calls.clear()
            reports.append(run_simulation(agents, topology, SimConfig(seed=seed, max_rounds=12, duplication_prob=dup)))
            counts.append(len(calls))
        single, double = reports
        assert counts[0] == counts[1]
        total += counts[0]
        assert double.message_count == 2 * single.message_count
        assert double.rounds_executed == single.rounds_executed
        assert double.final_states == single.final_states
        assert single.converged and double.converged
    assert total > 0
