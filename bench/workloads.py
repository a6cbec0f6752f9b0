"""The three workloads: inputs, program-side set-up, operations, checks.

Each workload is built in three steps:

* ``prepare(seed, workdir)`` generates the inputs and computes every
  expected output with the oracles; none of it is timed;
* ``setup(bf)`` does the program's own set-up from the freshly imported
  package ``bf`` (parse or build the inputs the loop reuses); it is timed
  as ``setup_s``;
* ``round()`` lists one round of operations. ``run()`` of an operation is
  the timed call into the program; ``check(out)`` compares its output with
  the oracle and returns an error message, or None when it is correct.

``release()`` drops what ``setup`` built, so that the next set-up does not
pay for freeing it. ``tracing`` is true during the traced rounds of a
``--trace 1`` run; ``phase_metrics`` counts the untraced rounds only.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import generate
import oracles


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _pair_line(line: str) -> tuple[str, str]:
    x, sep, y = line.partition(" < ")
    if not sep:
        raise ValueError(f"not a pair line: {line!r}")
    return x, y


def _sorted_by(items: list, key: Callable) -> bool:
    return all(key(a) < key(b) for a, b in zip(items, items[1:]))


class Workload:
    program_attrs: tuple[str, ...] = ()
    tracer = None
    tracing = False

    def release(self) -> None:
        for attr in self.program_attrs:
            self.__dict__.pop(attr, None)

    def reset(self) -> None:
        pass

    def phase_metrics(self, busy_s: float) -> dict[str, float]:
        return {}


class CliSessions(Workload):
    """cli-k5: one operation is a session of CLI commands, run in-process."""

    name = "cli-k5"
    commands = ("validate", "aggregate", "query", "fuse", "simulate")
    program_attrs = ("runner", "cli")

    def prepare(self, seed: int, workdir: str) -> None:
        sc = generate.cli_scenario(seed)
        invalid = generate.invalid_scenario(seed)
        self.sc = sc
        self.main_path = os.path.join(workdir, "scenario.scn")
        self.bad_path = os.path.join(workdir, "invalid.scn")
        with open(self.main_path, "w", encoding="utf-8") as fh:
            fh.write(sc.text())
        with open(self.bad_path, "w", encoding="utf-8") as fh:
            fh.write(invalid.scenario.text())
        bad = invalid.scenario.sources[0]
        if oracles.first_modularity_violation(bad.pairs, sc.worlds) != invalid.witness:
            raise RuntimeError("generator and oracle disagree on the invalid source's witness")
        x, y, z = invalid.witness
        self.bad_stderr = f"{self.bad_path}: {bad.id}: not modular: {x} < {y} holds but neither {x} < {z} nor {z} < {y}\n"

        worlds = sc.worlds
        self.key = lambda pair: (sc.index[pair[0]], sc.index[pair[1]])
        self.tokens = {s.id: oracles.class_tokens(s.pairs, worlds) for s in sc.sources}
        self.agr = oracles.closure(oracles.refine(sc.sources), worlds)
        every = {sid for _, sids in sc.agents for sid in sids}
        self.fused = oracles.labelled_refinement(s for s in sc.sources if s.id in every)
        self.fused_induced = oracles.closure(self.fused, worlds)
        # Every session queries the agent with the tied sources and the
        # pairs source, so that sessions cost the same; the formulas vary.
        self.agent = "a1"
        induced = oracles.closure(oracles.refine(sc.source(i) for i in dict(sc.agents)[self.agent]), worlds)
        rng = random.Random(f"cli-k5/queries/{seed}")
        self.queries = []
        while len(self.queries) < 16:
            p = generate.random_formula(rng, sc.variables, 4)
            q = generate.random_formula(rng, sc.variables, 3)
            p_worlds = {w for w in worlds if p.truth(dict(zip(sc.variables, sc.valuation[w])))}
            if not p_worlds:
                continue
            q_worlds = {w for w in worlds if q.truth(dict(zip(sc.variables, sc.valuation[w])))}
            self.queries.append((p.text, q.text, _conditional(induced, p_worlds, q_worlds)))
        self.session = 0
        self.reset()

    def reset(self) -> None:
        self.samples: list[dict[str, float]] = []

    def phase_metrics(self, busy_s: float) -> dict[str, float]:
        """Median latency of each command within a session, in ms."""
        return {f"{c}_ms": statistics.median(t[c] for t in self.samples) * 1e3 for c in self.commands}

    def setup(self, bf) -> None:
        with open(self.main_path, encoding="utf-8") as fh:
            bf.parse_scenario(fh.read())
        from click.testing import CliRunner

        self.runner = CliRunner()
        self.cli = bf.cli

    def _invoke(self, command: str, args: list[str]):
        if not self.tracing:
            return self.runner.invoke(self.cli.main, [command, *args])
        with self.tracer.span(f"cli.{command}"):
            return self.runner.invoke(self.cli.main, [command, *args])

    def round(self) -> list[Op]:
        p, q, expected = self.queries[self.session % len(self.queries)]
        self.session += 1
        calls = [
            ("validate", [self.main_path]),
            ("aggregate", [self.main_path, "--op", "agr"]),
            ("query", [self.main_path, "--agent", self.agent, "--if", p, "--then", q]),
            ("fuse", [self.main_path]),
            ("simulate", [self.main_path, "--topology", "complete"]),
            ("validate", [self.bad_path]),
        ]

        def run():
            results, times = [], {c: 0 for c in self.commands}
            for command, args in calls:
                start = time.perf_counter()
                results.append(self._invoke(command, args))
                times[command] += time.perf_counter() - start
            if not self.tracing:
                self.samples.append(times)
            return results

        def check(results):
            validate, aggregate, query, fuse, simulate, bad = results
            for result, (command, _) in zip(results[:5], calls):
                if result.exit_code != 0 or result.exception is not None:
                    return f"{command} exited {result.exit_code}: {result.output or result.exception!r}"
            return (
                self._check_validate(validate.stdout)
                or self._check_aggregate(aggregate.stdout)
                or self._check_query(query.stdout, expected)
                or self._check_fuse(fuse.stdout)
                or self._check_simulate(simulate.stdout)
                or self._check_rejected(bad)
            )

        return [Op(run, check)]

    def _check_validate(self, out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != len(self.sc.sources):
            return f"validate printed {len(lines)} lines"
        for line, src in zip(lines, self.sc.sources):
            parts = line.split(" ")
            if parts[:2] != ["OK", src.id] or len(parts) != 3:
                return f"validate line {line!r}"
            tokens = set(parts[2].split(",")) - {""}
            expected = self.tokens[src.id]
            # Above 3 worlds Q< may be left out, but never reported wrongly.
            if tokens - {"Q<"} != expected - {"Q<"} or ("Q<" in tokens and "Q<" not in expected):
                return f"validate: {src.id} tokens {sorted(tokens)}, expected {sorted(expected)}"
        return None

    def _check_aggregate(self, out: str) -> str | None:
        lines = out.splitlines()
        if not lines or not lines[-1].startswith("layers: "):
            return "aggregate: no layers line"
        pairs = [_pair_line(line) for line in lines[:-1]]
        if not _sorted_by(pairs, self.key):
            return "aggregate: pairs not in declaration order"
        if set(pairs) != self.agr:
            return f"aggregate: {len(set(pairs) ^ self.agr)} pairs differ from the closed refinement"
        if oracles.layers_relation(lines[-1][len("layers: "):]) != self.agr:
            return "aggregate: layers line does not read back to the relation"
        return None

    def _check_query(self, out: str, expected) -> str | None:
        flags, chosen = expected
        lines = out.splitlines()
        if len(lines) != 2 or not lines[1].startswith("choice:"):
            return f"query printed {lines!r}"
        if set(lines[0].split()) != flags:
            return f"query flags {lines[0]!r}, expected {sorted(flags)}"
        got = lines[1][len("choice:"):].split()
        if got != sorted(chosen, key=self.sc.index.__getitem__):
            return f"query choice {got}, expected {sorted(chosen)}"
        return None

    def _check_fuse(self, out: str) -> str | None:
        lines = out.splitlines()
        if "induced" not in lines or lines[0] != "pedigree":
            return "fuse: missing pedigree or induced section"
        cut = lines.index("induced")
        labelled = {}
        for line in lines[1:cut]:
            pair, sep, rank = line.rpartition(" @ ")
            if not sep:
                return f"fuse: bad pedigree line {line!r}"
            labelled[_pair_line(pair)] = int(rank)
        if not _sorted_by(list(labelled), self.key) or len(labelled) != cut - 1:
            return "fuse: pedigree not in declaration order"
        if labelled != self.fused:
            return "fuse: pedigree differs from the labelled refinement of the agents' sources"
        induced = [_pair_line(line) for line in lines[cut + 1 :]]
        if set(induced) != self.fused_induced or not _sorted_by(induced, self.key):
            return "fuse: induced state differs from the closure of the pedigree"
        return None

    def _check_simulate(self, out: str) -> str | None:
        lines = out.splitlines()
        agents = self.sc.agents
        if len(lines) != 4 + len(agents) or lines[2] != "converged: true" or lines[-1] != "MATCHES_GLOBAL: true":
            return f"simulate: {lines[:3]} {lines[-1:]}"
        for line, (aid, _) in zip(lines[3:-1], agents):
            head, _, body = line.partition(": ")
            if head != f"agent {aid}":
                return f"simulate: line {head!r}"
            if {_pair_line(item) for item in body.split(", ")} != self.fused_induced:
                return f"simulate: agent {aid} does not hold the fused state"
        return None

    def _check_rejected(self, result) -> str | None:
        # ``output`` holds stdout and stderr together under every click 8
        # release, so it must be exactly the error line.
        if result.exit_code != 1 or result.output != self.bad_stderr:
            return f"validate of the invalid source: exit {result.exit_code}, {result.output!r}"
        return None


def _conditional(pairs: frozenset, p_worlds: set, q_worlds: set):
    """Expected (flags, choice set) of ``if p then q`` against a state."""
    chosen = oracles.choice(pairs, p_worlds)
    hits = chosen & q_worlds
    connected = all((x, y) in pairs for x in chosen for y in chosen)
    disconnected = not any((x, y) in pairs for x in chosen for y in chosen)
    flags = set()
    if hits == chosen:
        flags.add("BEL")
    if not hits:
        flags.add("DISBEL")
    if disconnected and hits and hits != chosen:
        flags.add("AGN")
    if connected:
        flags.add("CON")
    return flags, chosen


class RingSimulations(Workload):
    """sim-ring-k5: one operation is one run_simulation over a ring."""

    name = "sim-ring-k5"
    program_attrs = ("agents", "topology", "bf")

    def prepare(self, seed: int, workdir: str) -> None:
        self.sc = generate.sim_scenario(seed)
        self.text = self.sc.text()
        labelled = oracles.labelled_refinement(self.sc.sources)
        self.expected = {(x, y, r) for (x, y), r in labelled.items()}
        self.schedule = random.Random(f"sim-ring-k5/schedule/{seed}")
        self.reset()

    def setup(self, bf) -> None:
        scenario = bf.parse_scenario(self.text)
        self.agents = list(scenario.agents)
        self.topology = bf.Topology.ring()
        self.bf = bf

    def reset(self) -> None:
        self.messages = 0

    def phase_metrics(self, busy_s: float) -> dict[str, float]:
        return {"msgs_per_s": self.messages / busy_s}

    def round(self) -> list[Op]:
        config = self.bf.SimConfig(
            seed=self.schedule.getrandbits(64), max_rounds=40, duplication_prob=0.25, drop_prob=0.0
        )

        def run():
            return self.bf.run_simulation(self.agents, self.topology, config)

        def check(report):
            if not self.tracing:
                self.messages += report.message_count
            if not (report.converged and report.matches_global):
                return f"converged={report.converged} matches_global={report.matches_global}"
            for aid, state in report.final_states.items():
                if set(state.entries) != self.expected:
                    return f"agent {aid} final state differs from the oracle pedigree"
            return None

        return [Op(run, check)]


class ConditionalQueries(Workload):
    """query-k8: one operation parses two formulas and evaluates a
    conditional against one of the 256-world states."""

    name = "query-k8"
    per_round = 16
    program_attrs = ("states", "prop", "bf")

    def prepare(self, seed: int, workdir: str) -> None:
        sc = generate.query_scenario(seed)
        self.sc = sc
        self.text = sc.text()
        rng = random.Random(f"query-k8/queries/{seed}")
        vals = [dict(zip(sc.variables, sc.valuation[w])) for w in sc.worlds]
        self.pool = []
        # Ten rounds of 16 queries. The first condition of every round is
        # unsatisfiable, so vacuity is a fixed share of each round; the
        # others hold in about 16, 32, ..., 240 worlds, so that every round
        # asks for choice sets over the same spread of subset sizes.
        for i in range(10 * self.per_round):
            slot = i % self.per_round
            if slot == 0:
                p = generate.contradiction(rng, sc.variables, 3)
            else:
                while True:
                    p = generate.random_formula(rng, sc.variables, 6)
                    if abs(sum(map(p.truth, vals)) - 16 * slot) < 8:
                        break
            q = generate.random_formula(rng, sc.variables, 5)
            p_worlds = {w for w, v in zip(sc.worlds, vals) if p.truth(v)}
            q_worlds = {w for w, v in zip(sc.worlds, vals) if q.truth(v)}
            state = i % len(sc.sources)
            expected = _conditional(sc.sources[state].pairs, p_worlds, q_worlds) if p_worlds else None
            self.pool.append((p.text, q.text, state, expected))
        self.next = 0

    def setup(self, bf) -> None:
        scenario = bf.parse_scenario(self.text)
        self.states = [s.state for s in scenario.profile.sources]
        self.prop = scenario.prop
        self.bf = bf

    def round(self) -> list[Op]:
        batch = [self.pool[(self.next + i) % len(self.pool)] for i in range(self.per_round)]
        self.next = (self.next + self.per_round) % len(self.pool)
        return [self._op(*query) for query in batch]

    def _op(self, p_text: str, q_text: str, state: int, expected) -> Op:
        bf = self.bf

        def run():
            p = bf.parse_formula(p_text)
            q = bf.parse_formula(q_text)
            try:
                return bf.evaluate_conditional(self.states[state], p, q, self.prop)
            except bf.VacuousConditionError as e:
                return e

        def check(status):
            if expected is None:
                return None if isinstance(status, bf.VacuousConditionError) else f"expected a vacuous condition, got {status!r}"
            if isinstance(status, Exception):
                return f"unexpected {status!r}"
            flags = {n for n, on in (("BEL", status.bel), ("DISBEL", status.disbel), ("AGN", status.agn), ("CON", status.con)) if on}
            if (flags, set(status.choice)) != (expected[0], set(expected[1])):
                return f"got {sorted(flags)} {len(status.choice)} chosen, expected {sorted(expected[0])} {len(expected[1])} chosen"
            return None

        return Op(run, check)


WORKLOADS = {w.name: w for w in (CliSessions, RingSimulations, ConditionalQueries)}
