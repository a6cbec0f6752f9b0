"""Command-line interface.

Exit codes: 0 success, 1 domain error (invalid state, vacuous condition),
2 usage or parse error. Machine-readable payloads go to stdout; messages
about failures go to stderr. All output is deterministic given the inputs
(and seed).
"""

from __future__ import annotations

import sys

import click

from .aggregation import Profile, agr, agr_rf, agr_star, agr_un, un
from .formulas import FormulaSyntaxError, UndeclaredVariableError, parse_formula
from .pedigree import PedigreedBeliefState, fuse, induced_state
from .scenario import (
    ParseError,
    Scenario,
    _pair_lines,
    export_dot,
    parse_scenario,
    serialize_pedigree,
    format_layers,
)
from .simulation import SimConfig, Topology, TopologyError, run_simulation
from .states import (
    BeliefState,
    NotModularError,
    NotTransitiveError,
    VacuousConditionError,
    classify_class,
    evaluate_conditional,
    to_layers,
)


def _fail(code: int, message: str) -> None:
    click.echo(message, err=True)
    sys.exit(code)


def _decode(data: bytes) -> str:
    """The UTF-8 text of a scenario file, or a ParseError at its first
    byte that is not UTF-8, in lines and columns as the parser counts them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # "_" stands in for the bad byte, so that splitlines() keeps the
        # line it starts even when that line is empty so far.
        lines = (data[: e.start].decode("utf-8") + "_").splitlines()
        raise ParseError(len(lines), len(lines[-1]), "not valid UTF-8") from None


def _load(path: str) -> Scenario:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        _fail(2, f"cannot read {path}: {e}")
    try:
        return parse_scenario(_decode(data))
    except ParseError as e:
        _fail(2, f"{path}: {e}")
    except (NotModularError, NotTransitiveError) as e:
        _fail(1, f"{path}: {e}")


def _write(path: str, payload: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as e:
        _fail(2, f"cannot write {path}: {e}")


def _echo_lines(lines: list[str]) -> None:
    """Write many lines at once; one click.echo per line costs more than
    computing them on large universes."""
    if lines:
        click.echo("\n".join(lines))


def _find(lookup, key):
    """``lookup(key)``; an unknown id is a usage error that prints the
    message of the KeyError."""
    try:
        return lookup(key)
    except KeyError as e:
        _fail(2, str(e.args[0]))


def _pick_sources(scenario: Scenario, spec: str) -> Profile:
    if spec == "all":
        return scenario.profile
    # a repeated id counts once, as in _pick_agents, where fusion is idempotent
    ids = dict.fromkeys(spec.split(","))
    return Profile(scenario.universe, tuple(_find(scenario.source, s) for s in ids))


def _pick_agents(scenario: Scenario, spec: str):
    if spec == "all":
        if not scenario.agents:
            _fail(2, "scenario declares no agents")
        return list(scenario.agents)
    return [_find(scenario.agent, a) for a in spec.split(",")]


def _flags(separator: str, table) -> str:
    """The names of the (name, on) rows of ``table`` that are on, joined."""
    return separator.join(name for name, on in table if on)


@click.group()
def main() -> None:
    """Represent, aggregate, and fuse conflicting collective beliefs."""


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
def validate(scenario_path: str) -> None:
    """Validate a scenario and report each source's relation classes."""
    scenario = _load(scenario_path)
    for src in scenario.profile.sources:
        flags = classify_class(src.state)
        table = (
            ("B", flags.in_b), ("T", flags.in_t), ("T<", flags.in_t_strict),
            ("Q", flags.in_q), ("Q<", flags.in_q_strict),
        )
        click.echo(f"OK {src.id} {_flags(',', table)}")


_OPS = {"un": un, "agrun": agr_un, "agrrf": agr_rf, "agrstar": agr_star, "agr": agr}


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--op", "op_name", type=click.Choice(sorted(_OPS)), default="agr", show_default=True)
@click.option("--sources", "sources_spec", default="all", show_default=True, help="Comma-separated source ids, or 'all'.")
def aggregate(scenario_path: str, op_name: str, sources_spec: str) -> None:
    """Aggregate source belief states with the chosen operator."""
    scenario = _load(scenario_path)
    profile = _pick_sources(scenario, sources_spec)
    result = _OPS[op_name](profile)
    state = result if isinstance(result, BeliefState) else BeliefState(result)
    _echo_lines(_pair_lines(state.relation))
    # un and agrrf may return a relation that is not a belief state; it has
    # no layers to print.
    if state.blocks is not None:
        click.echo(f"layers: {format_layers(to_layers(state))}")


@main.command(name="fuse")
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--agents", "agents_spec", default="all", show_default=True, help="Comma-separated agent ids, or 'all'.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None, help="Also write the fused pedigree to a file.")
def fuse_cmd(scenario_path: str, agents_spec: str, out_path: str | None) -> None:
    """Fuse the pedigreed belief states of the chosen agents."""
    scenario = _load(scenario_path)
    agents = _pick_agents(scenario, agents_spec)
    fused = fuse([a.pedigree() for a in agents], scenario.universe)
    payload = serialize_pedigree(fused)
    if out_path is not None:
        _write(out_path, payload)
    click.echo(payload, nl=False)
    _echo_lines(["induced", *_pair_lines(induced_state(fused).relation)])


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--agent", "agent_id", default=None, help="Query this agent's induced state.")
@click.option("--sources", "sources_spec", default=None, help="Query the aggregation of these sources (comma-separated ids, or 'all').")
@click.option("--if", "if_text", required=True, help="Condition formula.")
@click.option("--then", "then_text", required=True, help="Consequent formula.")
def query(scenario_path: str, agent_id: str | None, sources_spec: str | None, if_text: str, then_text: str) -> None:
    """Evaluate a conditional belief query against an induced state."""
    scenario = _load(scenario_path)
    if scenario.prop is None:
        _fail(2, "scenario declares abstract worlds; queries need 'vars'")
    if (agent_id is None) == (sources_spec is None):
        _fail(2, "exactly one of --agent or --sources is required")
    if agent_id is not None:
        state = _find(scenario.agent, agent_id).induced()
    else:
        state = agr(_pick_sources(scenario, sources_spec))
    try:
        status = evaluate_conditional(state, parse_formula(if_text), parse_formula(then_text), scenario.prop)
    except (FormulaSyntaxError, UndeclaredVariableError) as e:
        _fail(2, f"formula: {e}")
    except VacuousConditionError:
        click.echo("VACUOUS")
        sys.exit(1)
    table = (("BEL", status.bel), ("DISBEL", status.disbel), ("AGN", status.agn), ("CON", status.con))
    click.echo(_flags(" ", table))
    chosen = sorted(status.choice, key=scenario.universe.index)
    click.echo("choice: " + " ".join(chosen))


def _parse_topology(spec: str) -> Topology:
    if spec == "complete":
        return Topology.complete()
    if spec == "ring":
        return Topology.ring()
    if spec.startswith("star:"):
        return Topology.star(spec.split(":", 1)[1])
    if spec.startswith("edges:"):
        edges = []
        for item in spec.split(":", 1)[1].split(","):
            ends = item.split("-")
            if len(ends) != 2 or not ends[0] or not ends[1]:
                raise TopologyError(f"bad edge {item!r}; expected A-B")
            edges.append((ends[0], ends[1]))
        return Topology.explicit(edges)
    raise TopologyError(
        f"bad topology {spec!r}; expected complete, ring, star:<id>, or edges:A-B,..."
    )


@main.command()
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--topology", "topology_spec", default="complete", show_default=True)
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True)
@click.option("--rounds", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--dup", type=click.FloatRange(0.0, 1.0), default=0.0, show_default=True)
@click.option("--drop", type=click.FloatRange(0.0, 1.0), default=0.0, show_default=True)
def simulate(scenario_path: str, topology_spec: str, seed: int, rounds: int, dup: float, drop: float) -> None:
    """Run the deterministic fusion simulation over the scenario's agents."""
    scenario = _load(scenario_path)
    agents = _pick_agents(scenario, "all")
    try:
        topology = _parse_topology(topology_spec)
        report = run_simulation(
            agents,
            topology,
            SimConfig(seed=seed, max_rounds=rounds, duplication_prob=dup, drop_prob=drop),
        )
    except TopologyError as e:
        _fail(2, str(e))
    click.echo(f"rounds: {report.rounds_executed}")
    click.echo(f"messages: {report.message_count}")
    click.echo(f"converged: {'true' if report.converged else 'false'}")
    lines: dict[PedigreedBeliefState, str] = {}
    for agent in scenario.agents:
        state = report.final_states[agent.id]
        if state not in lines:
            lines[state] = ", ".join(_pair_lines(induced_state(state).relation))
        click.echo(f"agent {agent.id}: " + lines[state])
    click.echo(f"MATCHES_GLOBAL: {'true' if report.matches_global else 'false'}")


@main.command(name="export-dot")
@click.argument("scenario_path", metavar="SCENARIO")
@click.option("--source", "source_id", default=None, help="Render this source's state.")
@click.option("--agent", "agent_id", default=None, help="Render this agent's pedigree.")
@click.option("--fused", is_flag=True, help="Render the fusion of all agents.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None, help="Write DOT here instead of stdout.")
def export_dot_cmd(scenario_path: str, source_id: str | None, agent_id: str | None, fused: bool, out_path: str | None) -> None:
    """Export a Figure-style DOT diagram of a belief state."""
    scenario = _load(scenario_path)
    if (source_id is not None) + (agent_id is not None) + fused != 1:
        _fail(2, "exactly one of --source, --agent, or --fused is required")
    if source_id is not None:
        payload = export_dot(to_layers(_find(scenario.source, source_id).state))
    elif agent_id is not None:
        payload = export_dot(_find(scenario.agent, agent_id).pedigree())
    else:
        payload = export_dot(fuse([a.pedigree() for a in _pick_agents(scenario, "all")], scenario.universe))
    if out_path is None:
        click.echo(payload, nl=False)
    else:
        _write(out_path, payload)


if __name__ == "__main__":
    main()
