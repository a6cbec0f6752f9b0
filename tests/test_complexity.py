"""Growth guards: operation counts that do not depend on the machine,
taken at two sizes, so that a quadratic path cannot come back unnoticed.

Counts are taken by rebinding module-level names for the duration of a
test, as the benchmark's tracer does.
"""

import random
import sys

import pytest
from click.testing import CliRunner

from belieffusion import (
    Block,
    FormulaSyntaxError,
    LayeredForm,
    NotModularError,
    WorldUniverse,
    from_layers,
    from_relation,
    generate_universe,
    parse_formula,
    parse_scenario,
    relation,
    to_layers,
)
from belieffusion import bitset, formulas, relations
from belieffusion.cli import main
from helpers import random_layered


def total_orders(k: int) -> str:
    """A scenario over k variables with two sources at one rank, each a
    strict total order of the worlds, shuffled, and one agent over both."""
    worlds = list(generate_universe([f"V{i}" for i in range(k)]).universe)
    rng = random.Random(0)
    lines = ["vars " + " ".join(f"V{i}" for i in range(k))]
    for name in ("t0", "t1"):
        rng.shuffle(worlds)
        lines += [f"source {name} rank 1", "  layers " + " > ".join(f"[{w}]" for w in worlds)]
    lines.append("agent a0 = t0 t1")
    return "\n".join(lines) + "\n"


def counted_bits(monkeypatch) -> list[int]:
    """Rebind ``bits`` in every package module that imported it to a copy
    that counts its yields; the count is element 0 of the list returned."""
    count = [0]
    original = bitset.bits

    def bits(mask):
        for i in original(mask):
            count[0] += 1
            yield i

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "belieffusion" and getattr(module, "bits", None) is original:
            monkeypatch.setattr(module, "bits", bits)
    return count


def test_validate_is_linear_on_total_orders(tmp_path, monkeypatch):
    # Parsing rebuilds each of the two sources' rows from its blocks (one
    # yield per world), and so does certifying it: four yields per world
    # in all, so 4x the worlds gives 4x the count. Searching for witnesses
    # instead visits every pair of a total order: 16x.
    runner = CliRunner()
    count = counted_bits(monkeypatch)
    counts = {}
    for k in (8, 10):
        path = tmp_path / f"total-{k}.scn"
        path.write_text(total_orders(k))
        count[0] = 0
        result = runner.invoke(main, ["validate", str(path)])
        assert (result.exit_code, result.output) == (0, "OK t0 B,T<,Q<\nOK t1 B,T<,Q<\n")
        counts[k] = count[0]
    assert counts[10] <= 5 * counts[8], counts


def test_aggregate_listing_does_not_yield_per_pair(tmp_path, monkeypatch):
    # The listing of agr's result selects each row's names in one C-level
    # pass, so the count is the parse and certificate work, linear in the
    # worlds. Yielding once per listed pair instead is quadratic: a total
    # order has n(n-1)/2 pairs, and 4x the worlds gives 16x the count.
    runner = CliRunner()
    count = counted_bits(monkeypatch)
    counts = {}
    for k in (8, 10):
        path = tmp_path / f"total-{k}.scn"
        path.write_text(total_orders(k))
        count[0] = 0
        result = runner.invoke(main, ["aggregate", "--op", "agr", str(path)])
        # two orders at one rank conflict everywhere: one connected block
        worlds = generate_universe([f"V{i}" for i in range(k)]).universe.worlds
        assert (result.exit_code, result.output.count("\n")) == (0, len(worlds) ** 2 + 1)
        assert result.output.endswith(f"layers: [{' '.join(worlds)}]*\n")
        counts[k] = count[0]
    assert counts[10] <= 5 * counts[8], counts


def test_from_relation_searches_no_witness_for_a_belief_state(monkeypatch):
    calls = []
    search = relations._first_witness

    def first_witness(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(relations, "_first_witness", first_witness)
    u = generate_universe([f"V{i}" for i in range(10)]).universe
    r = from_layers(random_layered(random.Random(5), u)).relation
    assert from_relation(r).relation == r
    assert calls == []
    # a single pair is not modular: only then is a witness sought
    with pytest.raises(NotModularError):
        from_relation(relation(u, [u.worlds[:2]]))
    assert calls


def test_naming_a_partition_is_linear(monkeypatch):
    # to_layers names each block of the n/2 two-world blocks
    # {w_i, w_(n-1-i)}. The count is the worlds visited: bits yields, and
    # the flags of each C-level pass over a span. Passing over each
    # block's span visits about n^2/4 worlds in all, so 4x the worlds
    # gives 16x the count; reading a sparse block bit by bit visits its
    # two worlds.
    count = counted_bits(monkeypatch)
    original = relations.compress

    def compress(data, selectors):
        count[0] += len(selectors)
        return original(data, selectors)

    monkeypatch.setattr(relations, "compress", compress)
    counts = {}
    for n in (1024, 4096):
        u = WorldUniverse(tuple(f"w{i}" for i in range(n)))
        blocks = tuple(
            Block(frozenset({u.worlds[i], u.worlds[n - 1 - i]}), i % 3 == 0) for i in range(n // 2)
        )
        b = from_layers(LayeredForm(u, blocks))
        count[0] = 0
        assert to_layers(b) == LayeredForm(u, blocks)
        counts[n] = count[0]
    assert counts[4096] <= 5 * counts[1024], counts


def test_aliases_build_the_universe_once(monkeypatch):
    # 'world' lines rename worlds in place, and the renamed universe is
    # built once: the count is the generated universe and that one build,
    # whatever the number of aliases. Rebuilding it per alias line makes
    # parsing quadratic in the aliases.
    builds = [0]
    post_init = WorldUniverse.__post_init__

    def counted(self):
        builds[0] += 1
        post_init(self)

    monkeypatch.setattr(WorldUniverse, "__post_init__", counted)
    variables = [f"V{i}" for i in range(8)]
    worlds = generate_universe(variables).universe.worlds
    counts = {}
    for aliases in (16, 128):
        lines = ["vars " + " ".join(variables)]
        lines += [f"world w{i} = {worlds[i].replace('.', ' ')}" for i in range(aliases)]
        lines += ["source s rank 1", "  layers [" + " ".join(f"w{i}" for i in range(aliases)) + "]"]
        lines[-1] += " > [" + " ".join(worlds[aliases:]) + "]"
        builds[0] = 0
        scenario = parse_scenario("\n".join(lines) + "\n")
        counts[aliases] = builds[0]
        assert scenario.universe.worlds == tuple(f"w{i}" for i in range(aliases)) + worlds[aliases:]
        assert scenario.prop.valuation("w3") == dict(zip(variables, (True,) * 6 + (False, False)))
    assert counts[128] == counts[16] == 2, counts


def test_a_valid_formula_is_parsed_without_offsets(monkeypatch):
    # The parser reads token strings; the located tokens, offsets and
    # all, are worked out only to raise an error, once.
    calls = []
    tokenize = formulas._tokenize

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(formulas, "_tokenize", counted)
    for text in ("A", "!(A | false) -> B <-> x_1 & A", "((true))"):
        parse_formula(text)
    assert calls == []
    with pytest.raises(FormulaSyntaxError):
        parse_formula("A &")
    assert calls == ["A &"]
