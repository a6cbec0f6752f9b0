"""Growth guards: operation counts that do not depend on the machine,
taken at two sizes, so that a quadratic path cannot come back unnoticed.

Counts are taken by rebinding module-level names for the duration of a
test, as the benchmark's tracer does.
"""

import random
import sys

import pytest
from click.testing import CliRunner

from belieffusion import NotModularError, from_layers, from_relation, generate_universe, relation
from belieffusion import bitset, relations
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
