"""Compare the CLI's observable behaviour on two source trees.

    python tools/contract.py --parent DIR [--expect FILE]

Runs a fixed corpus of CLI invocations once on the tree this script
belongs to and once on the tree at DIR (for example a clean checkout of
the parent commit). Each run is its own process,
``PYTHONPATH=<tree>/src python -m belieffusion.cli ...``, in a fresh
temporary directory, and the two runs must agree on exit code, stdout,
stderr and the bytes of the ``--out`` file, if any.

The corpus: the shipped ``scenarios/*.scn``; the benchmark generator's
cli, invalid-source, sim and query scenarios at two seeds (``bench`` is
imported, never written to); and small scenarios that break each rule
the scenario reader enforces. Every scenario that loads gets every
command: ``validate``, each ``aggregate`` operator, the ``--sources``
selector with good, repeated, unknown and empty ids, ``fuse``, ``query``
with good and bad formulas and selectors (and, on one generated
scenario, five formulas each broken in its own way), ``simulate`` on four
topologies and with an unknown agent in ``star:`` and ``edges:``, and
``export-dot`` with each selector. A scenario that fails to load gets
each command once. Two 1024-world scenarios, one of large layered blocks
and one of shuffled total orders, get only ``validate``, ``aggregate
--op agr``, ``fuse --out``, ``query --agent``, ``simulate --topology
ring`` and ``export-dot --fused``: every writer of pair text and DOT
labels, with outputs of up to about 100 MB each. Twenty scenarios drawn
with a fixed seed from the parser-differential test's mutations, most of
which fail to load, get only ``validate``.

Each run writes its streams to files, and the two runs of an invocation
are compared by the SHA-256 digests of their exit code and streams as
soon as both finish. The bytes of a stream are kept only when the runs
differ, or when the stream is at most ``KEEP`` bytes long, so the
script's memory does not grow with the size of the outputs.

The script prints identical and differing counts per command and the
first differing line of each stream of each difference. It exits 1 if a
difference is not expected. FILE lists expected differences, one
regular expression a line (blank lines and ``#`` comments aside); a
difference is expected when one of them matches (``re.search``) the
invocation's label, such as ``aggregate telemetry.scn --sources ,``.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import hashlib
import itertools
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (77, 78)
MUTATION_SEED, MUTATIONS = 79, 20
TIMEOUT_S = 300
KEEP = 1 << 16  # bytes of a stream kept even when both runs agree

# Scenarios that break one rule of the reader or the library each; none
# of them loads.
BROKEN = {
    "duplicate-worlds.scn": b"worlds a b a\n",
    "invalid-variable.scn": b"vars F 1x\n",
    "keyword-variable.scn": b"vars true F\n",
    "alias-in-use.scn": b"vars F D\nworld F.!D = F D\n",
    "layers-overlap.scn": b"worlds a b\nsource s rank 1\n  layers [a] > [a b]\n",
    "layers-missing-world.scn": b"worlds a b c\nsource s rank 1\n  layers [a] > [b]\n",
    "layers-empty-block.scn": b"worlds a b\nsource s rank 1\n  layers [a] > [] > [b]\n",
    "non-modular.scn": b"worlds a b c\nsource bad rank 1\n  pairs a < b\nagent A = bad\n",
    "vars-over-cap.scn": ("vars " + " ".join(f"V{i}" for i in range(13)) + "\n").encode(),
    "worlds-over-cap.scn": ("worlds " + " ".join(f"w{i}" for i in range(4097)) + "\n").encode(),
    "not-utf8.scn": b"worlds a b\nsource s rank 1\n  pairs a < \xff\n",
    "unknown-declaration.scn": b"worlds a b\nbogus x y\n",
}

# Scenarios that load, beside the shipped and generated ones.
EXTRA = {
    "self-alias.scn": (
        b"vars F D\nworld F.D = F D\nsource s rank 1\n  layers [F.D] > [F.!D !F.D !F.!D]\nagent A = s\n"
    ),
    "quoted-names.scn": (
        b'worlds a"b c\\d e\nsource s rank 1\n  layers [a"b c\\d] > [e]\n'
        b'source t rank 2\n  layers [e] > [a"b c\\d]\nagent A = s t\nagent B = t\n'
    ),
}


# Malformed formulas, each an error the formula reader positions: a bad
# character after an earlier syntax error (the bad character is
# reported), a digit before a name, a non-ASCII letter, an unclosed
# parenthesis, and a half arrow in --then.
FORMULA_ERRORS = [
    ("--if", "A B @", "--then", "A"),
    ("--if", "1A", "--then", "A"),
    ("--if", "A é", "--then", "A"),
    ("--if", "(A", "--then", "A"),
    ("--if", "A", "--then", "A <- B"),
]


@dataclass(frozen=True)
class Invocation:
    """``belieffusion COMMAND SCENARIO ARGS...``; an ``--out`` path in
    ``args`` is relative to the run's temporary directory."""

    command: str
    scenario: str
    args: tuple[str, ...] = ()

    def label(self) -> str:
        return shlex.join([self.command, self.scenario, *self.args])


@dataclass(frozen=True, eq=False)
class Outcome:
    """What one run left: its exit code (or a timeout), stdout, stderr,
    and the ``--out`` file's bytes if it wrote one.

    Outcomes are equal when their exit codes and the SHA-256 digests of
    their streams are. ``digests`` holds one per stream, None for an
    ``--out`` file not written; it is computed from the bytes when not
    given. A stream whose digest is given may have been dropped, as None.
    """

    exit: str
    stdout: bytes | None
    stderr: bytes | None
    out: bytes | None
    digests: tuple[str | None, ...] = ()

    def __post_init__(self) -> None:
        if not self.digests:
            streams = (self.stdout, self.stderr, self.out)
            digests = tuple(None if x is None else hashlib.sha256(x).hexdigest() for x in streams)
            object.__setattr__(self, "digests", digests)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Outcome):
            return NotImplemented
        return (self.exit, self.digests) == (other.exit, other.digests)

    def streams(self) -> dict[str, bytes | None]:
        return {"exit": self.exit.encode(), "stdout": self.stdout, "stderr": self.stderr, "out": self.out}


def _generated() -> dict[str, bytes]:
    """The benchmark generator's scenarios at each seed."""
    bench = str(ROOT / "bench")
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, bench)
    try:
        import generate
    finally:
        sys.path.remove(bench)
        sys.dont_write_bytecode = saved
    files = {}
    for seed in SEEDS:
        files[f"cli-k5-{seed}.scn"] = generate.cli_scenario(seed).text()
        files[f"invalid-{seed}.scn"] = generate.invalid_scenario(seed).scenario.text()
        files[f"sim-ring-k5-{seed}.scn"] = generate.sim_scenario(seed).text()
        files[f"query-k8-{seed}.scn"] = generate.query_scenario(seed).text()
    return {name: text.encode() for name, text in files.items()}


def _mutations() -> dict[str, bytes]:
    """A fixed sample of the parser-differential test's mutated scenarios:
    the test module's ``mutate`` applied to its base scenarios, from one
    seed. The module needs the package and the test helpers, so this
    tree's ``src`` and ``tests`` go on the path while it is imported."""
    paths = [str(ROOT / "src"), str(ROOT / "tests")]
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path[:0] = paths
    try:
        import test_parser_differential as differential
    finally:
        del sys.path[: len(paths)]
        sys.dont_write_bytecode = saved
    rng = random.Random(MUTATION_SEED)
    bases = differential.base_scenarios(rng)
    pool = bases["small"] + bases["k5"]
    return {f"mutation-{i:02}.scn": differential.mutate(rng, rng.choice(pool)).encode() for i in range(MUTATIONS)}


def _valuation_worlds(k: int) -> tuple[str, list[str], list[dict[str, bool]]]:
    """The ``vars`` line of k variables, its world names in declaration
    order, and each world's valuation."""
    names = "ABCDEFGHIJKL"[:k]
    values = list(itertools.product((True, False), repeat=k))
    worlds = [".".join(v if b else "!" + v for v, b in zip(names, bits)) for bits in values]
    return "vars " + " ".join(names), worlds, [dict(zip(names, bits)) for bits in values]


def _layers(blocks: list[tuple[list[str], bool]]) -> str:
    return "  layers " + " > ".join(f"[{' '.join(ws)}]" + ("*" if c else "") for ws, c in blocks)


def _twin_rich(k: int) -> bytes:
    """Layered sources with large blocks of twin worlds, and one ``pairs``
    source: s0 ranks the A-worlds above the rest; s1 ranks the all-false
    world first, then the B-worlds, conflicted, then the rest; p0 puts the
    all-false world below every other; s2 ranks the C-worlds above the rest."""
    header, worlds, vals = _valuation_worlds(k)
    w0 = worlds[-1]

    def split(var: str) -> list[tuple[list[str], bool]]:
        return [([w for w, v in zip(worlds, vals) if v[var] == side], False) for side in (True, False)]

    s1 = [([w0], False), ([w for w, v in zip(worlds, vals) if v["B"]], True)]
    s1.append(([w for w, v in zip(worlds, vals) if not v["B"] and w != w0], False))
    lines = [
        header,
        "source s0 rank 2", _layers(split("A")),
        "source s1 rank 1", _layers(s1),
        "source p0 rank 1", "  pairs " + ", ".join(f"{w0} < {w}" for w in worlds if w != w0),
        "source s2 rank 1", _layers(split("C")),
        "agent a0 = s0 s1 p0", "agent a1 = s1 p0 s2", "agent a2 = s2",
    ]
    return ("\n".join(lines) + "\n").encode()


def _total_orders(k: int) -> bytes:
    """Two sources at one rank, each a strict total order of the worlds
    (shuffled), and one agent over both."""
    header, worlds, _ = _valuation_worlds(k)
    rng = random.Random(0)
    lines = [header]
    for name in ("t0", "t1"):
        rng.shuffle(worlds)
        lines += [f"source {name} rank 1", _layers([([w], False) for w in worlds])]
    lines.append("agent a0 = t0 t1")
    return ("\n".join(lines) + "\n").encode()


def _large() -> tuple[dict[str, bytes], list[Invocation]]:
    """The 1024-world shapes, each with one command per writer; each can
    take a second or more, so no more."""
    files = {"twin-k10.scn": _twin_rich(10), "total-k10.scn": _total_orders(10)}
    invocations = []
    for name, agent in (("twin-k10.scn", "a1"), ("total-k10.scn", "a0")):
        invocations += [
            Invocation("validate", name),
            Invocation("aggregate", name, ("--op", "agr")),
            Invocation("fuse", name, ("--out", "fused.txt")),
            Invocation("query", name, ("--agent", agent, "--if", "!A | C", "--then", "B -> D")),
            Invocation("simulate", name, ("--topology", "ring")),
            Invocation("export-dot", name, ("--fused",)),
        ]
    return files, invocations


def _declared(text: bytes, keyword: str) -> list[str]:
    """The second token of each line that starts with ``keyword``."""
    return [line.split()[1] for line in text.decode().splitlines() if line.split()[:1] == [keyword]]


def _full(name: str, text: bytes) -> list[Invocation]:
    """Every command on a scenario that loads."""
    sources = _declared(text, "source")
    agents = _declared(text, "agent")
    variables = next((line.split()[1:] for line in text.decode().splitlines() if line.startswith("vars ")), [])
    calls = [("validate",)]
    calls += [("aggregate", "--op", op) for op in ("agr", "agrrf", "agrstar", "agrun", "un")]
    selections = [
        ("--sources", sources[0]),
        ("--sources", f"{sources[0]},{sources[0]}"),
        ("--sources", "zz,yy"),
        ("--sources", f"{sources[0]},zz"),
        ("--sources", ","),
        ("--sources=",),
    ]
    calls += [("aggregate", *s) for s in selections]
    calls += [("fuse",), ("fuse", "--out", "fused.txt"), ("fuse", "--agents", "zz")]
    if variables:
        v, w = variables[0], variables[-1]
        formulas = [
            ("--if", "true", "--then", v),
            ("--if", f"{v} | !{w}", "--then", f"!{v} -> {w}"),
            ("--if", f"{v} &", "--then", v),
            ("--if", "ZZ", "--then", v),
            ("--if", f"{v} & !{v}", "--then", w),
        ]
        picks = [("--sources", "all")] + ([("--agent", agents[0])] if agents else [])
        calls += [("query", *pick, *f) for pick in picks for f in formulas]
        calls += [("query", *s, "--if", "true", "--then", v) for s in selections]
        calls += [("query", "--agent", "zz", "--sources", "all", "--if", "true", "--then", v)]
        calls += [("query", "--if", "true", "--then", v)]
    calls += [("simulate",), ("simulate", "--topology", "ring", "--dup", "0.3"), ("simulate", "--topology", "bogus")]
    if agents:
        calls += [("simulate", "--topology", f"star:{agents[0]}"), ("export-dot", "--agent", agents[0])]
        calls += [("simulate", "--topology", "star:zz"), ("simulate", "--topology", f"edges:{agents[0]}-zz")]
    calls += [
        ("export-dot", "--source", sources[0]),
        ("export-dot", "--fused"),
        ("export-dot", "--fused", "--out", "fused.dot"),
        ("export-dot",),
    ]
    return [Invocation(c[0], name, tuple(c[1:])) for c in calls]


def corpus() -> tuple[dict[str, bytes], list[Invocation]]:
    """The scenario files by name, and the invocations over them."""
    loads = {p.name: p.read_bytes() for p in sorted((ROOT / "scenarios").glob("*.scn"))}
    broken = dict(BROKEN)
    for name, text in _generated().items():
        (broken if name.startswith("invalid-") else loads)[name] = text
    loads.update(EXTRA)
    invocations = [inv for name, text in loads.items() for inv in _full(name, text)]
    large, large_invocations = _large()
    loads.update(large)
    invocations += large_invocations
    invocations += [Invocation("query", f"query-k8-{SEEDS[0]}.scn", ("--sources", "all", *f)) for f in FORMULA_ERRORS]
    mutations = _mutations()
    loads.update(mutations)
    invocations += [Invocation("validate", name) for name in mutations]
    for name in broken:
        invocations += [
            Invocation("validate", name),
            Invocation("aggregate", name),
            Invocation("fuse", name),
            Invocation("query", name, ("--sources", "all", "--if", "true", "--then", "F")),
            Invocation("simulate", name),
            Invocation("export-dot", name, ("--fused",)),
        ]
    return {**loads, **broken}, invocations


def run(tree: pathlib.Path, inv: Invocation, corpus_dir: pathlib.Path, where: pathlib.Path) -> tuple[str, list]:
    """One process of the CLI of ``tree``, in a fresh directory under
    ``where``: its exit code (or a timeout), and the files that hold its
    stdout, stderr and ``--out`` bytes (None if it wrote no ``--out``)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cwd = where / "cwd"
    cwd.mkdir(parents=True)
    files = [where / "stdout", where / "stderr"]
    argv = [sys.executable, "-m", "belieffusion.cli", inv.command, str(corpus_dir / inv.scenario), *inv.args]
    with files[0].open("wb") as stdout, files[1].open("wb") as stderr:
        try:
            done = subprocess.run(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stdout.truncate(0)
            stderr.truncate(0)
            return f"timeout after {TIMEOUT_S} s", files + [None]
    out = None
    if "--out" in inv.args:
        out = cwd / inv.args[inv.args.index("--out") + 1]
    return str(done.returncode), files + [out if out is not None and out.exists() else None]


def _outcome(code: str, files: list, whole: bool) -> Outcome:
    """The outcome of a run from its files: every stream's digest, read
    in chunks, and the bytes of those ``whole`` asks for or no longer
    than ``KEEP``."""
    digests, kept = [], []
    for path in files:
        digest = data = None
        if path is not None:
            h = hashlib.sha256()
            with path.open("rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
            digest = h.hexdigest()
            if whole or path.stat().st_size <= KEEP:
                data = path.read_bytes()
        digests.append(digest)
        kept.append(data)
    return Outcome(code, *kept, digests=tuple(digests))


def compare(
    parent: pathlib.Path, change: pathlib.Path, files: dict[str, bytes], invocations: list[Invocation]
) -> list[tuple[Invocation, Outcome, Outcome]]:
    """Each invocation with its outcome on ``parent`` and on ``change``;
    only a differing pair keeps all its bytes."""
    with tempfile.TemporaryDirectory() as d:
        corpus_dir = pathlib.Path(d)
        for name, text in files.items():
            (corpus_dir / name).write_bytes(text)

        def both(inv: Invocation) -> tuple[Invocation, Outcome, Outcome]:
            with tempfile.TemporaryDirectory() as scratch:
                runs = [run(tree, inv, corpus_dir, pathlib.Path(scratch, side)) for side, tree in (("a", parent), ("b", change))]
                a, b = (_outcome(*r, whole=False) for r in runs)
                if a == b:
                    return inv, a, a  # one copy of the bytes kept
                return inv, *(_outcome(*r, whole=True) for r in runs)

        with concurrent.futures.ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
            return list(pool.map(both, invocations))


def first_differences(a: Outcome, b: Outcome) -> list[str]:
    """For each stream that differs, its first differing line on each side;
    a missing ``--out`` file has no lines."""
    report = []
    for stream, x in a.streams().items():
        y = b.streams()[stream]
        if x == y:
            continue
        xs = [] if x is None else x.split(b"\n")
        ys = [] if y is None else y.split(b"\n")
        i = next((i for i, (p, q) in enumerate(zip(xs, ys)) if p != q), min(len(xs), len(ys)))
        shown = [repr(lines[i].decode("utf-8", "backslashreplace")) if i < len(lines) else "(none)" for lines in (xs, ys)]
        report.append(f"  {stream} line {i + 1}: parent {shown[0]}, change {shown[1]}")
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path, help="the tree to compare against")
    ap.add_argument("--expect", type=pathlib.Path, help="regular expressions of expected differences")
    args = ap.parse_args(argv)
    expected = []
    if args.expect is not None:
        lines = args.expect.read_text().splitlines()
        expected = [re.compile(line) for line in lines if line.strip() and not line.startswith("#")]

    files, invocations = corpus()
    results = compare(args.parent.resolve(), ROOT, files, invocations)
    counts = collections.defaultdict(collections.Counter)
    unexpected = 0
    for inv, a, b in results:
        if a == b:
            counts[inv.command]["identical"] += 1
            continue
        counts[inv.command]["different"] += 1
        known = any(e.search(inv.label()) for e in expected)
        unexpected += not known
        print(("expected: " if known else "DIFFERENT: ") + inv.label())
        print("\n".join(first_differences(a, b)))
    for command, c in sorted(counts.items()):
        print(f"{command}: {c['identical']} identical, {c['different']} different")
    print(f"all: {len(results)} invocations, {sum(a != b for _, a, b in results)} different, {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
