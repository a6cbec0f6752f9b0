"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload cli-k5 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``. The workload's inputs and expected outputs are made from
``--seed`` before anything is timed. Then the package is imported and the
workload is set up and runs a warm-up round, twice; the second set-up
and round run under tracemalloc (``peak_heap_mb``). Then the timed loop
runs whole rounds of operations until the time spent inside the program
reaches ``--seconds``. With ``--trace 0`` the set-up is timed again
several times, spread over the loop; ``setup_s`` is their median. Every
operation's output is checked against the oracles.

With ``--trace 0`` the last line of stdout is the end-to-end metrics.
With ``--trace 1`` untraced rounds alternate with rounds in which every
public function of the package is wrapped in spans (see tracer.py); the
last line is the per-layer metrics, per operation, and the tracing
overhead. The metric names and units come from BENCHMARK.json. Details
and the spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 21


def import_package():
    bf = importlib.import_module("belieffusion")
    importlib.import_module("belieffusion.cli")
    return bf


def fresh_start(workload) -> None:
    """Drop the workload's set-up and the package, and collect them, so
    that the next import and set-up start from nothing and do not pay
    for freeing the previous copy."""
    workload.release()
    for name in [n for n in sys.modules if n == "belieffusion" or n.startswith("belieffusion.")]:
        del sys.modules[name]
    gc.collect()


def timed_setup(workload) -> float:
    """Import the package afresh and set the workload up; the seconds taken."""
    fresh_start(workload)
    start = time.perf_counter()
    workload.setup(import_package())
    return time.perf_counter() - start


def measure(workload, seconds: float, tracer=None, setup_times=None) -> list[dict]:
    """Run whole rounds, at least one, until ``seconds`` of program time
    have been spent. Returns the untraced rounds' figures and, with a
    tracer, the traced rounds' figures: rounds then alternate between the
    two, ending on a traced one, so that drift in the machine's speed
    affects both alike.

    With ``setup_times``, the set-up is done again, and timed into that
    list, between rounds every ``seconds / SETUP_REPEATS`` of program
    time, SETUP_REPEATS times in all, so that its samples are spread over
    the run as the operations are. This time is not program time."""
    phases = [{"latencies": [], "errors": [], "busy": 0.0} for _ in range(2 if tracer else 1)]
    workload.reset()
    traced = False
    while True:
        if tracer is not None:
            tracer.enable(traced)
        workload.tracing = traced
        phase = phases[traced]
        for op in workload.round():
            if traced:
                tracer.op = len(phase["latencies"])
            start = time.perf_counter()
            end = None
            try:
                out = op.run()
                end = time.perf_counter()
                error = op.check(out)
            except Exception as e:  # a call or a check that raises fails the operation
                error = f"raised {e!r}"
            elapsed = (end or time.perf_counter()) - start
            phase["latencies"].append(elapsed)
            phase["busy"] += elapsed
            if error is not None:
                phase["errors"].append(error)
        busy = sum(p["busy"] for p in phases)
        if busy >= seconds and traced == (tracer is not None):
            break
        if setup_times is not None and busy >= len(setup_times) * seconds / SETUP_REPEATS:
            setup_times.append(timed_setup(workload))
        if tracer is not None:
            traced = not traced
    while setup_times is not None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(workload))
    if tracer is not None:
        tracer.enable(False)
        workload.tracing = False
    return phases


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "belieffusion" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no package source under {SRC} (or no BENCHMARK.json); run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload.prepare(args.seed, workdir)
        # The inputs and oracles are the benchmark's own and long-lived;
        # keep the collector from rescanning them during set-up and every
        # operation. What the program builds stays collectable.
        gc.collect()
        gc.freeze()
        # A first set-up and round warm what is loaded or compiled on first
        # use. Then the program's memory: the peak of what a second set-up
        # and round hold on the Python heap. The package's import and the
        # benchmark's own inputs and oracles come before tracing starts.
        workload.setup(import_package())
        warmups = measure(workload, 0)
        fresh_start(workload)
        bf = import_package()
        tracemalloc.start()
        workload.setup(bf)
        warmups += measure(workload, 0)
        peak_heap = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        if not Path(bf.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"imported {bf.__file__}, not the checkout's package", file=sys.stderr)
            return 2
        setup_times: list[float] = []
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            workload.tracer = tracer
            runs = untraced, traced = measure(workload, args.seconds, tracer)
            phase_metrics = workload.phase_metrics(untraced["busy"])
            tracer.write(OUT / f"{tag}.spans.jsonl")
        else:
            runs = [timed] = measure(workload, args.seconds, setup_times=setup_times)

    attempted = sum(len(r["latencies"]) for r in runs)
    errors = [e for r in [*warmups, *runs] for e in r["errors"]]
    failed = sum(len(r["errors"]) for r in runs)
    if args.trace:
        ops_untraced = len(untraced["latencies"]) / untraced["busy"]
        ops_traced = len(traced["latencies"]) / traced["busy"]
        layer = tracer.summary(len(traced["latencies"]))
        layer["cli.self_ms"] = sum(v for k, v in layer.items() if k.startswith("cli.") and k.endswith(".self_ms"))
        deliveries = layer.get("simulation.fuse_deliveries", 0)
        layer["simulation.fuse_changed_ratio"] = layer.get("simulation.fuse_changed", 0) / deliveries if deliveries else 0.0
        layer.update(phase_metrics)
        layer["trace.ops_per_s_untraced"] = ops_untraced
        layer["trace.ops_per_s_traced"] = ops_traced
        layer["trace.overhead_pct"] = (ops_untraced / ops_traced - 1) * 100
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
        details = {"per_layer_all": layer}
    else:
        lat = timed["latencies"]
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_heap_mb": peak_heap / 2**20,
            "ops_per_s": len(lat) / timed["busy"],
            "op_p50_ms": statistics.median(lat) * 1e3,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        details = {"latencies_ms": [x * 1e3 for x in lat]}

    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    details.update(result, setup_times_s=setup_times, errors=errors[:20], python=sys.version.split()[0])
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    for e in errors[:5]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
