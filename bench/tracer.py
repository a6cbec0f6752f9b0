"""Spans around the package's public functions, for the traced run.

Every public module-level function of each layer is wrapped, and the
wrapper is bound under every name the package binds the original to:
in the defining module (so calls within the module are seen) and in each
module that imported it (so ``aggregation.transitive_closure``,
``pedigree.fuse`` inside ``simulation`` or ``states.modularity_witness``
are seen too). ``BeliefState.from_relation``, the validating constructor
every layer calls, is wrapped on the class as ``states.from_relation``.
``install()`` works out these bindings once; ``enable()`` switches them
between the wrappers and the originals, so that traced and untraced
rounds can alternate within one run.

Spans are kept in memory as [name, start_ns, end_ns, parent, op] and
written out once, at the end of the run, one JSON array per line; parent
is the index (line number from 0) of the enclosing span, or -1, and op
the index of the operation in the traced phase.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("relations", "formulas", "states", "aggregation", "pedigree", "simulation", "scenario", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        depth = [0]

        def traced(*args, **kwargs):
            # A recursive call (variables_of) stays inside its outer span.
            if depth[0]:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            depth[0] = 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[0] = 0
                stack.pop()
            if after is not None:
                # Counting can cost time (comparing fused states); its own
                # span keeps that out of the caller's self time.
                with self.span("tracer.count"):
                    after(self, args, result)
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the CLI commands)."""
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "belieffusion" or n.startswith("belieffusion.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"belieffusion.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if (layer, attr) == ("states", "from_relation"):
                    continue  # delegates to BeliefState.from_relation, wrapped below
                wrappers[obj] = self._wrap(f"{layer}.{attr}", obj, _AFTER.get(f"{layer}.{attr}"))
        # (namespace, key, original, wrapper); a namespace is a module, a
        # class or a dict.
        self.patches: list[tuple] = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self.patches.append((mod, attr, obj, wrappers[obj]))
                elif isinstance(obj, dict):
                    # Dispatch tables such as the CLI's operator map.
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrappers:
                            self.patches.append((obj, key, value, wrappers[value]))
        cls = sys.modules["belieffusion.states"].BeliefState
        original = vars(cls)["from_relation"]
        wrapped = classmethod(self._wrap("states.from_relation", original.__func__, _count_relation_pairs))
        self.patches.append((cls, "from_relation", original, wrapped))

    def enable(self, on: bool) -> None:
        """Bind the wrappers (on) or the original functions (off)."""
        for namespace, key, original, wrapper in self.patches:
            value = wrapper if on else original
            if isinstance(namespace, dict):
                namespace[key] = value
            else:
                setattr(namespace, key, value)

    def summary(self, ops: int) -> dict[str, float]:
        """Per-operation totals: inclusive ms (outermost span of a name
        only), self ms, calls, and the counters."""
        incl: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[i]
            dur = end - start
            if parent >= 0:
                child_ns[parent] += dur
            self_ns[name] += dur - child_ns[i]
            calls[name] += 1
            # Count a span's time once even if the same name encloses it
            # higher up (two CLI commands never nest, but library calls can).
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl[name] += dur
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.ms"] = incl[name] / 1e6 / ops
            out[f"{name}.self_ms"] = self_ns[name] / 1e6 / ops
            out[f"{name}.calls"] = calls[name] / ops
        for key, value in self.counts.items():
            out[key] = value / ops
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _count_relation_pairs(tracer: Tracer, args, result) -> None:
    tracer.counts["states.from_relation.pairs"] += len(args[1].pairs)


def _count_fuse(tracer: Tracer, args, result) -> None:
    states = args[0]
    tracer.counts["pedigree.fuse.entries_in"] += sum(len(s.entries) for s in states)
    # The innermost open span is the counter's own; the caller is its parent.
    parent = tracer.spans[tracer.stack[-1]][3]
    if parent >= 0 and tracer.spans[parent][0] == "simulation.run_simulation":
        # One delivery: the receiver's state comes first.
        tracer.counts["simulation.fuse_deliveries"] += 1
        if result != states[0]:
            tracer.counts["simulation.fuse_changed"] += 1


def _count_report(tracer: Tracer, args, result) -> None:
    tracer.counts["simulation.rounds"] += result.rounds_executed
    tracer.counts["simulation.messages"] += result.message_count


_AFTER = {
    "pedigree.fuse": _count_fuse,
    "simulation.run_simulation": _count_report,
}
