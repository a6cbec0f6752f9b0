"""Self-test of the benchmark; not part of the repository's test suite.

    python3 -m pytest -q bench/test_bench.py

Short runs of every workload must pass all their checks, and outputs
corrupted on purpose must be reported as failed operations.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_passes_every_check(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_bare_directory_is_refused(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-k5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and not proc.stdout


def _prepared(name: str, workdir: str):
    w = WORKLOADS[name]()
    w.prepare(3, workdir)
    w.setup(run.import_package())
    return w


def _failures(workload, op: Op, output) -> list[str]:
    """Feed one recorded output through the benchmark's loop."""
    workload.round = lambda: [Op(lambda: output, op.check)]
    return run.measure(workload, 0)[0]["errors"]


@pytest.fixture(scope="module")
def session():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        w = _prepared("cli-k5", workdir)
        [op] = w.round()
        yield w, op, op.run()


def _edited(result, edit):
    return types.SimpleNamespace(exit_code=result.exit_code, exception=result.exception,
                                 stdout=edit(result.stdout), output=edit(result.output))


def test_session_outputs_pass(session):
    w, op, results = session
    assert _failures(w, op, results) == []


def test_check_that_raises_is_a_failed_operation(session):
    w, op, results = session
    truncated = list(results)
    truncated[0] = None  # a validate result without stdout
    errors = _failures(w, op, truncated)
    assert len(errors) == 1 and errors[0].startswith("raised")


def test_dropped_aggregate_pair_fails(session):
    w, op, results = session
    corrupted = list(results)
    corrupted[1] = _edited(results[1], lambda out: "".join(out.splitlines(True)[1:]))
    errors = _failures(w, op, corrupted)
    assert len(errors) == 1 and errors[0].startswith("aggregate")


def test_flipped_choice_world_fails(session):
    w, op, results = session

    def flip(out):
        flags, choice = out.splitlines()
        chosen = choice.split()[1:]
        other = next(x for x in w.sc.worlds if x not in chosen)
        return f"{flags}\nchoice: {' '.join(chosen[1:] + [other])}\n"

    corrupted = list(results)
    corrupted[2] = _edited(results[2], flip)
    errors = _failures(w, op, corrupted)
    assert len(errors) == 1 and errors[0].startswith("query choice")


def test_wrong_fuse_rank_fails(session):
    w, op, results = session

    def relabel(out):
        lines = out.splitlines(True)
        pair, _, rank = lines[1].rpartition(" @ ")
        lines[1] = f"{pair} @ {int(rank) + 1}\n"
        return "".join(lines)

    corrupted = list(results)
    corrupted[3] = _edited(results[3], relabel)
    errors = _failures(w, op, corrupted)
    assert len(errors) == 1 and errors[0].startswith("fuse: pedigree")


def test_flipped_query_flag_fails():
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        w = _prepared("query-k8", workdir)
        ops = w.round()
        outputs = [op.run() for op in ops]
        answered = [(op, out) for op, out in zip(ops, outputs) if not isinstance(out, Exception)]
        assert len(answered) == len(ops) - 1  # one vacuous condition per round
        for op, out in answered:
            assert _failures(w, op, out) == []
            assert len(_failures(w, op, dataclasses.replace(out, bel=not out.bel))) == 1


def test_sim_final_state_mismatch_fails():
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        w = _prepared("sim-ring-k5", workdir)
        [op] = w.round()
        report = op.run()
        assert _failures(w, op, report) == []
        some = next(iter(report.final_states))
        state = report.final_states[some]
        x, y, r = state.entries[0]
        states = dict(report.final_states)
        states[some] = dataclasses.replace(state, entries=((x, y, r + 1),) + state.entries[1:])
        assert len(_failures(w, op, dataclasses.replace(report, final_states=states))) == 1
