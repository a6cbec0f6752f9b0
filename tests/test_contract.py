"""The contract comparison script (``tools/contract.py``), run on this
tree against itself: every stream of every invocation must agree."""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).parent.parent

spec = importlib.util.spec_from_file_location("contract", ROOT / "tools" / "contract.py")
contract = importlib.util.module_from_spec(spec)
sys.modules["contract"] = contract  # dataclasses look their module up by name
spec.loader.exec_module(contract)


def test_tree_matches_itself():
    files = {"telemetry.scn": (ROOT / "scenarios" / "telemetry.scn").read_bytes()}
    invocations = [
        contract.Invocation("validate", "telemetry.scn"),
        contract.Invocation("fuse", "telemetry.scn", ("--out", "fused.txt")),
        contract.Invocation("aggregate", "telemetry.scn", ("--sources", ",")),
    ]
    results = contract.compare(ROOT, ROOT, files, invocations)
    assert [(inv, a == b) for inv, a, b in results] == [(inv, True) for inv in invocations]
    validate, fuse, aggregate = (a for _, a, _ in results)
    assert (validate.exit, validate.stderr, validate.out) == ("0", b"", None)
    assert validate.stdout.startswith(b"OK developer ")
    assert fuse.exit == "0" and fuse.out is not None and fuse.stdout.startswith(fuse.out)
    assert (aggregate.exit, aggregate.stdout, aggregate.stderr) == ("2", b"", b"unknown source id ''\n")


def test_differences_name_the_stream_and_line():
    a = contract.Outcome("2", b"", b"unknown source id(s): zz\n", None)
    b = contract.Outcome("2", b"", b"unknown source id 'zz'\n", None)
    assert contract.first_differences(a, b) == [
        "  stderr line 1: parent 'unknown source id(s): zz', change \"unknown source id 'zz'\""
    ]
    assert contract.first_differences(a, a) == []
    # a missing trailing newline, and an --out file written on one side only
    c = contract.Outcome("0", b"x", b"", b"pedigree\n")
    d = contract.Outcome("0", b"x\n", b"", None)
    assert contract.first_differences(c, d) == [
        "  stdout line 2: parent (none), change ''",
        "  out line 1: parent 'pedigree', change (none)",
    ]
