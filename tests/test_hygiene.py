"""Static checks on the package source: nothing it imports goes unused,
no private module-level name is left that nothing reads, the CLI opens
files only in its two I/O helpers and formats no pair, the scenario
reader translates library errors in one place, and README's module table
lists exactly the package's modules."""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "belieffusion"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, forward references in annotations
    (such as ``"Formula"``) included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name (``_x``, not ``__x__``) a module defines at its
    top level, as a function, class or constant, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.endswith("__"):
                names[name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    for sibling in PACKAGE.glob("*.py"):
        if sibling != path:
            used |= set(imported_names(ast.parse(sibling.read_text())))
    unread = sorted(f"{name} (line {line})" for name, line in private_definitions(tree).items() if name not in used)
    assert not unread, f"{path.name} defines private names nothing reads: {', '.join(unread)}"


def test_readme_layout_table_names_every_module():
    """README's "Library layout" table has one row per module of the
    package, ``__init__.py`` aside, and no row for a module that is gone."""
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    table = readme.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\| `belieffusion\.(\w+)` \|", table, re.MULTILINE)
    assert sorted(rows) == [p.stem for p in MODULES]


def test_cli_opens_files_only_in_load_and_write():
    """``_load`` and ``_write`` turn an OSError into a one-line usage
    error; an ``open`` anywhere else in the CLI would end in a traceback."""

    def opens(tree: ast.AST) -> int:
        return sum(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"
            for node in ast.walk(tree)
        )

    tree = ast.parse((PACKAGE / "cli.py").read_text())
    helpers = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in ("_load", "_write")]
    assert opens(tree) == sum(opens(f) for f in helpers)


def test_cli_formats_no_pair():
    """Pair text (``x < y``) is written by ``scenario._pair_lines`` alone;
    no string constant or f-string piece of the CLI spells one out."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    pieces = [
        node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert not [p for p in pieces if " < " in p]


def test_scenario_reader_translates_library_errors_once():
    """A ``ValueError`` from a library rule becomes a ParseError in the one
    handler of ``parse_scenario``'s line loop, and nowhere else."""

    def handlers(tree: ast.AST) -> int:
        return sum(
            isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name) and node.type.id == "ValueError"
            for node in ast.walk(tree)
        )

    tree = ast.parse((PACKAGE / "scenario.py").read_text())
    (reader,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "parse_scenario"]
    assert handlers(tree) == handlers(reader) == 1
