"""Propositional formulas, valuation worlds, and the satisfaction sweep.

The query language is classical propositional logic with ASCII
connectives. Grammar, loosest first:

    iff   := imp ("<->" imp)*
    imp   := or ("->" imp)?          # right-associative
    or    := and ("|" and)*
    and   := unary ("&" unary)*
    unary := "!" unary | var | "true" | "false" | "(" iff ")"

Variables match [A-Za-z_][A-Za-z0-9_]* minus the keywords; whitespace is
insignificant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Union

from .relations import UnknownWorldError, WorldUniverse

KEYWORDS = frozenset({"true", "false"})

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><->|->|[!&|()]))"
)


class FormulaSyntaxError(ValueError):
    """Syntax error with the byte offset of the offending input."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"at offset {offset}: {message}")
        self.offset = offset
        self.reason = message


class UndeclaredVariableError(ValueError):
    """A formula mentions a variable the universe does not declare."""


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


Formula = Union[Var, Const, Not, And, Or, Implies, Iff]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos:].isspace():
                break
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
                raise FormulaSyntaxError(bad, f"unexpected character {text[bad]!r}")
            self.tokens.append((m.group("name") or m.group("op"), m.start("name") if m.group("name") else m.start("op")))
            pos = m.end()
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def offset(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def take(self, expected: str) -> None:
        if self.peek() != expected:
            raise FormulaSyntaxError(
                self.offset(), f"expected {expected!r}, found {self.peek()!r}"
            )
        self.pos += 1

    def parse(self) -> Formula:
        f = self.iff()
        if self.peek() is not None:
            raise FormulaSyntaxError(
                self.offset(), f"unexpected trailing token {self.peek()!r}"
            )
        return f

    def iff(self) -> Formula:
        f = self.imp()
        while self.peek() == "<->":
            self.take("<->")
            f = Iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        f = self.disj()
        if self.peek() == "->":
            self.take("->")
            return Implies(f, self.imp())
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.take("|")
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.take("&")
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError(self.offset(), "expected a formula, found end of input")
        if tok == "!":
            self.take("!")
            return Not(self.unary())
        if tok == "(":
            self.take("(")
            f = self.iff()
            self.take(")")
            return f
        if tok == "true":
            self.take("true")
            return Const(True)
        if tok == "false":
            self.take("false")
            return Const(False)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            self.take(tok)
            return Var(tok)
        raise FormulaSyntaxError(self.offset(), f"expected a formula, found {tok!r}")


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


_PRECEDENCE = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Var: 6, Const: 6}


def format_formula(f: Formula) -> str:
    """Canonical printer; parse_formula(format_formula(f)) == f."""

    def go(node: Formula, parent_level: int) -> str:
        level = _PRECEDENCE[type(node)]
        if isinstance(node, Var):
            s = node.name
        elif isinstance(node, Const):
            s = "true" if node.value else "false"
        elif isinstance(node, Not):
            s = "!" + go(node.operand, level)
        elif isinstance(node, And):
            s = f"{go(node.left, level)} & {go(node.right, level + 1)}"
        elif isinstance(node, Or):
            s = f"{go(node.left, level)} | {go(node.right, level + 1)}"
        elif isinstance(node, Implies):
            # right-associative: parenthesize a nested implication on the left
            s = f"{go(node.left, level + 1)} -> {go(node.right, level)}"
        else:
            s = f"{go(node.left, level)} <-> {go(node.right, level + 1)}"
        if level < parent_level:
            return f"({s})"
        return s

    return go(f, 0)


def variables_of(f: Formula) -> frozenset[str]:
    if isinstance(f, Var):
        return frozenset({f.name})
    if isinstance(f, Const):
        return frozenset()
    if isinstance(f, Not):
        return variables_of(f.operand)
    return variables_of(f.left) | variables_of(f.right)


def satisfies(valuation: Mapping[str, bool], f: Formula) -> bool:
    """Truth-functional evaluation of ``f`` under a total valuation.

    Every variable of ``f`` must be in the valuation's domain, even ones a
    lazy evaluation would never reach.
    """
    missing = variables_of(f) - set(valuation)
    if missing:
        raise UndeclaredVariableError(
            f"undeclared variable(s): {', '.join(sorted(missing))}"
        )
    return _evaluate(valuation, f)


def _evaluate(valuation: Mapping[str, bool], f: Formula) -> bool:
    if isinstance(f, Var):
        return valuation[f.name]
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not _evaluate(valuation, f.operand)
    if isinstance(f, And):
        return _evaluate(valuation, f.left) and _evaluate(valuation, f.right)
    if isinstance(f, Or):
        return _evaluate(valuation, f.left) or _evaluate(valuation, f.right)
    if isinstance(f, Implies):
        return (not _evaluate(valuation, f.left)) or _evaluate(valuation, f.right)
    return _evaluate(valuation, f.left) == _evaluate(valuation, f.right)


@dataclass(frozen=True)
class PropUniverse:
    """A world universe whose worlds are valuations of declared variables."""

    variables: tuple[str, ...]
    universe: WorldUniverse
    valuations: tuple[tuple[str, tuple[bool, ...]], ...]
    _by_name: dict[str, tuple[bool, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_name", dict(self.valuations))

    def valuation(self, world: str) -> dict[str, bool]:
        try:
            return dict(zip(self.variables, self._by_name[world]))
        except KeyError:
            raise UnknownWorldError(f"unknown world {world!r}") from None

    def rename_world(self, old: str, new: str) -> "PropUniverse":
        if new in self.universe.worlds and new != old:
            raise ValueError(f"world name {new!r} already in use")
        worlds = tuple(new if w == old else w for w in self.universe.worlds)
        if worlds == self.universe.worlds:
            raise UnknownWorldError(f"unknown world {old!r}")
        vals = tuple((new if n == old else n, bits) for n, bits in self.valuations)
        return PropUniverse(self.variables, WorldUniverse(worlds), vals)


def canonical_world_name(variables: tuple[str, ...], bits: tuple[bool, ...]) -> str:
    return ".".join(v if b else "!" + v for v, b in zip(variables, bits))


def generate_universe(variables: tuple[str, ...] | list[str]) -> PropUniverse:
    """All 2^k valuation worlds, first variable most significant, true first.

    World names are dot-joined literal tokens, e.g. ``F.!D``.
    """
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("variable names must be distinct")
    if not variables:
        raise ValueError("at least one variable is required")
    k = len(variables)
    rows: list[tuple[str, tuple[bool, ...]]] = []
    for i in range(2**k):
        bits = tuple((i >> (k - 1 - j)) & 1 == 0 for j in range(k))
        rows.append((canonical_world_name(variables, bits), bits))
    return PropUniverse(
        variables, WorldUniverse(tuple(name for name, _ in rows)), tuple(rows)
    )


def models(pu: PropUniverse, f: Formula) -> frozenset[str]:
    """The worlds of ``pu`` whose valuations satisfy ``f``."""
    missing = variables_of(f) - set(pu.variables)
    if missing:
        raise UndeclaredVariableError(
            f"undeclared variable(s): {', '.join(sorted(missing))}"
        )
    return frozenset(
        name
        for name, bits in pu.valuations
        if _evaluate(dict(zip(pu.variables, bits)), f)
    )
