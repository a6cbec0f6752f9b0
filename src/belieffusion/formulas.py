"""Propositional formulas, valuation worlds, and mask-valued evaluation.

The query language is classical propositional logic with ASCII
connectives. Grammar, loosest first:

    iff   := imp ("<->" imp)*
    imp   := or ("->" imp)?          # right-associative
    or    := and ("|" and)*
    and   := unary ("&" unary)*
    unary := "!" unary | var | "true" | "false" | "(" iff ")"

Variables match [A-Za-z_][A-Za-z0-9_]* minus the keywords; whitespace is
insignificant.

A formula is evaluated over a whole valuation universe at once, as a bit
mask in universe order (a truth table as a bit vector): a variable is the
mask of the worlds where it is true, and each connective is one big-int
operation on its operands' masks. ``models_mask`` makes one pass over the
formula tree, whatever the number of worlds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Union

from .relations import UnknownWorldError, WorldUniverse

KEYWORDS = frozenset({"true", "false"})
_OPERATORS = frozenset({"<->", "->", "!", "&", "|", "(", ")"})

# One alternative per token kind; ``bad`` catches the first character no
# token can start with. Whitespace matches nothing and is skipped.
_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><->|->|[!&|()])|(?P<bad>\S)"
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


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(token, offset) for each token of ``text``, in one scan.

    Every token is an operator or a name, so a token that is not in
    ``_OPERATORS`` is a name.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise FormulaSyntaxError(m.start(), f"unexpected character {m.group()!r}")
        tokens.append((m.group(), m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
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
        if tok not in _OPERATORS:
            self.pos += 1
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
    lazy evaluation would never reach. This is the mask evaluation over a
    universe of one world.
    """
    return _evaluate(f, {var: 1 if value else 0 for var, value in valuation.items()}, 1) == 1


def _evaluate(f: Formula, masks: Mapping[str, int], full: int) -> int:
    """The mask of the worlds satisfying ``f``, given each variable's mask."""
    try:
        return _mask(f, masks, full)
    except KeyError:
        missing = variables_of(f) - set(masks)
        raise UndeclaredVariableError(
            f"undeclared variable(s): {', '.join(sorted(missing))}"
        ) from None


def _mask(f: Formula, masks: Mapping[str, int], full: int) -> int:
    # Both operands of a binary connective are always evaluated, so an
    # undeclared variable anywhere in f raises KeyError.
    if isinstance(f, Var):
        return masks[f.name]
    if isinstance(f, Const):
        return full if f.value else 0
    if isinstance(f, Not):
        return full & ~_mask(f.operand, masks, full)
    a = _mask(f.left, masks, full)
    b = _mask(f.right, masks, full)
    if isinstance(f, And):
        return a & b
    if isinstance(f, Or):
        return a | b
    if isinstance(f, Implies):
        return (full & ~a) | b
    return full & ~(a ^ b)


@dataclass(frozen=True)
class PropUniverse:
    """A world universe whose worlds are valuations of declared variables."""

    variables: tuple[str, ...]
    universe: WorldUniverse
    valuations: tuple[tuple[str, tuple[bool, ...]], ...]
    _by_name: dict[str, tuple[bool, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_name", dict(self.valuations))

    @cached_property
    def masks(self) -> Mapping[str, int]:
        """Per variable, the mask of the worlds where it is true (read-only)."""
        masks = dict.fromkeys(self.variables, 0)
        for name, values in self.valuations:
            bit = 1 << self.universe.index(name)
            for var, value in zip(self.variables, values):
                if value:
                    masks[var] |= bit
        return MappingProxyType(masks)

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


def models_mask(pu: PropUniverse, f: Formula) -> int:
    """The mask of the worlds of ``pu`` whose valuations satisfy ``f``.

    Every variable of ``f`` must be declared, even ones a lazy evaluation
    would never reach; the error names all the undeclared ones.
    """
    return _evaluate(f, pu.masks, (1 << len(pu.universe)) - 1)


def models(pu: PropUniverse, f: Formula) -> frozenset[str]:
    """The worlds of ``pu`` whose valuations satisfy ``f``."""
    return frozenset(pu.universe.names(models_mask(pu, f)))
