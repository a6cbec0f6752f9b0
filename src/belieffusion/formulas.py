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

Parsing is one operator-precedence loop over the token strings, which
one ``findall`` reads in a single pass; a token's offset is worked out
only when an error is raised. Each distinct name of a formula becomes one
leaf node, shared by all its occurrences: nodes are immutable. No walk
over a tree recurses, so a formula of any nesting depth or length is
accepted. Evaluation, ``variables_of`` and the nodes' ``==`` and ``hash``
are folds over one post-order walk; printing and ``repr`` each use an
explicit stack.

A formula is evaluated over a whole valuation universe at once, as a bit
mask in universe order (a truth table as a bit vector): a variable is the
mask of the worlds where it is true, and each connective is one big-int
operation on its operands' masks. ``models_mask`` makes one pass over the
formula tree, with no recursion, whatever the number of worlds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Mapping, Union

from .relations import WorldUniverse

KEYWORDS = frozenset({"true", "false"})
_OPERATORS = frozenset({"<->", "->", "!", "&", "|", "(", ")"})

# The one rule for names: a formula token, and (minus the keywords) a
# variable that ``generate_universe`` accepts.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# A name, an operator, or any other character but whitespace, which no
# token can start with: a token that is neither an operator nor a name is
# a bad character. Whitespace matches nothing and is skipped.
_TOKEN_RE = re.compile(rf"{_NAME_RE.pattern}|<->|->|[!&|()]|\S")


class FormulaSyntaxError(ValueError):
    """Syntax error with the byte offset of the offending input."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"at offset {offset}: {message}")
        self.offset = offset
        self.reason = message


class UndeclaredVariableError(ValueError):
    """A formula mentions a variable the universe does not declare."""


class _Node:
    """``==``, ``hash`` and ``repr`` of the formula nodes, none of which
    recurses: the dataclass-generated ones do, and fail on deep trees.

    ``==`` and ``hash`` read one key per tree: its nodes' classes in
    post-order, each leaf's with its values. Every class has a fixed
    arity, so the key determines the tree. ``repr`` is one loop over an
    explicit stack and prints what the dataclass one would.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def _key(self) -> tuple:
        return tuple(
            (node.__class__, node._values() if type(node) in (Var, Const) else ())
            for node in _postorder(self)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        pieces: list[str] = []
        todo: list = [self]  # text still to write, and nodes, the next one last
        while todo:
            item = todo.pop()
            if not isinstance(item, _Node):
                pieces.append(item)
                continue
            parts = [f"{item.__class__.__qualname__}("]
            for i, (name, value) in enumerate(zip(item.__dataclass_fields__, item._values())):
                parts += [f"{', ' if i else ''}{name}=", value if isinstance(value, _Node) else repr(value)]
            parts.append(")")
            todo += reversed(parts)
        return "".join(pieces)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Const(_Node):
    value: bool


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Not(_Node):
    operand: "Formula"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Implies(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Iff(_Node):
    left: "Formula"
    right: "Formula"


Formula = Union[Var, Const, Not, And, Or, Implies, Iff]


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(token, offset) for each token of ``text``: the parser's error path.

    The tokens are ``parse_formula``'s, and only whitespace lies between
    two of them, so a token stands where it first occurs after the end
    of the previous one. The first token that is neither an operator nor
    a name is a bad character, and raises.
    """
    tokens = []
    end = 0
    for tok in _TOKEN_RE.findall(text):
        start = text.index(tok, end)
        if tok not in _OPERATORS and not _NAME_RE.match(tok):
            raise FormulaSyntaxError(start, f"unexpected character {tok!r}")
        tokens.append((tok, start))
        end = start + len(tok)
    return tokens


def _error(text: str, at: int, reason: str) -> FormulaSyntaxError:
    """The error at token ``at`` of ``text``, past its end if there is no
    such token; a bad character anywhere in ``text`` raises first."""
    tokens = _tokenize(text)
    return FormulaSyntaxError(tokens[at][1] if at < len(tokens) else len(text), reason)


# Binary connectives: (precedence level, node), loosest first. "!" binds
# at level _NOT_LEVEL, tighter than all of them; "->" is the only
# right-associative connective.
_BINARY = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or), "&": (4, And)}
_NOT_LEVEL = 5
_SYMBOL = {node: (symbol, level) for symbol, (level, node) in _BINARY.items()}


def parse_formula(text: str) -> Formula:
    """Operator-precedence parse of ``text``, one loop over its token
    strings; offsets are found by ``_error``, only when one is raised.

    ``pending`` holds the open parentheses, as (0, None), and the
    connectives still waiting for their right operand, as (level, node).
    A connective applies every pending one at its level or tighter (for
    "->", only strictly tighter ones) before it is pushed; ")" and the
    end of input apply all of them down to the innermost "(". ``leaves``
    holds the one leaf of each name read so far.
    """
    tokens: list[str | None] = _TOKEN_RE.findall(text)
    tokens.append(None)  # the end of input
    leaves: dict[str, Formula] = {}
    operands: list[Formula] = []
    pending: list[tuple[int, type | None]] = []
    want_operand = True
    for at, tok in enumerate(tokens):
        if want_operand:
            if tok == "!":
                pending.append((_NOT_LEVEL, Not))
            elif tok == "(":
                pending.append((0, None))
            else:
                leaf = leaves.get(tok)
                if leaf is None:
                    if tok is None or not _NAME_RE.match(tok):  # an operator, or a bad character
                        found = "end of input" if tok is None else repr(tok)
                        raise _error(text, at, f"expected a formula, found {found}")
                    leaf = leaves[tok] = Const(tok == "true") if tok in KEYWORDS else Var(tok)
                operands.append(leaf)
                want_operand = False
            continue
        binary = _BINARY.get(tok)
        floor = binary[0] if binary else 1
        if tok == "->":
            floor += 1  # right-associative: a pending "->" stays pending
        while pending and pending[-1][0] >= floor:
            node = pending.pop()[1]
            if node is Not:
                operands[-1] = Not(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = node(operands[-1], right)
        # Unless tok is a connective, pending is now empty or ends in the
        # innermost open "(".
        if binary:
            pending.append(binary)
            want_operand = True
        elif pending and tok == ")":
            pending.pop()
        elif pending:
            raise _error(text, at, f"expected ')', found {tok!r}")
        elif tok is not None:
            raise _error(text, at, f"unexpected trailing token {tok!r}")
    return operands[0]


def format_formula(f: Formula) -> str:
    """Canonical printer; parse_formula(format_formula(f)) == f.

    ``todo`` holds literal text and (node, level) pairs still to print,
    the next one last; a node looser than its level is parenthesized.
    """
    pieces: list[str] = []
    todo: list = [(f, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        node, outer = item
        kind = type(node)
        if kind is Var:
            pieces.append(node.name)
        elif kind is Const:
            pieces.append("true" if node.value else "false")
        elif kind is Not:
            # nothing binds tighter than "!", so it is never parenthesized
            pieces.append("!")
            todo.append((node.operand, _NOT_LEVEL))
        else:
            symbol, level = _SYMBOL[kind]
            if level < outer:
                pieces.append("(")
                todo.append(")")
            # a nested operand at the same level goes on the right, except
            # for the right-associative "->"
            left, right = (level + 1, level) if kind is Implies else (level, level + 1)
            todo += [(node.right, right), f" {symbol} ", (node.left, left)]
    return "".join(pieces)


def _postorder(f: Formula) -> list[Formula]:
    """The nodes of ``f``, each after its operands, left operand first."""
    order = []
    todo = [f]
    while todo:
        node = todo.pop()
        order.append(node)
        kind = type(node)
        if kind is Not:
            todo.append(node.operand)
        elif kind is not Var and kind is not Const:
            todo += [node.left, node.right]
    order.reverse()
    return order


def variables_of(f: Formula) -> frozenset[str]:
    return frozenset(node.name for node in _postorder(f) if type(node) is Var)


def satisfies(valuation: Mapping[str, bool], f: Formula) -> bool:
    """Truth-functional evaluation of ``f`` under a total valuation.

    Every variable of ``f`` must be in the valuation's domain, even ones a
    lazy evaluation would never reach. This is the mask evaluation over a
    universe of one world.
    """
    return _evaluate(f, {var: 1 if value else 0 for var, value in valuation.items()}, 1) == 1


def _evaluate(f: Formula, masks: Mapping[str, int], full: int) -> int:
    """The mask of the worlds satisfying ``f``, given each variable's mask.

    A fold over the post-order walk with a stack of operand masks. Every
    node is evaluated, so an undeclared variable anywhere in ``f`` is an
    error.
    """
    values: list[int] = []
    try:
        for node in _postorder(f):
            kind = type(node)
            if kind is Var:
                values.append(masks[node.name])
            elif kind is Const:
                values.append(full if node.value else 0)
            elif kind is Not:
                values[-1] = full & ~values[-1]
            else:
                b = values.pop()
                a = values[-1]
                if kind is And:
                    values[-1] = a & b
                elif kind is Or:
                    values[-1] = a | b
                elif kind is Implies:
                    values[-1] = (full & ~a) | b
                else:
                    values[-1] = full & ~(a ^ b)
    except KeyError:
        missing = variables_of(f) - set(masks)
        raise UndeclaredVariableError(
            f"undeclared variable(s): {', '.join(sorted(missing))}"
        ) from None
    return values[0]


@dataclass(frozen=True)
class PropUniverse:
    """A world universe whose worlds are valuations of declared variables."""

    variables: tuple[str, ...]
    universe: WorldUniverse
    valuations: tuple[tuple[str, tuple[bool, ...]], ...]

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
        bit = 1 << self.universe.index(world)
        return {v: bool(m & bit) for v, m in self.masks.items()}

    def rename_world(self, old: str, new: str) -> "PropUniverse":
        if new != old and new in self.universe:
            raise ValueError(f"world name {new!r} already in use")
        self.universe.index(old)  # raises for an unknown world
        worlds = tuple(new if w == old else w for w in self.universe.worlds)
        vals = tuple((new if n == old else n, bits) for n, bits in self.valuations)
        return PropUniverse(self.variables, WorldUniverse(worlds), vals)


def canonical_world_name(variables: tuple[str, ...], bits: tuple[bool, ...]) -> str:
    return ".".join(v if b else "!" + v for v, b in zip(variables, bits))


def generate_universe(variables: tuple[str, ...] | list[str]) -> PropUniverse:
    """All 2^k valuation worlds, first variable most significant, true first.

    World names are dot-joined literal tokens, e.g. ``F.!D``. Each
    variable must be a name a formula can mention: it matches
    ``[A-Za-z_][A-Za-z0-9_]*`` and is not a keyword (``true``, ``false``).
    That is checked first, then that the names are distinct.
    """
    variables = tuple(variables)
    for v in variables:
        if v in KEYWORDS or not _NAME_RE.fullmatch(v):
            raise ValueError(f"invalid variable name {v!r}")
    if len(set(variables)) != len(variables):
        raise ValueError("variable names must be distinct")
    if not variables:
        raise ValueError("at least one variable is required")
    # product() varies its last factor fastest, so the first variable is
    # the most significant, and each factor lists true first.
    names = tuple(map(".".join, product(*[(v, "!" + v) for v in variables])))
    valuations = product((True, False), repeat=len(variables))
    return PropUniverse(variables, WorldUniverse(names), tuple(zip(names, valuations)))


def models_mask(pu: PropUniverse, f: Formula) -> int:
    """The mask of the worlds of ``pu`` whose valuations satisfy ``f``.

    Every variable of ``f`` must be declared, even ones a lazy evaluation
    would never reach; the error names all the undeclared ones.
    """
    return _evaluate(f, pu.masks, (1 << len(pu.universe)) - 1)


def models(pu: PropUniverse, f: Formula) -> frozenset[str]:
    """The worlds of ``pu`` whose valuations satisfy ``f``."""
    return frozenset(pu.universe.names(models_mask(pu, f)))
