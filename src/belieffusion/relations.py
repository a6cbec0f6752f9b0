"""Finite binary relations over a fixed world set, stored as row masks.

Everything downstream (belief states, aggregation, fusion) is built on
ordered pairs over a finite universe. A relation over n worlds is an
n x n boolean matrix kept as one Python int per world: bit y of
``rows[x]`` is set iff x is related to y, with worlds numbered in universe
declaration order. Column masks are the transpose, derived once per
relation when an operation needs them. Every predicate and operation is
row/column mask algebra, so a check costs O(n) to O(pairs) big-int
operations rather than a sweep over pairs of pairs; the modularity and
transitivity witnesses are one search that differs only in the mask its
third world is drawn from. World names appear only at the boundary:
``relation(u, pairs)``, ``.pairs``, ``.has`` and ``WorldUniverse.names``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Sequence

from .bitset import bits, lowest, transpose

Pair = tuple[str, str]
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to compress()'s 0/1 flags


class UniverseMismatchError(ValueError):
    """Raised when relations over different universes are combined."""


class UnknownWorldError(ValueError):
    """Raised when a world identifier is not part of the universe."""


class EmptySubsetError(ValueError):
    """Raised when a choice set is requested for the empty subset."""


@dataclass(frozen=True)
class WorldUniverse:
    """An ordered, non-empty set of distinct world identifiers.

    Iteration order is declaration order and is stable; it keys every
    deterministic ordering in the package (printing, DOT export, wire
    formats) and numbers the bits of every mask.
    """

    worlds: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.worlds:
            raise ValueError("universe must contain at least one world")
        if len(set(self.worlds)) != len(self.worlds):
            raise ValueError("world identifiers must be unique")
        object.__setattr__(self, "worlds", tuple(self.worlds))
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.worlds)})

    def __contains__(self, world: str) -> bool:
        return world in self._index

    def __iter__(self):
        return iter(self.worlds)

    def __len__(self) -> int:
        return len(self.worlds)

    def index(self, world: str) -> int:
        try:
            return self._index[world]
        except KeyError:
            raise UnknownWorldError(f"unknown world {world!r}") from None

    def mask(self, worlds: Iterable[str]) -> int:
        """The bit mask of a set of worlds."""
        m = 0
        for w in worlds:
            m |= 1 << self.index(w)
        return m

    def names(self, mask: int) -> list[str]:
        """The worlds of a bit mask, in declaration order, read in C from its lowest to its highest set bit."""
        low = max(lowest(mask), 0)
        flags = format(mask >> low, "b")[::-1].encode().translate(_DIGITS)
        return list(compress(self.worlds[low : mask.bit_length()], flags))


def universe(*worlds: str) -> WorldUniverse:
    return WorldUniverse(tuple(worlds))


@dataclass(frozen=True)
class Relation:
    """A boolean matrix over a universe, one row mask per world.

    ``rows[x]`` has bit y set iff (world x, world y) is in the relation.
    Build one from world-name pairs with ``relation(u, pairs)``.
    """

    universe: WorldUniverse
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        n = len(self.universe)
        if len(self.rows) != n or max(self.rows) >> n or min(self.rows) < 0:
            raise ValueError(f"a relation over {n} worlds needs {n} row masks below 2**{n}")

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Column masks: bit x of ``cols[y]`` is set iff x is related to y."""
        return transpose(self.rows)

    @property
    def pairs(self) -> frozenset[Pair]:
        u = self.universe
        return frozenset((x, y) for x, row in zip(u.worlds, self.rows) for y in u.names(row))

    def __contains__(self, pair: Pair) -> bool:
        return self.has(*pair)

    def has(self, x: str, y: str) -> bool:
        index = self.universe._index
        if x not in index or y not in index:
            return False
        return bool(self.rows[index[x]] >> index[y] & 1)


def relation(u: WorldUniverse, pairs: Iterable[Pair] = ()) -> Relation:
    index = u._index
    rows = [0] * len(u)
    for x, y in pairs:
        if x not in index or y not in index:
            raise UnknownWorldError(f"pair ({x!r}, {y!r}) is not over the universe")
        rows[index[x]] |= 1 << index[y]
    return Relation(u, tuple(rows))


def _full(r: Relation) -> int:
    return (1 << len(r.rows)) - 1


@dataclass(frozen=True)
class PropertyFlags:
    reflexive: bool
    irreflexive: bool
    symmetric: bool
    asymmetric: bool
    antisymmetric: bool
    total: bool
    modular: bool
    transitive: bool
    quasi_transitive: bool
    acyclic: bool


def classify_properties(r: Relation) -> PropertyFlags:
    """Evaluate the standard relation properties by row/column algebra.

    Quasi-transitivity and acyclicity are evaluated on the strict version
    of ``r``; acyclicity means the strict version has no directed cycle.
    The strict version of a transitive relation is transitive, so only a
    relation that is not transitive needs the search on its strict
    version. A quasi-transitive relation is acyclic (its strict version is
    a strict partial order), so only a relation that is not
    quasi-transitive needs the transitive closure of its strict version
    for that flag.
    """
    rows, cols, full = r.rows, r.cols, _full(r)
    loops = [row >> x & 1 for x, row in enumerate(rows)]
    both = [row & col for row, col in zip(rows, cols)]
    strict = strict_version(r)
    transitive = transitivity_witness(r) is None
    quasi_transitive = transitive or transitivity_witness(strict) is None
    return PropertyFlags(
        reflexive=all(loops),
        irreflexive=not any(loops),
        symmetric=rows == cols,
        asymmetric=not any(both),
        antisymmetric=all(m & ~(1 << x) == 0 for x, m in enumerate(both)),
        total=all(row | col == full for row, col in zip(rows, cols)),
        modular=modularity_witness(r) is None,
        transitive=transitive,
        quasi_transitive=quasi_transitive,
        acyclic=quasi_transitive
        or not any(row >> x & 1 for x, row in enumerate(transitive_closure(strict).rows)),
    )


def modularity_witness(r: Relation) -> tuple[str, str, str] | None:
    """The first triple (x, y, z) with x r y but neither x r z nor z r y:
    z is a bit of ``~col[y] & ~row[x]``."""
    return _first_witness(r, r.cols, _full(r))


def transitivity_witness(r: Relation) -> tuple[str, str, str] | None:
    """The first triple (x, y, z) with x r y and y r z but not x r z:
    z is a bit of ``row[y] & ~row[x]``."""
    return _first_witness(r, r.rows, 0)


def _first_witness(r: Relation, table: Sequence[int], flip: int) -> tuple[str, str, str] | None:
    """The first (x, y, z) with x r y and z in ``(table[y] ^ flip) & ~row[x]``.

    "First" is in row-major universe order of (x, y), then universe order
    of z: for each pair, the lowest bit of that mask. The answer depends
    on x only through its row, so a row already found clean is skipped,
    and so is a full row, which leaves no z.
    """
    rows, full = r.rows, _full(r)
    ws = r.universe.worlds
    clean: set[int] = set()
    for x, row in enumerate(rows):
        if row == full or row in clean:
            continue
        for y in bits(row):
            zs = (table[y] ^ flip) & ~row
            if zs:
                return (ws[x], ws[y], ws[lowest(zs)])
        clean.add(row)
    return None


def strict_version(r: Relation) -> Relation:
    """Keep (x, y) iff the reverse pair is absent (the asymmetric part)."""
    return Relation(r.universe, tuple(row & ~col for row, col in zip(r.rows, r.cols)))


def transitive_closure(r: Relation) -> Relation:
    """Smallest transitive superset of ``r`` (paths of length >= 1).

    Warshall's algorithm over row masks: after step k, row i holds every
    world reachable from i through intermediates among the first k + 1.
    """
    rows = list(r.rows)
    n = len(rows)
    for k in range(n):
        row_k = rows[k]
        if not row_k:
            continue
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return Relation(r.universe, tuple(rows))


def choice_set(r: Relation, x_set: Iterable[str]) -> frozenset[str]:
    """Elements of ``x_set`` not strictly dominated by any other element.

    Domination is judged by the strict version of ``r``: x is dominated
    iff ``col[x] & ~row[x]`` meets the subset. An unknown world raises
    UnknownWorldError, else an empty subset EmptySubsetError. The result
    is non-empty for every subset exactly when ``r`` is acyclic.
    """
    u = r.universe
    subset = u.mask(x_set)
    if not subset:
        raise EmptySubsetError("choice set of the empty subset is undefined")
    rows, cols = r.rows, r.cols
    return frozenset(u.worlds[x] for x in bits(subset) if not cols[x] & ~rows[x] & subset)


def in_conflict(r: Relation, x: str, y: str) -> bool:
    """True iff x reaches y and y reaches x via chains of length >= 1.

    A self-loop (x, x) therefore puts x in conflict with itself. For a
    transitive relation this degenerates to both (x, y) and (y, x) being
    members.
    """
    r.universe.index(x)
    r.universe.index(y)
    reach = transitive_closure(r)
    return reach.has(x, y) and reach.has(y, x)


def union_all(rs: Sequence[Relation], u: WorldUniverse | None = None) -> Relation:
    """Pairwise union of relations sharing one universe.

    ``u`` is required only when ``rs`` is empty (the result is then the
    empty relation over ``u``). An input that already holds the whole
    union is returned as is, keeping its derived column masks.
    """
    if not rs:
        if u is None:
            raise ValueError("union of no relations needs an explicit universe")
        return relation(u)
    base = rs[0].universe
    if u is not None and u != base:
        raise UniverseMismatchError("explicit universe differs from the relations'")
    rows = rs[0].rows
    for r in rs[1:]:
        if r.universe != base:
            raise UniverseMismatchError("relations span different universes")
        rows = tuple([a | b for a, b in zip(rows, r.rows)])
    for r in rs:
        if r.rows == rows:
            return r
    return Relation(base, rows)
