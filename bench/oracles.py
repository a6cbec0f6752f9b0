"""Reference answers computed from the definitions with plain pair sets.

These take the generator's own description of the input (world names,
ranked pair sets) and never call the package under test, so every check
in the benchmark compares the program with a second, independent route
to the same answer.
"""

from __future__ import annotations

from typing import Iterable

Pair = tuple[str, str]


def layered_pairs(blocks) -> frozenset[Pair]:
    """The relation of an ordered block partition, most likely block
    first: every world of a block is below every world of later blocks,
    and a connected block relates all its worlds to each other."""
    pairs = set()
    for i, (bi, connected) in enumerate(blocks):
        if connected:
            pairs.update((x, y) for x in bi for y in bi)
        for bj, _ in blocks[i + 1 :]:
            pairs.update((x, y) for x in bi for y in bj)
    return frozenset(pairs)


def refine(sources: Iterable) -> frozenset[Pair]:
    """Refinement: keep x<y iff some source asserts it and every strictly
    higher-ranked source holds neither x<y nor y<x."""
    sources = list(sources)
    out = set()
    for s in sources:
        higher = [t.pairs for t in sources if t.rank > s.rank]
        out.update(
            (x, y) for x, y in s.pairs if not any((x, y) in h or (y, x) in h for h in higher)
        )
    return frozenset(out)


def labelled_refinement(sources: Iterable) -> dict[Pair, int]:
    """The refinement with each pair labelled by the highest rank of a
    source asserting it (the pedigree of the sources)."""
    sources = list(sources)
    return {p: max(s.rank for s in sources if p in s.pairs) for p in refine(sources)}


def closure(pairs: Iterable[Pair], worlds: Iterable[str]) -> frozenset[Pair]:
    """Reachability by paths of length >= 1, by depth-first search."""
    succ: dict[str, set[str]] = {w: set() for w in worlds}
    for x, y in pairs:
        succ[x].add(y)
    out = set()
    for start in succ:
        seen: set[str] = set()
        stack = list(succ[start])
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(succ[w])
        out.update((start, w) for w in seen)
    return frozenset(out)


def choice(pairs: frozenset[Pair], xs: Iterable[str]) -> frozenset[str]:
    """Members of xs that no other member is strictly below."""
    xs = frozenset(xs)
    return frozenset(
        x for x in xs if not any((y, x) in pairs and (x, y) not in pairs for y in xs)
    )


def class_tokens(pairs: frozenset[Pair], worlds: tuple[str, ...]) -> set[str]:
    """The validate tokens that hold for a relation, from their definitions.

    Q< is given by its closed form: the strict parts of total
    quasi-transitive relations are exactly the asymmetric, transitive
    relations.
    """
    def transitive(rel) -> bool:
        succ = {w: {y for (x, y) in rel if x == w} for w in worlds}
        return all(succ[y] <= succ[x] for x in worlds for y in succ[x])

    modular = all(
        (x, z) in pairs or (z, y) in pairs for (x, y) in pairs for z in worlds
    )
    total = all((x, y) in pairs or (y, x) in pairs for x in worlds for y in worlds)
    strict = {(x, y) for (x, y) in pairs if (y, x) not in pairs}
    irreflexive = all((w, w) not in pairs for w in worlds)
    tokens = set()
    if modular and transitive(pairs):
        tokens.add("B")
        if irreflexive:
            tokens.add("T<")
    if total and transitive(pairs):
        tokens.add("T")
    if total and transitive(strict):
        tokens.add("Q")
    if strict == pairs and transitive(pairs):
        tokens.add("Q<")
    return tokens


def first_modularity_violation(pairs: frozenset[Pair], worlds: tuple[str, ...]):
    """The first (x, y, z) with x<y but neither x<z nor z<y, scanning x<y
    in declaration order and then z; None if the relation is modular."""
    for x in worlds:
        for y in worlds:
            if (x, y) in pairs:
                for z in worlds:
                    if (x, z) not in pairs and (z, y) not in pairs:
                        return (x, y, z)
    return None


def layers_relation(line: str) -> frozenset[Pair]:
    """Read the ``[a b] > [c]*`` layers syntax back into its relation."""
    blocks = []
    for part in line.split(">"):
        part = part.strip()
        connected = part.endswith("*")
        body = part.rstrip("*").strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"malformed block {part!r}")
        blocks.append((body[1:-1].split(), connected))
    return layered_pairs(blocks)
