"""Bit-mask helpers for square boolean matrices kept as one int per row.

Bit ``j`` of ``rows[i]`` is the matrix cell (i, j). These are the few
primitives the relation code needs beyond plain ``&``, ``|`` and ``~``:
iterating the set bits of a row, its lowest set bit, and the transpose
(rows to columns).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest(mask: int) -> int:
    """Index of the lowest set bit of a non-zero ``mask``."""
    return (mask & -mask).bit_length() - 1


@lru_cache(maxsize=None)
def _swap_steps(size: int) -> tuple[tuple[int, int], ...]:
    """(distance, mask) of each block swap of a size x size transpose.

    At step s (size/2, size/4, ..., 1) every cell (i, j) with bit s clear
    in i and set in j trades places with (i + s, j - s), which lies
    s * (size - 1) bits further up in the packed matrix.
    """
    width = size // 8
    steps = []
    s = size // 2
    while s:
        row = sum(1 << j for j in range(size) if j & s).to_bytes(width, "little")
        zero = bytes(width)
        packed = b"".join(zero if i & s else row for i in range(size))
        steps.append((s * (size - 1), int.from_bytes(packed, "little")))
        s //= 2
    return tuple(steps)


def transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """Column masks of the square matrix ``rows``.

    The rows are packed into one int (padded to a power-of-two width of
    at least 8) and transposed by log2(width) masked swaps of off-diagonal
    blocks (Hacker's Delight, section 7-3), so the cost is a handful of
    big-int operations rather than one per set bit.
    """
    n = len(rows)
    size = 8
    while size < n:
        size *= 2
    width = size // 8
    packed = int.from_bytes(b"".join(row.to_bytes(width, "little") for row in rows), "little")
    for distance, mask in _swap_steps(size):
        t = (packed ^ (packed >> distance)) & mask
        packed ^= t ^ (t << distance)
    data = packed.to_bytes(width * size, "little")
    return tuple(int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(n))
