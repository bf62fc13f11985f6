"""Entropy packing: Kendall → compact re-encoding (paper §V-E).

Kendall coding is deliberately redundant — only ``g!`` of the
``2^{g(g-1)/2}`` bit vectors are valid — so after error correction the
group-based construction converts each group's Kendall word to the
compact representation "to maintain entropy".  As the paper notes, the
fix is partial: ``g!`` is not a power of two for ``g > 2``, so residual
non-uniformity remains; :func:`packing_loss_bits` quantifies it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import factorial, log2
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.grouping.kendall import (
    compact_bit_count,
    compact_encode,
    kendall_bit_count,
    kendall_decode,
    kendall_encode,
    pair_table,
)

#: Bits per limb of the multi-limb compact rank (exact at any size).
_LIMB_BITS = 32


def pack_group(kendall_bits: np.ndarray, size: int) -> np.ndarray:
    """Convert one group's (error-corrected) Kendall word to compact bits."""
    return compact_encode(kendall_decode(kendall_bits, size))


def unpack_group(compact_bits: np.ndarray, size: int) -> np.ndarray:
    """Convert one group's compact word back to Kendall bits."""
    from repro.grouping.kendall import compact_decode

    return kendall_encode(compact_decode(compact_bits, size))


def split_blocks(bits: np.ndarray,
                 sizes: Sequence[int]) -> List[np.ndarray]:
    """Split a concatenated Kendall bitstream into per-group words."""
    bits = np.asarray(bits)
    lengths = [kendall_bit_count(size) for size in sizes]
    if bits.shape != (sum(lengths),):
        raise ValueError(
            f"expected {sum(lengths)} bits for sizes {tuple(sizes)}")
    chunks = []
    offset = 0
    for length in lengths:
        chunks.append(bits[offset:offset + length])
        offset += length
    return chunks


class SizeLayout(NamedTuple):
    """A helper's groups bucketed by size (see :func:`size_layout`)."""

    #: ``(size, group count)`` per bucket, in order of first appearance.
    buckets: Tuple[Tuple[int, int], ...]
    #: Group indices in bucket order.
    groups: Tuple[int, ...]
    #: Kendall-stream column of every stream bit, in bucket order.
    stream_cols: np.ndarray
    #: Packed-key column of every key bit, in bucket order.
    key_cols: np.ndarray


@lru_cache(maxsize=None)
def _widths(size: int) -> Tuple[int, int]:
    """Kendall and compact lengths of a size-``size`` group."""
    return kendall_bit_count(size), compact_bit_count(size)


def size_layout(sizes: Sequence[int]) -> SizeLayout:
    """Bucket a helper's groups by size.

    Gathering a stream's columns through ``stream_cols`` lays every
    bucket out as one contiguous ``(count, g(g-1)/2)`` block (and
    ``key_cols`` does the same for packed bits), so batched code runs
    one vectorized pass per distinct size instead of one per group.
    """
    found = {}
    stream_offset = key_offset = 0
    for index, size in enumerate(sizes):
        size = int(size)
        entry = found.get(size)
        if entry is None:
            if size < 0:
                raise ValueError("group size must be non-negative")
            entry = found[size] = ([], [], []) + _widths(size)
        groups, stream_cols, key_cols, stream, key = entry
        groups.append(index)
        stream_cols.extend(range(stream_offset, stream_offset + stream))
        key_cols.extend(range(key_offset, key_offset + key))
        stream_offset += stream
        key_offset += key
    buckets = tuple((size, len(entry[0])) for size, entry in found.items())
    entries = list(found.values())
    return SizeLayout(
        buckets, tuple(chain.from_iterable(e[0] for e in entries)),
        np.fromiter(chain.from_iterable(e[1] for e in entries),
                    dtype=np.intp, count=stream_offset),
        np.fromiter(chain.from_iterable(e[2] for e in entries),
                    dtype=np.intp, count=key_offset))


@lru_cache(maxsize=None)
def _rank_tables(size: int) -> Tuple[np.ndarray, ...]:
    """Cached per-size constants of :func:`_pack_bucket`.

    ``(tally, limbs, limb_of_bit, shift_of_bit)``: ``tally`` is the
    ``(m, 2g)`` pair-to-label matrix ``[X - Y | Y]`` (``X``/``Y``
    one-hot the first/second label of each pair), ``limbs[p]`` holds
    the base-``2^32`` limbs of ``(g - 1 - p)!`` and the last two say
    where each MSB-first compact bit sits among the limbs.
    """
    xs, ys = pair_table(size)
    labels = np.arange(size)
    first = (xs[:, None] == labels).astype(np.int64)
    second = (ys[:, None] == labels).astype(np.int64)
    width = compact_bit_count(size)
    count = -(-width // _LIMB_BITS)
    mask = (1 << _LIMB_BITS) - 1
    limbs = np.array([[(factorial(size - 1 - p) >> (_LIMB_BITS * j)) & mask
                       for j in range(count)] for p in range(size)],
                     dtype=np.int64).reshape(size, count)
    position = width - 1 - np.arange(width)
    tables = (np.hstack([first - second, second]), limbs,
              position // _LIMB_BITS, position % _LIMB_BITS)
    for table in tables:
        table.setflags(write=False)
    return tables


def _pack_bucket(words: np.ndarray, size: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Pack ``(N, g(g-1)/2)`` boolean Kendall words of one size ``g``.

    Returns the ``(N, ceil(log2 g!))`` compact words and an ``(N,)``
    validity mask, row for row what :func:`pack_group` returns or
    raises.  As in :func:`~repro.grouping.kendall.kendall_decode`, a
    label's rank (its position in the order) counts the pairs in which
    it is the preceded member, and the word is valid iff the ranks are
    a permutation.  The Lehmer digit at label ``x``'s position counts
    the smaller labels ``x`` precedes — the set bits of the pairs
    ``(y, x)`` — so the compact rank of
    :func:`~repro.grouping.kendall.compact_rank` is
    ``sum_x digit_x * (g - 1 - rank_x)!``, summed in 32-bit limbs so
    that no group size overflows.
    """
    tally, limbs, limb_of_bit, shift_of_bit = _rank_tables(size)
    counts = words.astype(np.int64) @ tally
    labels = np.arange(size)
    # Preceded member of pair (x, y): x when the bit is set, else y;
    # label x is the second member of exactly x pairs.
    ranks = counts[:, :size] + labels
    valid = (np.sort(ranks, axis=1) == labels).all(axis=1)
    digits = (counts[:, size:, None] * limbs[ranks]).sum(axis=1)
    for column in range(digits.shape[1] - 1):
        digits[:, column + 1] += digits[:, column] >> _LIMB_BITS
        digits[:, column] &= (1 << _LIMB_BITS) - 1
    packed = (digits[:, limb_of_bit] >> shift_of_bit) & 1
    return packed.astype(np.uint8), valid


def pack_keys(streams: np.ndarray, sizes: Sequence[int]
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Entropy-pack a ``(B, bits)`` batch of Kendall streams.

    Returns ``(keys, valid)``: the ``(B, L)`` packed keys and a
    ``(B,)`` mask.  Row ``i`` equals ``pack_key(streams[i], sizes)``
    when that returns, and is all-zero with ``valid[i]`` false when it
    raises (a non-0/1 bit or an invalid Kendall word in any group).
    Each size bucket of :func:`size_layout` is packed in one
    vectorized pass; a size-2 group's compact bit is its Kendall bit
    and a size-1 group packs to a zero bit.  A stream length that does
    not match *sizes* raises ``ValueError``.
    """
    streams = np.asarray(streams)
    layout = size_layout(sizes)
    stream_bits, key_bits = layout.stream_cols.size, layout.key_cols.size
    if streams.ndim != 2 or streams.shape[1] != stream_bits:
        raise ValueError(
            f"expected {stream_bits} bits for sizes {tuple(sizes)}")
    rows = streams.shape[0]
    ones = streams == 1
    valid = (ones | (streams == 0)).all(axis=1)
    words = ones[:, layout.stream_cols]
    packed = np.zeros((rows, key_bits), dtype=np.uint8)
    stream_at = key_at = 0
    for size, count in layout.buckets:
        stream, key = _widths(size)
        block = words[:, stream_at:stream_at + count * stream]
        out = packed[:, key_at:key_at + count * key]
        stream_at += count * stream
        key_at += count * key
        if size == 2:
            out[:] = block  # the compact rank is the one Kendall bit
        elif size > 2:
            bits, ok = _pack_bucket(block.reshape(rows * count, stream),
                                    size)
            out[:] = bits.reshape(rows, count * key)
            valid &= ok.reshape(rows, count).all(axis=1)
        # size 0 or 1: no Kendall bits, the compact bit stays 0
    packed[~valid] = 0
    keys = np.empty_like(packed)
    keys[:, layout.key_cols] = packed
    return keys, valid


def pack_key(kendall_bits: np.ndarray,
             sizes: Sequence[int]) -> np.ndarray:
    """Entropy-pack a concatenated Kendall stream into the final key bits.

    Each group contributes ``ceil(log2 g!)`` compact bits, concatenated
    in group order.  The one-row case of :func:`pack_keys`; equals the
    concatenated :func:`pack_group` of every group and raises
    ``ValueError`` where one of those would (or when the length does
    not match *sizes*).
    """
    kendall_bits = np.asarray(kendall_bits)
    if kendall_bits.ndim != 1:
        raise ValueError("expected a one-dimensional Kendall stream")
    keys, valid = pack_keys(kendall_bits[None, :], sizes)
    if not valid[0]:
        raise ValueError("bit vector is not a valid Kendall codeword")
    return keys[0]


def packed_length(sizes: Sequence[int]) -> int:
    """Key length in bits after entropy packing."""
    return sum(compact_bit_count(size) for size in sizes)


def packing_loss_bits(sizes: Sequence[int]) -> float:
    """Residual non-uniformity after packing, in bits.

    ``Σ_j (ceil(log2 g_j!) − log2 g_j!)`` — zero only when every group
    size has a factorial that is a power of two (``g <= 2``).
    """
    return float(sum(compact_bit_count(size) - log2(factorial(size))
                     for size in sizes))
