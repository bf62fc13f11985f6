"""Tests for entropy packing (paper §V-E)."""

from itertools import permutations
from math import log2

import numpy as np
import pytest

from repro.grouping import (
    compact_encode,
    kendall_encode,
    pack_group,
    pack_key,
    pack_keys,
    packed_length,
    packing_loss_bits,
    split_blocks,
    unpack_group,
)


class TestPackGroup:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_pack_equals_compact_of_decoded_order(self, size):
        for order in permutations(range(size)):
            packed = pack_group(kendall_encode(order), size)
            np.testing.assert_array_equal(packed, compact_encode(order))

    def test_unpack_inverts_pack(self):
        for order in permutations(range(4)):
            kendall = kendall_encode(order)
            np.testing.assert_array_equal(
                unpack_group(pack_group(kendall, 4), 4), kendall)

    def test_invalid_kendall_word_rejected(self):
        with pytest.raises(ValueError):
            pack_group(np.array([0, 1, 0], dtype=np.uint8), 3)


class TestSplitBlocks:
    def test_chunks_follow_group_sizes(self):
        sizes = [2, 3, 4]
        total = 1 + 3 + 6
        bits = np.arange(total) % 2
        chunks = split_blocks(bits.astype(np.uint8), sizes)
        assert [c.shape[0] for c in chunks] == [1, 3, 6]

    def test_wrong_total_length_rejected(self):
        with pytest.raises(ValueError):
            split_blocks(np.zeros(5, dtype=np.uint8), [2, 3])


class TestPackKey:
    def test_multi_group_concatenation(self):
        orders = [(1, 0), (2, 0, 1)]
        kendall = np.concatenate([kendall_encode(o) for o in orders])
        key = pack_key(kendall, [2, 3])
        expected = np.concatenate([compact_encode(o) for o in orders])
        np.testing.assert_array_equal(key, expected)

    def test_packed_length_accounting(self):
        assert packed_length([2, 3, 4]) == 1 + 3 + 5

    def test_empty_input(self):
        assert pack_key(np.zeros(0, dtype=np.uint8), []).shape == (0,)


def scalar_key(bits, sizes):
    """Per-group reference: concatenated :func:`pack_group` words."""
    packed = [pack_group(chunk, size)
              for chunk, size in zip(split_blocks(bits, sizes), sizes)]
    return np.concatenate(packed) if packed else np.zeros(0, np.uint8)


class TestPackKeys:
    def test_rows_match_scalar_reference(self):
        rng = np.random.default_rng(7)
        sizes = [3, 2, 5, 1, 3, 4, 2]
        rows = [np.concatenate([kendall_encode(rng.permutation(size))
                                for size in sizes]) for _ in range(6)]
        streams = np.stack(rows)
        keys, valid = pack_keys(streams, sizes)
        assert valid.all()
        for row, key in zip(streams, keys):
            np.testing.assert_array_equal(key, scalar_key(row, sizes))
            np.testing.assert_array_equal(pack_key(row, sizes), key)

    @pytest.mark.parametrize("size", [12, 20, 21, 24, 30])
    def test_large_groups_are_exact(self, size):
        # 21! exceeds 2**64: a 64-bit rank would wrap here.
        rng = np.random.default_rng(size)
        orders = [rng.permutation(size) for _ in range(8)]
        orders += [np.arange(size), np.arange(size)[::-1]]
        streams = np.stack([kendall_encode(order) for order in orders])
        keys, valid = pack_keys(streams, [size])
        assert valid.all()
        for order, key in zip(orders, keys):
            np.testing.assert_array_equal(key, compact_encode(order))

    def test_invalid_rows_flagged_and_zeroed(self):
        good = np.concatenate([kendall_encode((2, 0, 1)),
                               kendall_encode((1, 0))])
        cyclic = good.copy()
        cyclic[:3] = (0, 1, 0)  # not a total order
        non_binary = good.copy()
        non_binary[3] = 2
        keys, valid = pack_keys(np.stack([good, cyclic, non_binary]),
                                [3, 2])
        assert valid.tolist() == [True, False, False]
        np.testing.assert_array_equal(keys[0], scalar_key(good, [3, 2]))
        assert not keys[1:].any()
        for bad in (cyclic, non_binary):
            with pytest.raises(ValueError):
                pack_key(bad, [3, 2])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            pack_keys(np.zeros((2, 5), dtype=np.uint8), [2, 3])
        with pytest.raises(ValueError):
            pack_keys(np.zeros(4, dtype=np.uint8), [2, 3])
        with pytest.raises(ValueError):
            pack_key(np.zeros((1, 4), dtype=np.uint8), [2, 3])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            pack_key(np.zeros(1, dtype=np.uint8), [-1])

    def test_small_groups_and_empty_batch(self):
        keys, valid = pack_keys(np.zeros((3, 1), dtype=np.uint8),
                                [1, 0, 2])
        assert keys.shape == (3, 3) and valid.all() and not keys.any()
        keys, valid = pack_keys(np.zeros((0, 3), dtype=np.uint8), [3])
        assert keys.shape == (0, 3) and valid.shape == (0,)


class TestPackingLoss:
    def test_size_two_is_lossless(self):
        assert packing_loss_bits([2, 2, 2]) == pytest.approx(0.0)

    def test_larger_groups_lose_fraction(self):
        # ceil(log2 g!) - log2 g! > 0 for g = 3, 4 (paper §V-E: the fix
        # is partial since g! is not a power of two).
        loss3 = packing_loss_bits([3])
        loss4 = packing_loss_bits([4])
        assert loss3 == pytest.approx(3 - log2(6))
        assert loss4 == pytest.approx(5 - log2(24))
        assert loss3 > 0 and loss4 > 0

    def test_losses_accumulate(self):
        assert packing_loss_bits([3, 4]) == pytest.approx(
            packing_loss_bits([3]) + packing_loss_bits([4]))
