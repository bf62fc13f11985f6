"""Property-based tests for Kendall coding, packing and parity graphs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.temp_aware_attack import ParityUnionFind
from repro.grouping import (
    GroupingHelper,
    adjacent_swap_distance,
    compact_decode,
    compact_encode,
    grouping_entropy,
    group_ros,
    kendall_decode,
    kendall_encode,
    order_from_frequencies,
    pack_group,
    pack_key,
    pack_keys,
    packed_length,
    split_blocks,
    verify_grouping,
)
from repro.fuzzy import ToeplitzHash
from repro.keygen import kendall_stream
from repro.keygen.group_based import kendall_stream_batch


def permutations_of(size):
    return st.permutations(list(range(size)))


class TestKendallProperties:
    @given(order=permutations_of(5))
    def test_roundtrip(self, order):
        assert kendall_decode(kendall_encode(order), 5) == tuple(order)

    @given(order=permutations_of(5))
    def test_compact_roundtrip(self, order):
        assert compact_decode(compact_encode(order), 5) == tuple(order)

    @given(a=permutations_of(5), b=permutations_of(5))
    def test_kendall_distance_is_metric(self, a, b):
        d = adjacent_swap_distance(a, b)
        assert d == adjacent_swap_distance(b, a)
        assert (d == 0) == (tuple(a) == tuple(b))
        assert d <= 10  # max = 5*4/2

    @given(a=permutations_of(4), b=permutations_of(4),
           c=permutations_of(4))
    def test_kendall_triangle_inequality(self, a, b, c):
        assert adjacent_swap_distance(a, c) <= \
            adjacent_swap_distance(a, b) + adjacent_swap_distance(b, c)

    @given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                           min_size=2, max_size=8, unique=True))
    def test_order_from_frequencies_sorts_descending(self, values):
        order = order_from_frequencies(values)
        sorted_values = [values[i] for i in order]
        assert sorted_values == sorted(values, reverse=True)


class TestGroupingProperties:
    @given(freqs=st.lists(st.floats(0, 1e6, allow_nan=False),
                          min_size=1, max_size=60),
           threshold=st.floats(0, 1e5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_grouping_invariants(self, freqs, threshold):
        freqs = np.array(freqs)
        groups = group_ros(freqs, threshold)
        assert verify_grouping(freqs, groups, threshold)
        assert grouping_entropy(groups) >= 0.0

    @given(orders=st.lists(permutations_of(3), min_size=1, max_size=5))
    def test_pack_key_length(self, orders):
        stream = np.concatenate([kendall_encode(o) for o in orders])
        sizes = [3] * len(orders)
        key = pack_key(stream, sizes)
        assert key.shape == (packed_length(sizes),)



# ----------------------------------------------------------------------
# batched Kendall layer vs the per-group scalar reference


def scalar_pack(bits, sizes):
    """Concatenated per-group :func:`pack_group`, or ``None`` if any
    step raises ``ValueError`` (what ``pack_key`` must mirror)."""
    try:
        packed = [pack_group(chunk, size) for chunk, size
                  in zip(split_blocks(bits, sizes), sizes)]
    except ValueError:
        return None
    return (np.concatenate(packed) if packed
            else np.zeros(0, dtype=np.uint8))


@st.composite
def group_sizes(draw):
    """Sizes 1-24 with at least one group of 21 or more, whose compact
    rank no longer fits in 64 bits."""
    sizes = draw(st.lists(st.integers(1, 24), max_size=4))
    position = draw(st.integers(0, len(sizes)))
    sizes.insert(position, draw(st.integers(21, 24)))
    return sizes


@st.composite
def kendall_word(draw, size):
    """One group's word: valid, one bit flipped, uniform random, or
    with a non-0/1 value."""
    word = kendall_encode(draw(permutations_of(size)))
    kind = draw(st.sampled_from(("valid", "flip", "random", "value")))
    if kind == "random":
        return np.array(draw(st.lists(st.integers(0, 1),
                                      min_size=word.size,
                                      max_size=word.size)),
                        dtype=np.uint8)
    if kind != "valid" and word.size:
        at = draw(st.integers(0, word.size - 1))
        word[at] = (word[at] ^ 1 if kind == "flip"
                    else draw(st.sampled_from((2, 255))))
    return word


@st.composite
def kendall_streams(draw, sizes):
    return np.concatenate([draw(kendall_word(size)) for size in sizes])


class TestBatchedKendallPacking:
    @given(data=st.data(), sizes=group_sizes())
    @settings(max_examples=80, deadline=None)
    def test_pack_key_matches_per_group_reference(self, data, sizes):
        stream = data.draw(kendall_streams(sizes))
        expected = scalar_pack(stream, sizes)
        if expected is None:
            with pytest.raises(ValueError):
                pack_key(stream, sizes)
        else:
            np.testing.assert_array_equal(pack_key(stream, sizes),
                                          expected)

    @given(data=st.data(), sizes=group_sizes(),
           delta=st.sampled_from((-2, -1, 1, 3)))
    @settings(max_examples=30, deadline=None)
    def test_wrong_total_length_rejected(self, data, sizes, delta):
        stream = data.draw(kendall_streams(sizes))
        stream = (stream[:delta] if delta < 0
                  else np.concatenate([stream, np.zeros(delta, np.uint8)]))
        assert scalar_pack(stream, sizes) is None
        with pytest.raises(ValueError):
            pack_key(stream, sizes)
        with pytest.raises(ValueError):
            pack_keys(stream[None, :], sizes)

    @given(data=st.data(), sizes=group_sizes(),
           rows=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_mixed_batch_rows_match_scalar_outcomes(self, data, sizes,
                                                    rows):
        streams = np.stack([data.draw(kendall_streams(sizes))
                            for _ in range(rows)])
        keys, valid = pack_keys(streams, sizes)
        assert keys.shape == (rows, packed_length(sizes))
        for stream, key, ok in zip(streams, keys, valid):
            expected = scalar_pack(stream, sizes)
            assert ok == (expected is not None)
            if ok:
                np.testing.assert_array_equal(key, expected)
            else:
                assert not key.any()


#: Residual values rich in ties, signed zeros, NaN and infinities.
RESIDUALS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf)),
    st.floats(-1e6, 1e6))


class TestBatchedKendallExtraction:
    @given(data=st.data(),
           sizes=st.lists(st.integers(1, 8), min_size=1, max_size=5),
           rows=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_row_by_row(self, data, sizes, rows):
        members = data.draw(permutations_of(sum(sizes)))
        groups, at = [], 0
        for size in sizes:
            groups.append(members[at:at + size])
            at += size
        grouping = GroupingHelper(groups, threshold=1.0)
        residuals = np.array(data.draw(st.lists(
            st.lists(RESIDUALS, min_size=at, max_size=at),
            min_size=rows, max_size=rows)), dtype=float)
        expected = np.stack([kendall_stream(row, grouping)
                             for row in residuals])
        np.testing.assert_array_equal(
            kendall_stream_batch(residuals, grouping), expected)


class TestParityUnionFindProperties:
    @given(assignment=st.lists(st.integers(0, 1), min_size=2,
                               max_size=12),
           edges=st.data())
    @settings(max_examples=60, deadline=None)
    def test_relations_consistent_with_assignment(self, assignment,
                                                  edges):
        size = len(assignment)
        graph = ParityUnionFind(size)
        for _ in range(size * 2):
            a = edges.draw(st.integers(0, size - 1))
            b = edges.draw(st.integers(0, size - 1))
            if a == b:
                continue
            parity = assignment[a] ^ assignment[b]
            assert graph.union(a, b, parity)
        for a in range(size):
            for b in range(size):
                relation = graph.relation(a, b)
                if relation is not None:
                    assert relation == assignment[a] ^ assignment[b]

    @given(size=st.integers(2, 10))
    def test_conflicting_edge_detected(self, size):
        graph = ParityUnionFind(size)
        assert graph.union(0, 1, 0)
        assert not graph.union(1, 0, 1)


class TestToeplitzProperties:
    @given(word_a=st.lists(st.integers(0, 1), min_size=12, max_size=12),
           word_b=st.lists(st.integers(0, 1), min_size=12, max_size=12),
           seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_gf2_linearity(self, word_a, word_b, seed):
        hasher = ToeplitzHash.random(12, 5, rng=seed)
        a = np.array(word_a, dtype=np.uint8)
        b = np.array(word_b, dtype=np.uint8)
        assert np.array_equal(hasher(a) ^ hasher(b), hasher(a ^ b))
