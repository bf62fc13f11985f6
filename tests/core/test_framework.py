"""Tests for the failure-rate distinguishing framework (paper Fig. 5)."""

from itertools import combinations

import numpy as np
import pytest

from repro.core.framework import (
    FailureRateComparer,
    repair_with_commitment,
    select_hypothesis,
)
from repro.keygen.base import (
    commitment_digest,
    key_check_digest,
    key_check_payload,
)


class FakeOracle:
    """Deterministic-rate oracle: helpers are failure probabilities."""

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)
        self.queries = 0

    def query(self, helper, op=None):
        self.queries += 1
        return self._rng.random() >= float(helper)


class TestFailureRateComparer:
    def test_separated_rates_decided_correctly(self):
        oracle = FakeOracle(1)
        comparer = FailureRateComparer(max_queries_per_side=60)
        outcome = comparer.compare(oracle, 0.05, 0.95)
        assert outcome.decision == "a"
        outcome = comparer.compare(oracle, 0.95, 0.05)
        assert outcome.decision == "b"

    def test_deterministic_fast_path_is_cheap(self):
        oracle = FakeOracle(2)
        comparer = FailureRateComparer(min_queries_per_side=3)
        outcome = comparer.compare(oracle, 0.0, 1.0)
        assert outcome.decision == "a"
        assert outcome.queries <= 8

    def test_identical_zero_rates_stop_early(self):
        oracle = FakeOracle(3)
        comparer = FailureRateComparer(identical_stop=5,
                                       max_queries_per_side=100)
        outcome = comparer.compare(oracle, 0.0, 0.0)
        assert outcome.decision == "tie"
        assert outcome.samples <= 6

    def test_identical_stop_disabled_runs_budget(self):
        oracle = FakeOracle(4)
        comparer = FailureRateComparer(identical_stop=None,
                                       max_queries_per_side=15)
        outcome = comparer.compare(oracle, 0.0, 0.0)
        assert outcome.samples == 15

    def test_rates_reported(self):
        oracle = FakeOracle(5)
        comparer = FailureRateComparer(max_queries_per_side=50,
                                       identical_stop=None)
        outcome = comparer.compare(oracle, 0.0, 1.0)
        assert outcome.rate_a == pytest.approx(0.0)
        assert outcome.rate_b == pytest.approx(1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FailureRateComparer(confidence=0.4)
        with pytest.raises(ValueError):
            FailureRateComparer(min_queries_per_side=0)
        with pytest.raises(ValueError):
            FailureRateComparer(max_queries_per_side=2,
                                min_queries_per_side=5)


class TestSelectHypothesis:
    def test_argmin_over_labels(self):
        oracle = FakeOracle(6)
        outcome = select_hypothesis(
            oracle, {"h0": 0.9, "h1": 0.05, "h2": 0.9},
            queries_per_hypothesis=20, early_stop=False)
        assert outcome.label == "h1"
        assert set(outcome.rates) == {"h0", "h1", "h2"}

    def test_early_stop_skips_remaining(self):
        oracle = FakeOracle(7)
        outcome = select_hypothesis(
            oracle, {"h0": 0.0, "h1": 0.9},
            queries_per_hypothesis=5)
        assert outcome.label == "h0"
        assert outcome.queries == 5

    def test_empty_hypotheses_rejected(self):
        with pytest.raises(ValueError):
            select_hypothesis(FakeOracle(), {})


class TestRepairWithCommitment:
    def test_exact_match_returned_unchanged(self, rng):
        key = rng.integers(0, 2, 24).astype(np.uint8)
        repaired = repair_with_commitment(key, key_check_digest(key))
        np.testing.assert_array_equal(repaired, key)

    @pytest.mark.parametrize("flips", [1, 2])
    def test_repairs_within_radius(self, rng, flips):
        key = rng.integers(0, 2, 24).astype(np.uint8)
        commitment = key_check_digest(key)
        damaged = key.copy()
        damaged[rng.choice(24, flips, replace=False)] ^= 1
        repaired = repair_with_commitment(damaged, commitment,
                                          max_flips=2)
        np.testing.assert_array_equal(repaired, key)

    def test_beyond_radius_returns_none(self, rng):
        key = rng.integers(0, 2, 24).astype(np.uint8)
        commitment = key_check_digest(key)
        damaged = key.copy()
        damaged[[0, 5, 9]] ^= 1
        assert repair_with_commitment(damaged, commitment,
                                      max_flips=2) is None

    def test_input_not_mutated(self, rng):
        key = rng.integers(0, 2, 16).astype(np.uint8)
        commitment = key_check_digest(key)
        damaged = key.copy()
        damaged[3] ^= 1
        snapshot = damaged.copy()
        repair_with_commitment(damaged, commitment)
        np.testing.assert_array_equal(damaged, snapshot)


def reference_repair(key, commitment, max_flips=2):
    """The copy-and-rehash enumeration the in-place repair replaces.

    Returns ``(repaired, candidates)``: the result and how many
    flipped candidates were hashed before it.
    """
    key = np.asarray(key, dtype=np.uint8)
    if key_check_digest(key) == commitment:
        return key.copy(), 0
    tried = 0
    for weight in range(1, max_flips + 1):
        for flips in combinations(range(key.shape[0]), weight):
            candidate = key.copy()
            candidate[list(flips)] ^= 1
            tried += 1
            if key_check_digest(candidate) == commitment:
                return candidate, tried
    return None, tried


class TestInPlaceRepairMatchesReference:
    """Same results, in the same enumeration order, as the reference."""

    @pytest.mark.parametrize("length", [5, 13, 24, 61])
    @pytest.mark.parametrize("weight", [0, 1, 2, 3])
    def test_random_keys(self, monkeypatch, length, weight):
        from repro.core import framework

        gen = np.random.default_rng(1000 * length + weight)
        hashed = []

        def counting(payload):
            hashed.append(bytes(payload))
            return commitment_digest(payload)

        monkeypatch.setattr(framework, "commitment_digest", counting)
        for _ in range(4):
            key = gen.integers(0, 2, length).astype(np.uint8)
            commitment = key_check_digest(key)
            damaged = key.copy()
            damaged[gen.choice(length, weight, replace=False)] ^= 1
            want, tried = reference_repair(damaged, commitment)
            hashed.clear()
            got = repair_with_commitment(damaged, commitment)
            if weight <= 2:
                np.testing.assert_array_equal(want, key)
                np.testing.assert_array_equal(got, key)
                assert got.dtype == np.uint8
            else:
                assert want is None and got is None
            # One digest per candidate, in the reference's order: the
            # last one hashed is the hit, or on a miss the final
            # weight-2 candidate.
            assert len(hashed) == tried
            last = got
            if got is None:
                last = damaged.copy()
                last[[-2, -1]] ^= 1
            if tried:
                assert hashed[-1] == key_check_payload(last)

    def test_non_binary_key_still_rejected(self):
        with pytest.raises(ValueError):
            repair_with_commitment(np.array([0, 2, 1]), bytes(16))
