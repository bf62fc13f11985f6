"""End-to-end tests for all five key-generator device models."""

import numpy as np
import pytest

from repro.ecc import TrivialCode
from repro.keygen import (
    ConstantEvaluator,
    DistillerPairingKeyGen,
    FuzzyExtractorKeyGen,
    GroupBasedKeyGen,
    HardenedGroupBasedKeyGen,
    OperatingPoint,
    ReconstructionFailure,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
    bch_provider,
    fixed_code,
    key_check_digest,
)
from repro.puf import ROArray, ROArrayParams


def reconstruction_successes(keygen, array, helper, key, trials=15,
                             op=OperatingPoint()):
    successes = 0
    for _ in range(trials):
        try:
            successes += int(np.array_equal(
                keygen.reconstruct(array, helper, op), key))
        except ReconstructionFailure:
            pass
    return successes


class TestKeyCheck:
    def test_digest_is_length_aware(self):
        a = np.array([1, 0], dtype=np.uint8)
        b = np.array([1, 0, 0], dtype=np.uint8)
        assert key_check_digest(a) != key_check_digest(b)

    def test_digest_deterministic(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert key_check_digest(bits) == key_check_digest(bits.copy())


class TestProviders:
    def test_bch_provider_builds_exact_k(self):
        code = bch_provider(3)(40)
        assert (code.k, code.t) == (40, 3)

    def test_t_zero_provider_is_trivial(self):
        code = bch_provider(0)(17)
        assert (code.n, code.k, code.t) == (17, 17, 0)

    def test_fixed_code_rejects_oversized_response(self):
        provider = fixed_code(TrivialCode(8))
        with pytest.raises(ValueError):
            provider(9)


class TestSequentialKeyGen:
    def test_enroll_reconstruct_roundtrip(self, medium_array):
        keygen = SequentialPairingKeyGen(threshold=300e3)
        helper, key = keygen.enroll(medium_array, rng=1)
        assert key.size >= 32
        assert reconstruction_successes(keygen, medium_array, helper,
                                        key) >= 14

    def test_sorted_storage_key_is_all_ones(self, medium_array):
        keygen = SequentialPairingKeyGen(threshold=300e3,
                                         storage_order="sorted")
        _, key = keygen.enroll(medium_array, rng=1)
        assert key.all()

    def test_impossible_threshold_raises(self, medium_array):
        keygen = SequentialPairingKeyGen(threshold=1e12)
        with pytest.raises(ValueError):
            keygen.enroll(medium_array, rng=1)

    def test_without_ecc_noise_sometimes_fails(self):
        noisy = ROArray(ROArrayParams(rows=8, cols=16,
                                      sigma_noise=600e3), rng=9)
        keygen = SequentialPairingKeyGen(threshold=10e3,
                                         code_provider=bch_provider(0))
        helper, key = keygen.enroll(noisy, rng=1)
        # t = 0 plus heavy measurement noise: reconstruction is flaky,
        # the degenerate case the paper folds into its ECC model.
        successes = reconstruction_successes(keygen, noisy, helper, key,
                                             trials=30)
        assert successes < 30

    def test_malformed_pairing_helper_fails_observably(self,
                                                       medium_array):
        keygen = SequentialPairingKeyGen(threshold=300e3)
        helper, key = keygen.enroll(medium_array, rng=1)
        pairs = list(helper.pairing.pairs)
        pairs[1] = (pairs[0][0], pairs[1][1])  # re-use oscillator
        bad = helper.with_pairing(
            type(helper.pairing)(tuple(pairs)))
        with pytest.raises(ReconstructionFailure):
            keygen.reconstruct(medium_array, bad)


class TestTempAwareKeyGen:
    @pytest.fixture
    def enrolled(self, thermal_array):
        keygen = TempAwareKeyGen(t_min=-10, t_max=80, threshold=150e3)
        helper, key = keygen.enroll(thermal_array, rng=6)
        return keygen, helper, key

    @pytest.mark.parametrize("temperature", [-5.0, 25.0, 60.0, 75.0])
    def test_reconstructs_across_range(self, enrolled, thermal_array,
                                       temperature):
        keygen, helper, key = enrolled
        op = OperatingPoint(temperature=temperature)
        assert reconstruction_successes(keygen, thermal_array, helper,
                                        key, trials=10, op=op) >= 9

    def test_key_length_accounts_good_and_coop(self, enrolled):
        _, helper, key = enrolled
        assert key.size == (len(helper.scheme.good_indices)
                            + len(helper.scheme.cooperation))


class TestGroupBasedKeyGen:
    @pytest.fixture
    def enrolled(self, small_array):
        keygen = GroupBasedKeyGen(distiller_degree=2,
                                  group_threshold=120e3)
        helper, key = keygen.enroll(small_array, rng=2)
        return keygen, helper, key

    def test_roundtrip(self, enrolled, small_array):
        keygen, helper, key = enrolled
        assert reconstruction_successes(keygen, small_array, helper,
                                        key) >= 14

    def test_key_length_matches_packing(self, enrolled):
        from repro.grouping import packed_length

        _, helper, key = enrolled
        assert key.size == packed_length(helper.grouping.sizes)

    def test_malformed_sketch_fails_observably(self, enrolled,
                                               small_array):
        keygen, helper, key = enrolled
        from repro.ecc import SketchData

        bad = helper.with_sketch(SketchData(np.zeros(3, dtype=np.uint8)))
        with pytest.raises(ReconstructionFailure):
            keygen.reconstruct(small_array, bad)

    def test_helperless_groups_rejected_at_enroll(self, small_array):
        keygen = GroupBasedKeyGen(group_threshold=1e12)
        with pytest.raises(ValueError):
            keygen.enroll(small_array, rng=1)


class TestGroupMemberIndices:
    """Malformed group member indices give a defined rejection."""

    @pytest.fixture
    def enrolled(self, small_array):
        keygen = GroupBasedKeyGen(distiller_degree=2,
                                  group_threshold=120e3)
        helper, _ = keygen.enroll(small_array, rng=2)
        return keygen, helper

    @staticmethod
    def with_member(helper, member):
        groups = [list(group) for group in helper.grouping.groups]
        groups[0][0] = member
        return helper.with_grouping(helper.grouping.with_groups(groups))

    @pytest.mark.parametrize("member", [10 ** 6, 40, -1])
    def test_out_of_range_fails_reconstruction(self, enrolled,
                                               small_array, member):
        keygen, helper = enrolled
        bad = self.with_member(helper, member)
        freqs = small_array.measure_frequencies()
        with pytest.raises(ReconstructionFailure, match="out of range"):
            keygen.reconstruct_from_frequencies(small_array, freqs, bad)
        with pytest.raises(ReconstructionFailure, match="out of range"):
            keygen.reconstruct(small_array, bad)

    @pytest.mark.parametrize("member", [10 ** 6, 40, -1])
    def test_out_of_range_gives_constant_false_evaluator(
            self, enrolled, small_array, member):
        keygen, helper = enrolled
        evaluator = keygen.batch_evaluator(
            small_array, self.with_member(helper, member))
        assert isinstance(evaluator, ConstantEvaluator)
        freqs = small_array.measure_frequencies_batch(3)
        assert not evaluator.plan(freqs).execute().any()

    @pytest.mark.parametrize("member", [10 ** 6, -1])
    def test_hardened_rejects_out_of_range(self, small_array, member):
        keygen = HardenedGroupBasedKeyGen(
            4, 10, max_polynomial_span=1e9, distiller_degree=2,
            group_threshold=120e3)
        helper, _ = keygen.enroll(small_array, rng=2)
        bad = self.with_member(helper, member)
        with pytest.raises(ReconstructionFailure):
            keygen.reconstruct(small_array, bad)
        with pytest.raises(ReconstructionFailure):
            keygen.reconstruct_from_frequencies(
                small_array, small_array.measure_frequencies(), bad)

    def test_duplicate_member_rejected_by_stream_length(self, enrolled,
                                                        small_array):
        # A repeated member lengthens its group's Kendall word, so the
        # stream no longer matches the enrolled sketch.
        keygen, helper = enrolled
        groups = [list(group) for group in helper.grouping.groups]
        groups[0].append(groups[0][0])
        bad = helper.with_grouping(helper.grouping.with_groups(groups))
        with pytest.raises(ReconstructionFailure):
            keygen.reconstruct(small_array, bad)
        outcomes = keygen.batch_evaluator(small_array, bad).plan(
            small_array.measure_frequencies_batch(3)).execute()
        assert not outcomes.any()


class TestDistillerPairingKeyGen:
    @pytest.mark.parametrize("mode,expected_bits", [
        ("neighbor-disjoint", 20),
        ("neighbor-overlap", 39),
        ("masking", 4),
    ])
    def test_roundtrip_all_modes(self, small_array, mode, expected_bits):
        keygen = DistillerPairingKeyGen(4, 10, pairing_mode=mode, k=5)
        helper, key = keygen.enroll(small_array, rng=3)
        assert key.size == expected_bits
        assert reconstruction_successes(keygen, small_array, helper,
                                        key) >= 13

    def test_geometry_mismatch_rejected(self, medium_array):
        keygen = DistillerPairingKeyGen(4, 10)
        with pytest.raises(ValueError):
            keygen.enroll(medium_array, rng=1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            DistillerPairingKeyGen(4, 10, pairing_mode="diagonal")


class TestFuzzyExtractorKeyGen:
    def test_roundtrip(self, medium_array):
        keygen = FuzzyExtractorKeyGen(8, 16, out_bits=32)
        helper, key = keygen.enroll(medium_array, rng=5)
        assert key.size == 32
        assert reconstruction_successes(keygen, medium_array, helper,
                                        key) >= 14

    def test_oversized_output_rejected(self):
        with pytest.raises(ValueError):
            FuzzyExtractorKeyGen(2, 2, out_bits=8)

    def test_distinct_devices_distinct_keys(self, medium_params):
        keygen = FuzzyExtractorKeyGen(8, 16, out_bits=32)
        keys = []
        for seed in range(5):
            array = ROArray(medium_params, rng=seed)
            _, key = keygen.enroll(array, rng=seed)
            keys.append(tuple(key))
        assert len(set(keys)) == 5
