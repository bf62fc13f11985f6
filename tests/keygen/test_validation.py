"""Tests for device-side helper-data validation (hardening)."""

import dataclasses

import numpy as np
import pytest

from repro.core import BatchOracle, HelperDataOracle, symmetric_quadratic
from repro.core.group_attack import GroupBasedAttack
from repro.distiller import DistillerHelper
from repro.keygen import (
    GroupBasedKeyGen,
    HardenedGroupBasedKeyGen,
    HardenedSequentialKeyGen,
    HardenedTempAwareKeyGen,
    HelperDataRejected,
    ReconstructionFailure,
    TempAwareKeyGen,
    validate_cooperation_records,
    validate_distiller_amplitude,
    validate_group_membership,
    validate_group_thresholds,
    validate_pair_thresholds,
)
from repro.keygen.batch import ConstantEvaluator
from repro.keygen.validation import (
    group_pair_indices,
    measured_threshold_mask,
)
from repro.grouping import GroupingHelper
from repro.pairing import SequentialPairingHelper
from repro.pairing.base import pair_index_arrays


class TestDistillerAmplitudeCheck:
    def test_honest_helper_accepted(self, small_array):
        keygen = GroupBasedKeyGen(group_threshold=120e3)
        helper, _ = keygen.enroll(small_array, rng=2)
        validate_distiller_amplitude(helper.distiller, 4, 10,
                                     max_span=20e6)

    def test_steep_injection_rejected(self, small_array):
        keygen = GroupBasedKeyGen(group_threshold=120e3)
        helper, _ = keygen.enroll(small_array, rng=2)
        payload = symmetric_quadratic((2.0, 1.0), (5.0, 1.0), 4,
                                      steepness=1e12)
        with pytest.raises(HelperDataRejected):
            validate_distiller_amplitude(
                helper.distiller.with_added(payload), 4, 10,
                max_span=20e6)


NON_FINITE = [np.inf, -np.inf, np.nan]


def with_coefficient(distiller_helper, value):
    """The distiller helper with its constant coefficient replaced."""
    coefficients = distiller_helper.coefficients.copy()
    coefficients[0] = value
    return DistillerHelper(distiller_helper.degree, coefficients)


class TestNonFiniteDistillerCoefficient:
    """An inf/NaN coefficient makes the surface span non-finite; the
    amplitude bound must reject it, not compare false against NaN."""

    @pytest.fixture
    def enrolled(self, small_array):
        keygen = HardenedGroupBasedKeyGen(
            rows=4, cols=10, max_polynomial_span=20e6,
            group_threshold=120e3)
        helper, _ = keygen.enroll(small_array, rng=2)
        return keygen, helper

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_validator_rejects(self, enrolled, value):
        _, helper = enrolled
        with pytest.raises(HelperDataRejected):
            validate_distiller_amplitude(
                with_coefficient(helper.distiller, value), 4, 10, 1e6)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_scalar_device_rejects(self, enrolled, small_array, value):
        keygen, helper = enrolled
        bad = dataclasses.replace(
            helper, distiller=with_coefficient(helper.distiller, value))
        with pytest.raises(HelperDataRejected, match="surface spans"):
            keygen.reconstruct(small_array, bad)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_batch_path_rejects(self, enrolled, small_array, value):
        keygen, helper = enrolled
        bad = dataclasses.replace(
            helper, distiller=with_coefficient(helper.distiller, value))
        assert isinstance(keygen.batch_evaluator(small_array, bad),
                          ConstantEvaluator)
        oracle = BatchOracle(small_array, keygen)
        assert not oracle.evaluate_rows(bad, oracle.take_rows(5)).any()


class TestGroupChecks:
    def test_membership_rejects_reuse_and_range(self):
        grouping = GroupingHelper(((0, 1), (1, 2)), threshold=1.0)
        with pytest.raises(HelperDataRejected):
            validate_group_membership(grouping, 10)
        grouping = GroupingHelper(((0, 99),), threshold=1.0)
        with pytest.raises(HelperDataRejected):
            validate_group_membership(grouping, 10)

    def test_threshold_check_on_measurements(self):
        residuals = np.array([0.0, 1e6, 1.05e6])
        good = GroupingHelper(((0, 1),), threshold=120e3)
        validate_group_thresholds(residuals, good, 120e3)
        bad = GroupingHelper(((1, 2),), threshold=120e3)
        with pytest.raises(HelperDataRejected):
            validate_group_thresholds(residuals, bad, 120e3)


class TestCooperationChecks:
    @pytest.fixture
    def helper(self, thermal_array):
        keygen = TempAwareKeyGen(t_min=-10, t_max=80, threshold=150e3)
        helper, _ = keygen.enroll(thermal_array, rng=6)
        return helper

    def test_honest_records_accepted(self, helper):
        validate_cooperation_records(helper.scheme)

    def test_out_of_range_interval_rejected(self, helper):
        entry = helper.scheme.cooperation[0]
        broken = helper.scheme.replace_entry(
            0, entry.with_interval(200.0, 300.0))
        with pytest.raises(HelperDataRejected):
            validate_cooperation_records(broken)

    def test_intersecting_assistant_rejected(self, helper):
        scheme = helper.scheme
        entry = scheme.cooperation[0]
        # Point the assistant at a pair whose interval overlaps ours by
        # rewriting our own interval around the assistant's.
        assistant = next(e for e in scheme.cooperation
                         if e.pair_index == entry.assist_index)
        overlapping = scheme.replace_entry(0, entry.with_interval(
            assistant.t_low - 1.0, assistant.t_high + 1.0))
        with pytest.raises(HelperDataRejected):
            validate_cooperation_records(overlapping)

    def test_dangling_assistant_rejected(self, helper):
        entry = helper.scheme.cooperation[0]
        broken = helper.scheme.replace_entry(
            0, entry.with_assist(helper.scheme.good_indices[0]))
        with pytest.raises(HelperDataRejected):
            validate_cooperation_records(broken)


class TestHardenedDevices:
    def test_hardened_group_device_still_works(self, small_array):
        keygen = HardenedGroupBasedKeyGen(
            rows=4, cols=10, max_polynomial_span=20e6,
            group_threshold=120e3)
        helper, key = keygen.enroll(small_array, rng=2)
        # The device validates the readout it regenerates from.  On
        # honest helper data only the measured-threshold check can
        # refuse (the unhardened model never fails on this device), so
        # any other failure propagates; at tolerance 0.5 about 70% of
        # honest readouts pass, and each of those yields the key.
        successes = 0
        for _ in range(200):
            try:
                recovered = keygen.reconstruct(small_array, helper)
            except HelperDataRejected as exc:
                assert "measured threshold" in str(exc)
                continue
            np.testing.assert_array_equal(recovered, key)
            successes += 1
        assert successes >= 120

    def test_hardened_group_device_defeats_injection(self, small_array):
        keygen = HardenedGroupBasedKeyGen(
            rows=4, cols=10, max_polynomial_span=20e6,
            group_threshold=120e3)
        helper, key = keygen.enroll(small_array, rng=2)
        oracle = HelperDataOracle(small_array, keygen)
        attack = GroupBasedAttack(oracle, keygen, helper, 4, 10)
        # Every attack helper is rejected, so both hypotheses fail
        # identically: the comparison carries no information.
        helper0, helper1 = attack._attack_helpers(0, 1)
        assert oracle.failure_rate(helper0, 5) == 1.0
        assert oracle.failure_rate(helper1, 5) == 1.0

    def test_hardened_temp_aware_blocks_interval_injection(
            self, thermal_array):
        from repro.core.injection import break_inversions

        keygen = HardenedTempAwareKeyGen(t_min=-10, t_max=80,
                                         threshold=150e3)
        helper, key = keygen.enroll(thermal_array, rng=6)
        # Honest helper still reconstructs.
        recovered = keygen.reconstruct(thermal_array, helper)
        np.testing.assert_array_equal(recovered, key)
        # The §VI-B error injection rewrites intervals out of range and
        # is rejected wholesale.
        injected = break_inversions(helper.scheme, 45.0, 2)
        with pytest.raises(HelperDataRejected):
            keygen.reconstruct(thermal_array,
                               helper.with_scheme(injected))


class TestMeasuredThresholdMask:
    SPECIAL = np.array([0.0, -0.0, 1.0, 0.5, 1.6, np.nan, np.inf,
                        -np.inf, 1e300, -1e300])

    def test_mask_matches_scalar_checks_on_special_values(self):
        # ±inf - ±inf and anything involving NaN give a NaN gap, which
        # is not <= floor: the scalar checks accept it and so must the
        # mask.
        grouping = GroupingHelper(((0, 1, 2), (3, 4), (5,)),
                                  threshold=1.0)
        pairs = [(0, 3), (4, 1), (2, 5)]
        gen = np.random.default_rng(7)
        rows = self.SPECIAL[gen.integers(0, self.SPECIAL.size,
                                         (400, 6))]
        pair_first, pair_second = pair_index_arrays(pairs)
        with np.errstate(invalid="ignore"):
            group_mask = measured_threshold_mask(
                rows, *group_pair_indices(grouping), 1.0 * 0.5)
            pair_mask = measured_threshold_mask(rows, pair_first,
                                                pair_second, 0.5)
            for row, group_ok, pair_ok in zip(rows, group_mask,
                                              pair_mask):
                assert group_ok == passes(validate_group_thresholds,
                                          row, grouping)
                assert pair_ok == passes(validate_pair_thresholds, row,
                                         pairs)
        assert 0 < group_mask.sum() < rows.shape[0]
        assert 0 < pair_mask.sum() < rows.shape[0]

    def test_no_pairs_accepts_every_row(self):
        grouping = GroupingHelper(((0,), (1,)), threshold=1.0)
        rows = np.zeros((3, 2))
        assert measured_threshold_mask(
            rows, *group_pair_indices(grouping), 0.5).all()


def passes(check, row, structure):
    try:
        check(row, structure, 1.0)
    except HelperDataRejected:
        return False
    return True


class TestHardenedSequentialBoundary:
    """Out-of-range pair indices get a defined rejection on both paths.

    Each bad pair aliases an in-range oscillator (``index mod n``), the
    partner a wrapped index would reach.
    """

    @pytest.fixture
    def enrolled(self, medium_array):
        keygen = HardenedSequentialKeyGen(threshold=250e3)
        helper, _ = keygen.enroll(medium_array, rng=1)
        return keygen, helper

    @staticmethod
    def with_index(helper, index, n):
        pairs = list(helper.pairing.pairs)
        pairs[0] = (index, index % n)
        return helper.with_pairing(SequentialPairingHelper(tuple(pairs)))

    @pytest.mark.parametrize("index", [10 ** 6, "n", -1])
    def test_scalar_path_rejects(self, enrolled, medium_array, index):
        keygen, helper = enrolled
        n = medium_array.n
        bad = self.with_index(helper, n if index == "n" else index, n)
        freqs = medium_array.measure_frequencies()
        with pytest.raises(ReconstructionFailure, match="out of range"):
            keygen.reconstruct_from_frequencies(medium_array, freqs, bad)
        with pytest.raises(ReconstructionFailure, match="out of range"):
            keygen.reconstruct(medium_array, bad)

    @pytest.mark.parametrize("index", [10 ** 6, "n", -1])
    def test_batch_path_rejects(self, enrolled, medium_array, index):
        keygen, helper = enrolled
        n = medium_array.n
        bad = self.with_index(helper, n if index == "n" else index, n)
        assert isinstance(keygen.batch_evaluator(medium_array, bad),
                          ConstantEvaluator)
        oracle = BatchOracle(medium_array, keygen)
        assert not oracle.evaluate_rows(bad, oracle.take_rows(5)).any()
