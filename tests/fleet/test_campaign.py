"""Lock-step campaign engine: bitwise equivalence with the scalar loop.

The contract under test (``docs/attacks.md``): executing one attack
across many devices in lock-step rounds must reproduce, per device, the
exact decisions, query counts, comparer outcomes and recovered keys of
driving that device's attack alone — for every batch composition and
worker count.  The per-device reference is the attack's own ``run()``:
on a scalar ``HelperDataOracle`` where scalar and batched simulation
are bitwise-equal, on a per-device ``BatchOracle`` for the
temperature-aware attack (its speculative sensor reads make the two
oracles only statistically equal, see
``tests/core/test_batch_oracle.py::TestTempAwareBatch``).
"""

import functools

import numpy as np
import pytest

from repro.core import (
    BatchOracle,
    DistillerPairingAttack,
    GroupBasedAttack,
    HelperDataOracle,
    SequentialPairingAttack,
)
from repro.fleet import (
    Fleet,
    GroupAttackFactory,
    LockstepCampaign,
    RetryPolicy,
    Supervisor,
    TempAwareAttackFactory,
    attack_recovered,
    device_payload,
    run_campaign,
    sequential_attack_factory,
)
from repro.keygen import (
    DistillerPairingKeyGen,
    GroupBasedKeyGen,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
)
from repro.puf import FIG6_PARAMS, ROArray, ROArrayParams
from repro.service import PopulationSpec, submit_sweep
from repro.service.shard import KIND_ATTACK_RESULTS

# Small geometries keep the scalar reference loops cheap; the engine
# paths exercised are identical to the full-size arrays'.
PARAMS = ROArrayParams(rows=4, cols=12)
TEMP_POPULATION = PopulationSpec(
    ROArrayParams(rows=8, cols=16, temp_slope_sigma=8e3), devices=8,
    seed=5)


def sequential_factory():
    return SequentialPairingKeyGen(threshold=300e3)


temp_aware_factory = functools.partial(TempAwareKeyGen, -10, 80, 90e3)


def per_device_reference(fleet, enrollment, attack_factory):
    """Per-device ``run()`` on its own ``BatchOracle``, fed the same
    sweep substreams a campaign on *fleet* would derive."""
    (job,) = fleet.attack_chunk_jobs(enrollment, attack_factory,
                                     spans=[(0, len(fleet))])
    results = []
    for array, keygen, helper, (stream, transient) in zip(
            job.arrays, job.keygens, job.helpers, job.streams):
        keygen.reseed_transient_streams(transient)
        oracle = BatchOracle(array, keygen, rng=stream)
        results.append(attack_factory(oracle, keygen, helper).run())
    return results


def payloads(results, enrollment):
    """Per-device ``device_payload`` projection of a campaign: the
    recovery verdict, query bill, decisions and recovered secrets."""
    return [device_payload(result, key, helper)
            for result, key, helper in zip(results, enrollment.keys,
                                           enrollment.helpers)]


def assert_same_results(reference, observed):
    """Bitwise equality of two per-device result lists."""
    assert len(reference) == len(observed)
    for want, got in zip(reference, observed):
        assert type(want) is type(got)
        assert want.queries == got.queries
        assert want.comparisons == got.comparisons
        for attr in ("key", "relations", "coop_relations"):
            if hasattr(want, attr):
                np.testing.assert_array_equal(getattr(want, attr),
                                              getattr(got, attr))
        assert getattr(want, "good_bits", None) == \
            getattr(got, "good_bits", None)


def build_sequential(seed):
    """One enrolled sequential-pairing device (fresh twin per call)."""
    array = ROArray(PARAMS, rng=700 + seed)
    keygen = SequentialPairingKeyGen(threshold=300e3)
    helper, key = keygen.enroll(array, rng=seed)
    return array, keygen, helper, key


def build_group(seed):
    """One enrolled group-based device (fresh twin per call)."""
    array = ROArray(FIG6_PARAMS, rng=800 + seed)
    keygen = GroupBasedKeyGen(distiller_degree=2,
                              group_threshold=120e3)
    helper, key = keygen.enroll(array, rng=seed)
    return array, keygen, helper, key


def build_distiller(seed, mode):
    """One enrolled distiller + pairing device (fresh twin per call)."""
    array = ROArray(FIG6_PARAMS, rng=900 + seed)
    kwargs = dict(k=5) if mode == "masking" else {}
    keygen = DistillerPairingKeyGen(4, 10, pairing_mode=mode, **kwargs)
    helper, key = keygen.enroll(array, rng=seed)
    return array, keygen, helper, key


class TestCampaignEquivalence:
    """run_campaign vs the per-device scalar loop, per attack family."""

    def test_sequential_paired_matches_scalar_loop(self):
        devices = 5
        scalar = []
        for seed in range(devices):
            array, keygen, helper, _ = build_sequential(seed)
            scalar.append(SequentialPairingAttack(
                HelperDataOracle(array, keygen), keygen, helper).run())
        oracles, attacks, keys = [], [], []
        for seed in range(devices):
            array, keygen, helper, key = build_sequential(seed)
            oracle = BatchOracle(array, keygen)
            oracles.append(oracle)
            attacks.append(SequentialPairingAttack(oracle, keygen,
                                                   helper))
            keys.append(key)
        lock = run_campaign(oracles, attacks)
        for reference, observed, key in zip(scalar, lock, keys):
            np.testing.assert_array_equal(reference.relations,
                                          observed.relations)
            np.testing.assert_array_equal(reference.key, observed.key)
            np.testing.assert_array_equal(observed.key, key)
            assert reference.queries == observed.queries
            # Comparer decisions, failure counts and per-comparison
            # budgets must match one for one.
            assert reference.comparisons == observed.comparisons

    def test_sequential_sprt_matches_scalar_loop(self):
        devices = 4
        scalar = []
        for seed in range(devices):
            array, keygen, helper, _ = build_sequential(seed)
            scalar.append(SequentialPairingAttack(
                HelperDataOracle(array, keygen), keygen,
                helper).run(method="sprt"))
        lanes = []
        for seed in range(devices):
            array, keygen, helper, _ = build_sequential(seed)
            oracle = BatchOracle(array, keygen)
            attack = SequentialPairingAttack(oracle, keygen, helper)
            lanes.append((oracle, attack.steps(method="sprt")))
        lock = LockstepCampaign(lanes).run()
        for reference, observed in zip(scalar, lock):
            np.testing.assert_array_equal(reference.relations,
                                          observed.relations)
            np.testing.assert_array_equal(reference.key, observed.key)
            assert reference.queries == observed.queries

    def test_group_based_matches_scalar_loop(self):
        devices = 3
        scalar = []
        for seed in range(devices):
            array, keygen, helper, _ = build_group(seed)
            scalar.append(GroupBasedAttack(
                HelperDataOracle(array, keygen), keygen, helper, 4,
                10).run())
        oracles, attacks = [], []
        for seed in range(devices):
            array, keygen, helper, _ = build_group(seed)
            oracle = BatchOracle(array, keygen)
            oracles.append(oracle)
            attacks.append(GroupBasedAttack(oracle, keygen, helper, 4,
                                            10))
        lock = run_campaign(oracles, attacks)
        for reference, observed in zip(scalar, lock):
            assert reference.orders == observed.orders
            assert reference.comparisons == observed.comparisons
            assert reference.queries == observed.queries
            np.testing.assert_array_equal(reference.key, observed.key)
            assert reference.confirmed and observed.confirmed

    @pytest.mark.parametrize("mode", ["masking", "neighbor-overlap"])
    def test_distiller_matches_scalar_loop(self, mode):
        devices = 2
        scalar = []
        for seed in range(devices):
            array, keygen, helper, _ = build_distiller(seed, mode)
            scalar.append(DistillerPairingAttack(
                HelperDataOracle(array, keygen), keygen, helper, 4, 10,
                max_joint_bits=8).run())
        oracles, attacks = [], []
        for seed in range(devices):
            array, keygen, helper, _ = build_distiller(seed, mode)
            oracle = BatchOracle(array, keygen)
            oracles.append(oracle)
            attacks.append(DistillerPairingAttack(
                oracle, keygen, helper, 4, 10, max_joint_bits=8))
        lock = run_campaign(oracles, attacks)
        for reference, observed in zip(scalar, lock):
            np.testing.assert_array_equal(reference.key, observed.key)
            assert reference.queries == observed.queries
            assert (reference.hypothesis_rounds
                    == observed.hypothesis_rounds)

    def test_single_device_campaign(self):
        # batch size 1: the lock-step scheduler degenerates to the
        # blocked scalar walk and must still match it bitwise.
        array, keygen, helper, key = build_sequential(11)
        reference = SequentialPairingAttack(
            HelperDataOracle(array, keygen), keygen, helper).run()
        array, keygen, helper, _ = build_sequential(11)
        oracle = BatchOracle(array, keygen)
        (observed,) = run_campaign(
            [oracle],
            [SequentialPairingAttack(oracle, keygen, helper)])
        np.testing.assert_array_equal(reference.key, observed.key)
        np.testing.assert_array_equal(observed.key, key)
        assert reference.queries == observed.queries
        assert reference.comparisons == observed.comparisons

    @pytest.mark.parametrize("family,build,attack", [
        ("sequential", build_sequential,
         lambda oracle, keygen, helper: SequentialPairingAttack(
             oracle, keygen, helper)),
        ("group", build_group,
         lambda oracle, keygen, helper: GroupBasedAttack(
             oracle, keygen, helper, 4, 10)),
    ])
    def test_fused_rounds_match_per_device_rounds(self, family, build,
                                                  attack):
        # Cross-device completion fusion is an execution regrouping
        # only: keys, query bills and comparer outcomes must equal each
        # device's own run() on its BatchOracle (one kernel chain per
        # device) bitwise.
        devices = 3 if family == "sequential" else 2
        per_device = []
        for seed in range(devices):
            array, keygen, helper, _ = build(seed)
            per_device.append(attack(BatchOracle(array, keygen), keygen,
                                     helper).run())
        oracles, attacks = [], []
        for seed in range(devices):
            array, keygen, helper, _ = build(seed)
            oracle = BatchOracle(array, keygen)
            oracles.append(oracle)
            attacks.append(attack(oracle, keygen, helper))
        assert_same_results(per_device, run_campaign(oracles, attacks))

    def test_non_stepwise_driver_rejected(self):
        array, keygen, helper, _ = build_sequential(0)
        oracle = BatchOracle(array, keygen)
        with pytest.raises(TypeError):
            run_campaign([oracle], [object()])

    def test_lane_count_mismatch_rejected(self):
        array, keygen, helper, _ = build_sequential(0)
        oracle = BatchOracle(array, keygen)
        with pytest.raises(ValueError):
            run_campaign([oracle], [])


class TestFleetLockstep:
    """attack_results: family x batch x workers invariance."""

    @staticmethod
    def fresh(temp_aware):
        """A fresh same-seed enrolled fleet and its attack factory."""
        if temp_aware:
            # Built like the service builds it, so service sweeps of
            # TEMP_POPULATION share the substreams.
            fleet, enroll_rng = TEMP_POPULATION.build()
            enrollment = fleet.enroll(temp_aware_factory,
                                      seed=enroll_rng)
            return fleet, enrollment, TempAwareAttackFactory()
        fleet = Fleet(PARAMS, size=8, seed=31)
        enrollment = fleet.enroll(sequential_factory, seed=6)
        return fleet, enrollment, sequential_attack_factory

    @pytest.fixture(scope="class")
    def reference(self):
        references = {}
        for temp_aware in (True, False):
            fleet, enrollment, factory = self.fresh(temp_aware)
            references[temp_aware] = payloads(per_device_reference(
                fleet, enrollment, factory), enrollment)
        return references

    @pytest.mark.parametrize("temp_aware", [True, False])
    @pytest.mark.parametrize("batch", [1, 3, 8, None])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_lockstep_invariance(self, reference, batch, workers,
                                 temp_aware):
        # The fused lock-step campaign must reproduce the per-device
        # run() reference for every batch composition and worker count,
        # for the sequential and the temperature-aware attack alike.
        fleet, enrollment, factory = self.fresh(temp_aware)
        observed = payloads(fleet.attack_results(
            enrollment, factory, workers=workers, batch=batch),
            enrollment)
        assert observed == reference[temp_aware]
        recovered = [payload["recovered"] for payload in observed]
        if temp_aware:
            # The §VI-B attack misses the odd device statistically
            # (one of these eight).
            assert any(recovered)
        else:
            assert all(recovered)

    def test_consecutive_inprocess_sweeps_match_workers(self):
        # A single-chunk workers=1 campaign runs on the enrollment
        # itself, without payload copies.  A second sweep on the same
        # enrollment must still equal the copied workers=2 path.
        for temp_aware in (True, False):
            sweeps = {}
            for workers in (1, 2):
                fleet, enrollment, factory = self.fresh(temp_aware)
                sweeps[workers] = [
                    payloads(fleet.attack_results(
                        enrollment, factory, workers=workers),
                        enrollment)
                    for _ in range(2)]
            assert sweeps[1] == sweeps[2]
            if temp_aware:
                # The second sweep draws fresh noise and sensor reads
                # (the sequential bills here are noise-insensitive).
                assert sweeps[1][0] != sweeps[1][1]

    def test_temp_aware_results_match_per_device_reference(self):
        # Supervised and 2-shard service campaigns reproduce each
        # device's own run() bitwise, like the unsupervised matrix.
        fleet, enrollment, factory = self.fresh(True)
        reference = per_device_reference(fleet, enrollment, factory)
        fleet, enrollment, factory = self.fresh(True)
        assert_same_results(reference, fleet.attack_results(
            enrollment, factory, workers=2,
            supervision=Supervisor(RetryPolicy())))
        handle = submit_sweep(TEMP_POPULATION, temp_aware_factory,
                              KIND_ATTACK_RESULTS,
                              attack_factory=factory, shards=2,
                              workers=2)
        assert_same_results(reference, handle.collect())

    def test_temp_aware_recovery_agrees_with_predicate(self):
        # Temp-aware results carry relations, not a key: fleet and
        # service summaries must judge them with the warehouse's
        # predicate.
        fleet, enrollment, factory = self.fresh(True)
        results = fleet.attack_results(enrollment, factory)
        expected = [attack_recovered(result, key, helper)
                    for result, key, helper in zip(
                        results, enrollment.keys, enrollment.helpers)]
        assert any(expected)
        observed = payloads(results, enrollment)
        assert [payload["recovered"] for payload in observed] == \
            expected
        assert [payload["queries"] for payload in observed] == \
            [result.queries for result in results]
        handle = submit_sweep(TEMP_POPULATION, temp_aware_factory,
                              KIND_ATTACK_RESULTS,
                              attack_factory=factory, shards=2,
                              workers=2)
        assert payloads(handle.collect(), enrollment) == observed

    def test_run_only_driver_rejected(self):
        # Every fleet campaign runs lock-step: a driver without the
        # stepwise protocol is refused, not silently run scalar.
        class RunOnly:
            def __init__(self, attack):
                self._attack = attack

            def run(self):
                return self._attack.run()

        def factory(oracle, keygen, helper):
            return RunOnly(SequentialPairingAttack(oracle, keygen,
                                                   helper))

        fleet = Fleet(PARAMS, size=2, seed=33)
        enrollment = fleet.enroll(sequential_factory, seed=8)
        with pytest.raises(TypeError, match="steps"):
            fleet.attack_results(enrollment, factory)

    def test_group_attack_factory_through_fleet(self):
        fleet = Fleet(FIG6_PARAMS, size=2, seed=34)
        enrollment = fleet.enroll(
            functools.partial(GroupBasedKeyGen, distiller_degree=2,
                              group_threshold=120e3), seed=9)
        observed = payloads(fleet.attack_results(
            enrollment, GroupAttackFactory(4, 10), workers=2),
            enrollment)
        assert all(payload["recovered"] for payload in observed)
        assert all(payload["queries"] > 0 for payload in observed)

    def test_invalid_batch_rejected(self):
        fleet = Fleet(PARAMS, size=2, seed=35)
        enrollment = fleet.enroll(sequential_factory, seed=1)
        with pytest.raises(ValueError):
            fleet.attack_results(enrollment,
                                 sequential_attack_factory, batch=0)
