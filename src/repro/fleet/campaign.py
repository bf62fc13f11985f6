"""Round-based lock-step execution of one attack across many devices.

:class:`LockstepCampaign` is the one engine behind every fleet attack
campaign (``Fleet.attack_results``).  Every §VI
attack runs as a stepwise generator (:mod:`repro.core.lockstep`); the
campaign gathers the **frontier** — the pending request of every
still-active device — each round and advances all of them together
through the vectorized lane engines: one noise block per device, one
batched bookkeeping pass per request type (per-device
accept/reject/continue masks, variable per-device query counts), one
fused kernel call per distinct code, then the finished devices'
generators resume and contribute their next request to the following
round.

Devices finish at different rounds; the frontier simply shrinks.
Because every lane consumes only its own oracle's stream, in request
order, with speculative tails unwound, per-device decisions, query
bills and recovered keys are **bitwise-identical** to driving each
attack alone with its scalar ``run()`` on the same oracle — whatever
the batch composition or worker count.

The same property makes the campaign chunk the natural **retry unit**
for supervised execution (:mod:`repro.fleet.resilience`): a chunk's
``_AttackChunkJob`` consumes only parent-derived streams against
payload copies, so a crashed or timed-out chunk re-runs from scratch
and lands on the same bits.

The module also holds the picklable per-family attack factories and
:func:`attack_recovered`, the one "did the attack succeed?" predicate
— recovery is a projection of a raw ``attack_results`` entry, shared
by the fleet CLI, the sharded service and the warehouse — and
:func:`device_payload`, the per-device outcome features the warehouse
fingerprints and the service's single-host check compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch_oracle import BatchOracle
from repro.core.distiller_attack import DistillerPairingAttack
from repro.core.group_attack import GroupBasedAttack
from repro.core.lockstep import AttackSteps, Lane, lane_engines
from repro.core.sequential_attack import SequentialPairingAttack
from repro.core.temp_aware_attack import (
    TempAwareAttack,
    TempAwareAttackResult,
)


class LockstepCampaign:
    """Drives a batch of stepwise attacks in shared rounds.

    *lanes* holds one ``(oracle, steps)`` pair per device: the
    device's batched oracle and the attack's :meth:`steps` generator.
    Oracles must be distinct objects — each lane owns its noise
    stream.  Each round, the frontier's evaluation requests are taken
    through the two-phase protocol — per-device ``plan_rows``, then
    **one ECC kernel call per distinct kernel key across every device
    in the round** (:func:`repro.ecc.kernel.run_kernels`), then
    per-device finalize — which amortizes the per-call fixed cost of
    many tiny completions (``benchmarks/bench_campaign_fusion.py``)
    without changing any per-device result (``docs/evaluators.md``).
    """

    def __init__(self, lanes: Sequence[Tuple[BatchOracle, AttackSteps]]
                 ) -> None:
        self._entries = list(lanes)

    def run(self) -> List[object]:
        """Execute every attack to completion; results in lane order.

        Each scheduler round partitions the active frontier by request
        type and hands every group to its lane engine for one block of
        progress; devices whose request completed are resumed
        immediately so their next request joins the very next round.
        """
        engines = lane_engines()
        results: List[object] = [None] * len(self._entries)
        active: List[Tuple[int, AttackSteps, Lane]] = []
        for index, (oracle, steps) in enumerate(self._entries):
            slot = self._advance(index, steps, oracle, None, results)
            if slot is not None:
                active.append(slot)
        while active:
            progressed = False
            for engine in engines:
                lanes = [lane for _, _, lane in active
                         if isinstance(lane.request,
                                       engine.request_type)]
                if lanes:
                    engine.step(lanes)
                    progressed = True
            if not progressed:
                request = active[0][2].request
                raise TypeError(
                    f"no lane engine accepts request {request!r}")
            survivors: List[Tuple[int, AttackSteps, Lane]] = []
            for index, steps, lane in active:
                if not lane.finished:
                    survivors.append((index, steps, lane))
                    continue
                slot = self._advance(index, steps, lane.oracle,
                                     lane.outcome, results)
                if slot is not None:
                    survivors.append(slot)
            active = survivors
        return results

    @staticmethod
    def _advance(index: int, steps: AttackSteps, oracle: BatchOracle,
                 reply, results: List[object]
                 ) -> Optional[Tuple[int, AttackSteps, Lane]]:
        """Resume one generator; park its next request or its result."""
        try:
            request = steps.send(reply)
        except StopIteration as stop:
            results[index] = stop.value
            return None
        return index, steps, Lane(oracle, request)


def run_campaign(oracles: Sequence[BatchOracle],
                 attacks: Sequence[object]) -> List[object]:
    """Lock-step a batch of constructed attack drivers.

    Convenience wrapper pairing each attack's ``steps()`` generator
    with its device's oracle; returns the attack results in device
    order, bitwise-identical to calling each ``run()`` alone.
    """
    if len(oracles) != len(attacks):
        raise ValueError("need exactly one oracle per attack")
    missing = [attack for attack in attacks
               if not hasattr(attack, "steps")]
    if missing:
        raise TypeError(
            f"attack driver {missing[0]!r} does not expose the "
            "stepwise protocol (steps())")
    return LockstepCampaign(
        [(oracle, attack.steps())
         for oracle, attack in zip(oracles, attacks)]).run()


# ----------------------------------------------------------------------
# picklable attack factories (module-level, for workers > 1)


def sequential_attack_factory(oracle, keygen, helper
                              ) -> SequentialPairingAttack:
    """Build a §VI-A sequential-pairing attack driver for one device."""
    return SequentialPairingAttack(oracle, keygen, helper)


@dataclass
class _BoundSequentialAttack:
    """A sequential attack with the distinguisher pre-selected.

    ``SequentialPairingAttack`` takes its *method* as a ``run()`` /
    ``steps()`` argument, but the campaign engine and the fleet drive
    attacks through the no-argument protocol.  This wrapper binds the
    method once so SPRT (and explicit paired) campaigns compose with
    ``run_campaign`` and ``Fleet.attack_results`` unchanged.
    """

    attack: SequentialPairingAttack
    method: str

    def steps(self):
        """Stepwise protocol with the bound distinguisher."""
        return self.attack.steps(self.method)

    def run(self):
        """Scalar reference drive with the bound distinguisher."""
        return self.attack.run(self.method)


@dataclass(frozen=True)
class SequentialAttackFactory:
    """Picklable §VI-A attack factory with a bound distinguisher.

    ``method`` is ``"paired"`` (adaptive reference/test comparison —
    also the entry point of the ML-decoder calibration variant, which
    the attack selects automatically from the enrolled code) or
    ``"sprt"`` (Wald's sequential test).
    """

    method: str = "paired"

    def __call__(self, oracle, keygen, helper) -> _BoundSequentialAttack:
        """Build the attack driver for one enrolled device."""
        return _BoundSequentialAttack(
            SequentialPairingAttack(oracle, keygen, helper), self.method)


@dataclass(frozen=True)
class TempAwareAttackFactory:
    """Picklable §VI-B temperature-aware attack factory.

    The attack recovers cooperating-pair relations rather than a key;
    :func:`attack_recovered` judges its results accordingly.
    """

    def __call__(self, oracle, keygen, helper) -> TempAwareAttack:
        """Build the attack driver for one enrolled device."""
        return TempAwareAttack(oracle, keygen, helper)


@dataclass(frozen=True)
class GroupAttackFactory:
    """Picklable §VI-C group-based attack factory for a geometry."""

    rows: int
    cols: int

    def __call__(self, oracle, keygen, helper) -> GroupBasedAttack:
        """Build the attack driver for one enrolled device."""
        return GroupBasedAttack(oracle, keygen, helper, self.rows,
                                self.cols)


@dataclass(frozen=True)
class DistillerAttackFactory:
    """Picklable §VI-D distiller + pairing attack factory."""

    rows: int
    cols: int
    max_joint_bits: int = 8

    def __call__(self, oracle, keygen, helper) -> DistillerPairingAttack:
        """Build the attack driver for one enrolled device."""
        return DistillerPairingAttack(oracle, keygen, helper,
                                      self.rows, self.cols,
                                      max_joint_bits=self.max_joint_bits)


# ----------------------------------------------------------------------
# per-family recovery predicate


def attack_recovered(result: object, key: np.ndarray,
                     helper: object) -> bool:
    """Whether one device's attack *result* recovered its secret.

    Key-carrying families must reproduce the enrolled *key* exactly.
    The §VI-B temperature-aware attack recovers only the relations of
    the cooperating-pair bits (the tail of the key, after the masking
    good pairs): every relation must be resolved and equal the truth.
    """
    if isinstance(result, TempAwareAttackResult):
        truth = key[len(helper.scheme.good_indices):]
        if truth.size == 0 or result.resolved_fraction != 1.0:
            return False
        return bool(np.array_equal(result.coop_relations,
                                   truth ^ truth[0]))
    recovered = getattr(result, "key", None)
    return recovered is not None and bool(
        np.array_equal(recovered, key))


def device_payload(result: object, key: np.ndarray,
                   helper: object) -> Dict[str, object]:
    """Deterministic per-device outcome features of one attack result.

    Recovery (per :func:`attack_recovered`), query bill, comparer
    decisions and whatever the result recovered — key, relations,
    good bits.  Two results are equivalent exactly when their
    payloads are equal.
    """
    from repro.warehouse.store import fingerprint_bits

    comparisons = getattr(result, "comparisons", ())
    if isinstance(comparisons, (list, tuple)):
        decisions = [outcome.decision for outcome in comparisons]
        comparison_count = len(comparisons)
    else:
        # group-based results expose a comparison *count*, not the
        # individual comparer outcomes
        decisions = []
        comparison_count = int(comparisons)
    payload: Dict[str, object] = {
        "recovered": attack_recovered(result, key, helper),
        "queries": int(getattr(result, "queries", 0)),
        "decisions": decisions,
        "comparison_count": comparison_count,
    }
    recovered_key = getattr(result, "key", None)
    if recovered_key is not None:
        payload["key"] = fingerprint_bits([recovered_key])
    for attr in ("relations", "coop_relations"):
        value = getattr(result, attr, None)
        if value is not None:
            payload[attr] = [int(v) for v in
                             np.asarray(value).ravel()]
    good_bits = getattr(result, "good_bits", None)
    if good_bits is not None:
        payload["good_bits"] = {str(index): int(bit)
                                for index, bit in good_bits.items()}
    return payload
