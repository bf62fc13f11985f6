"""The benchmark's workloads, driven through the program's public API.

Each workload has a one-off warm-up, a repetition (``rep``) that the
measured phase runs until its time is up, and a correctness check
that runs after the measured phase.  A repetition always starts from
the same seed, so every repetition of one run computes the same
outputs; :func:`check_reps` insists on that.

Why these workloads (see ``README.md`` for the metric map):

* ``group-campaign`` — the group-based cells, where the grouping
  layer's ``pack_key`` loop does most of the work and the ECC kernel
  almost none (the hardened cell makes no kernel call at all);
* ``pairing-campaign`` — the pairing cells, where grouping does
  nothing and time goes to evaluator construction, the lock-step
  engines and the BCH kernel; its temp-aware cell is the scalar,
  unfused loop;
* ``service-sweep`` — one bulk failure-rate sweep through the sharded
  service: few large kernel calls, dedup-heavy, and the only workload
  with dispatch/IPC and registry reads.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fleet.resilience import PoisonedSweepError
from repro.keygen import SequentialPairingKeyGen
from repro.puf import ROArrayParams
from repro.service import (
    KIND_FAILURE,
    PopulationSpec,
    enroll_population,
    submit_sweep,
)
from repro.warehouse import (
    canonical_json,
    full_matrix,
    record_identity,
    run_matrix,
)

import spans

#: Profile and commit labels written into the warehouse records; both
#: are part of record identity, so they are constants.
PROFILE = "perfbench"
COMMIT = "perfbench"


@dataclass
class Rep:
    """One repetition's measurements and outputs."""

    start: float
    end: float
    #: Whole repetition, set-up included.
    total_s: float
    #: Set-up inside the repetition (enrollment / registry write).
    setup_s: float
    #: The measured phase (campaign minus enrollment; submit→collect).
    wall_s: float
    first_chunk_s: float
    devices: int
    queries: int
    failed: int
    #: Deterministic counters that must repeat exactly.
    counts: Dict[str, int]
    #: The outputs compared across repetitions, as canonical text.
    identity: str
    #: Service only: the submit time, per-worker shard seconds,
    #: shard attempts and the time the sweep started.
    service: Optional[Dict[str, object]] = field(default=None)


def _maybe_span(tracer: Optional[spans.Tracer], name: str):
    return (tracer.span(name) if tracer is not None
            else contextlib.nullcontext())


# ----------------------------------------------------------------------
# campaign workloads (repro.warehouse.run_matrix)


def failed_devices(records: List[Dict[str, object]]) -> int:
    """Devices whose cell errored or whose outcome is not the expected
    one: a baseline device not recovered, a hardened device recovered.
    """
    failed = 0
    for record in records:
        devices = int(record["config"]["devices"])
        if record["status"] != "ok":
            failed += devices
            continue
        recovered = int(record["security"]["recovered"])
        failed += (recovered if record["countermeasure"] == "hardened"
                   else devices - recovered)
    return failed


class CampaignWorkload:
    """Matrix cells run end to end: enroll → campaign → key check."""

    warmup_devices = 2

    def __init__(self, cell_ids, devices: int):
        by_id = {cell.cell_id: cell for cell in full_matrix()}
        self.cells = [by_id[cell_id] for cell_id in cell_ids]
        self.devices = devices

    def warm_up(self, seed: int, workdir: Path) -> None:
        """One small run of the same cells (fills lazy caches)."""
        run_matrix(self.cells, PROFILE, seed, self.warmup_devices,
                   COMMIT)

    def rep(self, seed: int, workdir: Path,
            tracer: Optional[spans.Tracer] = None) -> Rep:
        """One ``run_matrix`` call.  The installed wrappers record its
        spans, so *tracer* is not needed here."""
        first: List[float] = []

        def on_record(record) -> None:
            if not first:
                first.append(time.perf_counter())

        start = time.perf_counter()
        records = run_matrix(self.cells, PROFILE, seed, self.devices,
                             COMMIT, on_record=on_record)
        end = time.perf_counter()
        enroll = [record["perf"]["enroll_seconds"]
                  if record["status"] == "ok" else 0.0
                  for record in records]
        total = end - start
        ok = [record for record in records if record["status"] == "ok"]
        return Rep(
            start=start, end=end, total_s=total,
            setup_s=sum(enroll), wall_s=total - sum(enroll),
            first_chunk_s=first[0] - start - enroll[0],
            devices=self.devices * len(records),
            queries=sum(int(record["security"]["queries_total"])
                        for record in ok),
            failed=failed_devices(records),
            counts={key: sum(int(record["perf"].get(key, 0))
                             for record in ok)
                    for key in ("kernel_calls", "kernel_rows")},
            identity=canonical_json([record_identity(record)
                                     for record in records]))

    def check(self, seed: int, reps: List[Rep]) -> List[str]:
        """Nothing beyond :func:`check_reps`: records are compared
        bitwise across repetitions there."""
        return []


# ----------------------------------------------------------------------
# service workload (repro.service.submit_sweep over a registry)


def poisoned_devices(results) -> int:
    """Devices of shards that came back poisoned (zero-filled)."""
    return sum(result.shard.devices for result in results
               if result.poisoned)


class ServiceWorkload:
    """A registry-backed, sharded failure-rate sweep."""

    params = ROArrayParams(rows=8, cols=16, sigma_noise=400e3)
    keygen = functools.partial(SequentialPairingKeyGen, threshold=300e3)
    scheme = "sequential"

    def __init__(self, devices: int, trials: int, shards: int,
                 workers: int):
        self.devices = devices
        self.trials = trials
        self.shards = shards
        self.workers = workers

    def warm_up(self, seed: int, workdir: Path) -> None:
        """One full sweep: the first one after start-up runs slower."""
        self.rep(seed, workdir)

    def rep(self, seed: int, workdir: Path,
            tracer: Optional[spans.Tracer] = None) -> Rep:
        population = PopulationSpec(self.params, self.devices, seed)
        path = workdir / "registry"
        begin = time.perf_counter()
        with _maybe_span(tracer, "service.registry_write"):
            enroll_population(path, population, self.keygen,
                              self.scheme)
        start = time.perf_counter()
        with _maybe_span(tracer, "service.submit"):
            handle = submit_sweep(population, self.keygen, KIND_FAILURE,
                                  trials=self.trials,
                                  shards=self.shards,
                                  workers=self.workers, registry=path)
        submitted = time.perf_counter()
        first = None
        try:
            for _ in handle:
                if first is None:
                    first = time.perf_counter()
            rates = handle.collect()
            failed = poisoned_devices(handle.results)
        except PoisonedSweepError:
            rates, failed = None, population.devices
        end = time.perf_counter()
        shutil.rmtree(path)
        busy: Dict[int, float] = {}
        for result in handle.results:
            busy[result.worker] = (busy.get(result.worker, 0.0)
                                   + result.seconds)
            if tracer is not None:
                tracer.merge_shard(result.kernel)
        return Rep(
            start=begin, end=end, total_s=end - begin,
            setup_s=start - begin, wall_s=end - start,
            first_chunk_s=(first if first is not None else end) - start,
            devices=population.devices,
            queries=population.devices * self.trials, failed=failed,
            counts={f"kernel_{key}": sum(int(result.kernel.get(key, 0))
                                         for result in handle.results)
                    for key in ("calls", "rows")},
            identity=("poisoned" if rates is None
                      else rates.tobytes().hex()),
            service={"sweep_start": start,
                     "submit_s": submitted - start,
                     "busy": busy,
                     "retries": sum(int(result.attempt)
                                    for result in handle.results)})

    def check(self, seed: int, reps: List[Rep]) -> List[str]:
        """The merged sweep must equal the single-host fleet sweep."""
        population = PopulationSpec(self.params, self.devices, seed)
        fleet, enroll_rng = population.build()
        enrollment = fleet.enroll(self.keygen, seed=enroll_rng)
        reference = fleet.failure_rates(enrollment, self.trials)
        if reps[0].identity != reference.tobytes().hex():
            return ["service sweep differs from Fleet.failure_rates on "
                    "the same population"]
        return []


WORKLOADS = {
    "group-campaign": lambda: CampaignWorkload(
        ("group-based/group/baseline", "group-based/group/hardened"),
        devices=12),
    "pairing-campaign": lambda: CampaignWorkload(
        ("sequential/sequential/baseline", "sequential/sprt/baseline",
         "temp-aware/temp-aware/baseline"), devices=32),
    "service-sweep": lambda: ServiceWorkload(
        devices=32, trials=2000, shards=4,
        workers=min(2, os.cpu_count() or 1)),
}


def check_reps(reps: List[Rep]) -> List[str]:
    """Same-seed repetitions must agree on outputs and counters."""
    problems = []
    for index, rep in enumerate(reps[1:], start=1):
        if rep.identity != reps[0].identity:
            problems.append(f"repetition {index} outputs differ from "
                            f"repetition 0")
        if rep.counts != reps[0].counts or \
                rep.queries != reps[0].queries:
            problems.append(f"repetition {index} counters "
                            f"{rep.counts} differ from {reps[0].counts}")
    return problems


def run_accounting(reps: List[Rep]) -> Tuple[int, int]:
    """A run's ``(attempted, failed)`` device counts.

    Every repetition recomputes the same devices from the same seed
    (:func:`check_reps` holds them to identical outputs), so a run
    attempts each device once, however many repetitions fit in its
    time.  Should repetitions disagree, the gate fails and the worst
    one's failures are kept.
    """
    return reps[0].devices, max(rep.failed for rep in reps)
