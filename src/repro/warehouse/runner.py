"""Execute matrix cells at fleet scale and produce warehouse records.

Each runnable cell manufactures a seeded device fleet, enrolls its
scheme, and drives its attack family across the whole population
through the lock-step/fused campaign scheduler — the one engine every
§VI attack family runs on — then condenses the outcome into one record:
per-device key-recovery mask and query bills, a comparer-decisions
fingerprint, an enrollment fingerprint through the specified storage
format, and wall/kernel timings.

Determinism contract: the record *identity* (everything except the
``perf``/``meta`` layers) is a pure function of ``(cell, seed,
devices)``.  Cell RNG roots derive from the cell identifier — not its
position in the matrix — so adding cells to the registry never
perturbs existing cells, and the per-device substream discipline of
:mod:`repro.fleet.parallel` does the rest.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.ecc import BlockwiseCode, ReedMullerCode
from repro.ecc.kernel import kernel_stats
from repro.fleet import (
    DistillerAttackFactory,
    Fleet,
    GroupAttackFactory,
    SequentialAttackFactory,
    TempAwareAttackFactory,
    device_payload,
)
from repro.keygen import (
    DistillerPairingKeyGen,
    FuzzyExtractorKeyGen,
    GroupBasedKeyGen,
    HardenedGroupBasedKeyGen,
    HardenedTempAwareKeyGen,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
)
from repro.puf import ROArrayParams
from repro.warehouse.matrix import MatrixCell
from repro.warehouse.store import (
    SCHEMA_VERSION,
    config_hash,
    enrollment_fingerprint,
    sha256_hex,
)


@dataclass(frozen=True)
class _ReedMullerProvider:
    """Picklable provider of blockwise Reed–Muller codes (ML-decoded).

    First-order RM decoding never fails — it is the matrix's
    maximum-likelihood column: the §VI-A bounded-distance calculus
    does not apply and the attack switches to its online-calibration
    variant automatically.
    """

    m: int = 5

    def __call__(self, bits: int) -> BlockwiseCode:
        """Smallest blockwise RM(1, m) covering *bits* data bits."""
        inner = ReedMullerCode(self.m)
        blocks = max(1, -(-bits // inner.k))
        if blocks == 1:
            return inner
        return BlockwiseCode(inner, blocks)


def _keygen_factory(cell: MatrixCell) -> Callable[[], object]:
    """Picklable keygen factory for one runnable cell."""
    if cell.scheme == "sequential":
        provider = (_ReedMullerProvider(5) if cell.variant == "rm5"
                    else None)
        return functools.partial(SequentialPairingKeyGen,
                                 threshold=300e3,
                                 code_provider=provider)
    if cell.scheme == "group-based":
        if cell.countermeasure == "hardened":
            return functools.partial(
                HardenedGroupBasedKeyGen, rows=cell.rows,
                cols=cell.cols, max_polynomial_span=20e6,
                group_threshold=120e3)
        return functools.partial(GroupBasedKeyGen,
                                 group_threshold=120e3)
    if cell.scheme == "temp-aware":
        cls = (HardenedTempAwareKeyGen
               if cell.countermeasure == "hardened"
               else TempAwareKeyGen)
        return functools.partial(cls, t_min=-10, t_max=80,
                                 threshold=150e3)
    if cell.scheme == "distiller":
        return functools.partial(DistillerPairingKeyGen, cell.rows,
                                 cell.cols,
                                 pairing_mode=cell.variant, k=5)
    if cell.scheme == "fuzzy-extractor":
        out_bits = 48 if cell.variant == "8x16" else 16
        return functools.partial(FuzzyExtractorKeyGen, cell.rows,
                                 cell.cols, out_bits=out_bits)
    raise ValueError(f"no keygen factory for scheme {cell.scheme!r}")


def _attack_factory(cell: MatrixCell) -> Callable:
    """Picklable attack factory for one runnable cell."""
    if cell.attack in ("sequential", "ml"):
        return SequentialAttackFactory("paired")
    if cell.attack == "sprt":
        return SequentialAttackFactory("sprt")
    if cell.attack == "group":
        return GroupAttackFactory(cell.rows, cell.cols)
    if cell.attack == "distiller":
        return DistillerAttackFactory(cell.rows, cell.cols)
    if cell.attack == "temp-aware":
        return TempAwareAttackFactory()
    raise ValueError(f"no attack factory for family {cell.attack!r}")


def _timestamp() -> str:
    """UTC creation timestamp (provenance only, never identity)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def matrix_config(cells: Sequence[MatrixCell], profile: str,
                  seed: int, devices: int) -> Dict[str, object]:
    """The configuration dict whose hash keys a run's records."""
    return {
        "schema_version": SCHEMA_VERSION,
        "profile": profile,
        "seed": int(seed),
        "devices": int(devices),
        "cells": [cell.cell_id for cell in cells],
    }


def run_cell(cell: MatrixCell, devices: int, seed: int, commit: str,
             cfg_hash: str, profile: str,
             workers: Optional[int] = 1,
             supervision=None,
             registry_dir: Optional[str] = None) -> Dict[str, object]:
    """Execute one cell and return its warehouse record.

    *workers* / *supervision* thread through to the attack campaign
    (:meth:`repro.fleet.fleet.Fleet.attack_results`); both leave the
    record identity bitwise-unchanged — the fleet engines guarantee
    worker-count invariance and fault-retry equivalence.
    *registry_dir* (if given) persists each cell's enrollment in a
    per-cell :class:`repro.service.registry.EnrollmentRegistry` under
    that directory and reuses it on later runs; because the
    enrollment stream is spawned independently of the sweep streams,
    reuse leaves record identity bitwise-unchanged too.
    """
    record: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "commit": str(commit),
        "config_hash": str(cfg_hash),
        "cell": cell.cell_id,
        "scheme": cell.scheme,
        "attack": cell.attack,
        "countermeasure": cell.countermeasure,
        "variant": cell.variant,
        "config": {"seed": int(seed), "devices": int(devices),
                   "rows": cell.rows, "cols": cell.cols,
                   "profile": profile},
        "meta": {"created": _timestamp()},
    }
    if not cell.runnable:
        record.update(status="n/a", reason=cell.reason, engine=None,
                      security=None, perf=None)
        return record
    try:
        body = _run_runnable(cell, devices, seed, workers=workers,
                             supervision=supervision,
                             registry_dir=registry_dir)
    except Exception as error:  # defensive: record, don't abort runs
        record.update(status="error",
                      reason=f"{type(error).__name__}: {error}",
                      engine=None, security=None, perf=None)
        return record
    record.update(status="ok", reason="", **body)
    return record


#: Reconstruction attempts per device for the §VII-C timing cells.
RECONSTRUCTION_TRIALS = 64


def _cell_enrollment(cell: MatrixCell, fleet: Fleet, enroll_rng,
                     devices: int, seed: int,
                     registry_dir: Optional[str]):
    """Enroll a cell's fleet, through the registry when one is given.

    Returns ``(enrollment, enroll_seconds)``; a registry hit costs
    no enrollment measurements (``enroll_seconds`` is the load
    time).  The enrollment stream is an independent spawn of the
    cell root, so skipping it never shifts the sweep streams.
    """
    factory = _keygen_factory(cell)
    if registry_dir is None:
        start = time.perf_counter()
        enrollment = fleet.enroll(factory, seed=enroll_rng)
        return enrollment, time.perf_counter() - start
    from repro.service.registry import EnrollmentRegistry

    cell_dir = (Path(registry_dir)
                / cell.cell_id.replace("/", "__"))
    start = time.perf_counter()
    if (cell_dir / "manifest.json").exists():
        registry = EnrollmentRegistry.open(cell_dir)
        if (registry.population_seed != seed
                or registry.devices != devices):
            raise ValueError(
                f"registry at {cell_dir} was enrolled for "
                f"seed={registry.population_seed} "
                f"devices={registry.devices}, run wants "
                f"seed={seed} devices={devices}")
        enrollment = registry.load_enrollment(factory)
    else:
        enrollment = fleet.enroll(factory, seed=enroll_rng)
        registry = EnrollmentRegistry.create(
            cell_dir, seed, cell.scheme, fleet.params, devices)
        for helper, key in zip(enrollment.helpers,
                               enrollment.keys):
            registry.append(helper, key)
    return enrollment, time.perf_counter() - start


def _run_runnable(cell: MatrixCell, devices: int, seed: int,
                  workers: Optional[int] = 1,
                  supervision=None,
                  registry_dir: Optional[str] = None
                  ) -> Dict[str, object]:
    """The fleet-scale body of :func:`run_cell` for runnable cells."""
    root = np.random.default_rng(
        np.random.SeedSequence(cell.seed_material(seed)))
    manufacture_rng, enroll_rng = root.spawn(2)
    if cell.temp_slope_sigma > 0:
        params = ROArrayParams(rows=cell.rows, cols=cell.cols,
                               temp_slope_sigma=cell.temp_slope_sigma)
    else:
        params = ROArrayParams(rows=cell.rows, cols=cell.cols)
    fleet = Fleet(params, size=devices, seed=manufacture_rng)

    enrollment, enroll_seconds = _cell_enrollment(
        cell, fleet, enroll_rng, devices, seed, registry_dir)

    if cell.attack == "reconstruction":
        return _run_reconstruction(fleet, enrollment, enroll_seconds,
                                   devices, workers=workers,
                                   supervision=supervision)

    kernel_before = (kernel_stats.calls, kernel_stats.rows,
                     kernel_stats.seconds)
    start = time.perf_counter()
    results = fleet.attack_results(enrollment, _attack_factory(cell),
                                   workers=workers,
                                   supervision=supervision)
    attack_seconds = time.perf_counter() - start
    kernel_calls = kernel_stats.calls - kernel_before[0]
    kernel_rows = kernel_stats.rows - kernel_before[1]
    kernel_seconds = kernel_stats.seconds - kernel_before[2]

    payloads: List[Dict[str, object]] = []
    for result, key, helper in zip(results, enrollment.keys,
                                   enrollment.helpers):
        payloads.append(device_payload(result, key, helper))
    recovered = sum(1 for p in payloads if p["recovered"])
    queries = [int(p["queries"]) for p in payloads]
    security = {
        "devices": int(devices),
        "recovered": int(recovered),
        "recovery_rate": recovered / devices,
        "recovered_mask": [bool(p["recovered"]) for p in payloads],
        "queries": queries,
        "queries_total": int(sum(queries)),
        "queries_mean": sum(queries) / devices,
        "decisions_fingerprint": sha256_hex(
            [p["decisions"] for p in payloads]),
        "outcome_fingerprint": sha256_hex(payloads),
        "enrollment_fingerprint": enrollment_fingerprint(
            enrollment.helpers, enrollment.keys),
    }
    perf = {
        "enroll_seconds": enroll_seconds,
        "attack_seconds": attack_seconds,
        "kernel_seconds": kernel_seconds,
        "kernel_calls": int(kernel_calls),
        "kernel_rows": int(kernel_rows),
    }
    return {"engine": "lockstep-fused", "security": security,
            "perf": perf}


def _run_reconstruction(fleet: Fleet, enrollment, enroll_seconds,
                        devices: int, workers: Optional[int] = 1,
                        supervision=None) -> Dict[str, object]:
    """The §VII-C reconstruction-timing body (fuzzy-extractor cells).

    There is no attack: the cell times the key-regeneration sweep
    the fuzzy extractor trades its attack surface for, and records
    per-device reconstruction success through the same security/perf
    layers so summaries and diffs treat the cell uniformly
    (``queries`` counts noisy readouts consumed — one per trial).
    """
    kernel_before = (kernel_stats.calls, kernel_stats.rows,
                     kernel_stats.seconds)
    start = time.perf_counter()
    rates = fleet.failure_rates(enrollment, RECONSTRUCTION_TRIALS,
                                workers=workers,
                                supervision=supervision)
    attack_seconds = time.perf_counter() - start
    payloads = [{"recovered": bool(rate == 0.0),
                 "queries": int(RECONSTRUCTION_TRIALS),
                 "failure_rate": float(rate)} for rate in rates]
    recovered = sum(1 for p in payloads if p["recovered"])
    queries = [int(p["queries"]) for p in payloads]
    security = {
        "devices": int(devices),
        "recovered": int(recovered),
        "recovery_rate": recovered / devices,
        "recovered_mask": [bool(p["recovered"]) for p in payloads],
        "queries": queries,
        "queries_total": int(sum(queries)),
        "queries_mean": sum(queries) / devices,
        "decisions_fingerprint": sha256_hex(
            [[] for _ in payloads]),
        "outcome_fingerprint": sha256_hex(payloads),
        "enrollment_fingerprint": enrollment_fingerprint(
            enrollment.helpers, enrollment.keys),
    }
    perf = {
        "enroll_seconds": enroll_seconds,
        "attack_seconds": attack_seconds,
        "kernel_seconds": kernel_stats.seconds - kernel_before[2],
        "kernel_calls": int(kernel_stats.calls - kernel_before[0]),
        "kernel_rows": int(kernel_stats.rows - kernel_before[1]),
    }
    return {"engine": "reconstruction-sweep", "security": security,
            "perf": perf}


def run_matrix(cells: Sequence[MatrixCell], profile: str, seed: int,
               devices: int, commit: str,
               progress: Optional[Callable[[str], None]] = None,
               skip: Optional[Sequence[str]] = None,
               on_record: Optional[
                   Callable[[Dict[str, object]], None]] = None,
               stop_after: Optional[int] = None,
               workers: Optional[int] = 1,
               supervision=None,
               registry_dir: Optional[str] = None
               ) -> List[Dict[str, object]]:
    """Execute a matrix; returns one record per executed cell.

    Every record of the run shares the same ``(commit, config_hash,
    schema_version)`` key prefix.  The configuration hash is computed
    over the **full** *cells* list before any skipping, so a resumed
    run (``skip=`` the already-recorded cell ids) produces records
    under the same key as the interrupted one.

    *progress* (if given) receives one line per completed cell for
    live CLI output; *on_record* receives each record as soon as its
    cell finishes — the checkpoint hook that makes a mid-matrix kill
    resumable when the callback appends to the store incrementally.
    *stop_after* aborts the run after that many executed cells (the
    deterministic interruption used to test resume).  *workers* /
    *supervision* / *registry_dir* pass through to :func:`run_cell`.
    """
    cfg_hash = config_hash(matrix_config(cells, profile, seed,
                                         devices))
    skipped = frozenset(skip) if skip is not None else frozenset()
    records: List[Dict[str, object]] = []
    executed = 0
    for cell in cells:
        if cell.cell_id in skipped:
            continue
        if stop_after is not None and executed >= stop_after:
            break
        record = run_cell(cell, devices, seed, commit, cfg_hash,
                          profile, workers=workers,
                          supervision=supervision,
                          registry_dir=registry_dir)
        records.append(record)
        executed += 1
        if on_record is not None:
            on_record(record)
        if progress is not None and record["status"] == "ok":
            security = record["security"]
            progress(
                f"  {cell.cell_id}: {security['recovered']}/"
                f"{security['devices']} recovered, "
                f"{security['queries_total']} queries, "
                f"{record['perf']['attack_seconds']:.2f}s")
    return records
