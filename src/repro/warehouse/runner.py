"""Execute warehouse cells at fleet scale and produce their records.

One body runs every cell: seed root → :class:`~repro.fleet.Fleet` →
enrollment → sweep → record.  The sweep is the cell's attack family
driven across the whole population by the lock-step/fused campaign
scheduler (:meth:`~repro.fleet.Fleet.attack_results`), or — for cells
without an attack — a failure-rate sweep.  Matrix cells
(:class:`~repro.warehouse.matrix.MatrixCell`) and the scenario
conformance cases (:class:`repro.scenario.corpus.ScenarioCase`) both
speak the :class:`~repro.warehouse.matrix.Cell` protocol, so a
conformance case is a warehouse cell with a trajectory, a
noise-scaled geometry and a few observed metrics on top.  The record
holds per-device key-recovery mask and query bills, a
comparer-decisions fingerprint, an enrollment fingerprint through the
specified storage format, and wall/kernel timings.

Determinism contract: the record *identity* (everything except the
``perf``/``meta`` layers) is a pure function of ``(cell, seed,
devices)``.  Cell RNG roots derive from the cell identifier — not its
position in the matrix — so adding cells to the registry never
perturbs existing cells, and the per-device substream discipline of
:mod:`repro.fleet.parallel` does the rest.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.ecc.kernel import kernel_stats
from repro.fleet import Fleet, device_payload
from repro.warehouse.matrix import Cell
from repro.warehouse.store import (
    SCHEMA_VERSION,
    config_hash,
    enrollment_fingerprint,
    sha256_hex,
)


def _timestamp() -> str:
    """UTC creation timestamp (provenance only, never identity)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def matrix_config(cells: Sequence[Cell], profile: str,
                  seed: int, devices: Optional[int]
                  ) -> Dict[str, object]:
    """The configuration dict whose hash keys a run's records.

    *cells* must list the **full** run, not just the cells one
    invocation executed: an interrupted run and its ``--resume``
    completion then share the hash.  *devices* is ``None`` for runs
    whose cells all pin their fleet size (the conformance corpus).
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "profile": profile,
        "seed": int(seed),
        "devices": None if devices is None else int(devices),
        "cells": [cell.cell_id for cell in cells],
    }


def run_cell(cell: Cell, devices: Optional[int], seed: int,
             commit: str, cfg_hash: str, profile: str,
             workers: Optional[int] = 1,
             supervision=None,
             registry_dir: Optional[str] = None) -> Dict[str, object]:
    """Execute one cell and return its warehouse record.

    *devices* is the fleet size of cells that do not pin their own.
    *workers* / *supervision* thread through to the campaign or sweep
    (:meth:`repro.fleet.fleet.Fleet.attack_results` /
    :meth:`~repro.fleet.fleet.Fleet.failure_rates`); both leave the
    record identity bitwise-unchanged — the fleet engines guarantee
    worker-count invariance and fault-retry equivalence.
    *registry_dir* (if given) persists each cell's enrollment in a
    per-cell :class:`repro.service.registry.EnrollmentRegistry` under
    that directory and reuses it on later runs; because the
    enrollment stream is spawned independently of the sweep streams,
    reuse leaves record identity bitwise-unchanged too.
    """
    devices = cell.devices or devices
    record: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "commit": str(commit),
        "config_hash": str(cfg_hash),
        "cell": cell.cell_id,
        "scheme": cell.scheme,
        "attack": cell.attack,
        "countermeasure": cell.countermeasure,
        "variant": cell.variant,
        "config": cell.config(seed, devices, profile),
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


def _cell_enrollment(cell: Cell, fleet: Fleet, enroll_rng,
                     devices: int, seed: int,
                     registry_dir: Optional[str]):
    """Enroll a cell's fleet, through the registry when one is given.

    Returns ``(enrollment, enroll_seconds)``; a registry hit costs
    no enrollment measurements (``enroll_seconds`` is the load
    time).  The enrollment stream is an independent spawn of the
    cell root, so skipping it never shifts the sweep streams.
    """
    factory = cell.keygen_factory()
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


def _run_runnable(cell: Cell, devices: int, seed: int,
                  workers: Optional[int] = 1,
                  supervision=None,
                  registry_dir: Optional[str] = None
                  ) -> Dict[str, object]:
    """The fleet-scale body of :func:`run_cell` for runnable cells.

    A cell with an attack factory runs the campaign and condenses
    each device's result through
    :func:`~repro.fleet.device_payload`.  A cell without one times the
    key-regeneration sweep instead — for the §VII-C fuzzy-extractor
    cells, the cost the construction trades its attack surface for —
    and records per-device reconstruction success through the same
    security/perf layers (``queries`` counts noisy readouts consumed,
    one per trial).
    """
    root = np.random.default_rng(
        np.random.SeedSequence(cell.seed_material(seed)))
    manufacture_rng, enroll_rng = root.spawn(2)
    fleet = Fleet(cell.array_params(), size=devices,
                  seed=manufacture_rng)
    enrollment, enroll_seconds = _cell_enrollment(
        cell, fleet, enroll_rng, devices, seed, registry_dir)

    attack_factory = cell.attack_factory()
    trajectory = cell.trajectory_spec()
    kernel_before = (kernel_stats.calls, kernel_stats.rows,
                     kernel_stats.seconds)
    start = time.perf_counter()
    if attack_factory is None:
        engine = "reconstruction-sweep"
        rates = fleet.failure_rates(enrollment, cell.trials,
                                    trajectory=trajectory,
                                    workers=workers,
                                    supervision=supervision)
        payloads = [{"recovered": bool(rate == 0.0),
                     "queries": int(cell.trials),
                     "failure_rate": float(rate)} for rate in rates]
    else:
        engine = "lockstep-fused"
        results = fleet.attack_results(enrollment, attack_factory,
                                       trajectory=trajectory,
                                       workers=workers,
                                       supervision=supervision)
        payloads = [device_payload(result, key, helper)
                    for result, key, helper in zip(
                        results, enrollment.keys, enrollment.helpers)]
    attack_seconds = time.perf_counter() - start
    perf = {
        "enroll_seconds": enroll_seconds,
        "attack_seconds": attack_seconds,
        "kernel_seconds": kernel_stats.seconds - kernel_before[2],
        "kernel_calls": int(kernel_stats.calls - kernel_before[0]),
        "kernel_rows": int(kernel_stats.rows - kernel_before[1]),
    }
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
            [p.get("decisions", []) for p in payloads]),
        "outcome_fingerprint": sha256_hex(payloads),
        "enrollment_fingerprint": enrollment_fingerprint(
            enrollment.helpers, enrollment.keys),
    }
    security.update(cell.observe(payloads, security))
    return {"engine": engine, "security": security, "perf": perf}


def record_line(record: Dict[str, object]) -> str:
    """One progress line for a record that carries a security block."""
    security = record["security"]
    line = (f"  {record['cell']}: {security['recovered']}/"
            f"{security['devices']} recovered, "
            f"{security['queries_total']} queries, "
            f"{record['perf']['attack_seconds']:.2f}s")
    observed = security.get("observed")
    if observed:
        line += " [" + ", ".join(f"{name}={value:.3g}" for name, value
                                 in observed.items()) + "]"
    if record["status"] != "ok":
        line += f" - {record['status']}: {record['reason']}"
    return line


def run_matrix(cells: Sequence[Cell], profile: str, seed: int,
               devices: Optional[int], commit: str,
               skip: Optional[Sequence[str]] = None,
               on_record: Optional[
                   Callable[[Dict[str, object]], None]] = None,
               stop_after: Optional[int] = None,
               workers: Optional[int] = 1,
               supervision=None,
               registry_dir: Optional[str] = None
               ) -> List[Dict[str, object]]:
    """Execute a list of cells; returns one record per executed cell.

    Every record of the run shares the same ``(commit, config_hash,
    schema_version)`` key prefix.  The configuration hash is computed
    over the **full** *cells* list before any skipping, so a resumed
    run (``skip=`` the already-recorded cell ids) produces records
    under the same key as the interrupted one.

    *on_record* receives each record as soon as its cell finishes —
    the checkpoint hook that makes a mid-run kill resumable when the
    callback appends to the store incrementally.  *stop_after* aborts
    the run after that many executed cells (the deterministic
    interruption used to test resume).  *workers* / *supervision* /
    *registry_dir* pass through to :func:`run_cell`.
    """
    cfg_hash = config_hash(matrix_config(cells, profile, seed,
                                         devices))
    skipped = frozenset(skip) if skip is not None else frozenset()
    records: List[Dict[str, object]] = []
    for cell in cells:
        if cell.cell_id in skipped:
            continue
        if stop_after is not None and len(records) >= stop_after:
            break
        record = run_cell(cell, devices, seed, commit, cfg_hash,
                          profile, workers=workers,
                          supervision=supervision,
                          registry_dir=registry_dir)
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records
