"""Sharded sweeps on the fleet's long-lived-worker engine.

The :class:`Dispatcher` turns a :class:`~repro.service.shard.ShardPlan`
into one :class:`~repro.fleet.resilience.Task` per shard and runs them
on :func:`repro.fleet.resilience.execute` — the same engine, wire
protocol, transports and retry/quarantine state machine as supervised
fleet sweeps.  The shard is the service's retry unit: its
:func:`~repro.service.shard.shard_digest` seeds the backoff jitter and
its index is the fault-plan coordinate, so the ``REPRO_FAULT_PLAN``
chaos plans that drive the fleet tests drive the service identically.
Results are bitwise-identical across transports, worker counts and
faults — the transport moves bytes, the substreams were all derived
before dispatch.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

from repro.fleet.parallel import resolve_workers
from repro.fleet.resilience import (
    TRANSPORTS,
    ResilienceReport,
    RetryPolicy,
    ServiceProtocolError,
    Task,
    WorkerHandshakeError,
    execute,
)
from repro.service.shard import ShardPlan, execute_shard

__all__ = ["Dispatcher", "ServiceProtocolError", "WorkerHandshakeError"]


def _run_shard(kind: str, jobs: Sequence[object], tripwire=None):
    """Worker body of one shard.

    Looks :func:`~repro.service.shard.execute_shard` up by name in this
    module at call time, so a worker runs whatever this module holds
    in the worker process.
    """
    return execute_shard(kind, jobs, tripwire=tripwire)


class Dispatcher:
    """Drives a sharded sweep over long-lived protocol workers.

    Parameters
    ----------
    workers:
        Worker process count; ``None``/``0`` resolves to the CPU
        count, and the resolved value is always capped at the shard
        count.
    transport:
        ``"pipe"`` (unix-domain socket) or ``"tcp"`` (loopback).
    policy:
        :class:`~repro.fleet.resilience.RetryPolicy` governing
        watchdog timeouts, retry counts and backoff; defaults to the
        policy's defaults.
    """

    def __init__(self, workers: Optional[int] = None,
                 transport: str = "pipe",
                 policy: Optional[RetryPolicy] = None):
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"expected one of {TRANSPORTS}")
        self._workers_arg = workers
        self.transport = transport
        self.policy = policy if policy is not None else RetryPolicy()
        self.report: Optional[ResilienceReport] = None

    def run(self, plan: ShardPlan, kind: str,
            shard_jobs: Sequence[Sequence[object]]
            ) -> Iterator[Dict[str, object]]:
        """Execute every shard; yield raw outcome dicts as they land.

        *shard_jobs* is the per-shard job payload list, aligned with
        ``plan.shards``.  Outcomes arrive in completion order (not
        shard order) and carry ``shard`` (the :class:`ShardSpec`),
        ``kind``, ``data``, ``seconds``, ``kernel``, ``attempt``,
        ``worker`` (pid) and ``degraded``/``poisoned`` flags.  The
        run's :class:`ResilienceReport` is on :attr:`report` once the
        iterator is exhausted.
        """
        if len(shard_jobs) != len(plan.shards):
            raise ValueError("one job list per shard required")
        self.report = ResilienceReport(self.policy, len(plan.shards))
        tasks = [Task(spec.index, _run_shard, (kind, list(jobs)),
                      digest=spec.digest)
                 for spec, jobs in zip(plan.shards, shard_jobs)]
        for outcome in execute(
                tasks, resolve_workers(self._workers_arg, len(tasks)),
                self.report, self.transport):
            shard = outcome.value or {
                "data": None, "seconds": 0.0,
                "kernel": {"calls": 0, "rows": 0, "seconds": 0.0}}
            yield {"shard": plan.shards[outcome.index], "kind": kind,
                   "data": shard["data"], "seconds": shard["seconds"],
                   "kernel": shard["kernel"],
                   "attempt": outcome.attempt, "worker": outcome.pid,
                   "degraded": outcome.degraded,
                   "poisoned": outcome.poisoned}
