"""Parallel execution layer for fleet sweeps.

Fleet sweeps are embarrassingly parallel across devices: each device's
Monte-Carlo outcome is a pure function of (a) the device/keygen/helper
state captured when the sweep starts and (b) a noise substream derived
from the population seed.  This module exploits that shape:

* :func:`run_collected` executes one job per device and collects its
  Python result (enrollment returns keygen/helper objects, attack
  campaigns return per-chunk reports);
* :func:`run_scattered` is :func:`run_collected` for jobs returning a
  tuple of scalars, stacked into one typed array per output.

With ``workers > 1`` (or ``supervision=``) the payloads are split into
contiguous chunks that run on the long-lived workers of
:func:`repro.fleet.resilience.execute`; results travel back by value.

Both entry points guarantee **worker-count invariance**: results are
bitwise-identical whatever ``workers`` is, including 1.  Two mechanisms
make that hold.  First, every per-device random stream is derived in
the parent *before* dispatch, so stream identity cannot depend on which
worker runs the job or in which order.  Second, jobs always run against
*copies* of their payload — a deep copy in-process for ``workers=1``,
the pickle across the process boundary otherwise — so a sweep never
mutates parent-side device or keygen state either way.

Payloads must be picklable for ``workers > 1`` (library objects are;
user-supplied attack factories must be module-level callables, not
lambdas).  ``workers=1`` relaxes this to deep-copyability, which keeps
lambda factories working for in-process sweeps.

``supervision=`` — a :class:`repro.fleet.resilience.Supervisor` —
runs the same engine under its retry policy (watchdog, seeded
retry/backoff, quarantine, in-process degradation) with the same
bitwise results contract; without it the engine fails fast on the
first failed job.  See :mod:`repro.fleet.resilience` and
``docs/resilience.md``.
"""

from __future__ import annotations

import copy
import os
import pickle
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.resilience import Task, execute, payload_digest

#: A job maps one device's payload to its result (for
#: :func:`run_scattered`: a tuple of scalars).
JobFn = Callable[[object], Tuple]


def resolve_workers(workers: Optional[int],
                    count: Optional[int] = None) -> int:
    """Normalise the ``workers`` knob to a positive worker count.

    ``None`` and ``0`` mean "one worker per available CPU"; any other
    value must be a positive integer.  When *count* (the number of
    payloads) is given, the result is additionally capped at it —
    requesting more workers than there is work never spawns idle
    processes.
    """
    if workers is None or workers == 0:
        resolved = max(1, os.cpu_count() or 1)
    else:
        resolved = int(workers)
        if resolved < 1:
            raise ValueError("workers must be a positive integer, 0 "
                             "or None (auto)")
    if count is not None:
        resolved = max(1, min(resolved, int(count)))
    return resolved


def _ensure_picklable(run_job: JobFn,
                      payloads: Sequence[object]) -> None:
    """Fail fast, and helpfully, before a worker sees a bad payload.

    A non-picklable job or payload (typically a lambda attack factory)
    would otherwise surface as a raw pickling traceback from the
    dispatch loop.  This pre-check names the offending payload and the
    fix instead.
    """
    try:
        pickle.dumps(run_job)
    except Exception as error:
        raise ValueError(
            f"job function {run_job!r} is not picklable and cannot "
            f"cross a process boundary ({error}). Use a module-level "
            f"callable instead of a lambda/closure, or run with "
            f"workers=1 and no supervision for in-process execution."
        ) from None
    for index, payload in enumerate(payloads):
        try:
            pickle.dumps(payload)
        except Exception as error:
            raise ValueError(
                f"payload {index} is not picklable and cannot cross "
                f"a process boundary ({error}). Attack/keygen "
                f"factories must be module-level callables (see "
                f"repro.fleet.campaign), or run with workers=1 and "
                f"no supervision for in-process execution."
            ) from None


def chunk_indices(count: int, chunks: int) -> List[np.ndarray]:
    """Split ``range(count)`` into at most *chunks* contiguous blocks.

    Chunks are the unit of work handed to a worker, of retry and of
    fault injection.  Empty blocks are dropped.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if chunks < 1:
        raise ValueError("need at least one chunk")
    return [block for block in np.array_split(np.arange(count), chunks)
            if block.size]


def run_chunk(run_job: JobFn, payloads: Sequence[object],
              tripwire=None) -> list:
    """Worker body: run one chunk of jobs, results in order.

    *tripwire* (a fault-injection item tripwire) is stepped after
    each completed job.
    """
    results = []
    for payload in payloads:
        results.append(run_job(payload))
        if tripwire is not None:
            tripwire.step()
    return results


def _run_inprocess(run_job: JobFn, payloads: Sequence[object],
                   shared: Sequence[object] = ()) -> list:
    """Single-worker path: same mutation semantics as the worker path.

    Jobs run against deep copies so parent-side keygen streams stay
    untouched, exactly as they do when the payload is pickled to
    another process.  Objects in *shared* are kept by reference
    instead of copied — the caller guarantees jobs never mutate them
    (fleet sweeps treat device models as read-only: all noise comes
    from explicit job streams), which skips duplicating the device
    physics on every in-process sweep.
    """
    results = []
    for payload in payloads:
        memo = {id(obj): obj for obj in shared}
        results.append(run_job(copy.deepcopy(payload, memo)))
    return results


def run_collected(run_job: JobFn, payloads: Sequence[object],
                  workers: Optional[int] = 1,
                  shared: Sequence[object] = (),
                  supervision=None) -> list:
    """Run one job per payload; collect Python results in order.

    Entry ``i`` is ``run_job(payloads[i])``, bitwise-independent of
    *workers* and of how devices were chunked.  *shared* lists
    read-only payload constituents exempt from the in-process
    defensive copy (see :func:`_run_inprocess`).  *supervision* (a
    :class:`repro.fleet.resilience.Supervisor`) runs the sweep under
    its retry policy and appends the sweep's report to it; poisoned
    chunks leave ``None`` in their entries when the policy allows
    partial results.  Supervision always runs chunks in worker
    processes, so payloads must then be picklable even with
    ``workers=1``.
    """
    count = len(payloads)
    resolved = resolve_workers(workers, count)
    if supervision is None and (resolved == 1 or count <= 1):
        return _run_inprocess(run_job, payloads, shared)
    if count == 0:
        supervision.new_report(0)
        return []
    _ensure_picklable(run_job, payloads)
    blocks = chunk_indices(count, min(count, 4 * resolved))
    tasks = []
    for index, block in enumerate(blocks):
        chunk = [payloads[i] for i in block]
        tasks.append(Task(
            index, run_chunk, (run_job, chunk),
            digest="" if supervision is None
            else payload_digest(chunk)))
    report = (None if supervision is None
              else supervision.new_report(len(blocks)))
    results: list = [None] * count
    for outcome in execute(tasks, resolved, report, shared=shared):
        if not outcome.poisoned:
            for index, value in zip(blocks[outcome.index],
                                    outcome.value):
                results[index] = value
    return results


def run_scattered(run_job: JobFn, payloads: Sequence[object],
                  dtypes: Sequence, workers: Optional[int] = 1,
                  shared: Sequence[object] = (),
                  supervision=None) -> Tuple[np.ndarray, ...]:
    """Run one job per payload; stack numeric outputs per device.

    *run_job* must return one scalar per entry of *dtypes* for every
    payload.  Returns one 1-D array per dtype, each of length
    ``len(payloads)``, with entry ``i`` produced by ``payloads[i]``;
    otherwise exactly :func:`run_collected`.  Poisoned entries of a
    partial supervised sweep are zero.
    """
    outputs = [np.zeros(len(payloads), dtype=dt) for dt in dtypes]
    results = run_collected(run_job, payloads, workers, shared,
                            supervision)
    for index, values in enumerate(results):
        if values is not None:
            for output, value in zip(outputs, values):
                output[index] = value
    return tuple(outputs)
