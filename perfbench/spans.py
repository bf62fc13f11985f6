"""In-memory span tracer for the benchmark's traced runs.

The tracer never lives inside the program: :func:`install` replaces
the hot public functions of each layer — at every module that
imported them by name, and on the classes that define the hot
methods — with wrappers that record one span per call, and
:func:`uninstall` puts the originals back.  A span is ``[name,
start, end, parent, rows_in, rows_out, pid]`` with ``perf_counter``
times; a layer's self time is its spans' durations minus the time
their child spans cover.

Service shards run in forked worker processes.  The wrapper around
``execute_shard`` (imported by name into the dispatcher, so it is the
function a worker calls) records the shard's spans in the worker and
ships them back inside the shard's kernel-stats dict, which the
dispatcher forwards untouched; :meth:`Tracer.merge_shard` re-roots
them in the main process's span list.  ``perf_counter`` is the system-wide
monotonic clock on Linux, so worker and main-process spans share a
timeline.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Modules whose import sites the wrappers must reach; importing them
#: first makes every by-name import exist before the scan.
SITE_MODULES = (
    "repro._dedup",
    "repro.core.batch_oracle",
    "repro.core.group_attack",
    "repro.core.lockstep",
    "repro.ecc.base",
    "repro.ecc.bch",
    "repro.ecc.kernel",
    "repro.ecc.sketch",
    "repro.fleet.fleet",
    "repro.fuzzy.robust",
    "repro.grouping.packing",
    "repro.keygen.batch",
    "repro.keygen.group_based",
    "repro.puf.ro_array",
    "repro.service.dispatcher",
    "repro.service.registry",
    "repro.service.shard",
    "repro.warehouse.runner",
)

#: Span names of the layers whose self time counts as attributed.
LAYERS = (
    "warehouse.record", "fleet.enroll", "core.attack", "core.lockstep",
    "keygen.plan", "keygen.evaluator_build", "keygen.finalize",
    "keygen.rowwise", "dedup", "ecc.kernel", "puf.noise",
    "grouping.attack_pack", "grouping.finalize_pack", "grouping.pack",
    "service.registry_write", "service.registry_load",
)

#: Layers that run inside service shard workers.
WORKER_LAYERS = ("puf.noise", "keygen.plan", "dedup",
                 "keygen.evaluator_build", "ecc.kernel",
                 "keygen.finalize")

#: Key under which a traced shard ships its spans home.
SHARD_KEY = "trace"

Span = List[object]


class Tracer:
    """Span recorder: one list of spans plus the open-span stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           0, 0, os.getpid()])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str,
             rows: Optional[Callable] = None,
             materialize: bool = False) -> Callable:
        """Wrap *fn* so each call records a span named *name*.

        *rows(args, kwargs, result)* returns the span's ``(rows_in,
        rows_out)`` counts.  *materialize* drains a generator inside
        the span, so its work is timed where it happens; the caller
        then iterates the same items.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                self._close(index)
            if rows is not None:
                self.spans[index][4:6] = rows(args, kwargs, result)
            return iter(result) if materialize else result

        traced.__perfbench_wrapped__ = fn
        return traced

    def wrap_shard(self, fn: Callable) -> Callable:
        """Wrap ``execute_shard``: record the shard, ship its spans."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mark = len(self.spans)
            stack, self._stack = self._stack, []
            try:
                with self.span("service.shard"):
                    outcome = fn(*args, **kwargs)
            finally:
                self._stack = stack
            shipped = [list(span) for span in self.spans[mark:]]
            del self.spans[mark:]
            for span in shipped:
                span[3] = span[3] - mark if span[3] >= mark else -1
            outcome["kernel"][SHARD_KEY] = shipped
            return outcome

        traced.__perfbench_wrapped__ = fn
        return traced

    def merge_shard(self, kernel: Dict[str, object]) -> None:
        """Append a shard's shipped spans, re-indexing their parents."""
        shipped = kernel.get(SHARD_KEY)
        if shipped is None:
            raise RuntimeError(
                "a shard came back without its spans: the traced run "
                "needs service workers forked from the traced process")
        base = len(self.spans)
        for span in shipped:
            span = list(span)
            span[3] = span[3] + base if span[3] >= 0 else -1
            self.spans.append(span)


# ----------------------------------------------------------------------
# row counters (rows_in, rows_out) per wrapped call


def _noise_rows(args, kwargs, result) -> Tuple[int, int]:
    count = result.shape[0] if result.ndim == 2 else 1
    return count, count


def _dedup_iter_rows(args, kwargs, result) -> Tuple[int, int]:
    matrix = args[0]
    subset = args[1] if len(args) > 1 else kwargs.get("rows")
    rows_in = matrix.shape[0] if subset is None else int(subset.size)
    return rows_in, len(result)


def _dedup_unique_rows(args, kwargs, result) -> Tuple[int, int]:
    return int(args[0].shape[0]), int(result[0].shape[0])


def _kernel_rows(args, kwargs, result) -> Tuple[int, int]:
    """``(rows, kernel calls)`` of one fused round: one call per
    distinct key plus one per keyless workload, as ``run_kernels``
    groups them."""
    workloads = [workload for workload in args[0]
                 if workload is not None and workload.rows]
    keys = {workload.key for workload in workloads
            if workload.key is not None}
    solo = sum(1 for workload in workloads if workload.key is None)
    return sum(workload.rows for workload in workloads), len(keys) + solo


def _round_rows(args, kwargs, result) -> Tuple[int, int]:
    items = args[1]
    rows = sum(int(item[2].shape[0]) for item in items)
    return rows, len(items)


# ----------------------------------------------------------------------
# install / uninstall


def _function_targets(tracer: Tracer):
    """``(original, wrap(module name, fn))`` for every by-name imported
    function the tracer wraps."""
    from repro import _dedup
    from repro.ecc import kernel
    from repro.grouping import packing
    from repro.service import shard
    from repro.warehouse import runner

    pack_sites = {"repro.core.group_attack": "grouping.attack_pack",
                  "repro.keygen.group_based": "grouping.finalize_pack"}
    return [
        (packing.pack_key, lambda site, fn: tracer.wrap(
            fn, pack_sites.get(site, "grouping.pack"))),
        (_dedup.iter_unique_rows, lambda site, fn: tracer.wrap(
            fn, "dedup", _dedup_iter_rows, materialize=True)),
        (_dedup.unique_rows, lambda site, fn: tracer.wrap(
            fn, "dedup", _dedup_unique_rows)),
        (kernel.run_kernels, lambda site, fn: tracer.wrap(
            fn, "ecc.kernel", _kernel_rows)),
        (runner.run_cell, lambda site, fn: tracer.wrap(
            fn, "warehouse.record")),
        (shard.execute_shard, lambda site, fn: tracer.wrap_shard(fn)),
    ]


def _method_targets():
    """``(class, attribute, name, rows)`` for every wrapped method."""
    from repro.core.batch_oracle import BatchOracle
    from repro.core.lockstep import LaneEngine
    from repro.fleet.fleet import Fleet
    from repro.keygen.base import KeyGenerator
    from repro.keygen.batch import EvalPlan
    from repro.puf.ro_array import ROArray
    from repro.service.registry import EnrollmentRegistry

    targets = [
        (Fleet, "enroll", "fleet.enroll", None),
        (Fleet, "attack_results", "core.attack", None),
        (LaneEngine, "evaluate_many", "core.lockstep", _round_rows),
        (BatchOracle, "plan_rows", "keygen.plan", None),
        (EvalPlan, "finalize", "keygen.finalize", None),
        (ROArray, "measurement_noise", "puf.noise", _noise_rows),
        (EnrollmentRegistry, "load_enrollment",
         "service.registry_load", None),
    ]
    pending, seen = [KeyGenerator], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        for attribute, name in (
                ("batch_evaluator", "keygen.evaluator_build"),
                ("reconstruct_from_frequencies", "keygen.rowwise")):
            if attribute in cls.__dict__:
                targets.append((cls, attribute, name, None))
    return targets


def _repro_modules() -> Iterable[Tuple[str, object]]:
    return [(name, module) for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


Patch = Tuple[object, str, object]


def install(tracer: Tracer) -> List[Patch]:
    """Wrap every target; returns the patches :func:`uninstall` undoes.

    Functions are replaced at each module holding them by name, so
    ``from x import f`` call sites see the wrapper too.
    """
    for module in SITE_MODULES:
        importlib.import_module(module)
    patches: List[Patch] = []
    for original, wrap in _function_targets(tracer):
        for name, module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attribute, value))
                    setattr(module, attribute, wrap(name, value))
    for cls, attribute, name, rows in _method_targets():
        original = cls.__dict__[attribute]
        patches.append((cls, attribute, original))
        setattr(cls, attribute, tracer.wrap(original, name, rows))
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Restore every original, newest patch first."""
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Context manager form of :func:`install`/:func:`uninstall`."""
    patches = install(tracer)
    try:
        yield patches
    finally:
        uninstall(patches)


# ----------------------------------------------------------------------
# ledger: self time and counts per span name


def ledger(spans: List[Span], start: float = float("-inf"),
           end: float = float("inf")) -> Dict[str, Dict[str, float]]:
    """Per-name ``self_s``, ``calls`` (outermost only), ``rows_in``
    and ``rows_out`` over the spans that start in ``[start, end)``.

    A same-name span nested in another (a subclass method calling
    ``super()``) adds its self time but not a call.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "rows_in": 0,
                 "rows_out": 0})
    for index, span in enumerate(spans):
        if not start <= span[1] < end:
            continue
        entry = table[span[0]]
        entry["self_s"] += span[2] - span[1] - child_time[index]
        parent = span[3]
        if parent < 0 or spans[parent][0] != span[0]:
            entry["calls"] += 1
            entry["rows_in"] += span[4]
            entry["rows_out"] += span[5]
    return dict(table)
