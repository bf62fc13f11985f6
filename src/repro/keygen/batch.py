"""Vectorized success evaluation for batched oracle queries.

The helper-data attacks of paper §VI only ever observe one bit per
reconstruction attempt: did the device regenerate its key?  Estimating
the failure *rates* that drive every distinguisher therefore reduces to
mapping a batch of measurement vectors to a batch of success booleans —
and for every construction that outcome is a deterministic function of
the (discrete) response-bit vector the measurement produces.

That structure is what a :class:`BatchEvaluator` exploits: response
bits for a whole ``(B, n)`` measurement block are extracted in one
NumPy pass, and the expensive completion (ECC decode + key check) runs
once per *distinct* bit pattern instead of once per query.  In the
engineered Fig. 5 regimes only a handful of marginal bits ever flip, so
a block of hundreds of queries typically needs single-digit decodes.

Evaluation has one protocol (``docs/evaluators.md``):
:meth:`BatchEvaluator.plan` stops after extraction and dedup,
returning an :class:`EvalPlan` that *declares* its kernel work (a
:class:`~repro.ecc.kernel.KernelWorkload` keyed by the shared
code/sketch); the caller runs the kernel — possibly fused with the
same-key workloads of many other devices via
:func:`repro.ecc.kernel.run_kernels` — and :meth:`EvalPlan.finalize`
unwinds the outputs back into per-query success booleans.  Outcomes
equal the scalar per-query reconstruction bitwise, for every batch
composition.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro._dedup import iter_unique_rows
from repro.ecc.kernel import KernelWorkload, run_kernels
from repro.ecc.sketch import SecureSketch, SketchData
from repro.keygen.base import key_check_digest

#: Extraction: ``(freqs, env)`` -> ``(bits, valid)``.  *freqs* is a
#: ``(B, n)`` measurement batch and *env* the per-row ambient
#: :class:`~repro.scenario.trajectory.EnvironmentSample` of a
#: trajectory-driven block (``None`` otherwise); *bits* is the ``(B,
#: bits)`` response matrix and *valid* a ``(B,)`` mask of rows whose
#: extraction succeeded, or ``None`` when every row is valid.
ExtractionFn = Callable[[np.ndarray, object],
                        Tuple[np.ndarray, Optional[np.ndarray]]]


# ----------------------------------------------------------------------
# completion: distinct response pattern -> reconstruction success


@dataclass(frozen=True)
class SketchCompletion:
    """The common scheme completion: sketch recovery + key check.

    Every sketch-based construction finishes a response pattern the
    same way — recover the enrolled response through the secure
    sketch, optionally assemble the key from it (*assemble*; e.g.
    Kendall packing or the fuzzy extractor's Toeplitz hash), and
    compare the key's digest against the public commitment.  The
    two-phase split delegates to the sketch's
    :meth:`~repro.ecc.sketch.SecureSketch.plan_recover` /
    ``finish_recover`` pair, so the expensive decode kernel can fuse
    with every other device sharing the code
    (:mod:`repro.ecc.kernel`).

    The dataclass holds only picklable parts (sketch, helper payload,
    digest bytes and module-level assembler objects), so plans built
    from it can cross process boundaries under the fleet engine's
    copy-on-dispatch rule.
    """

    sketch: SecureSketch
    helper: SketchData
    key_check: bytes
    #: Optional key assembly: recovered response -> key bits.  May
    #: raise ``ValueError`` for observably-invalid recoveries (e.g. a
    #: mis-corrected stream that is not a valid Kendall word).  Must be
    #: picklable (a module-level callable or small dataclass).
    assemble: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def prepare(self, patterns: np.ndarray
                ) -> Tuple[Optional[KernelWorkload], object]:
        """Declare the sketch-recovery workload for fresh patterns.

        A ``ValueError`` from the sketch (malformed helper payload)
        rejects every pattern alike, mirroring the scalar path.
        """
        try:
            workload, state = self.sketch.plan_recover(patterns,
                                                       self.helper)
        except ValueError:
            return None, ("rejected", patterns.shape[0])
        return workload, ("planned", state)

    def finish(self, state: object, outputs: "Optional[tuple]"
               ) -> np.ndarray:
        """Unwind the sketch recovery and apply the key check."""
        tag, inner = state
        if tag == "rejected":
            return np.zeros(inner, dtype=bool)
        recovered, ok = self.sketch.finish_recover(inner, outputs)
        out = np.zeros(ok.shape[0], dtype=bool)
        for i in np.flatnonzero(ok):
            key = recovered[i]
            if self.assemble is not None:
                try:
                    key = self.assemble(key)
                except ValueError:
                    continue
            out[i] = key_check_digest(key) == self.key_check
        return out


# ----------------------------------------------------------------------
# evaluation plans


@dataclass
class EvalPlan:
    """Phase-1 result of evaluating one measurement block.

    Produced by :meth:`BatchEvaluator.plan`: rows whose pattern was
    already memoized (or observably invalid) are resolved in
    ``outcomes``; the fresh distinct patterns wait in ``pending`` for
    the kernel outputs.  ``workload`` is the plan's declared share of
    the round's kernel work — group plans by ``workload.key`` and run
    them through :func:`repro.ecc.kernel.run_kernels` to fuse the
    kernel across devices, then hand each plan its own output slice
    via :meth:`finalize`.

    A plan holds only arrays, byte keys, the picklable completion and
    the memo dict, so it can cross a process boundary; like every
    fleet dispatch, pickling *copies* state (the memo stops being
    shared with the originating evaluator) — the copy-on-dispatch
    rule of :mod:`repro.fleet.parallel`.
    """

    #: Per-row success booleans; pre-filled for resolved rows.
    outcomes: np.ndarray
    #: Fresh groups awaiting the kernel: ``(pattern_bytes, rows)``,
    #: aligned with the rows of the prepared pattern matrix.
    pending: List[Tuple[bytes, np.ndarray]]
    #: Completion finishing the fresh patterns (``None`` if resolved).
    completion: Optional[SketchCompletion]
    #: Opaque completion state from :meth:`SketchCompletion.prepare`.
    state: object
    #: Declared kernel work (``None`` when nothing needs the kernel).
    workload: Optional[KernelWorkload]
    #: The evaluator's memo, updated with the finalized patterns.
    memo: Dict[bytes, bool] = field(default_factory=dict)

    @classmethod
    def resolved(cls, outcomes: np.ndarray) -> "EvalPlan":
        """A plan with every row already decided (no kernel work)."""
        return cls(np.asarray(outcomes, dtype=bool), [], None, None,
                   None)

    @property
    def kernel_key(self) -> "tuple | None":
        """The declared workload's fusion key, if any."""
        return None if self.workload is None else self.workload.key

    def finalize(self, outputs: "Optional[tuple]" = None) -> np.ndarray:
        """Phase 3: resolve pending patterns from the kernel outputs.

        *outputs* is this plan's slice of the (possibly fused) kernel
        results — exactly what ``run_kernels([plan.workload])[0]``
        would return.  Returns the complete per-row success vector;
        idempotent once finalized.
        """
        if self.pending:
            results = np.asarray(
                self.completion.finish(self.state, outputs),
                dtype=bool)
            for (key, rows), value in zip(self.pending, results):
                flag = bool(value)
                self.memo[key] = flag
                self.outcomes[rows] = flag
            self.pending = []
        return self.outcomes

    def execute(self) -> np.ndarray:
        """Run this plan's own kernel and finalize (un-fused driver)."""
        (outputs,) = run_kernels([self.workload])
        return self.finalize(outputs)


# ----------------------------------------------------------------------
# evaluators


class BatchEvaluator(abc.ABC):
    """Maps measurement batches to reconstruction-success booleans.

    ``plan(freqs, env).finalize(outputs)[i]`` must equal what a
    sequential ``reconstruct`` call observing measurement row ``i``
    would report (``True`` = key regenerated), so batched and scalar
    simulation stay interchangeable query-for-query.
    """

    @abc.abstractmethod
    def plan(self, freqs: np.ndarray, env=None) -> EvalPlan:
        """Phase 1: extract and dedup a ``(B, n)`` batch now, defer
        the kernel work.

        *env* is the per-row ambient sample of a trajectory-driven
        block, or ``None`` when the block runs at one operating point.
        """


class ConstantEvaluator(BatchEvaluator):
    """Helper data whose outcome is measurement-independent.

    Structurally invalid helper data (rejected pair lists, mismatched
    group maps) fails every reconstruction before a single frequency is
    inspected; short-circuiting it keeps the batch path free of
    per-query validation.
    """

    def __init__(self, value: bool):
        self._value = bool(value)

    def plan(self, freqs: np.ndarray, env=None) -> EvalPlan:
        """An already-resolved plan: every row gets the constant."""
        return EvalPlan.resolved(np.full(np.asarray(freqs).shape[0],
                                         self._value, dtype=bool))


class ResponseBitEvaluator(BatchEvaluator):
    """The scheme evaluator: vectorized bits, memoized completion.

    *extract* turns a ``(B, n)`` measurement batch (plus the per-row
    ambient, for schemes whose extraction consults it — the
    temperature-aware sensor read) into the ``(B, bits)`` response
    matrix in one pass.  Rows whose scalar reconstruction would raise
    before bit extraction completes (e.g. the temperature-aware
    assistance-cycle refusal) carry ``valid = False`` and fail without
    reaching the completion stage.  Valid rows are completed once per
    distinct bit pattern per helper: plans read the memo at plan time
    and :meth:`EvalPlan.finalize` writes finalized patterns back.
    """

    def __init__(self, extract: ExtractionFn,
                 completion: SketchCompletion):
        self._extract = extract
        self._completion = completion
        self._memo: Dict[bytes, bool] = {}

    def plan(self, freqs: np.ndarray, env=None) -> EvalPlan:
        """Phase 1: extract and dedup; declare the kernel workload.

        Invalid rows are left out of the scan and stay ``False``,
        matching their observable refusal on the scalar path.
        """
        bits, valid = self._extract(np.asarray(freqs, dtype=float), env)
        rows = (None if valid is None
                else np.flatnonzero(np.asarray(valid, dtype=bool)))
        outcomes = np.zeros(bits.shape[0], dtype=bool)
        pending: List[Tuple[bytes, np.ndarray]] = []
        fresh: List[np.ndarray] = []
        for pattern, indices in iter_unique_rows(bits, rows):
            key = pattern.tobytes()
            hit = self._memo.get(key)
            if hit is None:
                pending.append((key, indices))
                fresh.append(pattern)
            else:
                outcomes[indices] = hit
        if not fresh:
            return EvalPlan(outcomes, [], None, None, None, self._memo)
        workload, state = self._completion.prepare(np.stack(fresh))
        return EvalPlan(outcomes, pending, self._completion, state,
                        workload, self._memo)
