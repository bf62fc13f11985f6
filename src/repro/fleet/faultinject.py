"""Deterministic fault injection for supervised fleet execution.

Resilience code that is only exercised by real hardware failures is
resilience code that does not work.  This module gives the supervised
execution layer (:mod:`repro.fleet.resilience`) a seeded, fully
deterministic fault source: a :class:`FaultPlan` names exactly which
dispatch chunks fail, how (worker killed, worker hung, exception
raised), and on which attempts — so every retry, quarantine and
poison path has a reproducible test, and CI can run whole sweeps
under injected crashes and still demand bitwise-identical results.

Activation is an **environment hook**: a worker of
:func:`repro.fleet.resilience.execute` reads :data:`ENV_VAR` (inline
JSON or a path to a JSON file) and fires the spec targeting its task's
``(chunk, attempt)`` coordinate, if any.  The hook fires for
*supervised* tasks only — unsupervised sweeps never consult a plan,
because without a retry policy there is nothing to catch the
fault.

Fault modes:

``crash``
    ``SIGKILL`` to the worker's own pid — the parent sees a dead
    process with no message, exactly like an OOM kill.
``hang``
    The worker sleeps far past any sane chunk timeout; only the
    supervisor's watchdog can reclaim it.
``raise``
    An :class:`InjectedFault` propagates out of the chunk body —
    the in-band exception path.

``crash`` and ``hang`` are meaningless in the parent process, so the
in-process quarantine path (graceful degradation) fires ``raise``
specs only; a ``raise`` spec with ``attempts=None`` (every attempt)
is therefore a *poison* chunk that survives quarantine too.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

#: Environment variable carrying the active plan: inline JSON (first
#: character ``{``) or a filesystem path to a JSON file.
ENV_VAR = "REPRO_FAULT_PLAN"

#: Fault modes a spec may name.
MODES = ("crash", "hang", "raise")

#: How long a ``hang`` fault sleeps.  Far beyond any reasonable chunk
#: timeout, but bounded so an accidentally-activated plan cannot
#: freeze an unsupervised process forever.
HANG_SECONDS = 600.0


class InjectedFault(RuntimeError):
    """The exception a ``raise``-mode fault throws inside a worker."""


class FaultPlanError(ValueError):
    """A fault plan payload violates the expected layout."""


@dataclass(frozen=True)
class FaultSpec:
    """One targeted fault: where, how, and on which attempts.

    Parameters
    ----------
    chunk:
        Dispatch-chunk index the fault targets.
    mode:
        ``crash``, ``hang`` or ``raise`` (see module docstring).
    attempts:
        Attempt numbers the fault fires on (attempt 0 is the first
        execution; retries count up; the in-process quarantine pass
        runs as attempt ``max_retries + 1``).  ``None`` fires on
        *every* attempt — a poison chunk when the mode is ``raise``.
    after_items:
        Fire after this many chunk items completed (``None`` fires
        on chunk entry).  Lets tests prove that a retry fully
        replaces a chunk that died half-way.
    """

    chunk: int
    mode: str
    attempts: Optional[Tuple[int, ...]] = (0,)
    after_items: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise FaultPlanError(
                f"unknown fault mode {self.mode!r}; "
                f"expected one of {MODES}")
        if self.attempts is not None:
            object.__setattr__(self, "attempts",
                               tuple(int(a) for a in self.attempts))

    def fires_on(self, attempt: int) -> bool:
        """Whether this spec fires on *attempt*."""
        return self.attempts is None or int(attempt) in self.attempts

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        payload: dict = {"chunk": int(self.chunk), "mode": self.mode}
        if self.attempts is not None:
            payload["attempts"] = list(self.attempts)
        else:
            payload["attempts"] = None
        if self.after_items is not None:
            payload["after_items"] = int(self.after_items)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        """Parse one spec from its JSON form."""
        try:
            attempts = payload.get("attempts", (0,))
            return cls(chunk=int(payload["chunk"]),
                       mode=str(payload["mode"]),
                       attempts=(None if attempts is None
                                 else tuple(int(a) for a in attempts)),
                       after_items=(
                           None if payload.get("after_items") is None
                           else int(payload["after_items"])))
        except (KeyError, TypeError, ValueError) as error:
            raise FaultPlanError(
                f"malformed fault spec {payload!r}: {error}"
            ) from None


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of targeted faults.

    The plan is pure data: given the same plan, the same chunks fail
    in the same way on the same attempts, every run — which is what
    lets the equivalence tests demand that a faulted sweep's results
    match the fault-free sweep bitwise.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def spec_for(self, chunk: int,
                 attempt: int) -> Optional[FaultSpec]:
        """The first spec firing on ``(chunk, attempt)``, if any."""
        for spec in self.faults:
            if spec.chunk == int(chunk) and spec.fires_on(attempt):
                return spec
        return None

    def to_json(self) -> str:
        """Compact JSON encoding (the :data:`ENV_VAR` payload)."""
        return json.dumps({
            "seed": int(self.seed),
            "faults": [spec.to_dict() for spec in self.faults],
        }, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from its JSON encoding."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultPlanError(
                f"fault plan is not valid JSON ({error})") from None
        if not isinstance(payload, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        faults = payload.get("faults", [])
        if not isinstance(faults, list):
            raise FaultPlanError("fault plan 'faults' must be a list")
        return cls(seed=int(payload.get("seed", 0)),
                   faults=tuple(FaultSpec.from_dict(item)
                                for item in faults))

    @classmethod
    def seeded(cls, seed: int, chunks: int, rate: float = 0.5,
               modes: Tuple[str, ...] = ("crash", "hang", "raise"),
               ) -> "FaultPlan":
        """Derive a random-looking but fully deterministic plan.

        Each chunk independently draws whether it faults (probability
        *rate*) and which mode, from a counter-based stream keyed on
        ``(seed, chunk)`` — so growing *chunks* never re-rolls the
        faults of existing chunk indices.  Every generated fault
        targets attempt 0 only, the shape retry is guaranteed to
        recover from.
        """
        import numpy as np

        faults = []
        for chunk in range(int(chunks)):
            stream = np.random.default_rng(
                np.random.SeedSequence([int(seed), int(chunk)]))
            if stream.random() < rate:
                mode = modes[int(stream.integers(len(modes)))]
                faults.append(FaultSpec(chunk=chunk, mode=mode,
                                        attempts=(0,)))
        return cls(seed=int(seed), faults=tuple(faults))


def load_plan(value: str) -> FaultPlan:
    """Parse a plan from inline JSON or from a JSON file path."""
    text = value.strip()
    if not text.startswith("{"):
        with open(text, encoding="utf-8") as handle:
            text = handle.read()
    return FaultPlan.from_json(text)


def active_plan() -> Optional[FaultPlan]:
    """The plan named by :data:`ENV_VAR`, or ``None``.

    Read fresh on every call (no caching): supervised children
    inherit the parent environment at start, and tests flip the hook
    around individual sweeps.
    """
    value = os.environ.get(ENV_VAR, "").strip()
    if not value:
        return None
    return load_plan(value)


def active_spec(chunk: int, attempt: int) -> Optional[FaultSpec]:
    """The active plan's spec for ``(chunk, attempt)``, if any."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.spec_for(chunk, attempt)


@contextlib.contextmanager
def activated(plan: Optional[FaultPlan]) -> Iterator[None]:
    """Context manager installing *plan* in the environment hook.

    ``None`` (or an empty plan) clears the hook instead — the
    fault-free arm of an equivalence comparison.
    """
    previous = os.environ.get(ENV_VAR)
    if plan is None or not plan.faults:
        os.environ.pop(ENV_VAR, None)
    else:
        os.environ[ENV_VAR] = plan.to_json()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous


def fire(spec: Optional[FaultSpec], inprocess: bool = False) -> None:
    """Execute one fault spec (no-op when *spec* is ``None``).

    *inprocess* marks the graceful-degradation pass running inside
    the supervisor's own process: ``crash``/``hang`` faults are
    skipped there (killing or freezing the parent would take the
    supervisor down with the chunk), ``raise`` faults still fire so
    poison chunks stay poisonous.
    """
    if spec is None:
        return
    if spec.mode == "raise":
        raise InjectedFault(
            f"injected fault: chunk {spec.chunk} raised")
    if inprocess:
        return
    if spec.mode == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.mode == "hang":
        time.sleep(HANG_SECONDS)


@dataclass
class _ItemTripwire:
    """Per-item firing state for ``after_items`` specs."""

    spec: Optional[FaultSpec]
    done: int = field(default=0)

    def step(self) -> None:
        """Record one completed item; fire if the threshold is hit."""
        self.done += 1
        if (self.spec is not None
                and self.spec.after_items is not None
                and self.done == self.spec.after_items):
            fire(self.spec)


def entry_fire(spec: Optional[FaultSpec]) -> _ItemTripwire:
    """Chunk-entry injection point for supervised workers.

    Fires *spec* immediately when it has no ``after_items``
    threshold; otherwise returns a tripwire the chunk loop steps
    after each completed item.
    """
    if spec is not None and spec.after_items is None:
        fire(spec)
        return _ItemTripwire(None)
    return _ItemTripwire(spec)
