"""The one executor behind every parallel sweep, supervised or not.

Fleet sweeps (:func:`repro.fleet.parallel.run_collected` /
:func:`~repro.fleet.parallel.run_scattered` with ``workers > 1`` or
``supervision=``) and the service's sharded sweeps
(:class:`repro.service.dispatcher.Dispatcher`) all run on one engine,
:func:`execute`: a small set of **long-lived worker processes**, each
connected back to the driving process over a length-prefixed socket
protocol, fed one :class:`Task` at a time by a single loop.  That loop
owns the task queue, the :class:`RetryPolicy` transitions, the
in-process degrade pass and the :class:`ResilienceReport`, and yields
:class:`Outcome` values in completion order.

Wire protocol (both directions)::

    offset  size  field
    0       4     frame length n (u32, little-endian)
    4       n     pickled (type, payload) tuple

* ``("hello", {"worker", "pid", "protocol"})`` — worker → parent,
  once, right after connecting.  A worker that dies before its hello
  (or misses :data:`HANDSHAKE_TIMEOUT`) is a
  :class:`WorkerHandshakeError` naming it — never a hang; a protocol
  version mismatch is one too.
* ``("task", {"index", "attempt", "fn", "args", "inject"})`` — parent
  → worker: call ``fn(*args, tripwire=...)`` once.
* ``("result", {"index", "attempt", "value", "pid"})`` — worker →
  parent on success.
* ``("error", {"index", "attempt", "detail", "error"})`` — worker →
  parent when the call raised; the worker stays alive for more tasks.
* ``("shutdown", None)`` — parent → worker: leave the serve loop.

Two transports bind the protocol: ``"pipe"`` (an ``AF_UNIX`` stream
socket in a private temporary directory) and ``"tcp"`` (loopback TCP,
port chosen by the OS).

Under a :class:`RetryPolicy` (a supervised sweep):

* a **watchdog** kills workers whose task exceeds ``chunk_timeout``;
* every failure is recorded in a structured taxonomy
  (:class:`ChunkFailure`: ``crash`` / ``timeout`` / ``exception`` /
  ``poison``, with the worker pid, attempt number and payload digest);
* failed tasks are **retried** after an exponential backoff whose
  jitter is seeded, so schedules are reproducible run over run;
  crashed and timed-out workers are replaced;
* tasks that exhaust their retries are **quarantined** and re-run
  once in the driving process (graceful degradation);
* tasks that fail even there are **poisoned**: the sweep raises
  :class:`PoisonedSweepError` carrying the full report — a
  partial-result verdict, not an opaque traceback — or, with
  ``allow_partial=True``, yields them as poisoned outcomes.

The fault-injection hook (:mod:`repro.fleet.faultinject`) fires only
in supervised tasks.  Without a policy the same engine is fail-fast:
no hook, no retry, and the first failure re-raises the job's own
exception (or a :class:`RuntimeError` naming a dead worker).

Because all per-device randomness is derived in the driving process
before any dispatch, a retry re-executes a bitwise-identical
computation: a sweep that survived injected crashes, hangs and
exceptions returns results **bitwise-equal to the fault-free run**,
for every worker count, shard count and transport.
``docs/resilience.md`` spells out the contract; it is pinned by
``tests/fleet/test_resilience.py``, ``tests/service/`` and the CI
``chaos-smoke`` job.
"""

from __future__ import annotations

import copy
import hashlib
import multiprocessing
import os
import pickle
import socket
import struct
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.fleet import faultinject

#: Protocol version carried in every hello frame; a mismatch is a
#: deployment error and fails the handshake loudly.
PROTOCOL_VERSION = 1

#: Supported worker transports.
TRANSPORTS = ("pipe", "tcp")

#: Seconds each spawned worker gets to send its hello frame.
HANDSHAKE_TIMEOUT = 30.0

#: Granularity of the driving loop's poll (seconds).  Bounds how late
#: a watchdog kill or a backed-off relaunch can be; failure
#: *semantics* never depend on it.
_POLL_SECONDS = 0.05

#: Frames beyond this are a protocol violation, not a huge payload.
_MAX_FRAME = 1 << 31


class ServiceProtocolError(RuntimeError):
    """A peer sent bytes violating the framed message protocol."""


class WorkerHandshakeError(RuntimeError):
    """A worker failed to complete the handshake.

    Raised instead of blocking on ``accept()`` forever when a worker
    process dies (or stalls) before sending its hello frame, or speaks
    another protocol version.
    """


class PoisonedSweepError(RuntimeError):
    """A sweep finished with chunks that failed every recovery path.

    Raised instead of the poisoning chunk's opaque traceback: the
    message is the structured verdict (how many chunks, which kinds,
    the first detail line) and :attr:`report` carries the complete
    failure taxonomy for programmatic use.
    """

    def __init__(self, report: "ResilienceReport") -> None:
        self.report = report
        poisoned = report.poison_failures
        first = poisoned[0] if poisoned else None
        detail = (f"; first: chunk {first.chunk} ({first.detail})"
                  if first is not None else "")
        super().__init__(
            f"sweep poisoned: {len(report.poisoned)} of "
            f"{report.chunks} chunk(s) failed all "
            f"{report.policy.max_retries + 1} attempt(s) and the "
            f"in-process quarantine retry [{report.describe_kinds()}]"
            f"{detail}")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout policy of one supervised sweep.

    Parameters
    ----------
    max_retries:
        Child-process re-executions granted to a failing chunk
        beyond its first attempt (0 disables retry but keeps the
        quarantine pass).
    chunk_timeout:
        Watchdog limit in seconds per chunk attempt; ``None``
        disables the watchdog (hung workers then block the sweep,
        exactly as they would unsupervised).
    backoff_base / backoff_cap:
        Exponential backoff: attempt *k* waits
        ``min(cap, base * 2**k)`` seconds, scaled by seeded jitter.
    jitter_seed:
        Root of the deterministic jitter — same seed, same payloads,
        same backoff schedule, every run.
    allow_partial:
        ``True`` returns fill values (zeros / ``None``) for poisoned
        chunks instead of raising :class:`PoisonedSweepError`.
    """

    max_retries: int = 2
    chunk_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter_seed: int = 0
    allow_partial: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be non-negative")

    def backoff_delay(self, payload_digest: str,
                      attempt: int) -> float:
        """Seconds to wait before relaunching after *attempt* failed.

        Exponential in *attempt*, with jitter in ``[0.5, 1.5)`` drawn
        deterministically from ``(jitter_seed, payload digest,
        attempt)`` — reproducible, yet de-synchronised across chunks.
        """
        material = (f"{self.jitter_seed}:{payload_digest}:"
                    f"{int(attempt)}").encode("ascii")
        word = int.from_bytes(
            hashlib.sha256(material).digest()[:8], "little")
        jitter = 0.5 + word / 2.0 ** 64
        delay = min(self.backoff_cap,
                    self.backoff_base * (2.0 ** int(attempt)))
        return delay * jitter

    def schedule(self, payload_digest: str) -> List[float]:
        """The full reproducible backoff schedule for one chunk."""
        return [self.backoff_delay(payload_digest, attempt)
                for attempt in range(self.max_retries)]


@dataclass(frozen=True)
class ChunkFailure:
    """One recorded chunk failure (the structured taxonomy entry).

    ``kind`` is ``crash`` (worker died without a message — killed,
    segfaulted, OOMed), ``timeout`` (watchdog reclaimed a hung
    worker), ``exception`` (the chunk body raised in-band) or
    ``poison`` (the in-process quarantine retry failed too).
    """

    kind: str
    chunk: int
    attempt: int
    pid: Optional[int]
    payload_digest: str
    detail: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (the CI artifact rows)."""
        return {"kind": self.kind, "chunk": int(self.chunk),
                "attempt": int(self.attempt), "pid": self.pid,
                "payload_digest": self.payload_digest,
                "detail": self.detail}


@dataclass
class ResilienceReport:
    """Everything a supervised sweep observed about its failures."""

    policy: RetryPolicy
    chunks: int = 0
    failures: List[ChunkFailure] = field(default_factory=list)
    retried: int = 0
    #: Chunks recovered by the in-process quarantine pass.
    degraded: List[int] = field(default_factory=list)
    #: Chunks that failed the quarantine pass too.
    poisoned: List[int] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """``clean`` / ``recovered`` / ``degraded`` / ``partial``."""
        if self.poisoned:
            return "partial"
        if self.degraded:
            return "degraded"
        if self.failures:
            return "recovered"
        return "clean"

    @property
    def poison_failures(self) -> List[ChunkFailure]:
        """The ``poison``-kind failure entries."""
        return [failure for failure in self.failures
                if failure.kind == "poison"]

    def counts_by_kind(self) -> Dict[str, int]:
        """Failure tally per taxonomy kind (insertion-ordered)."""
        counts: Dict[str, int] = {}
        for failure in self.failures:
            counts[failure.kind] = counts.get(failure.kind, 0) + 1
        return counts

    def describe_kinds(self) -> str:
        """Compact ``kind x count`` summary, e.g. ``crash x2``."""
        counts = self.counts_by_kind()
        if not counts:
            return "no failures"
        return ", ".join(f"{kind} x{count}"
                         for kind, count in sorted(counts.items()))

    def summary(self) -> str:
        """One human-readable line for CLI output."""
        return (f"{self.verdict}: {len(self.failures)} failure(s) "
                f"[{self.describe_kinds()}] over {self.chunks} "
                f"chunk(s), {self.retried} retried, "
                f"{len(self.degraded)} degraded in-process, "
                f"{len(self.poisoned)} poisoned")

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable report (the CI chaos artifact)."""
        return {
            "verdict": self.verdict,
            "chunks": int(self.chunks),
            "retried": int(self.retried),
            "degraded": [int(index) for index in self.degraded],
            "poisoned": [int(index) for index in self.poisoned],
            "counts": self.counts_by_kind(),
            "failures": [failure.to_dict()
                         for failure in self.failures],
            "policy": {
                "max_retries": self.policy.max_retries,
                "chunk_timeout": self.policy.chunk_timeout,
                "backoff_base": self.policy.backoff_base,
                "backoff_cap": self.policy.backoff_cap,
                "jitter_seed": self.policy.jitter_seed,
                "allow_partial": self.policy.allow_partial,
            },
        }


class Supervisor:
    """Carries a :class:`RetryPolicy` into sweeps, collects reports.

    Pass one as the ``supervision`` argument of
    :func:`repro.fleet.parallel.run_scattered` /
    :func:`~repro.fleet.parallel.run_collected` (or of the ``Fleet``
    sweep methods, which thread it through).  Each supervised sweep
    appends a fresh :class:`ResilienceReport`; one supervisor can
    therefore account for a whole multi-sweep campaign.
    """

    def __init__(self, policy: Optional[RetryPolicy] = None) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self.reports: List[ResilienceReport] = []

    @property
    def last_report(self) -> Optional[ResilienceReport]:
        """The most recent sweep's report (``None`` before any)."""
        return self.reports[-1] if self.reports else None

    @property
    def failures(self) -> List[ChunkFailure]:
        """All failures observed across every supervised sweep."""
        return [failure for report in self.reports
                for failure in report.failures]

    def new_report(self, chunks: int) -> ResilienceReport:
        """Open the report for one supervised sweep."""
        report = ResilienceReport(policy=self.policy, chunks=chunks)
        self.reports.append(report)
        return report

    def summary_lines(self) -> List[str]:
        """One summary line per supervised sweep."""
        return [f"sweep {index}: {report.summary()}"
                for index, report in enumerate(self.reports)]

    def to_payload(self) -> Dict[str, object]:
        """JSON artifact: per-sweep reports plus the global tally."""
        kinds: Dict[str, int] = {}
        for report in self.reports:
            for kind, count in report.counts_by_kind().items():
                kinds[kind] = kinds.get(kind, 0) + count
        return {
            "sweeps": len(self.reports),
            "failures": sum(len(report.failures)
                            for report in self.reports),
            "counts": kinds,
            "reports": [report.to_payload()
                        for report in self.reports],
        }

    def write_report(self, path):
        """Write :meth:`to_payload` as JSON; returns the path.

        The CLI ``--failure-report`` artifact (CI ships it from the
        chaos-smoke job).
        """
        import json
        from pathlib import Path

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_payload(), indent=2, sort_keys=True)
            + "\n", encoding="ascii")
        return target


def payload_digest(payloads: Sequence[object]) -> str:
    """Short stable digest identifying a chunk's payload content."""
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(pickle.dumps(payload))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# framing


def send_frame(sock: socket.socket, message: Tuple[str, object]
               ) -> None:
    """Send one length-prefixed pickled message."""
    payload = pickle.dumps(message)
    sock.sendall(struct.pack("<I", len(payload)) + payload)


def _frame_length(header: bytes) -> int:
    (length,) = struct.unpack("<I", header)
    if length > _MAX_FRAME:
        raise ServiceProtocolError(
            f"frame length {length} exceeds the protocol bound")
    return length


def _decode(payload: bytes) -> Tuple[str, object]:
    message = pickle.loads(payload)
    if not (isinstance(message, tuple) and len(message) == 2
            and isinstance(message[0], str)):
        raise ServiceProtocolError(
            "message is not a (type, payload) tuple")
    return message


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Tuple[str, object]:
    """Receive one length-prefixed pickled message (blocking).

    Raises :class:`EOFError` on a closed peer and
    :class:`ServiceProtocolError` on malformed framing.
    """
    length = _frame_length(_recv_exact(sock, 4))
    return _decode(_recv_exact(sock, length))


# ----------------------------------------------------------------------
# worker process


def _connect(address: Tuple) -> socket.socket:
    """Worker-side connect to the parent's address tuple."""
    if address[0] == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(address[1])
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.connect((address[1], address[2]))
    return sock


def _portable(error: BaseException) -> Optional[BaseException]:
    """*error* if it survives a pickle round trip, else ``None``."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return None
    return error


def worker_main(address: Tuple, worker_id: int) -> None:
    """Entry point of one long-lived worker process.

    Connects back to the parent, introduces itself, then serves tasks
    until told to shut down.  For supervised tasks the fault-injection
    hook (:func:`repro.fleet.faultinject.active_spec`) fires at task
    receipt, keyed on ``(task index, attempt)``, and the task's
    tripwire steps after each completed item.
    """
    sock = _connect(address)
    try:
        send_frame(sock, ("hello", {"worker": int(worker_id),
                                    "pid": os.getpid(),
                                    "protocol": PROTOCOL_VERSION}))
        while True:
            try:
                kind, payload = recv_frame(sock)
            except EOFError:
                return
            if kind == "shutdown":
                return
            if kind != "task":
                raise ServiceProtocolError(
                    f"worker expected a task frame, got {kind!r}")
            index, attempt = payload["index"], payload["attempt"]
            try:
                tripwire = faultinject.entry_fire(
                    faultinject.active_spec(index, attempt)
                    if payload["inject"] else None)
                value = payload["fn"](*payload["args"],
                                      tripwire=tripwire)
                send_frame(sock, ("result", {
                    "index": index, "attempt": attempt,
                    "value": value, "pid": os.getpid()}))
            except Exception as error:
                send_frame(sock, ("error", {
                    "index": index, "attempt": attempt,
                    "detail": f"{type(error).__name__}: {error}",
                    "error": _portable(error)}))
    finally:
        sock.close()


# ----------------------------------------------------------------------
# the engine


@dataclass
class Task:
    """One unit of dispatched work across its attempts.

    A worker calls ``fn(*args, tripwire=...)``; *fn* and *args* must
    pickle (*fn* by reference: a module-level function).  *index* is
    the chunk (or shard) coordinate that fault plans and reports key
    on; *digest* seeds the task's backoff jitter.
    """

    index: int
    fn: Callable
    args: Tuple
    digest: str = ""
    attempt: int = 0
    ready_at: float = 0.0


@dataclass(frozen=True)
class Outcome:
    """One finished task: its return value and where it came from.

    ``value`` is ``None`` for a poisoned task (``allow_partial``);
    ``pid`` is the worker's, or the driving process's for the
    degrade pass.
    """

    index: int
    value: object
    attempt: int
    pid: Optional[int]
    degraded: bool = False
    poisoned: bool = False


@dataclass(eq=False)
class _Worker:
    """One connected long-lived worker."""

    proc: object
    sock: socket.socket
    pid: int
    task: Optional[Task] = None
    deadline: Optional[float] = None
    buffer: bytearray = field(default_factory=bytearray, repr=False)

    def send(self, message: Tuple[str, object]) -> None:
        """Blocking send of one frame on the non-blocking socket."""
        self.sock.setblocking(True)
        try:
            send_frame(self.sock, message)
        finally:
            self.sock.setblocking(False)

    def read(self) -> Optional[Tuple[str, object]]:
        """The next complete frame, or ``None`` while it is partial."""
        while True:
            if len(self.buffer) >= 4:
                end = 4 + _frame_length(bytes(self.buffer[:4]))
                if len(self.buffer) >= end:
                    payload = bytes(self.buffer[4:end])
                    del self.buffer[:end]
                    return _decode(payload)
            try:
                chunk = self.sock.recv(1 << 20)
            except (BlockingIOError, InterruptedError):
                return None
            if not chunk:
                raise EOFError("worker closed the connection")
            self.buffer += chunk


class _WorkerSet:
    """Spawns, handshakes, replaces and stops long-lived workers."""

    def __init__(self, transport: str, tmpdir: str) -> None:
        self._ctx = multiprocessing.get_context()
        if transport == "pipe":
            self._listener = socket.socket(socket.AF_UNIX,
                                           socket.SOCK_STREAM)
            path = os.path.join(tmpdir, "workers.sock")
            self._listener.bind(path)
            self._address: Tuple = ("unix", path)
        elif transport == "tcp":
            self._listener = socket.socket(socket.AF_INET,
                                           socket.SOCK_STREAM)
            self._listener.bind(("127.0.0.1", 0))
            self._address = ("tcp",) + self._listener.getsockname()
        else:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"expected one of {TRANSPORTS}")
        self._listener.listen()
        self._listener.settimeout(_POLL_SECONDS)
        self._next_id = 0
        #: Started workers whose hello has not arrived yet.
        self._starting: Dict[int, object] = {}
        self.workers: List[_Worker] = []

    def spawn(self, count: int) -> None:
        """Start *count* workers and complete every handshake."""
        for _ in range(count):
            proc = self._ctx.Process(target=worker_main,
                                     args=(self._address,
                                           self._next_id),
                                     daemon=True)
            proc.start()
            self._starting[self._next_id] = proc
            self._next_id += 1
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT
        while self._starting:
            for worker_id, proc in self._starting.items():
                if not proc.is_alive():
                    raise WorkerHandshakeError(
                        f"worker {worker_id} (pid {proc.pid}) exited "
                        f"with code {proc.exitcode} before completing "
                        f"the handshake")
            if time.monotonic() >= deadline:
                raise WorkerHandshakeError(
                    f"worker(s) {sorted(self._starting)} did not "
                    f"complete the handshake within "
                    f"{HANDSHAKE_TIMEOUT:g}s")
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            sock.settimeout(HANDSHAKE_TIMEOUT)
            try:
                kind, hello = recv_frame(sock)
            except (EOFError, OSError):
                sock.close()
                continue  # a dying worker's half-open connection
            if kind != "hello" or hello.get("protocol") \
                    != PROTOCOL_VERSION:
                sock.close()
                raise WorkerHandshakeError(
                    f"expected a protocol-{PROTOCOL_VERSION} hello "
                    f"frame, got {kind!r} {hello!r}")
            sock.setblocking(False)
            self.workers.append(_Worker(
                self._starting.pop(int(hello["worker"])), sock,
                int(hello["pid"])))

    def retire(self, worker: _Worker) -> None:
        """Kill and forget one worker (failed, hung or dead)."""
        if worker in self.workers:
            self.workers.remove(worker)
            worker.sock.close()
            if worker.proc.is_alive():
                worker.proc.kill()
            worker.proc.join()

    def close(self) -> None:
        """Stop idle workers politely and every other one by force."""
        self._listener.close()
        for worker in self.workers:
            if worker.task is None:
                try:
                    worker.send(("shutdown", None))
                except OSError:
                    pass
            else:
                worker.proc.kill()
            worker.sock.close()
        for proc in self._starting.values():
            proc.kill()
        for proc in ([worker.proc for worker in self.workers]
                     + list(self._starting.values())):
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join()


def execute(tasks: Sequence[Task], workers: int,
            report: Optional[ResilienceReport] = None,
            transport: str = "pipe",
            shared: Sequence[object] = ()) -> Iterator[Outcome]:
    """Run *tasks* on up to *workers* long-lived worker processes.

    Yields one :class:`Outcome` per task in completion order.  With a
    *report* the run is supervised by the report's policy, as the
    module docstring describes, and every failure lands in the
    report; the degrade pass calls ``fn`` on deep copies of each
    quarantined task's args, keeping the objects in *shared* by
    reference.  Without one the run is fail-fast.
    """
    policy = report.policy if report is not None else None
    pending: List[Task] = list(tasks)
    quarantined: List[Task] = []
    with tempfile.TemporaryDirectory(prefix="repro-") as tmpdir:
        pool = _WorkerSet(transport, tmpdir)
        try:
            pool.spawn(min(int(workers), len(pending)))
            while pending or any(w.task for w in pool.workers):
                yield from _turn(pool, pending, quarantined, policy,
                                 report)
        finally:
            pool.close()

    for task in sorted(quarantined, key=lambda item: item.index):
        attempt = policy.max_retries + 1
        try:
            faultinject.fire(
                faultinject.active_spec(task.index, attempt),
                inprocess=True)
            memo = {id(obj): obj for obj in shared}
            value = task.fn(*copy.deepcopy(task.args, memo))
        except Exception as error:
            report.failures.append(ChunkFailure(
                kind="poison", chunk=task.index, attempt=attempt,
                pid=None, payload_digest=task.digest,
                detail=f"{type(error).__name__}: {error}"))
            report.poisoned.append(task.index)
            if policy.allow_partial:
                yield Outcome(task.index, None, attempt, None,
                              poisoned=True)
            continue
        report.degraded.append(task.index)
        yield Outcome(task.index, value, attempt, os.getpid(),
                      degraded=True)
    if quarantined and report.poisoned and not policy.allow_partial:
        raise PoisonedSweepError(report)


def _turn(pool: _WorkerSet, pending: List[Task],
          quarantined: List[Task], policy: Optional[RetryPolicy],
          report: Optional[ResilienceReport]) -> Iterator[Outcome]:
    """One turn of the loop: assign, wait, collect, fail over."""

    def fail(worker: _Worker, kind: str, detail: str,
             error: Optional[BaseException] = None) -> None:
        task, worker.task = worker.task, None
        if kind != "exception":
            pool.retire(worker)
        if policy is None:
            raise (error if error is not None else RuntimeError(
                f"task {task.index} failed: {detail}"))
        report.failures.append(ChunkFailure(
            kind=kind, chunk=task.index, attempt=task.attempt,
            pid=worker.pid, payload_digest=task.digest,
            detail=detail))
        if task.attempt < policy.max_retries:
            delay = policy.backoff_delay(task.digest, task.attempt)
            task.attempt += 1
            task.ready_at = time.monotonic() + delay
            report.retried += 1
            pending.append(task)
        else:
            quarantined.append(task)
        if kind != "exception" and pending:
            pool.spawn(1)

    now = time.monotonic()
    for worker in [w for w in pool.workers if w.task is None]:
        task = next((t for t in pending if t.ready_at <= now), None)
        if task is None:
            break
        pending.remove(task)
        worker.task = task
        worker.deadline = (
            now + policy.chunk_timeout
            if policy is not None and policy.chunk_timeout is not None
            else None)
        try:
            worker.send(("task", {
                "index": task.index, "attempt": task.attempt,
                "fn": task.fn, "args": task.args,
                "inject": policy is not None}))
        except OSError:
            fail(worker, "crash",
                 "worker connection lost while sending the task")

    busy = [w for w in pool.workers if w.task is not None]
    if not busy:
        if pending:
            wake = min(task.ready_at for task in pending)
            time.sleep(min(_POLL_SECONDS,
                           max(0.0, wake - time.monotonic())))
        return
    timeout = _POLL_SECONDS
    deadlines = [w.deadline for w in busy if w.deadline is not None]
    if deadlines:
        timeout = min(timeout, max(0.0, min(deadlines)
                                   - time.monotonic()))
    ready = set(connection.wait([w.sock for w in pool.workers],
                                timeout))

    now = time.monotonic()
    for worker in list(pool.workers):
        if worker.sock in ready and worker.task is None:
            # An idle worker only speaks by dying.
            pool.retire(worker)
            if pending:
                pool.spawn(1)
        elif worker.sock in ready:
            try:
                message = worker.read()
            except Exception as error:
                pool.retire(worker)
                fail(worker, "crash",
                     f"worker died without a message "
                     f"({type(error).__name__}: {error}; exit code "
                     f"{worker.proc.exitcode})")
                continue
            if message is None:
                continue  # partial frame, keep waiting
            kind, payload = message
            if kind == "result":
                task, worker.task = worker.task, None
                yield Outcome(task.index, payload["value"],
                              task.attempt, worker.pid)
            elif kind == "error":
                fail(worker, "exception", str(payload["detail"]),
                     payload.get("error"))
            else:
                fail(worker, "crash",
                     f"worker sent unexpected frame {kind!r}")
        elif worker.deadline is not None and worker.task is not None \
                and now >= worker.deadline:
            fail(worker, "timeout",
                 f"chunk exceeded the {policy.chunk_timeout:g}s "
                 f"watchdog")
