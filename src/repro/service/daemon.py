"""The sweep job daemon: durable queue, leases, dedupe, admission.

:class:`SweepService` is the long-running core behind ``repro serve``.
Jobs are sweep specs (workload + grid + seed); the service gives each a
content-addressed id (the SHA-256 of its canonical JSON), journals every
transition in a crash-safe :class:`~repro.service.ledger.JobLedger`,
runs them on a small pool of worker threads under TTL leases renewed by
heartbeats, and serves results that are **bit-identical to a direct
``latency_sweep`` call** — the whole stack below (store, engines)
guarantees replicates are pure functions of ``(seed, n, replicate)``,
so resume, retry, dedupe and recovery can shuffle *when* work happens
but never *what* it produces.

Deduplication happens at two grains:

* **job-level** — re-submitting a spec whose job already completed (or
  is in flight) returns the existing job, zero new work
  (``service.dedupe_hits``);
* **point-level** — every finished ``(n, replicate)`` triple is written
  through to a :class:`~repro.core.memo.DiskMemo` keyed by the full
  point identity, so a *new* job whose grid overlaps an old one warm
  starts from the memo and recomputes only genuinely novel points
  (``service.memo_warm_points`` / ``service.recomputed_points``).

Failure handling is the `ResilientExecutor` ladder one level up: a
failed job retries with the same capped, deterministically-jittered
backoff (:class:`~repro.core.runner.RetryPolicy`), and a job that
exhausts its attempts is *poisoned* — quarantined in a terminal state
rather than allowed to wedge the queue.  A worker or daemon killed
mid-job simply stops heartbeating; on restart,
:meth:`JobLedger.recover` re-queues its jobs and the store's resume
machinery skips every point that already landed.

Admission control is a bounded queue: past ``max_queue`` waiting jobs,
:meth:`SweepService.submit` raises :class:`AdmissionError` with a
structured payload (limit, depth, retriable) — load is shed loudly at
the door instead of degrading everyone inside.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.checkpoint import crash_config_hash, sweep_fingerprint
from ..core.memo import _MISS, DiskMemo
from ..core.runner import RetryPolicy
from ..core.store import ColumnarSweepStore
from ..core.sweep import release_thread_workspace
from .ledger import JobLedger, JobRecord, TERMINAL_STATES
from .leases import DEFAULT_LEASE_TTL, LeaseTable, make_owner

#: Environment hook for the lease-recovery chaos test: a float number of
#: seconds each worker pauses *between* appending the ``leased`` event
#: and the ``running``/first-heartbeat pair — the window the test
#: SIGKILLs the daemon in.  Unset (the default) costs nothing.
CHAOS_LEASE_PAUSE_ENV = "REPRO_SERVICE_CHAOS_LEASE_PAUSE"

#: Memo namespace for per-point write-through entries.
POINT_MEMO_NAME = "service-point"


def _normalize_scheduler(name: Any) -> str:
    """Validate and canonicalize a spec's scheduler name.

    Accepts ``uniform``, ``hardware``, ``contention[:FOCUS]`` and
    ``epsilon:EPS``; parameterized names normalize their float (so
    ``epsilon:0.40`` and ``epsilon:.4`` digest to the same job id).
    """
    if name in ("uniform", "hardware"):
        return name
    if isinstance(name, str):
        if name == "contention":
            return "contention:4"
        head, sep, tail = name.partition(":")
        if sep and head in ("contention", "epsilon"):
            try:
                value = float(tail)
            except ValueError:
                raise ValueError(
                    f"scheduler {name!r} has a non-numeric parameter"
                ) from None
            if head == "contention" and value < 1.0:
                raise ValueError(f"contention focus must be >= 1, got {value}")
            if head == "epsilon" and not 0.0 <= value <= 1.0:
                raise ValueError(f"epsilon must lie in [0, 1], got {value}")
            return f"{head}:{value:g}"
    raise ValueError(
        f"unknown scheduler {name!r}; expected 'uniform', 'hardware', "
        "'contention[:FOCUS]' or 'epsilon:EPS'"
    )


class ServiceError(RuntimeError):
    """Base class for service-level failures."""


class AdmissionError(ServiceError):
    """The bounded queue is full; the job was rejected at the door.

    ``payload`` is the structured rejection the API returns verbatim:
    the client is told exactly why, what the limit is, and that the
    request is safe to retry later.
    """

    def __init__(self, payload: Dict[str, Any]):
        super().__init__(payload.get("message", "queue full"))
        self.payload = payload


class UnknownJobError(ServiceError, KeyError):
    """No job with that id exists in the ledger."""


class JobCancelled(Exception):
    """Raised inside a worker when its job's cancel flag is set."""


def validate_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a submitted job spec, raising ``ValueError`` loudly.

    Returns the canonical spec dict (sorted keys, defaults filled in)
    that the job id digests — two submissions meaning the same sweep
    normalize identically, however they were spelled.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"job spec must be an object, got {type(spec).__name__}")
    from ..algorithms.registry import workload_names

    workload = spec.get("workload", "cas-counter")
    if workload != "scu" and workload not in workload_names():
        raise ValueError(
            f"unknown workload {workload!r}; expected 'scu' or one of "
            f"{list(workload_names())}"
        )
    out: Dict[str, Any] = {"workload": workload}
    if workload == "scu":
        for fld in ("q", "s"):
            value = spec.get(fld)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(
                    f"scu workload requires non-negative integer {fld!r}, "
                    f"got {value!r}"
                )
            out[fld] = value
    n_values = spec.get("n_values")
    if (
        not isinstance(n_values, (list, tuple))
        or not n_values
        or any(
            isinstance(n, bool) or not isinstance(n, int) or n < 1
            for n in n_values
        )
    ):
        raise ValueError(
            f"n_values must be a non-empty list of positive integers, "
            f"got {n_values!r}"
        )
    out["n_values"] = [int(n) for n in n_values]

    def _int(name: str, default: int, minimum: int) -> int:
        value = spec.get(name, default)
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ValueError(
                f"{name} must be an integer >= {minimum}, got {value!r}"
            )
        return value

    out["steps"] = _int("steps", 10_000, 1)
    out["repeats"] = _int("repeats", 5, 2)
    out["seed"] = _int("seed", 0, 0)
    burn_in = spec.get("burn_in")
    if burn_in is not None and (
        isinstance(burn_in, bool)
        or not isinstance(burn_in, int)
        or not 0 <= burn_in < out["steps"]
    ):
        raise ValueError(
            f"burn_in must be None or an integer in [0, steps), got {burn_in!r}"
        )
    out["burn_in"] = burn_in
    out["scheduler"] = _normalize_scheduler(spec.get("scheduler", "uniform"))
    crash = spec.get("crash")
    if crash is not None:
        if not isinstance(crash, dict):
            raise ValueError(
                f"crash must be a {{pid: time}} object, got {crash!r}"
            )
        normalized = {}
        for pid, at in crash.items():
            try:
                pid_n = int(pid)
            except (TypeError, ValueError):
                raise ValueError(f"crash pid {pid!r} is not an integer")
            if isinstance(at, bool) or not isinstance(at, (int, float)) or at < 0:
                raise ValueError(f"crash time {at!r} must be a number >= 0")
            normalized[str(pid_n)] = float(at)
        crash = normalized
    out["crash"] = crash
    unknown = set(spec) - set(out)
    if unknown:
        raise ValueError(f"unknown spec fields: {sorted(unknown)}")
    return out


def job_digest(spec: Dict[str, Any]) -> str:
    """The content-addressed job id of a *normalized* spec."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def build_workload(spec: Dict[str, Any]) -> Tuple[Callable, Callable]:
    """``(factory_builder, memory_builder)`` for a normalized spec."""
    if spec["workload"] == "scu":
        from ..core.scu import SCU

        member = SCU(spec["q"], spec["s"])
        return (lambda: member.factory()), (lambda: member.memory())
    from ..algorithms.registry import get_workload

    workload = get_workload(spec["workload"])
    return workload.factory_builder, workload.memory_builder


def build_scheduler(name: str) -> Callable:
    from ..core.scheduler import (
        ContentionScheduler,
        EpsilonUniformScheduler,
        HardwareLikeScheduler,
        UniformStochasticScheduler,
    )

    if name == "uniform":
        return UniformStochasticScheduler
    if name == "hardware":
        return HardwareLikeScheduler
    head, _, tail = name.partition(":")
    if head == "contention":
        focus = float(tail)
        return lambda: ContentionScheduler(focus=focus)
    if head == "epsilon":
        eps = float(tail)
        return lambda: EpsilonUniformScheduler(eps)
    raise ValueError(f"unknown scheduler {name!r}")


def _crash_times(spec: Dict[str, Any]) -> Optional[Dict[int, float]]:
    crash = spec.get("crash")
    if crash is None:
        return None
    return {int(pid): float(at) for pid, at in crash.items()}


def spec_fingerprint(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The sweep fingerprint this spec's store carries."""
    if spec["workload"] == "scu":
        workload = f"scu({spec['q']},{spec['s']})"
    elif spec["workload"] == "cas-counter":
        workload = None  # the historical default, kept fingerprint-stable
    else:
        workload = spec["workload"]
    return sweep_fingerprint(
        seed=spec["seed"],
        steps=spec["steps"],
        scheduler=build_scheduler(spec["scheduler"])(),
        n_values=spec["n_values"],
        repeats=spec["repeats"],
        burn_in=spec["burn_in"],
        crash_times=_crash_times(spec),
        workload=workload,
    )


def point_memo_args(spec: Dict[str, Any], n: int, r: int) -> Tuple:
    """The full identity of one ``(n, replicate)`` point for the memo.

    Everything that can change the triple's bits participates: the
    workload (and its parameters), scheduler, steps, burn-in, the
    resolved crash hash, the seed, and the point itself.  The engine
    does not: every engine computes the same bits, so an entry warm
    starts the point whichever engine computed it.
    """
    crash_hash = crash_config_hash(_crash_times(spec), spec["n_values"])
    return (
        spec["workload"],
        spec.get("q", -1),
        spec.get("s", -1),
        spec["scheduler"],
        spec["steps"],
        -1 if spec["burn_in"] is None else spec["burn_in"],
        crash_hash,
        spec["seed"],
        int(n),
        int(r),
    )


def _estimate_dict(est) -> Dict[str, Any]:
    return {
        "mean": est.mean,
        "half_width": est.half_width,
        "confidence": est.confidence,
        "n_samples": est.n_samples,
    }


def run_sweep_job(
    spec: Dict[str, Any],
    store_dir: Union[str, Path],
    *,
    memo: Optional[DiskMemo] = None,
    on_point: Optional[Callable[[int, int], None]] = None,
    telemetry=None,
) -> Dict[str, Any]:
    """Execute one job spec against its store; returns the result dict.

    This is the service's default ``job_runner``.  The sequence is:
    warm-start the store from the point memo (every overlapping point
    some earlier job computed lands without running a single step),
    run :func:`latency_sweep` with ``resume=True`` so only missing
    points execute, then write every triple through to the memo for the
    next overlapping job.  The result carries the per-point estimate
    table *and* the raw replicate triples — the bit-identity contract
    is stated in bytes, so the bytes are in the payload.
    """
    from ..core.sweep import latency_sweep

    store_dir = Path(store_dir)
    fingerprint = spec_fingerprint(spec)
    telemetry_on = telemetry is not None and telemetry.enabled
    keys = [
        (n, r)
        for n in spec["n_values"]
        for r in range(spec["repeats"])
    ]

    # Warm start: pull every already-known point out of the memo into
    # the store before the sweep opens it.
    warm = 0
    resume = store_dir.exists()
    store = ColumnarSweepStore.open(
        store_dir, fingerprint, resume=resume, telemetry=telemetry
    )
    try:
        if memo is not None:
            for n, r in keys:
                if (n, r) in store.completed:
                    continue
                stored = memo.get(POINT_MEMO_NAME, point_memo_args(spec, n, r))
                if stored is _MISS or not isinstance(stored, list):
                    continue
                store.record(n, r, tuple(stored))
                warm += 1
        missing = store.missing(spec["n_values"], spec["repeats"])
        already = set(keys) - set(missing)
    finally:
        store.close()
    if telemetry_on and warm:
        telemetry.inc("service.memo_warm_points", warm)

    factory_builder, memory_builder = build_workload(spec)

    def progress(done: int, total: int, key: Tuple[int, int]) -> None:
        if on_point is not None:
            on_point(done, total)

    points = latency_sweep(
        factory_builder,
        memory_builder,
        spec["n_values"],
        steps=spec["steps"],
        repeats=spec["repeats"],
        scheduler_builder=build_scheduler(spec["scheduler"]),
        seed=spec["seed"],
        burn_in=spec["burn_in"],
        crash_times=_crash_times(spec),
        store=store_dir,
        resume=True,
        on_progress=progress,
        telemetry=telemetry,
        # Must match spec_fingerprint: the sweep re-opens the store and
        # validates its fingerprint, workload key included.
        workload=fingerprint["workload"],
    )
    if telemetry_on and missing:
        telemetry.inc("service.recomputed_points", len(missing))

    # Read the final triples back (the sweep has closed the store, whose
    # fingerprint it checked) and write them through to the memo.
    completed = ColumnarSweepStore.load_completed(store_dir)
    if memo is not None:
        for (n, r), triple in completed.items():
            if (n, r) in already:
                continue
            memo.put(POINT_MEMO_NAME, point_memo_args(spec, n, r), list(triple))
    triples = [
        [n, r, [float(v) for v in completed[(n, r)]]]
        for (n, r) in sorted(completed)
    ]
    return {
        "points": [
            {
                "n": point.n,
                "system_latency": _estimate_dict(point.system_latency),
                "completion_rate": _estimate_dict(point.completion_rate),
                "fairness_ratio": _estimate_dict(point.fairness_ratio),
            }
            for point in points
        ],
        "triples": triples,
        "recomputed": len(missing),
        "warm_points": warm,
        "store": str(store_dir),
    }


class SweepService:
    """The daemon core: ledger + leases + worker pool + dedupe.

    ``job_runner`` is injectable for tests (signature of
    :func:`run_sweep_job` minus ``memo``); ``clock`` likewise.  All
    public methods are thread-safe — the HTTP layer calls straight in.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        workers: int = 2,
        max_queue: int = 16,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        telemetry=None,
        clock: Callable[[], float] = time.time,
        job_runner: Optional[Callable] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.workers = int(workers)
        self.max_queue = int(max_queue)
        self.lease_ttl = float(lease_ttl)
        self.heartbeat_interval = (
            self.lease_ttl / 3.0
            if heartbeat_interval is None
            else float(heartbeat_interval)
        )
        self.retry_policy = retry_policy or RetryPolicy(
            max_retries=2, base_delay=0.05, max_delay=1.0
        )
        self.telemetry = telemetry
        self._clock = clock
        self._job_runner = job_runner
        self.ledger = JobLedger(
            self.root / "ledger.jsonl", clock=clock, telemetry=telemetry
        )
        self.memo = DiskMemo(self.root / "memo", telemetry=telemetry)
        self.leases = LeaseTable(clock=clock)
        self._mutex = threading.RLock()
        self._records: Dict[str, JobRecord] = {}
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._cancelled: set = set()
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SweepService":
        """Replay + recover the ledger, then start the worker pool."""
        with self._mutex:
            if self._started:
                return self
            self._records = self.ledger.recover(
                max_attempts=self.retry_policy.max_retries + 1
            )
            for job in self._records.values():
                if job.state == "queued":
                    self._queue.put(job.job_id)
            self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(f"worker-{index}",),
                name=f"sweep-service-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._note_gauges()
        return self

    def shutdown(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool; with ``drain`` let running jobs finish first.

        Without ``drain``, running jobs are cancelled via their
        heartbeat hook (the next point boundary re-queues them — their
        completed points are already durable in the store, so nothing
        is lost).  Either way every lease is released and the ledger
        closed cleanly.
        """
        self._stopping.set()
        if not drain:
            with self._mutex:
                self._cancelled.update(
                    job_id
                    for job_id, job in self._records.items()
                    if job.state in ("leased", "running")
                )
        for thread in self._threads:
            thread.join(timeout=timeout)
        with self._mutex:
            # Anything still leased after the join (a worker that
            # out-waited the timeout) goes back to the queue durably.
            for job_id, job in self._records.items():
                if job.state in ("leased", "running"):
                    self.ledger.append("requeued", job_id, reason="shutdown")
                    job.state = "queued"
                    job.owner = None
                self.leases.release(job_id)
            self.ledger.close()
        self._threads = []

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- public API ---------------------------------------------------------

    def submit(self, raw_spec: Dict[str, Any]) -> Dict[str, Any]:
        """Admit (or dedupe) a job; returns its status snapshot.

        The snapshot carries ``dedupe: true`` when an existing job
        satisfied the submission without queueing new work.
        """
        spec = validate_spec(raw_spec)
        job_id = job_digest(spec)
        telemetry_on = self.telemetry is not None and self.telemetry.enabled
        with self._mutex:
            existing = self._records.get(job_id)
            if existing is not None:
                if existing.state == "poisoned":
                    snapshot = existing.to_dict()
                    snapshot["dedupe"] = True
                    return snapshot
                if existing.state in ("failed", "cancelled"):
                    # A terminal-but-retriable job: re-queue it.
                    self._cancelled.discard(job_id)
                    self.ledger.append("requeued", job_id, reason="resubmit")
                    existing.state = "queued"
                    existing.error = None
                    self._queue.put(job_id)
                    snapshot = existing.to_dict()
                    snapshot["dedupe"] = True
                    self._note_gauges()
                    return snapshot
                if telemetry_on:
                    self.telemetry.inc("service.dedupe_hits")
                snapshot = existing.to_dict()
                snapshot["dedupe"] = True
                return snapshot
            depth = sum(
                1 for job in self._records.values() if job.state == "queued"
            )
            if depth >= self.max_queue:
                if telemetry_on:
                    self.telemetry.inc("service.rejected")
                raise AdmissionError(
                    {
                        "error": "queue-full",
                        "message": (
                            f"admission refused: {depth} jobs already "
                            f"queued (limit {self.max_queue}); retry later"
                        ),
                        "limit": self.max_queue,
                        "depth": depth,
                        "retriable": True,
                    }
                )
            record = self.ledger.append("submitted", job_id, spec=spec)
            job = JobRecord(
                job_id=job_id,
                spec=spec,
                submitted_at=record["t"],
                updated_at=record["t"],
            )
            job.history.append("submitted")
            self._records[job_id] = job
            self._queue.put(job_id)
            if telemetry_on:
                self.telemetry.inc("service.submitted")
            self._note_gauges()
            snapshot = job.to_dict()
            snapshot["dedupe"] = False
            return snapshot

    def status(self, job_id: str) -> Dict[str, Any]:
        with self._mutex:
            job = self._records.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            return job.to_dict()

    def result(self, job_id: str) -> Dict[str, Any]:
        """The completed job's result payload (error if not completed)."""
        status = self.status(job_id)
        if status["state"] != "completed":
            raise ServiceError(
                f"job {job_id} is {status['state']}, not completed"
            )
        return status["result"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a queued job now, or a running one at its next point."""
        with self._mutex:
            job = self._records.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            if job.terminal:
                return job.to_dict()
            self._cancelled.add(job_id)
            if job.state == "queued":
                self.ledger.append("cancelled", job_id)
                job.state = "cancelled"
                if self.telemetry is not None and self.telemetry.enabled:
                    self.telemetry.inc("service.cancelled")
            self._note_gauges()
            return job.to_dict()

    def jobs(self) -> List[Dict[str, Any]]:
        with self._mutex:
            return [
                job.to_dict()
                for job in sorted(
                    self._records.values(), key=lambda j: j.submitted_at
                )
            ]

    # -- internals ----------------------------------------------------------

    def _note_gauges(self) -> None:
        if self.telemetry is None or not self.telemetry.enabled:
            return
        with self._mutex:
            states: Dict[str, int] = {}
            for job in self._records.values():
                states[job.state] = states.get(job.state, 0) + 1
        self.telemetry.set_gauge("service.queue_depth", states.get("queued", 0))
        self.telemetry.set_gauge(
            "service.jobs_running",
            states.get("leased", 0) + states.get("running", 0),
        )

    def _chaos_lease_pause(self) -> None:
        raw = os.environ.get(CHAOS_LEASE_PAUSE_ENV)
        if not raw:
            return
        try:
            pause = float(raw)
        except ValueError:
            return
        if pause > 0:
            time.sleep(pause)

    def _worker_loop(self, worker: str) -> None:
        owner = make_owner(worker)
        while True:
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                # Idle: keep no ensemble memory until the next job.
                release_thread_workspace()
                if self._stopping.is_set():
                    return
                continue
            with self._mutex:
                job = self._records.get(job_id)
                if job is None or job.state != "queued":
                    continue
                if job_id in self._cancelled:
                    self._cancelled.discard(job_id)
                    self.ledger.append("cancelled", job_id)
                    job.state = "cancelled"
                    continue
                attempt = job.attempt + 1
                lease = self.leases.grant(job_id, owner, self.lease_ttl)
                self.ledger.append(
                    "leased",
                    job_id,
                    owner=owner,
                    attempt=attempt,
                    expires=lease.expires_at,
                    ttl=self.lease_ttl,
                )
                job.state = "leased"
                job.owner = owner
                job.attempt = attempt
                job.lease_count += 1
                job.lease_expires = lease.expires_at
            self._note_gauges()
            # The chaos window: the job is durably leased to a PID that
            # is about to "die" without ever heartbeating.
            self._chaos_lease_pause()
            try:
                result = self._run_leased(job_id, owner)
            except JobCancelled:
                with self._mutex:
                    self.leases.release(job_id)
                    self._cancelled.discard(job_id)
                    self.ledger.append("cancelled", job_id)
                    job = self._records[job_id]
                    job.state = "cancelled"
                    job.owner = None
                    if self.telemetry is not None and self.telemetry.enabled:
                        self.telemetry.inc("service.cancelled")
            except Exception as exc:  # noqa: BLE001 - quarantine, don't die
                self._note_failure(job_id, exc)
            else:
                with self._mutex:
                    self.leases.release(job_id)
                    self.ledger.append("completed", job_id, result=result)
                    job = self._records[job_id]
                    job.state = "completed"
                    job.owner = None
                    job.result = result
                    if self.telemetry is not None and self.telemetry.enabled:
                        self.telemetry.inc("service.completed")
            self._note_gauges()

    def _run_leased(self, job_id: str, owner: str) -> Dict[str, Any]:
        with self._mutex:
            job = self._records[job_id]
            spec = dict(job.spec)
            self.ledger.append("running", job_id, owner=owner)
            job.state = "running"
            lease = self.leases.renew(job_id, owner)
            self.ledger.append(
                "heartbeat", job_id, owner=owner, expires=lease.expires_at
            )
            job.heartbeats += 1
        last_beat = [self._clock()]

        def heartbeat(done: int, total: int) -> None:
            if job_id in self._cancelled:
                raise JobCancelled(job_id)
            now = self._clock()
            if now - last_beat[0] < self.heartbeat_interval:
                return
            last_beat[0] = now
            with self._mutex:
                renewed = self.leases.renew(job_id, owner)
                self.ledger.append(
                    "heartbeat",
                    job_id,
                    owner=owner,
                    expires=renewed.expires_at,
                    done=done,
                    total=total,
                )
                self._records[job_id].heartbeats += 1

        store_dir = self.root / "stores" / job_id
        if self._job_runner is not None:
            return self._job_runner(
                spec, store_dir, on_point=heartbeat, telemetry=self.telemetry
            )
        return run_sweep_job(
            spec,
            store_dir,
            memo=self.memo,
            on_point=heartbeat,
            telemetry=self.telemetry,
        )

    def _note_failure(self, job_id: str, exc: Exception) -> None:
        error = f"{type(exc).__name__}: {exc}"
        telemetry_on = self.telemetry is not None and self.telemetry.enabled
        with self._mutex:
            self.leases.release(job_id)
            job = self._records[job_id]
            self.ledger.append("failed", job_id, error=error, attempt=job.attempt)
            job.state = "failed"
            job.owner = None
            job.error = error
            retriable = job.attempt <= self.retry_policy.max_retries
            if telemetry_on:
                self.telemetry.inc("service.failed")
        if retriable and not self._stopping.is_set():
            delay = self.retry_policy.backoff_delay(job_id, job.attempt)
            if delay > 0:
                time.sleep(delay)
            with self._mutex:
                if job.state != "failed":
                    return
                self.ledger.append(
                    "requeued", job_id, reason=f"retry-{job.attempt}"
                )
                job.state = "queued"
                self._queue.put(job_id)
        elif not retriable:
            with self._mutex:
                self.ledger.append(
                    "poisoned",
                    job_id,
                    error=(
                        f"quarantined after {job.attempt} attempts; "
                        f"last error: {error}"
                    ),
                )
                job.state = "poisoned"
                if telemetry_on:
                    self.telemetry.inc("service.poisoned")
