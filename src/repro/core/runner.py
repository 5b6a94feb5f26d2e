"""Fault-tolerant chunked execution for sweeps.

:class:`ResilientExecutor` runs a worker function over a list of task
keys on a process pool and absorbs the orchestration-level failures the
pool itself does not: a worker raising, a worker killed (OOM, SIGKILL —
surfacing as :class:`~concurrent.futures.process.BrokenProcessPool`), a
worker hanging past a per-chunk deadline, and the pool refusing to come
back up at all.  The recovery ladder, in order:

1. **Retry with backoff** — a failed or timed-out chunk is re-submitted
   up to ``max_retries`` times, after a capped exponential delay with
   *deterministic* jitter (seeded from the chunk key and attempt, so two
   runs of the same sweep back off identically and retrying chunks fan
   out instead of stampeding — the bounded randomized backoff discipline
   of the wait-free-locks line of work).
2. **Poison isolation** — a chunk that exhausts its retries is split
   into single-task units, each with a fresh retry budget, so one bad
   task cannot take its chunk-mates down with it; a *single* task that
   still fails raises :class:`TaskError` naming the task key.
3. **Pool rebuild** — a broken or deadline-blown pool is terminated and
   rebuilt; in-flight chunks are re-queued (the timed-out/broken ones
   with a retry charged, innocent bystanders for free).
4. **Graceful degradation** — after ``fallback_after`` *consecutive*
   pool breakages (a broken pool, or one that refuses to start — *not*
   deadline kills, which are self-inflicted terminations of a healthy
   pool) the executor stops fighting the pool and runs the remaining
   work serially in-process (same retry/poison semantics, minus
   preemption — serial mode has no deadline, which is exactly why hangs
   must never be what sends the executor there).

None of this can change results: tasks are pure deterministic work, so
a retry recomputes exactly the bytes the first attempt would have
produced.  The hot path — replicate execution inside the workers — is
untouched; only the coordination layer absorbs the faults.
"""

from __future__ import annotations

import os
import time
import zlib
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np


class TaskError(RuntimeError):
    """A single task failed every retry; ``key`` names the poison task."""

    def __init__(self, key: Hashable, cause: BaseException):
        super().__init__(
            f"task {key!r} failed after exhausting retries: "
            f"{type(cause).__name__}: {cause}"
        )
        self.key = key
        self.cause = cause


def available_cpu_count() -> int:
    """CPUs actually available to this process, not merely present.

    ``os.cpu_count()`` reports the machine; in cgroup/affinity-limited
    environments (CI runners, containers, ``taskset``) the process may
    be pinned to far fewer cores, and sizing a pool from the machine
    count oversubscribes them.  ``os.sched_getaffinity`` reports the
    real allowance where the platform supports it (Linux); elsewhere
    fall back to ``os.cpu_count()``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


def validate_max_workers(max_workers) -> int:
    """``max_workers`` itself, if it is a positive int; else a
    :class:`ValueError` naming the value.

    ``bool`` is rejected although it is an ``int`` subclass: ``True``
    as a worker count is always a mistake.
    """
    if (
        not isinstance(max_workers, int)
        or isinstance(max_workers, bool)
        or max_workers < 1
    ):
        raise ValueError(
            f"max_workers must be a positive int, got {max_workers!r}"
        )
    return max_workers


def _stable_seed(key: Hashable, attempt: int) -> int:
    """A process-stable seed for the backoff jitter (``hash()`` is salted
    per interpreter; CRC32 of the repr is not)."""
    return zlib.crc32(repr((key, attempt)).encode("utf-8"))


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the recovery ladder (see the module docstring)."""

    #: Re-submissions per unit before splitting (chunks) or giving up
    #: (single tasks).
    max_retries: int = 3
    #: First backoff delay, seconds; attempt ``k`` waits up to
    #: ``base_delay * 2**(k-1)``, capped at ``max_delay``.
    base_delay: float = 0.05
    max_delay: float = 2.0
    #: Per-chunk wall-clock deadline, seconds; ``None`` disables hang
    #: detection (a chunk may then run forever).  The clock starts at
    #: submission, but chunks are only submitted up to pool capacity,
    #: so submission is (to within scheduling noise) execution start.
    timeout: Optional[float] = None
    #: Consecutive pool *breakages* before degrading to in-process
    #: serial execution for the remaining tasks.  Deadline-driven pool
    #: kills do not count: serial mode cannot preempt a hang, so a
    #: persistently hanging task must exhaust its retries and raise
    #: :class:`TaskError` rather than fall back.
    fallback_after: int = 3

    def backoff_delay(self, key: Hashable, attempt: int) -> float:
        """Capped exponential backoff with deterministic jitter.

        The delay for ``(key, attempt)`` is the same every time it is
        computed — reruns of a sweep back off identically — while
        different keys jitter apart within ``[cap/2, cap]``.
        """
        cap = min(self.max_delay, self.base_delay * 2 ** max(0, attempt - 1))
        rng = np.random.default_rng(_stable_seed(key, attempt))
        return cap / 2 + rng.uniform(0, cap / 2)

    def to_dict(self) -> Dict[str, Optional[float]]:
        """A JSON-safe snapshot (the sweep service journals its policy)."""
        return {
            "max_retries": self.max_retries,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "timeout": self.timeout,
            "fallback_after": self.fallback_after,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Optional[float]]) -> "RetryPolicy":
        """Rebuild a policy from :meth:`to_dict` output (strict keys)."""
        known = {
            "max_retries",
            "base_delay",
            "max_delay",
            "timeout",
            "fallback_after",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown RetryPolicy fields: {sorted(unknown)}"
            )
        return cls(**payload)


@dataclass
class RunStats:
    """What the executor had to do to finish a run."""

    retries: int = 0
    splits: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    fell_back_serial: bool = False
    #: Total seconds spent sleeping in retry backoff.
    backoff_seconds: float = 0.0


def _terminate_pool(pool) -> None:
    """Kill a pool that may contain hung or dying workers.

    ``ProcessPoolExecutor`` has no public kill switch, so the worker
    processes are terminated through the executor's process table when
    it is available (best-effort — a missing attribute just means we
    fall through to ``shutdown``, leaking the hung worker until it
    finishes on its own).
    """
    processes = getattr(pool, "_processes", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class ResilientExecutor:
    """Run ``worker_fn(keys, *args) -> list`` over a pool, surviving faults.

    ``worker_fn`` receives a list of task keys plus ``args`` and must
    return one result per key, in order; it must be picklable
    (module-level).  Results are collected into a ``{key: result}`` dict
    — completion *order* is scheduling, never semantics, so retries and
    rebuilds cannot affect what is returned.

    ``max_workers`` is the pool size: a positive int, or ``None`` for
    :func:`available_cpu_count`; anything else raises :class:`ValueError`.
    ``pool_factory`` exists for fault injection (see
    :mod:`repro.testing.chaos`); it must accept a ``max_workers``
    keyword and return a ``ProcessPoolExecutor``-shaped object.
    """

    def __init__(
        self,
        worker_fn: Callable[..., List],
        *,
        max_workers: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
        pool_factory: Optional[Callable[..., ProcessPoolExecutor]] = None,
        sleep: Callable[[float], None] = time.sleep,
        telemetry=None,
    ):
        self._worker_fn = worker_fn
        if max_workers is None:
            max_workers = available_cpu_count()
        self.max_workers = validate_max_workers(max_workers)
        self.policy = policy if policy is not None else RetryPolicy()
        self._pool_factory = (
            pool_factory if pool_factory is not None else ProcessPoolExecutor
        )
        self._sleep = sleep
        self.telemetry = telemetry
        self.stats = RunStats()

    def default_chunk_size(self, n_tasks: int) -> int:
        """Roughly four chunks per worker, computed from public config
        (never from pool internals)."""
        return max(1, -(-n_tasks // (self.max_workers * 4)))

    def run(
        self,
        tasks: Sequence[Hashable],
        args: Tuple = (),
        *,
        chunk_size: Optional[int] = None,
        on_result: Optional[Callable[[Hashable, object], None]] = None,
        collect: bool = True,
    ) -> Dict[Hashable, object]:
        """Execute every task, retrying/rebuilding/degrading as needed.

        ``on_result(key, result)`` fires once per task as soon as its
        chunk completes — the checkpoint hook.  Raises
        :class:`TaskError` if a single task exhausts its retries.

        ``collect=False`` returns an empty dict instead of accumulating
        every result — for streaming callers (million-replicate sweeps)
        whose ``on_result`` consumes results as they land, keeping the
        executor's memory O(in-flight), not O(tasks).
        """
        keys = list(tasks)
        if not keys:
            return {}
        telemetry = self.telemetry
        telemetry_on = telemetry is not None and telemetry.enabled
        if telemetry_on:
            stats_before = (
                self.stats.retries,
                self.stats.splits,
                self.stats.timeouts,
                self.stats.pool_rebuilds,
                self.stats.backoff_seconds,
                self.stats.fell_back_serial,
            )
        if chunk_size is None:
            chunk_size = self.default_chunk_size(len(keys))
        units = deque(
            tuple(keys[start : start + chunk_size])
            for start in range(0, len(keys), chunk_size)
        )
        results: Dict[Hashable, object] = {}
        completed = 0
        attempts: Dict[Tuple, int] = {}
        in_flight: Dict[object, Tuple[Tuple, float]] = {}
        policy = self.policy
        serial_mode = False
        pool = None
        pool_failures = 0
        # True while the current pool contains a worker whose chunk blew
        # its deadline — that worker may still be hung, so the pool must
        # be terminated, never awaited.
        pool_hung = False

        def finish(unit: Tuple, values: List) -> None:
            nonlocal completed
            if len(values) != len(unit):
                raise TaskError(
                    unit[0] if len(unit) == 1 else unit,
                    ValueError(
                        f"worker returned {len(values)} results for "
                        f"{len(unit)} tasks"
                    ),
                )
            for key, value in zip(unit, values):
                if collect:
                    results[key] = value
                completed += 1
                if on_result is not None:
                    on_result(key, value)

        def handle_failure(unit: Tuple, exc: BaseException, requeue) -> None:
            """Retry, split, or raise — the first two rungs of the ladder."""
            attempts[unit] = attempts.get(unit, 0) + 1
            if attempts[unit] <= policy.max_retries:
                self.stats.retries += 1
                delay = policy.backoff_delay(unit, attempts[unit])
                self.stats.backoff_seconds += delay
                self._sleep(delay)
                requeue.append(unit)
            elif len(unit) > 1:
                # Isolate the poison task: singles get a fresh budget.
                self.stats.splits += 1
                for key in unit:
                    requeue.append((key,))
            else:
                raise TaskError(unit[0], exc)

        def note_pool_failure() -> bool:
            """Count a pool-level failure; True once it is time to degrade."""
            nonlocal pool_failures
            self.stats.pool_rebuilds += 1
            pool_failures += 1
            if pool_failures >= policy.fallback_after:
                self.stats.fell_back_serial = True
                return True
            return False

        try:
            while units or in_flight:
                if serial_mode:
                    unit = units.popleft()
                    try:
                        finish(unit, self._worker_fn(list(unit), *args))
                    except TaskError:
                        raise
                    except Exception as exc:
                        handle_failure(unit, exc, units)
                    continue

                # Top the pool up to capacity — no deeper: the deadline
                # clock starts at submit, so a chunk queued behind others
                # would accrue deadline while waiting for a worker and
                # time out spuriously.  A failure here (pool refuses to
                # start, or is already broken) is a pool-level fault.
                try:
                    if pool is None:
                        pool = self._pool_factory(max_workers=self.max_workers)
                        pool_hung = False
                    while units and len(in_flight) < self.max_workers:
                        unit = units[0]
                        future = pool.submit(self._worker_fn, list(unit), *args)
                        units.popleft()
                        in_flight[future] = (unit, time.monotonic())
                except Exception:
                    for _, (unit, _) in list(in_flight.items()):
                        units.append(unit)
                    in_flight.clear()
                    if pool is not None:
                        _terminate_pool(pool)
                        pool = None
                    if note_pool_failure():
                        serial_mode = True
                    continue

                if policy.timeout is None:
                    done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                else:
                    now = time.monotonic()
                    earliest = min(start for _, start in in_flight.values())
                    remaining = policy.timeout - (now - earliest)
                    done, _ = wait(
                        list(in_flight),
                        timeout=max(0.0, remaining),
                        return_when=FIRST_COMPLETED,
                    )

                requeue: deque = deque()
                pool_broken = False
                deadline_blown = False
                for future in done:
                    unit, _ = in_flight.pop(future)
                    try:
                        values = future.result()
                    except BrokenExecutor as exc:
                        # The pool died under this chunk (worker killed,
                        # OOM, ...).  Charge the chunk a retry — if it is
                        # the poison, attempts accumulate toward
                        # isolation; if not, the retry succeeds.
                        pool_broken = True
                        handle_failure(unit, exc, requeue)
                    except Exception as exc:
                        handle_failure(unit, exc, requeue)
                    else:
                        finish(unit, values)
                        pool_failures = 0

                if not pool_broken and policy.timeout is not None:
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (_, start) in in_flight.items()
                        if now - start > policy.timeout
                    ]
                    for future in expired:
                        unit, start = in_flight.pop(future)
                        self.stats.timeouts += 1
                        deadline_blown = True
                        pool_hung = True
                        handle_failure(
                            unit,
                            TimeoutError(
                                f"chunk {unit!r} exceeded the "
                                f"{policy.timeout}s deadline"
                            ),
                            requeue,
                        )

                if pool_broken or deadline_blown:
                    # Hung/killed workers poison the whole pool: recover
                    # the innocent in-flight chunks for free and rebuild.
                    for _, (unit, _) in list(in_flight.items()):
                        requeue.append(unit)
                    in_flight.clear()
                    _terminate_pool(pool)
                    pool = None
                    if pool_broken:
                        if note_pool_failure():
                            serial_mode = True
                    else:
                        # A blown deadline is a *self-inflicted* kill of a
                        # healthy pool, not evidence the pool cannot run.
                        # Counting it toward fallback_after would let a
                        # persistently hanging task drive the executor
                        # into deadline-free serial mode, where the hang
                        # blocks forever instead of ending in TaskError
                        # once its retries run out.
                        self.stats.pool_rebuilds += 1
                units.extend(requeue)
        finally:
            if pool is not None:
                if in_flight or pool_hung:
                    _terminate_pool(pool)
                else:
                    pool.shutdown(wait=True)
            if telemetry_on:
                self._settle_telemetry(stats_before, completed)
        return results

    def _settle_telemetry(self, before: Tuple, completed: int) -> None:
        """Report this run's stats deltas — called once per :meth:`run`,
        so the recovery ladder itself stays instrumentation-free."""
        stats = self.stats
        telemetry = self.telemetry
        telemetry.inc("executor.runs")
        telemetry.inc("executor.tasks_completed", completed)
        telemetry.inc("executor.retries", stats.retries - before[0])
        telemetry.inc("executor.splits", stats.splits - before[1])
        telemetry.inc("executor.deadline_kills", stats.timeouts - before[2])
        telemetry.inc("executor.pool_rebuilds", stats.pool_rebuilds - before[3])
        backoff = stats.backoff_seconds - before[4]
        if backoff > 0:
            telemetry.observe("executor.backoff_seconds", backoff)
        if stats.fell_back_serial and not before[5]:
            telemetry.inc("executor.serial_fallbacks")
