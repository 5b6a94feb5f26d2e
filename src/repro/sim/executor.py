"""The discrete-time executor.

At every time step ``tau = 1, 2, ...`` the scheduler picks one active
process; that process performs exactly one shared-memory operation
(Section 2.1 of the paper).  Crashes remove processes from the active set
permanently (Definition 1: crash containment, ``A_{tau+1} subset of A_tau``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.history import History
from repro.sim.memory import Memory
from repro.sim.ops import Operation
from repro.sim.process import Completion, Invoke, Process, ProcessFactory
from repro.sim.trace import TraceRecorder

RngLike = Union[int, np.random.Generator, None]


def _cas_totals(memory: Memory) -> Tuple[int, int]:
    """Total CAS ``(attempts, successes)`` across all registers.

    The memory already maintains per-register CAS counters on its normal
    path, so run-level CAS win/loss telemetry is a snapshot-and-diff —
    no extra work per step.
    """
    attempts = 0
    successes = 0
    for register in memory._registers.values():
        attempts += register.cas_attempts
        successes += register.cas_successes
    return attempts, successes


def validate_crash_times(
    crash_times: Optional[Dict[int, int]], n_processes: int
) -> Dict[int, int]:
    """Check a crash map names only known pids; returns a plain dict.

    Shared by :class:`Simulator` and the ensemble engine so both reject
    exactly the same crash configurations.  Crash *times* are not range
    checked on purpose: a time outside ``[1, max_steps]`` simply never
    fires (Definition 1 only constrains which processes may appear).
    """
    crash_map = dict(crash_times or {})
    for pid in crash_map:
        if not 0 <= pid < n_processes:
            raise ValueError(f"crash_times names unknown process {pid}")
    return crash_map


@dataclass
class SimulationResult:
    """Outcome of a (possibly partial) simulation run.

    Attributes
    ----------
    steps_executed:
        Total system steps taken across all calls to :meth:`Simulator.run`
        / :meth:`Simulator.run_batched` (cumulative simulator time).
    recorder:
        The trace recorder with schedules / completion records.
    memory:
        The shared memory in its final state.
    history:
        Invocation/response history, when recorded.
    stopped_early:
        True when the run ended before ``max_steps`` because the stop
        condition fired or no process remained active.
    steps_this_run:
        Steps taken by the call that produced this result — per-call
        accounting, so repeated ``run()`` calls report honest rates.
    completions_this_run:
        Method calls completed during the call that produced this result.
    """

    steps_executed: int
    recorder: TraceRecorder
    memory: Memory
    history: Optional[History]
    stopped_early: bool
    steps_this_run: int = 0
    completions_this_run: int = 0

    @property
    def total_completions(self) -> int:
        """Completed method calls across all processes (all-time)."""
        return self.recorder.total_completions

    @property
    def completion_rate(self) -> float:
        """Completed operations per system step (Appendix B's metric),
        over the steps of *this* run call only.

        Earlier versions divided the all-time completion count by the
        all-time step count, so a result object from a second ``run()``
        call mixed both calls' behaviour; per-call accounting keeps each
        result self-contained.
        """
        if self.steps_this_run == 0:
            return 0.0
        return self.completions_this_run / self.steps_this_run

    def completions_of(self, pid: int) -> int:
        """Completed method calls of one process."""
        return self.recorder.completions[pid]


class Simulator:
    """Drives ``n`` simulated processes under a scheduler.

    Parameters
    ----------
    factories:
        Either one :data:`~repro.sim.process.ProcessFactory` used for all
        processes (the paper's symmetric workload) or a sequence of ``n``
        factories.
    n_processes:
        Number of processes; required when a single factory is given.
    scheduler:
        Any object with ``select(time, active_pids, rng) -> pid``.  See
        :mod:`repro.core.scheduler`.
    memory:
        Shared memory; a fresh empty :class:`Memory` by default.  Pass a
        pre-initialised one to set register initial values.
    crash_times:
        Optional ``{pid: time}``; the process crashes just *before* the
        step at that time would be taken.
    record_schedule, record_completion_times, record_history:
        What the :class:`TraceRecorder` / :class:`History` keep.  Full
        schedules and histories cost memory proportional to the run length.
    rng:
        Seed or generator for the simulator; forwarded to the scheduler's
        ``select``.
    telemetry:
        Optional :class:`repro.core.telemetry.MetricsRegistry`.  Run
        counters (``sim.steps``, ``sim.completions``, ``sim.cas_wins``,
        ``sim.cas_losses``, ``sim.crashes``, ``sim.blocks``) settle once
        per :meth:`run`/:meth:`run_batched` call — never per step — and
        a ``sim.run`` event carries the per-process step counts.  The
        default ``None`` disables all of it behind a single boolean
        test; telemetry never consumes randomness or alters control
        flow, so results are bit-identical either way.
    """

    def __init__(
        self,
        factories: Union[ProcessFactory, Sequence[ProcessFactory]],
        scheduler,
        *,
        n_processes: Optional[int] = None,
        memory: Optional[Memory] = None,
        crash_times: Optional[Dict[int, int]] = None,
        record_schedule: bool = False,
        record_completion_times: bool = True,
        record_history: bool = False,
        rng: RngLike = None,
        telemetry=None,
    ) -> None:
        if callable(factories):
            if n_processes is None:
                raise ValueError("n_processes is required with a single factory")
            factory_list: List[ProcessFactory] = [factories] * n_processes
        else:
            factory_list = list(factories)
            if n_processes is not None and n_processes != len(factory_list):
                raise ValueError(
                    f"n_processes={n_processes} but {len(factory_list)} factories given"
                )
        if not factory_list:
            raise ValueError("at least one process is required")

        self.n_processes = len(factory_list)
        self.scheduler = scheduler
        self.memory = memory if memory is not None else Memory()
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.crash_times = validate_crash_times(crash_times, self.n_processes)

        self.recorder = TraceRecorder(
            self.n_processes,
            record_schedule=record_schedule,
            record_completion_times=record_completion_times,
        )
        self.history: Optional[History] = History() if record_history else None

        self.processes: List[Process] = [
            Process(pid, factory) for pid, factory in enumerate(factory_list)
        ]
        self.time = 0
        self._primed = False
        # Contention hook (ContentionScheduler): when the scheduler wants
        # to see which registers the pending operations target, it is fed
        # before every scheduling decision (run_batched defers to run).
        self._observe_pending = getattr(scheduler, "observe_pending", None)
        self.telemetry = telemetry
        self._crashes_fired = 0
        # Target of the single reusable marker callback; set just before
        # each refill so no per-step closure is allocated.
        self._cb_pid = 0
        self._cb_time = 0

    # -- internals ---------------------------------------------------------------

    def _on_marker(self, pid: int, time: int, marker) -> None:
        if isinstance(marker, Invoke):
            if self.history is not None:
                self.history.invoke(time, pid, marker.method, marker.argument)
        elif isinstance(marker, Completion):
            self.processes[pid].completions += 1
            self.recorder.on_completion(time, pid)
            if self.history is not None:
                self.history.respond(time, pid, marker.method, marker.result)

    def _marker_cb(self, marker) -> None:
        """Bound-once marker sink; reads the pid/time staged in
        ``_cb_pid``/``_cb_time`` (hoisted out of the per-step hot path)."""
        self._on_marker(self._cb_pid, self._cb_time, marker)

    def _prime(self) -> None:
        for process in self.processes:
            self._cb_pid = process.pid
            self._cb_time = 0
            process.advance(None, self._marker_cb)
        self._primed = True

    def _apply_crashes(self, time: int) -> None:
        for pid, crash_time in self.crash_times.items():
            if crash_time == time:
                self.processes[pid].crash()
                self._crashes_fired += 1

    def _record_run_telemetry(
        self,
        engine: str,
        steps: int,
        completions: int,
        cas_before: Tuple[int, int],
        crashes_before: int,
        steps_before: List[int],
        blocks: Optional[int] = None,
    ) -> None:
        """Settle one run call's counters and emit the ``sim.run`` event.

        Called only when telemetry is enabled, after the run loop — the
        per-step path never sees it.  All quantities are per-call deltas
        so repeated ``run()`` calls report honestly.
        """
        telemetry = self.telemetry
        attempts, successes = _cas_totals(self.memory)
        wins = successes - cas_before[1]
        telemetry.inc("sim.runs")
        telemetry.inc("sim.steps", steps)
        telemetry.inc("sim.completions", completions)
        telemetry.inc("sim.cas_wins", wins)
        telemetry.inc("sim.cas_losses", (attempts - cas_before[0]) - wins)
        telemetry.inc("sim.crashes", self._crashes_fired - crashes_before)
        if blocks is not None:
            telemetry.inc("sim.blocks", blocks)
        telemetry.emit(
            "sim.run",
            {
                "engine": engine,
                "n_processes": self.n_processes,
                "steps": steps,
                "completions": completions,
                "step_counts": [
                    self.recorder.steps[pid] - steps_before[pid]
                    for pid in range(self.n_processes)
                ],
            },
        )

    def _telemetry_snapshot(self):
        """Pre-run state needed to settle per-call telemetry deltas."""
        return (
            _cas_totals(self.memory),
            self._crashes_fired,
            [self.recorder.steps[pid] for pid in range(self.n_processes)],
        )

    def active_pids(self) -> List[int]:
        """Processes currently eligible for scheduling (the set ``A_tau``)."""
        return [p.pid for p in self.processes if p.active]

    # -- driving -------------------------------------------------------------------

    def step(self) -> Optional[int]:
        """Execute one system step; returns the scheduled pid, or ``None``
        when no process is active."""
        if not self._primed:
            self._prime()
        time = self.time + 1
        self._apply_crashes(time)
        active = self.active_pids()
        if not active:
            return None
        if self._observe_pending is not None:
            self._observe_pending(
                {
                    pid: getattr(self.processes[pid].pending, "register", None)
                    for pid in active
                }
            )
        pid = self.scheduler.select(time, active, self.rng)
        if pid not in active:
            raise RuntimeError(
                f"scheduler selected inactive process {pid} at t={time} "
                f"(active: {active[:10]}{'...' if len(active) > 10 else ''})"
            )
        self.time = time
        process = self.processes[pid]
        process.take_step(self.memory.apply)
        self.recorder.on_step(time, pid)
        self._cb_pid = pid
        self._cb_time = time
        process.refill(self._marker_cb)
        return pid

    def run(
        self,
        max_steps: int,
        *,
        stop_after_completions: Optional[int] = None,
        stop_after_completions_by: Optional[int] = None,
    ) -> SimulationResult:
        """Run up to ``max_steps`` further steps.

        Parameters
        ----------
        max_steps:
            Step budget for this call.
        stop_after_completions:
            Stop as soon as the *total* completion count reaches this value.
        stop_after_completions_by:
            Stop as soon as process with this pid completes an operation
            (checked against its count when the run starts).
        """
        if max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        telemetry = self.telemetry
        telemetry_on = telemetry is not None and telemetry.enabled
        if telemetry_on:
            telemetry_before = self._telemetry_snapshot()
        start_time = self.time
        start_completions = self.recorder.total_completions
        target_pid = stop_after_completions_by
        baseline = (
            self.recorder.completions[target_pid] if target_pid is not None else 0
        )
        stopped_early = False
        for _ in range(max_steps):
            if (
                stop_after_completions is not None
                and self.recorder.total_completions >= stop_after_completions
            ):
                stopped_early = True
                break
            if (
                target_pid is not None
                and self.recorder.completions[target_pid] > baseline
            ):
                stopped_early = True
                break
            if self.step() is None:
                stopped_early = True
                break
        else:
            # Budget exhausted; still check trailing stop conditions so the
            # flag reflects whether the condition was met.
            if (
                stop_after_completions is not None
                and self.recorder.total_completions >= stop_after_completions
            ) or (
                target_pid is not None
                and self.recorder.completions[target_pid] > baseline
            ):
                stopped_early = True
        if telemetry_on:
            self._record_run_telemetry(
                "serial",
                self.time - start_time,
                self.recorder.total_completions - start_completions,
                *telemetry_before,
            )
        return SimulationResult(
            steps_executed=self.time,
            recorder=self.recorder,
            memory=self.memory,
            history=self.history,
            stopped_early=stopped_early,
            steps_this_run=self.time - start_time,
            completions_this_run=self.recorder.total_completions
            - start_completions,
        )

    def run_batched(
        self,
        max_steps: int,
        *,
        stop_after_completions: Optional[int] = None,
        stop_after_completions_by: Optional[int] = None,
        batch_size: int = 4096,
    ) -> SimulationResult:
        """Run up to ``max_steps`` further steps on the batched fast path.

        Trace-equivalent to :meth:`run`: given the same initial state and
        seed it produces the identical schedule, completions, history and
        final memory, and leaves the simulator (RNG and scheduler state
        included) exactly where the step-by-step path would — the two can
        even be interleaved.  It is much faster because scheduler choices
        are drawn in blocks between crash boundaries, the active set is
        computed once per block instead of once per step, and process
        steps are dispatched inline without per-step closure allocation.

        Blocks never span a crash time, so the active set handed to
        ``select_batch`` is exact.  When a block is cut short — a process
        finished its (finite) workload or a stop condition fired — the RNG
        and scheduler state are rewound and only the consumed prefix is
        replayed, keeping the stream aligned with the serial path.

        Schedulers with an ``observe_pending`` hook (contention
        schedulers) must see the pending operations before every single
        decision, so they run on :meth:`run` itself.

        Parameters are those of :meth:`run`, plus ``batch_size``: the
        maximum number of scheduler choices drawn at once.
        """
        if max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self._observe_pending is not None:
            # Contention state is observed before *every* decision, so a
            # block could never grow past one step: take the serial loop.
            return self.run(
                max_steps,
                stop_after_completions=stop_after_completions,
                stop_after_completions_by=stop_after_completions_by,
            )
        if not self._primed:
            self._prime()
        telemetry = self.telemetry
        telemetry_on = telemetry is not None and telemetry.enabled
        if telemetry_on:
            telemetry_before = self._telemetry_snapshot()
        blocks_executed = 0

        scheduler = self.scheduler
        rng = self.rng
        bit_generator = rng.bit_generator
        recorder = self.recorder
        history = self.history
        memory = self.memory
        # Dispatch through the memory's per-class handler table directly;
        # ``total_operations`` (one per applied op, i.e. one per step) is
        # settled per block instead of per step.
        handler_of = memory._handlers.get
        resolve_handler = memory._resolve_handler
        processes = self.processes
        record_times = recorder._record_completion_times
        completion_times = recorder.completion_times
        completion_pids = recorder.completion_pids
        completions = recorder.completions
        step_counts = recorder.steps
        schedule = recorder.schedule

        select_batch = getattr(scheduler, "select_batch", None)
        snapshot_state = getattr(scheduler, "state_snapshot", None)
        restore_state = getattr(scheduler, "state_restore", None)
        if select_batch is None:
            # Duck-typed scheduler without the batched protocol: fall back
            # to sequential selection (still trace-equivalent).
            def select_batch(time, active, rng, size):
                return np.array(
                    [scheduler.select(time + k, active, rng) for k in range(size)],
                    dtype=np.int64,
                )

        start_time = self.time
        end_time = start_time + max_steps
        start_completions = recorder.total_completions
        total_completions = start_completions
        target_pid = stop_after_completions_by
        baseline = completions[target_pid] if target_pid is not None else 0
        target_count = baseline
        check_stops = stop_after_completions is not None or target_pid is not None

        # Per-process generator senders and pending operations, resolved
        # once per call; the pending ops live in a local list during a
        # block and are written back to the Process objects at block end.
        senders = [process._generator.send for process in processes]
        pendings = [process.pending for process in processes]

        crash_boundaries = sorted(set(self.crash_times.values()))
        stopped_early = False
        time = self.time

        while time < end_time:
            if (
                stop_after_completions is not None
                and total_completions >= stop_after_completions
            ):
                stopped_early = True
                break
            if target_pid is not None and target_count > baseline:
                stopped_early = True
                break
            next_t = time + 1
            self._apply_crashes(next_t)
            active = self.active_pids()
            if not active:
                stopped_early = True
                break
            block = min(batch_size, end_time - time)
            for boundary in crash_boundaries:
                if boundary > next_t:
                    block = min(block, boundary - next_t)
                    break
            rng_state = bit_generator.state
            scheduler_state = (
                snapshot_state() if snapshot_state is not None else None
            )
            pids = select_batch(next_t, active, rng, block)
            # Validate the whole block at once instead of one membership
            # test per step; an invalid selection truncates the iterated
            # prefix so the error surfaces at the exact offending step,
            # after the valid prefix has executed (as the serial path
            # would have).
            valid = np.isin(pids, np.asarray(active, dtype=np.int64))
            invalid_at = -1 if valid.all() else int(np.argmax(~valid))
            iterated = pids if invalid_at < 0 else pids[:invalid_at]
            executed = 0
            try:
                for pid in iterated.tolist():
                    if check_stops and executed:
                        if (
                            stop_after_completions is not None
                            and total_completions >= stop_after_completions
                        ):
                            stopped_early = True
                            break
                        if target_pid is not None and target_count > baseline:
                            stopped_early = True
                            break
                    time += 1
                    executed += 1
                    # Inlined Process.take_step + refill, with markers
                    # handled in place (no per-step closures).  Per-process
                    # step counters are settled once per block from the
                    # executed pid prefix, not one dict update per step.
                    op = pendings[pid]
                    handler = handler_of(op.__class__)
                    if handler is None:
                        handler = resolve_handler(op)
                    result = handler(op)
                    generator_send = senders[pid]
                    try:
                        item = generator_send(result)
                        while not isinstance(item, Operation):
                            if isinstance(item, Completion):
                                processes[pid].completions += 1
                                completions[pid] += 1
                                total_completions += 1
                                if pid == target_pid:
                                    target_count += 1
                                if record_times:
                                    completion_times.append(time)
                                    completion_pids.append(pid)
                                if history is not None:
                                    history.respond(
                                        time, pid, item.method, item.result
                                    )
                            elif isinstance(item, Invoke):
                                if history is not None:
                                    history.invoke(
                                        time, pid, item.method, item.argument
                                    )
                            else:
                                raise TypeError(
                                    f"process {pid} yielded {item!r}; expected "
                                    "an Operation, Invoke or Completion"
                                )
                            item = generator_send(None)
                        pendings[pid] = item
                    except StopIteration:
                        pendings[pid] = None
                        processes[pid].done = True
                        break
                else:
                    if invalid_at >= 0:
                        # The serial path checks stop conditions before the
                        # scheduler acts, so a stop that fired at the
                        # offending step masks the error there too.
                        if check_stops and (
                            (
                                stop_after_completions is not None
                                and total_completions >= stop_after_completions
                            )
                            or (
                                target_pid is not None
                                and target_count > baseline
                            )
                        ):
                            stopped_early = True
                        else:
                            bad_pid = int(pids[invalid_at])
                            raise RuntimeError(
                                f"scheduler selected inactive process "
                                f"{bad_pid} at t={time + 1} (active: "
                                f"{active[:10]}"
                                f"{'...' if len(active) > 10 else ''})"
                            )
            finally:
                for synced_pid, pending in enumerate(pendings):
                    processes[synced_pid].pending = pending
                memory.total_operations += executed
                recorder.total_steps += executed
                if executed:
                    counts = np.bincount(
                        pids[: executed], minlength=self.n_processes
                    )
                    for counted_pid in np.nonzero(counts)[0].tolist():
                        step_count = int(counts[counted_pid])
                        step_counts[counted_pid] += step_count
                        processes[counted_pid].steps += step_count
                    if schedule is not None:
                        schedule.extend(pids[:executed])
                self.time = time
            if executed:
                blocks_executed += 1
            if executed < block:
                # The block was cut short: rewind RNG and scheduler state,
                # then replay exactly the consumed prefix so both end up
                # where the step-by-step path would be.
                bit_generator.state = rng_state
                if restore_state is not None:
                    restore_state(scheduler_state)
                if executed:
                    select_batch(next_t, active, rng, executed)
            if stopped_early:
                break
        if not stopped_early:
            # Budget exhausted; still check trailing stop conditions so the
            # flag reflects whether the condition was met.
            if (
                stop_after_completions is not None
                and total_completions >= stop_after_completions
            ) or (target_pid is not None and target_count > baseline):
                stopped_early = True
        if telemetry_on:
            self._record_run_telemetry(
                "batched",
                self.time - start_time,
                total_completions - start_completions,
                *telemetry_before,
                blocks=blocks_executed,
            )
        return SimulationResult(
            steps_executed=self.time,
            recorder=self.recorder,
            memory=self.memory,
            history=self.history,
            stopped_early=stopped_early,
            steps_this_run=self.time - start_time,
            completions_this_run=total_completions - start_completions,
        )
