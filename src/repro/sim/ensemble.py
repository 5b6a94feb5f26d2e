"""The ensemble engine: many replicates resolved as array operations.

The paper's quantitative claims (Theorems 4-5, Corollary 2, Figure 5) are
statements about *expectations* under the uniform stochastic scheduler, so
sweeps and benchmarks run many independent replicates of the same small
``SCU(q, s)`` or CAS-counter simulation.  Replicates are embarrassingly
parallel and structurally identical, which makes them the textbook
candidate for struct-of-arrays vectorization: :class:`EnsembleSimulator`
holds the per-replicate process state as integer arrays (per-process phase
counters, attempt sequence numbers, step counts) and resolves whole
replicates with numpy passes instead of per-process generator resumption.

The engine exploits a structural property of ``SCU(q, s)`` workloads: the
schedule is drawn up front (via the same ``select_batch`` protocol and RNG
consumption as :meth:`repro.sim.Simulator.run_batched`), and once the
schedule is fixed, the only data-dependent events are the validating CAS
steps.  A CAS by process ``p`` at time ``c`` whose decision-register read
happened at time ``r`` succeeds **iff no other CAS succeeded in the open
interval** ``(r, c)`` — proposals are globally unique (timestamped), so
the decision register acts as a version counter.  Resolution therefore
reduces to one greedy pass over the schedule in time order: a CAS
succeeds iff its process's pending read came after the last successful
CAS, and a success makes the process take ``q`` preamble steps before
its next read.  The compiled kernels (:mod:`repro.sim.kernels`) run
exactly that pass, keeping a few integers of state per process, for
every ``SCU(q, s)`` shape.  The numpy kernel, the no-compiler fallback
and the bit-identity oracle, keeps two independent algorithms:

* ``q == 0`` (the counter, scan-validate, and every ``SCU(0, s)`` member):
  attempt boundaries are schedule-deterministic — every ``s + 1`` local
  steps regardless of outcomes — so all event pairs are precomputed with
  counting-sort passes, and the successes are extracted by following a
  precomputed successor pointer: after a success at time ``L``, the next
  success is the attempt with the smallest CAS time among attempts whose
  read happened after ``L``.
* ``q > 0``: event times are outcome-dependent, so a heap pops each
  process's pending CAS in time order and lazily schedules its next
  attempt.

The engine reconstructs the final shared memory (values *and* access
counters) in closed form from the per-process end state, for replicates
that carry one, so each replicate's schedule, completion times and final
memory are **bit-identical** to what ``Simulator.run_batched`` produces
for the same seed — enforced replicate-by-replicate in
``tests/sim/test_ensemble_equivalence.py``.

Resolution runs **fused** by default: replicates with the same resolver
shape (same ``q``, ``s``, resolver kind — process counts may differ) are
stacked into one long schedule, with each replicate's pids offset into a
private range and its steps occupying a private time window, and the
whole stack is resolved in a single pass of the very same resolvers.
Concatenation preserves the greedy semantics exactly — reads in a later
replicate are strictly after every earlier CAS, so each replicate's first
attempt sees a fresh register — making the fused outputs the
per-replicate outputs concatenated, bit for bit
(``tests/sim/test_ensemble_fused.py``).  The resolve pass runs on a
pluggable kernel (:mod:`repro.sim.kernels`): a compiled C/numba backend
when available, the pure-numpy oracle otherwise.

Crash schedules (halting failures, Corollary 2) are handled by **segmented
whole-schedule execution**: the horizon is split at the replicate's crash
boundaries, each segment's schedule is drawn with one ``select_batch``
call over the segment's active set (the same blocks — and therefore the
same RNG and scheduler-state consumption — that ``run_batched`` uses,
whose blocks never span a crash time), and the concatenated schedule is
resolved exactly as in the crash-free case.  That works because a crash
is pure schedule truncation: a crashed process simply stops appearing, so
its pending attempt never reaches its CAS (the pending CAS is dropped),
and the event-scan resolvers already treat an attempt cut short by the
horizon and one cut short by a crash identically; survivors' staleness
keeps being recomputed from the last committed value by the same greedy
scan.  Heterogeneous ensembles freely mix crashing and crash-free
replicates — equivalence is enforced across every scheduler family in
``tests/sim/test_ensemble_crash_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.executor import SimulationResult, validate_crash_times
from repro.sim.kernels import (
    get_kernel,
    resolve_flat,
    resolve_flat_stacked,
    resolve_heap,
    resolve_heap_stacked,
)
from repro.sim.memory import Memory
from repro.sim.trace import TraceRecorder

RngLike = Union[int, Tuple[int, ...], np.random.Generator, None]

_EMPTY = np.empty(0, dtype=np.int64)

#: ``fuse="auto"`` threshold for the numpy backend: below this many steps
#: per replicate, stacking wins (fewer python-level resolver passes);
#: above it, per-replicate arrays already amortize the pass overhead and
#: the stack's larger working set costs more than it saves (measured
#: crossover ~2-5k steps on the FIG5 shapes; see BENCH_PR7.json's
#: fused_sweep regression).  Compiled backends always profit from fusion
#: — their per-pass overhead is a single ctypes/jit call.
_AUTO_FUSE_NUMPY_MAX_STEPS = 4096


@dataclass
class EnsembleReplicate:
    """One member of an ensemble: a workload plus its independent state.

    ``kernel`` is an array-encodable step kernel — an object exposing
    ``q`` (preamble steps), ``s`` (scan steps) and ``commit(memory, *,
    seq, phase, success_pids, success_seqs)``, where ``memory`` may be
    ``None`` — see
    :class:`repro.algorithms.counter.CounterStepKernel` and
    :class:`repro.algorithms.scu.ScuStepKernel`.  Factories built with
    ``cas_counter()`` / ``scu_algorithm()`` carry their kernel as a
    ``vector_kernel`` attribute.

    Replicates are fully independent: each brings its own process count,
    scheduler instance (stateful schedulers must not be shared), memory
    and RNG seed, so heterogeneous ensembles (mixed ``n``, mixed
    ``(q, s)``, crashing next to crash-free) are just lists of these.
    The final memory is rebuilt into ``memory`` only when one is given;
    without it the outcome's ``memory`` is ``None`` and the kernel's
    ``commit`` has nothing to rebuild (measurements do not need it).
    ``crash_times`` is the executor's ``{pid: time}`` halting-failure map:
    the process crashes just before the step at that time would be taken
    (times outside ``[1, max_steps]`` never fire, exactly as in
    :class:`repro.sim.Simulator`).
    """

    kernel: Any
    n_processes: int
    scheduler: Any
    memory: Optional[Memory] = None
    rng: RngLike = None
    crash_times: Optional[Dict[int, int]] = None


@dataclass
class ReplicateOutcome:
    """Resolved results of one replicate — the ensemble-side analogue of
    :class:`repro.sim.SimulationResult`, with arrays instead of lists."""

    n_processes: int
    steps_executed: int
    completion_times: np.ndarray  # int64, 1-based step times, ascending
    completion_pids: np.ndarray  # int64, aligned with completion_times
    step_counts: np.ndarray  # (n,) steps taken per process
    memory: Optional[Memory]  # None when the replicate brought none
    schedule: Optional[np.ndarray] = None  # int32 pid sequence, if recorded
    #: True when the run ended before its step budget because every
    #: process crashed (the executor's no-active-process early stop).
    stopped_early: bool = False
    #: The ``max_steps`` the replicate was asked for; differs from
    #: ``steps_executed`` only when the run stopped early.  ``None`` on
    #: outcomes built by hand — treated as ``steps_executed``.
    horizon: Optional[int] = None

    @property
    def total_completions(self) -> int:
        return int(self.completion_times.shape[0])

    def completions_of(self, pid: int) -> int:
        return int(np.count_nonzero(self.completion_pids == pid))

    def recorder(self) -> TraceRecorder:
        """Materialize a :class:`TraceRecorder` equal to what the serial
        engines would have produced, so every existing estimator
        (``system_latency`` and friends) applies unchanged."""
        recorder = TraceRecorder(
            self.n_processes,
            record_schedule=self.schedule is not None,
            record_completion_times=True,
        )
        if self.schedule is not None and self.schedule.size:
            recorder.schedule.extend(self.schedule)
        recorder.completion_times = self.completion_times.tolist()
        recorder.completion_pids = self.completion_pids.tolist()
        completions = np.bincount(
            self.completion_pids, minlength=self.n_processes
        )
        recorder.completions = {
            pid: int(completions[pid]) for pid in range(self.n_processes)
        }
        recorder.steps = {
            pid: int(self.step_counts[pid]) for pid in range(self.n_processes)
        }
        recorder.total_steps = self.steps_executed
        return recorder

    def to_simulation_result(self) -> SimulationResult:
        """Repackage as a :class:`SimulationResult` (no history support)."""
        return SimulationResult(
            steps_executed=self.steps_executed,
            recorder=self.recorder(),
            memory=self.memory,
            history=None,
            stopped_early=self.stopped_early,
            steps_this_run=self.steps_executed,
            completions_this_run=self.total_completions,
        )

    def measurement(self, *, burn_in: Optional[int] = None) -> Any:
        """A :class:`~repro.core.latency.LatencyMeasurement` computed
        straight from the outcome arrays — no recorder materialization.

        Bit-identical to feeding :meth:`recorder` through the estimator
        functions: completion times are ascending int64, so the
        post-burn-in window is one ``searchsorted`` slice, per-pid
        first/last completions are two scatter passes, and every latency
        is the same ``int64 / int`` division the scalar estimators
        perform.  Raises the same errors in the same cases.
        """
        from repro.core.latency import (
            LatencyMeasurement,
            _no_repeat_completion_error,
        )

        if burn_in is None:
            # measure_latencies defaults its burn-in from the *requested*
            # step budget, before knowing whether the run stops early.
            requested = (
                self.horizon if self.horizon is not None else self.steps_executed
            )
            drop = requested // 10
        else:
            drop = burn_in
        times = self.completion_times
        pids = self.completion_pids
        cut = int(np.searchsorted(times, drop, side="right"))
        times = times[cut:]
        pids = pids[cut:]
        n = self.n_processes
        counts = np.bincount(pids, minlength=n)
        first = np.zeros(n, dtype=np.int64)
        last = np.zeros(n, dtype=np.int64)
        # Reverse scatter: the earliest occurrence wins the `first` slot.
        first[pids[::-1]] = times[::-1]
        last[pids] = times
        individual = {
            pid: float((last[pid] - first[pid]) / (int(counts[pid]) - 1))
            for pid in range(n)
            if counts[pid] >= 2
        }
        if not individual:
            raise _no_repeat_completion_error(n, self.steps_executed, drop)
        return LatencyMeasurement(
            n_processes=n,
            steps=self.steps_executed,
            burn_in=drop,
            total_completions=self.total_completions,
            system_latency=float(
                (times[-1] - times[0]) / (times.shape[0] - 1)
            ),
            individual=individual,
            completion_rate=self.total_completions / self.steps_executed,
        )


@dataclass
class EnsembleResult:
    """Results of an ensemble run, with vectorized metric accessors.

    The per-metric methods return ``(R,)`` arrays aligned with the
    replicate order; ``measurements`` reproduces
    :func:`repro.core.latency.measure_latencies` bit-for-bit by feeding
    each materialized recorder through the very same estimator functions.
    """

    replicates: List[ReplicateOutcome]

    def __len__(self) -> int:
        return len(self.replicates)

    def __iter__(self) -> Iterator[ReplicateOutcome]:
        return iter(self.replicates)

    def __getitem__(self, index: int) -> ReplicateOutcome:
        return self.replicates[index]

    def recorders(self) -> List[TraceRecorder]:
        return [outcome.recorder() for outcome in self.replicates]

    def total_completions(self) -> np.ndarray:
        return np.asarray(
            [outcome.total_completions for outcome in self.replicates],
            dtype=np.int64,
        )

    def completion_rates(self) -> np.ndarray:
        """Completions per step, per replicate (Appendix B's metric)."""
        return self.total_completions() / np.asarray(
            [outcome.steps_executed for outcome in self.replicates], dtype=np.int64
        )

    def system_latencies(self, *, burn_in: int = 0) -> np.ndarray:
        from repro.core.latency import system_latency

        return np.asarray(
            [
                system_latency(outcome.recorder(), burn_in=burn_in)
                for outcome in self.replicates
            ]
        )

    def fairness_ratios(self, *, burn_in: int = 0) -> np.ndarray:
        """Per-replicate ``max individual / (n * system)`` (Lemma 7)."""
        from repro.core.latency import individual_latencies, system_latency

        ratios = []
        for outcome in self.replicates:
            recorder = outcome.recorder()
            individual = individual_latencies(recorder, burn_in=burn_in)
            ratios.append(
                max(individual.values())
                / (outcome.n_processes * system_latency(recorder, burn_in=burn_in))
            )
        return np.asarray(ratios)

    def measurements(self, *, burn_in: Optional[int] = None) -> List[Any]:
        """One :class:`~repro.core.latency.LatencyMeasurement` per
        replicate, bit-identical to ``measure_latencies(..., batched=True)``
        with the same seed (``burn_in`` defaults to ``steps // 10``, as
        there).  Computed array-side (:meth:`ReplicateOutcome.measurement`)
        — no recorders are materialized."""
        return [
            outcome.measurement(burn_in=burn_in) for outcome in self.replicates
        ]


class EnsembleSimulator:
    """Runs R independent replicates of SCU-shaped workloads as array
    operations, bit-identical to ``Simulator.run_batched`` per replicate.

    Final memory is rebuilt only for replicates that carry one.

    Parameters
    ----------
    replicates:
        The ensemble members (:class:`EnsembleReplicate`).  Heterogeneous
        ensembles are fine — each replicate brings its own kernel,
        process count, scheduler and seed.
    record_schedule:
        Keep each replicate's full schedule (memory proportional to
        ``R * steps``).
    telemetry:
        Optional metrics registry (see :mod:`repro.core.telemetry`).
        ``None`` (the default) keeps the engine entirely
        telemetry-free; when given, per-replicate counters settle once
        per replicate after resolution — the array passes never see it
        and results are bit-identical either way.
    fuse:
        Stack same-shape replicates (same ``q``, ``s``, resolver kind)
        into one schedule and resolve the whole block in a single pass.
        ``"auto"`` (the default) fuses whenever the backend profits:
        compiled backends always, the numpy backend only below
        ``_AUTO_FUSE_NUMPY_MAX_STEPS`` steps per replicate — above that
        crossover the stack's larger working set costs numpy more than
        the saved passes (the BENCH_PR7 fused_sweep regression).
        ``True`` always fuses; ``False`` resolves replicates one at a
        time — the pre-fusion behavior, kept as the comparison
        baseline.  Results are bit-identical in every mode (see the
        module docstring).
    engine_kernel:
        Backend for the resolve pass — one of ``"auto"``
        (fastest available, the default), ``"compiled"`` (require
        numba/C, warn and fall back to numpy when absent), ``"numpy"``,
        ``"numba"`` or ``"cc"``.  See
        :mod:`repro.sim.kernels`.
    fuse_block_steps:
        Cap on the stacked schedule length per fused block.  It bounds
        the resolver's working-set memory for very large ensembles, and
        the default (1M steps) keeps a block's arrays inside the cache
        sizes where the vectorized passes are fastest — larger blocks
        amortize no further, they just stream more memory.  A single
        replicate longer than the cap still resolves (in a block of its
        own).
    The engine is **one-shot**: :meth:`run` may be called once (the
    resolution consumes the drawn schedules; there is no incremental
    process state to resume, unlike ``Simulator.run``).  Validation and
    planning errors inside :meth:`run` reset the guard — nothing has
    consumed RNG yet, so a failed build does not poison a retried
    ensemble.  Crash schedules are supported by segmented execution (see
    the module docstring); crash maps naming unknown pids are rejected
    at construction, exactly as :class:`repro.sim.Simulator` rejects
    them.
    """

    def __init__(
        self,
        replicates: Sequence[EnsembleReplicate],
        *,
        record_schedule: bool = False,
        telemetry: Optional[Any] = None,
        fuse: Union[bool, str] = "auto",
        engine_kernel: str = "auto",
        fuse_block_steps: int = 1_000_000,
        _resolver: str = "auto",
    ) -> None:
        members = list(replicates)
        if not members:
            raise ValueError("at least one replicate is required")
        if _resolver not in ("auto", "flat", "heap"):
            raise ValueError(f"unknown resolver {_resolver!r}")
        if fuse_block_steps < 1:
            raise ValueError("fuse_block_steps must be positive")
        if fuse not in (True, False, "auto"):
            raise ValueError(
                f"fuse must be True, False or 'auto', got {fuse!r}"
            )
        for index, member in enumerate(members):
            if member.crash_times:
                # Crash schedules over known pids are fully supported (the
                # segmented draw handles them); what remains rejected is
                # exactly what Simulator rejects — crash maps naming
                # processes the replicate does not have.
                try:
                    validate_crash_times(member.crash_times, member.n_processes)
                except ValueError as error:
                    raise ValueError(
                        f"replicate {index}: {error} "
                        f"(n_processes={member.n_processes}); crash schedules "
                        "over known pids run on the ensemble engine — fall "
                        "back to Simulator.run_batched only for workloads "
                        "without a vector kernel"
                    ) from None
            if member.n_processes < 1:
                raise ValueError(
                    f"replicate {index}: n_processes must be positive"
                )
            kernel = member.kernel
            for attr in ("q", "s", "commit"):
                if not hasattr(kernel, attr):
                    raise TypeError(
                        f"replicate {index}: kernel {kernel!r} does not expose "
                        f"{attr!r}; pass a step kernel such as "
                        "CounterStepKernel or ScuStepKernel (factories from "
                        "cas_counter()/scu_algorithm() carry one as "
                        "`.vector_kernel`)"
                    )
            if kernel.q < 0 or kernel.s < 1:
                raise ValueError(
                    f"replicate {index}: kernel needs q >= 0 and s >= 1, "
                    f"got q={kernel.q}, s={kernel.s}"
                )
        self.replicates = members
        self.record_schedule = record_schedule
        self.telemetry = telemetry
        self._resolver = _resolver
        self._fuse = fuse
        self._fuse_block_steps = fuse_block_steps
        self._kernel = get_kernel(engine_kernel)
        self._ran = False

    def run(self, max_steps: int) -> EnsembleResult:
        """Resolve ``max_steps`` steps of every replicate."""
        if max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self._ran:
            raise RuntimeError(
                f"EnsembleSimulator.run is one-shot and this "
                f"{len(self.replicates)}-replicate ensemble has already "
                "run; build a new EnsembleSimulator for another pass "
                "(construction is cheap — the fused path resolves whole "
                "replicate blocks in one vectorized pass) or use "
                "Simulator.run for incremental runs"
            )
        # Claim the guard before any RNG is consumed, but let pure
        # planning/validation failures release it: a plan error leaves
        # every replicate's RNG and scheduler state untouched, so
        # retrying the same ensemble is safe.  Once schedule drawing
        # starts, failures keep the guard — a partial draw has consumed
        # RNG, and a silent retry would produce different replicates.
        self._ran = True
        try:
            plan = self._plan_resolvers()
        except Exception:
            self._ran = False
            raise
        fuse = self._fuse
        if fuse == "auto":
            fuse = self._auto_fuse(self._kernel.name, max_steps)
        if not fuse:
            return EnsembleResult(
                [
                    self._run_replicate(member, max_steps, use_flat)
                    for member, use_flat in zip(self.replicates, plan)
                ]
            )
        return self._run_fused(plan, max_steps)

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _auto_fuse(kernel_name: str, max_steps: int) -> bool:
        """The ``fuse="auto"`` decision, pinned by the fused test suite.

        Numpy pays per *pass*, not per call, so stacking only wins while
        replicates are small; compiled backends always profit (their
        per-call overhead is one ctypes/jit entry).  The boundary is the
        measured FIG5-shape crossover (see ``_AUTO_FUSE_NUMPY_MAX_STEPS``).
        """
        if kernel_name == "numpy":
            return max_steps < _AUTO_FUSE_NUMPY_MAX_STEPS
        return True

    def _plan_resolvers(self) -> List[bool]:
        """Pick the resolver per replicate; pure validation, no RNG."""
        plan = []
        for member in self.replicates:
            kernel = member.kernel
            use_flat = (
                kernel.q == 0
                if self._resolver == "auto"
                else self._resolver == "flat"
            )
            if use_flat and kernel.q != 0:
                raise ValueError("the flat resolver requires q == 0")
            plan.append(use_flat)
        return plan

    def _run_replicate(
        self, member: EnsembleReplicate, max_steps: int, use_flat: bool
    ) -> ReplicateOutcome:
        n = member.n_processes
        rng = (
            member.rng
            if isinstance(member.rng, np.random.Generator)
            else np.random.default_rng(member.rng)
        )
        schedule, stopped_early, segments = self._draw_schedule(
            member.scheduler, n, rng, max_steps, member.crash_times
        )
        kernel = member.kernel
        if use_flat:
            resolved = resolve_flat(schedule, n, kernel.s, self._kernel)
        else:
            resolved = resolve_heap(schedule, n, kernel.q, kernel.s, self._kernel)
        return self._finish_replicate(
            member, max_steps, schedule, resolved, stopped_early, segments
        )

    def _run_fused(self, plan: List[bool], max_steps: int) -> EnsembleResult:
        """Group same-shape replicates and resolve them block by block.

        Schedules are drawn first, in replicate order — the identical
        RNG/scheduler consumption as the per-replicate path (replicates
        sharing a Generator instance stay bit-identical).  Resolution
        then proceeds group-major: every replicate with the same
        ``(resolver, q, s)`` shape lands in the same group, split into
        blocks of at most ``fuse_block_steps`` stacked steps.
        """
        members = self.replicates
        draws = [
            self._draw_schedule(
                member.scheduler,
                member.n_processes,
                (
                    member.rng
                    if isinstance(member.rng, np.random.Generator)
                    else np.random.default_rng(member.rng)
                ),
                max_steps,
                member.crash_times,
            )
            for member in members
        ]
        blocks = self._pack_blocks(plan, draws)
        outcomes: List[Optional[ReplicateOutcome]] = [None] * len(members)
        for indices, use_flat, q, s in blocks:
            self._resolve_block(indices, draws, use_flat, q, s, max_steps, outcomes)
        return EnsembleResult(outcomes)  # type: ignore[arg-type]

    def _pack_blocks(
        self,
        plan: List[bool],
        draws: List[Tuple[np.ndarray, bool, int]],
    ) -> List[Tuple[List[int], bool, int, int]]:
        """Group same-shape replicates and greedy-pack them into blocks.

        Returns ``(indices, use_flat, q, s)`` per block, each block at
        most ``fuse_block_steps`` stacked steps (a single replicate larger
        than the cap still forms a block of its own — blocks never split
        a replicate).
        """
        cap = self._fuse_block_steps
        groups: Dict[Tuple[bool, int, int], List[int]] = {}
        for index, (member, use_flat) in enumerate(zip(self.replicates, plan)):
            key = (use_flat, int(member.kernel.q), int(member.kernel.s))
            groups.setdefault(key, []).append(index)
        blocks: List[Tuple[List[int], bool, int, int]] = []
        for (use_flat, q, s), indices in groups.items():
            start = 0
            while start < len(indices):
                stop = start + 1
                block_steps = draws[indices[start]][0].shape[0]
                while stop < len(indices) and (
                    block_steps + draws[indices[stop]][0].shape[0] <= cap
                ):
                    block_steps += draws[indices[stop]][0].shape[0]
                    stop += 1
                blocks.append((indices[start:stop], use_flat, q, s))
                start = stop
        return blocks

    def _resolve_block(
        self,
        indices: List[int],
        draws: List[Tuple[np.ndarray, bool, int]],
        use_flat: bool,
        q: int,
        s: int,
        max_steps: int,
        outcomes: List[Optional[ReplicateOutcome]],
    ) -> None:
        """Stack one block of same-shape replicates, resolve, split back.

        Replicate ``k`` of the block occupies pids ``[pid_base[k],
        pid_base[k+1])`` and schedule positions ``[time_base[k],
        time_base[k+1])`` of the stack.  Successes come out ordered by
        (global) CAS position, so a ``searchsorted`` on the time bases
        splits them back per replicate; per-pid end state splits by the
        pid bases.
        """
        members = self.replicates
        scheds = [draws[i][0] for i in indices]
        n_values = [members[i].n_processes for i in indices]
        pid_base = np.concatenate(([0], np.cumsum(n_values))).astype(np.int64)
        time_base = np.concatenate(
            ([0], np.cumsum([sched.shape[0] for sched in scheds]))
        ).astype(np.int64)
        if len(indices) == 1:
            stacked = scheds[0]
        else:
            stacked = np.empty(int(time_base[-1]), dtype=np.int64)
            for k, sched in enumerate(scheds):
                np.add(
                    sched,
                    pid_base[k],
                    out=stacked[time_base[k] : time_base[k + 1]],
                )
        if use_flat:
            resolved = resolve_flat_stacked(stacked, pid_base, s, self._kernel)
        else:
            resolved = resolve_heap_stacked(stacked, pid_base, q, s, self._kernel)

        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.inc("ensemble.fused_blocks")
            telemetry.inc("ensemble.fused_replicates", len(indices))
            telemetry.inc("ensemble.fused_steps", int(time_base[-1]))

        succ_cols, succ_pids, succ_seqs, seq, phase, counts = resolved
        bounds = np.searchsorted(succ_cols, time_base)
        for k, index in enumerate(indices):
            span = slice(int(bounds[k]), int(bounds[k + 1]))
            pids = slice(int(pid_base[k]), int(pid_base[k + 1]))
            local = (
                succ_cols[span] - time_base[k],
                succ_pids[span] - pid_base[k],
                succ_seqs[span],
                seq[pids],
                phase[pids],
                counts[pids],
            )
            schedule, stopped_early, segments = draws[index]
            outcomes[index] = self._finish_replicate(
                members[index], max_steps, schedule, local, stopped_early, segments
            )

    def _finish_replicate(
        self,
        member: EnsembleReplicate,
        max_steps: int,
        schedule: np.ndarray,
        resolved: Tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
        ],
        stopped_early: bool,
        segments: int,
    ) -> ReplicateOutcome:
        """Finish a resolved replicate: memory (if any), telemetry, outcome."""
        n = member.n_processes
        executed = int(schedule.shape[0])
        succ_cols, succ_pids, succ_seqs, seq, phase, counts = resolved
        memory = member.memory
        member.kernel.commit(
            memory,
            seq=seq,
            phase=phase,
            success_pids=succ_pids,
            success_seqs=succ_seqs,
        )
        if memory is not None:
            memory.total_operations += executed
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            wins = int(succ_cols.shape[0])
            crashes_fired = sum(
                1
                for crash_time in (member.crash_times or {}).values()
                if 1 <= crash_time <= max_steps
            )
            telemetry.inc("ensemble.replicates")
            telemetry.inc("ensemble.steps", executed)
            telemetry.inc("ensemble.completions", wins)
            telemetry.inc("ensemble.cas_wins", wins)
            telemetry.inc("ensemble.cas_losses", int(seq.sum()) - wins)
            telemetry.inc("ensemble.segments", segments)
            telemetry.inc("ensemble.crashes", crashes_fired)
            telemetry.emit(
                "sim.run",
                {
                    "engine": "ensemble",
                    "n_processes": n,
                    "steps": executed,
                    "completions": wins,
                    "step_counts": counts.astype(np.int64).tolist(),
                },
            )
        return ReplicateOutcome(
            n_processes=n,
            steps_executed=executed,
            completion_times=succ_cols + 1,  # executor time is 1-based
            completion_pids=np.ascontiguousarray(succ_pids, dtype=np.int64),
            step_counts=counts.astype(np.int64),
            memory=memory,
            schedule=schedule.astype(np.int32) if self.record_schedule else None,
            stopped_early=stopped_early,
            horizon=max_steps,
        )

    @staticmethod
    def _draw_schedule(
        scheduler: Any,
        n: int,
        rng: np.random.Generator,
        max_steps: int,
        crash_times: Optional[Dict[int, int]] = None,
    ) -> Tuple[np.ndarray, bool, int]:
        """Draw the whole schedule through the ``select_batch`` protocol.

        Element ``k`` of a batch corresponds to absolute time ``start + k``,
        and batched draws consume the RNG stream element-wise identically
        to sequential ``select`` calls, so one full-length draw matches
        ``run_batched``'s chunked draws bit for bit (chunk-size
        independence is part of the PR 1 protocol contract).

        With crashes the horizon is split at the crash boundaries and each
        segment is drawn over its own active set — exactly the block
        structure ``run_batched`` uses, whose blocks never span a crash
        time.  Returns the concatenated schedule, a flag that is True
        when the run ended early because every process crashed, and the
        number of segments drawn.
        """
        if max_steps == 0:
            return np.empty(0, dtype=np.int64), False, 0
        if getattr(scheduler, "observe_pending", None) is not None:
            raise ValueError(
                f"{type(scheduler).__name__} consumes per-step contention "
                "state (observe_pending); a whole-schedule draw cannot "
                "honour it — use the serial or batched engine"
            )
        select_batch = getattr(scheduler, "select_batch", None)

        def draw(start: int, active: List[int], length: int) -> np.ndarray:
            if select_batch is not None:
                pids = np.asarray(select_batch(start, active, rng, length))
            else:
                pids = np.asarray(
                    [
                        scheduler.select(start + k, active, rng)
                        for k in range(length)
                    ],
                    dtype=np.int64,
                )
            if pids.shape != (length,):
                raise RuntimeError(
                    f"scheduler returned {pids.shape} selections for a "
                    f"{length}-step block"
                )
            if len(active) == n:
                invalid = (pids < 0) | (pids >= n)
            else:
                invalid = ~np.isin(pids, np.asarray(active, dtype=np.int64))
            if invalid.any():
                position = int(np.argmax(invalid))
                raise RuntimeError(
                    f"scheduler selected inactive process "
                    f"{int(pids[position])} at t={start + position} "
                    f"(active: {active[:10]}"
                    f"{'...' if len(active) > 10 else ''})"
                )
            return pids.astype(np.int64)

        # A crash fires just before the step at its time would be taken;
        # times outside [1, max_steps] never fire (Simulator semantics).
        crashes: Dict[int, List[int]] = {}
        for pid, crash_time in (crash_times or {}).items():
            if 1 <= crash_time <= max_steps:
                crashes.setdefault(crash_time, []).append(pid)
        if not crashes:
            return draw(1, list(range(n)), max_steps), False, 1

        alive = set(range(n))
        active = sorted(alive)
        chunks: List[np.ndarray] = []
        time = 1
        stopped_early = False
        for boundary in sorted(crashes):
            if boundary > time:
                chunks.append(draw(time, active, boundary - time))
                time = boundary
            alive.difference_update(crashes[boundary])
            active = sorted(alive)
            if not active:
                # Crash containment emptied A_tau: the run ends with the
                # boundary - 1 steps already drawn, matching run_batched's
                # no-active-process early stop.
                stopped_early = True
                break
        else:
            chunks.append(draw(time, active, max_steps - time + 1))
        if not chunks:
            return np.empty(0, dtype=np.int64), stopped_early, 0
        return np.concatenate(chunks), stopped_early, len(chunks)
