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
its next read.  The compiled cc kernel (:mod:`repro.sim.kernels`) runs
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
``tests/sim/test_ensemble_equivalence.py``.  Seeds are numpy's too: a
replicate whose ``rng`` is an ``int`` or a tuple of non-negative
``int`` (the sweeps pass ``(seed, n, r)``) starts from the PCG64 state
``np.random.default_rng(seed)`` would, computed for all of a run's
replicates in one compiled pass (:func:`repro.sim.kernels.pcg64_seed_states`)
and loaded into one reused generator; a ``Generator`` replicate draws
from itself, and other seeds (or a host without the cc library) go
through ``default_rng``.

Resolution is **block-stacked**: replicates with the same resolver shape
(same ``q``, ``s``, resolver kind — process counts may differ) are
stacked into one long schedule, with each replicate's pids offset into a
private range and its steps occupying a private time window, and the
whole stack is resolved in a single pass of the very same resolvers.
Concatenation preserves the greedy semantics exactly — reads in a later
replicate are strictly after every earlier CAS, so each replicate's first
attempt sees a fresh register — making the stacked outputs the
per-replicate outputs concatenated, bit for bit
(``tests/sim/test_ensemble_fused.py``).  How many replicates share a
block follows from the kernel, not from a setting: the cc backend
stacks up to ``_BLOCK_STEPS`` steps, the numpy flat resolver stacks only
short replicates, and the numpy heap resolver takes one replicate per
block (see ``EnsembleSimulator._block_capacity``).  The resolve pass
runs on a pluggable kernel (:mod:`repro.sim.kernels`): the compiled C
backend when available, the pure-numpy oracle otherwise.
Draw lengths depend only on the crash maps and the horizon, so the
stacks are laid out before anything is drawn and each replicate's draw
is added, pid offset included, straight into its slot: the stack build
is the draw's only copy.  Measurements are taken a block at a time too
(:meth:`EnsembleResult.measurements`), from the same arrays the
outcomes' completion times and pids are views of.

Buffer ownership: a run needs int64 memory for the block stacks and
the kernels' success rows, and both sizes follow from the plan before
anything is drawn.  Without a workspace (or past its cap) the run maps
them for itself, the stacks and the success rows in two private
anonymous mappings of plain pages (``_mapped``), and its result keeps
only the rows its outcomes' completion arrays are views of.  With an
:class:`EnsembleWorkspace` (sweeps keep one per thread)
both are carved out of the workspace's kept buffer, so steady-state
runs map no new pages; the result's views then hold its numbers only
until the workspace's next run, and measuring a result (or an outcome)
after that raises instead of reading the later run's numbers.

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

import mmap
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.executor import SimulationResult, validate_crash_times
from repro.sim.kernels import (
    get_kernel,
    pcg64_seed_states,
    resolve_flat,
    resolve_heap,
    success_capacity,
)

# Bound here, unused, so that code wrapping this module's resolver names
# (perfbench's tracer wraps all four) finds the stacked variants too.
from repro.sim.kernels import resolve_flat_stacked, resolve_heap_stacked  # noqa: F401
from repro.sim.memory import Memory
from repro.sim.trace import TraceRecorder

RngLike = Union[int, Tuple[int, ...], np.random.Generator, None]

#: Cap on a block's stacked schedule length.  It bounds the resolver's
#: working-set memory for very large ensembles and keeps a block's arrays
#: inside the cache sizes where the passes are fastest — larger blocks
#: amortize no further, they just stream more memory.  A single replicate
#: longer than the cap still resolves, in a block of its own.
_BLOCK_STEPS = 1_000_000

#: The numpy flat (``q == 0``) resolver stacks replicates only below this
#: many steps each.  Stacking saves Python-level passes while replicates
#: are short; past it the stack's larger working set costs more than the
#: saved passes (CPU-time ratio stacked/per-replicate: 0.71 at 256 x 1k,
#: 0.79 at 64 x 2k, 1.31 at 16 x 20k).  The numpy heap resolver is a
#: per-event Python loop that gains nothing from stacking (1.37-1.59 on
#: the same grids), so it never stacks; the cc backend always does.
_NUMPY_FLAT_STACK_MAX_STEPS = 4096

#: The most an :class:`EnsembleWorkspace` holds.  A workspace exists to
#: serve repeated sweeps of one size without re-faulting their pages,
#: not to pin the memory of a one-off large run: a run needing more
#: allocates its buffers for itself.  A Figure 5 CAS grid (5 points x
#: 16 replicates x 20k steps) needs ~32 MiB.
_WORKSPACE_CAP_BYTES = 64 << 20

_EMPTY = np.empty(0, dtype=np.int64)


class EnsembleWorkspace:
    """Working memory for :class:`EnsembleSimulator` runs, kept across runs.

    One int64 buffer holds a run's schedule stacks (all blocks) followed
    by the kernels' success rows (``(3, success_capacity)`` per block).
    A run given the workspace (``EnsembleSimulator(..., workspace=ws)``)
    carves every block's stack and success rows out of it, so repeated
    runs of the same size reuse memory whose pages are already mapped
    instead of allocating (and page-faulting) it afresh.  The buffer is
    sized exactly from a run's plan: a run that needs more than it
    holds drops it and maps exactly what it needs; a run that needs
    less uses a prefix.  A run needing more than
    ``_WORKSPACE_CAP_BYTES`` leaves the workspace untouched and
    allocates for itself, so the workspace never holds more than the
    cap.

    The caller owns the workspace, and a run's results are views into
    it: outcomes' ``completion_times``/``completion_pids`` hold its
    numbers only until the workspace runs again.  ``generation`` counts
    the runs it served; measuring an outcome (or materializing its
    recorder) from an earlier generation raises :class:`RuntimeError`
    instead of reading overwritten numbers.  A workspace is not
    thread-safe: give each thread its own.
    """

    def __init__(self) -> None:
        self._buffer = _EMPTY
        self.generation = 0

    @property
    def nbytes(self) -> int:
        """Bytes currently held."""
        return self._buffer.nbytes

    def release(self) -> None:
        """Let the buffer go; the next run maps afresh."""
        self._buffer = _EMPTY

    def _claim(self, length: int) -> Optional[np.ndarray]:
        """Start a run: an exact-length view of the buffer, or ``None``
        (nothing claimed) for a run larger than the cap."""
        if 8 * length > _WORKSPACE_CAP_BYTES:
            return None
        self.generation += 1
        if self._buffer.shape[0] < length:
            self._buffer = _EMPTY
            self._buffer = _mapped(length)
        return self._buffer[:length]


def _mapped(length: int) -> np.ndarray:
    """``length`` int64s in an anonymous mapping of their own.

    numpy advises huge pages for large arrays, and a success row is
    written only up to its run's success count, so whole 2 MiB pages
    of a sparsely written row would stay resident in a kept buffer;
    plain pages keep resident only what runs write.  The mapping is
    private (``mmap``'s default is shared), so a forked worker writes
    its own copy, and it goes back to the OS when the last view of it
    is dropped.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):  # pragma: no cover — non-POSIX
        return np.empty(length, dtype=np.int64)
    region = mmap.mmap(-1, max(length, 1) * 8, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(region, dtype=np.int64)[:length]


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
    :class:`repro.sim.SimulationResult`, with arrays instead of lists.

    An outcome of a run given an :class:`EnsembleWorkspace` keeps the
    workspace and its generation (``_workspace``, ``_generation``): its
    completion arrays are views into the workspace, valid until the
    workspace runs again, and :meth:`recorder`, :meth:`measurement` and
    :meth:`EnsembleResult.measurements` raise :class:`RuntimeError`
    after that.
    """

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
    _workspace: Optional[EnsembleWorkspace] = field(
        default=None, repr=False, compare=False
    )
    _generation: int = field(default=0, repr=False, compare=False)

    def _check_fresh(self) -> None:
        """Raise if a later run of this outcome's workspace has
        overwritten its completion arrays."""
        workspace = self._workspace
        if workspace is not None and workspace.generation != self._generation:
            raise RuntimeError(
                f"this ensemble outcome is stale: its completion arrays are "
                f"views into an EnsembleWorkspace that was reused by a later "
                f"run (outcome generation {self._generation}, workspace "
                f"generation {workspace.generation}), so they now hold that "
                "run's numbers; take measurements before the workspace runs "
                "again, or give runs whose results must outlive it their own "
                "workspace"
            )

    @property
    def total_completions(self) -> int:
        return int(self.completion_times.shape[0])

    def completions_of(self, pid: int) -> int:
        return int(np.count_nonzero(self.completion_pids == pid))

    def recorder(self) -> TraceRecorder:
        """Materialize a :class:`TraceRecorder` equal to what the serial
        engines would have produced, so every existing estimator
        (``system_latency`` and friends) applies unchanged."""
        self._check_fresh()
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
        functions, and raises the same errors in the same cases; this
        is :meth:`EnsembleResult.measurements` on a one-replicate block.
        """
        return EnsembleResult([self]).measurements(burn_in=burn_in)[0]


@dataclass
class _ResolvedBlock:
    """The completions of one stacked block, in replicate-local terms.

    Replicate ``k`` of the block is ensemble replicate ``indices[k]``;
    its completions are ``times[bounds[k]:bounds[k + 1]]`` (1-based
    local step times, ascending) and the aligned local ``pids``, and it
    owns global pids ``[pid_base[k], pid_base[k + 1])`` of the block.
    The outcomes' ``completion_times``/``completion_pids`` are views of
    these arrays.
    """

    indices: List[int]
    bounds: np.ndarray
    pid_base: np.ndarray
    times: np.ndarray
    pids: np.ndarray

    @classmethod
    def of(cls, index: int, outcome: ReplicateOutcome) -> "_ResolvedBlock":
        """A one-replicate block over an outcome's own arrays."""
        return cls(
            [index],
            np.asarray([0, outcome.total_completions], dtype=np.int64),
            np.asarray([0, outcome.n_processes], dtype=np.int64),
            np.asarray(outcome.completion_times),
            np.asarray(outcome.completion_pids),
        )

    def measure(
        self, outcomes: List[ReplicateOutcome], burn_in: Optional[int]
    ) -> List[Any]:
        """One measurement per replicate of the block, or the no-repeat
        :class:`ValueError` it would raise, from whole-block passes.

        A replicate keeps its completions after its burn-in, which is a
        suffix of its span; dropped completions are moved to a spare
        global pid ``N``, so one ``bincount`` and two scatters over the
        whole block give every process's count and first/last kept
        completion.  Latencies are the ``int64 / int64`` divisions the
        scalar estimators perform, so the results are bit-identical.
        """
        from repro.core.latency import (
            LatencyMeasurement,
            _no_repeat_completion_error,
        )

        members = [outcomes[index] for index in self.indices]
        drops = []
        for outcome in members:
            if burn_in is None:
                # measure_latencies defaults its burn-in from the
                # *requested* step budget, before knowing whether the run
                # stops early.
                requested = (
                    outcome.horizon
                    if outcome.horizon is not None
                    else outcome.steps_executed
                )
                drops.append(requested // 10)
            else:
                drops.append(burn_in)
        times = self.times
        bounds = self.bounds.tolist()
        pid_base = self.pid_base
        n_total = int(pid_base[-1])
        owners = np.empty(times.shape[0], dtype=np.int64)
        cuts = []
        for k, drop in enumerate(drops):
            start, stop = bounds[k], bounds[k + 1]
            cut = start + int(times[start:stop].searchsorted(drop, side="right"))
            cuts.append(cut)
            owners[start:cut] = n_total
            np.add(self.pids[cut:stop], pid_base[k], out=owners[cut:stop])
        counts = np.bincount(owners, minlength=n_total + 1)[:n_total]
        first = np.zeros(n_total + 1, dtype=np.int64)
        last = np.zeros(n_total + 1, dtype=np.int64)
        # Reverse scatter: the earliest occurrence wins the `first` slot.
        first[owners[::-1]] = times[::-1]
        last[owners] = times
        repeated = np.flatnonzero(counts >= 2)
        latencies = (
            (last[repeated] - first[repeated]) / (counts[repeated] - 1)
        ).tolist()
        split = np.searchsorted(repeated, pid_base).tolist()
        local_pids = (
            repeated - np.repeat(pid_base[:-1], np.diff(split))
        ).tolist()

        results: List[Any] = []
        for k, (outcome, drop) in enumerate(zip(members, drops)):
            n = outcome.n_processes
            if split[k] == split[k + 1]:
                results.append(
                    _no_repeat_completion_error(n, outcome.steps_executed, drop)
                )
                continue
            cut, stop = cuts[k], bounds[k + 1]
            total = bounds[k + 1] - bounds[k]
            results.append(
                LatencyMeasurement(
                    n_processes=n,
                    steps=outcome.steps_executed,
                    burn_in=drop,
                    total_completions=total,
                    system_latency=float(
                        (times[stop - 1] - times[cut]) / (stop - cut - 1)
                    ),
                    individual=dict(
                        zip(
                            local_pids[split[k] : split[k + 1]],
                            latencies[split[k] : split[k + 1]],
                        )
                    ),
                    completion_rate=total / outcome.steps_executed,
                )
            )
        return results


@dataclass
class EnsembleResult:
    """Results of an ensemble run, one outcome per replicate.

    ``measurements`` reproduces :func:`repro.core.latency.measure_latencies`
    bit-for-bit straight from the outcome arrays; per-replicate recorders
    are available from :meth:`ReplicateOutcome.recorder`.  ``_blocks``
    are the resolved stacks the outcomes' completion arrays are views
    of (empty on a result built by hand: each replicate then measures
    as a block of its own).  The arrays of a run given an
    :class:`EnsembleWorkspace` are views into it, valid until the
    workspace runs again (see :class:`ReplicateOutcome`).
    """

    replicates: List[ReplicateOutcome]
    _blocks: List[_ResolvedBlock] = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.replicates)

    def __iter__(self) -> Iterator[ReplicateOutcome]:
        return iter(self.replicates)

    def __getitem__(self, index: int) -> ReplicateOutcome:
        return self.replicates[index]

    def measurements(self, *, burn_in: Optional[int] = None) -> List[Any]:
        """One :class:`~repro.core.latency.LatencyMeasurement` per
        replicate, bit-identical to ``measure_latencies(..., batched=True)``
        with the same seed (``burn_in`` defaults to ``steps // 10``, as
        there).  Computed array-side, once per resolved block
        (:meth:`_ResolvedBlock.measure`) — no recorders are materialized.
        A replicate with no process completing twice raises, the first
        such replicate in replicate order, and so does a result whose
        workspace has run again since (:class:`RuntimeError`)."""
        outcomes = self.replicates
        for outcome in outcomes:
            outcome._check_fresh()
        blocks = self._blocks or [
            _ResolvedBlock.of(index, outcome)
            for index, outcome in enumerate(outcomes)
        ]
        results: List[Any] = [None] * len(outcomes)
        for block in blocks:
            for index, result in zip(
                block.indices, block.measure(outcomes, burn_in)
            ):
                results[index] = result
        for result in results:
            if isinstance(result, ValueError):
                raise result
        return results


@dataclass
class _Stack:
    """A block's layout: which replicates, their bases, its buffers.

    Replicate ``k`` of the block occupies pids ``[pid_base[k],
    pid_base[k+1])`` and schedule positions ``[time_base[k],
    time_base[k+1])`` of ``sched``.  ``sched`` (``steps`` long) and the
    kernel's ``(3, successes)`` success rows ``succ`` are carved out of
    the run's memory by :meth:`EnsembleSimulator._carve`.
    """

    indices: List[int]
    use_flat: bool
    q: int
    s: int
    pid_base: np.ndarray
    time_base: np.ndarray
    sched: Optional[np.ndarray] = None
    succ: Optional[np.ndarray] = None

    @classmethod
    def layout(
        cls,
        indices: List[int],
        use_flat: bool,
        q: int,
        s: int,
        n_values: List[int],
        lengths: List[int],
    ) -> "_Stack":
        pid_base = np.concatenate(([0], np.cumsum(n_values))).astype(np.int64)
        time_base = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        return cls(indices, use_flat, q, s, pid_base, time_base)

    @property
    def steps(self) -> int:
        return int(self.time_base[-1])

    @property
    def successes(self) -> int:
        return success_capacity(self.steps, self.q, self.s)


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
    engine_kernel:
        Backend for the resolve pass — one of ``"auto"`` (cc when
        available, else numpy; the default), ``"numpy"`` or ``"cc"``.
        See :mod:`repro.sim.kernels`.  The backend also decides how many
        same-shape replicates share one stacked block (see the module
        docstring); results are bit-identical on every backend.
    workspace:
        Optional :class:`EnsembleWorkspace` to carve the block stacks and
        success rows from.  ``None`` (the default) allocates them for
        this run alone.  With a workspace the result's arrays are views
        into it, valid until the workspace's next run.

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
        engine_kernel: str = "auto",
        workspace: Optional[EnsembleWorkspace] = None,
        _resolver: str = "auto",
    ) -> None:
        members = list(replicates)
        if not members:
            raise ValueError("at least one replicate is required")
        if _resolver not in ("auto", "flat", "heap"):
            raise ValueError(f"unknown resolver {_resolver!r}")
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
        self._kernel = get_kernel(engine_kernel)
        self._workspace = workspace
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
                "(construction is cheap — whole replicate blocks resolve "
                "in one vectorized pass) or use "
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
            plans = [
                _plan_segments(member.n_processes, max_steps, member.crash_times)
                for member in self.replicates
            ]
            stacks = self._pack_blocks(
                plan,
                [sum(length for _, _, length in segs) for segs, _ in plans],
                max_steps,
            )
            workspace = self._carve(stacks)
        except Exception:
            self._ran = False
            raise
        # Draw lengths follow from the crash maps alone, so every block's
        # stack is laid out before drawing.  Schedules are then drawn in
        # replicate order — replicates sharing a Generator instance
        # consume it exactly as run_batched would — each straight into
        # its slot of its block's stack.  A zero-step run draws nothing.
        slots: Dict[int, Tuple[_Stack, int]] = {
            index: (stack, k)
            for stack in stacks
            for k, index in enumerate(stack.indices)
        }
        members = self.replicates if max_steps else []
        rngs = _replicate_rngs([member.rng for member in members])
        for index, (member, rng) in enumerate(zip(members, rngs)):
            stack, k = slots[index]
            self._draw_schedule(
                member.scheduler,
                member.n_processes,
                rng,
                plans[index][0],
                stack.sched[stack.time_base[k] : stack.time_base[k + 1]],
                int(stack.pid_base[k]),
            )
        outcomes: List[Optional[ReplicateOutcome]] = [None] * len(plans)
        blocks = [
            self._resolve_block(stack, plans, max_steps, outcomes)
            for stack in stacks
        ]
        result = EnsembleResult(outcomes, blocks)  # type: ignore[arg-type]
        if workspace is not None:
            for outcome in result.replicates:
                outcome._workspace = workspace
                outcome._generation = workspace.generation
        return result

    # -- internals ---------------------------------------------------------------

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

    def _block_capacity(self, use_flat: bool, max_steps: int) -> int:
        """Stacked steps one block of this resolver may hold.

        The cc backend pays one ctypes entry per block, so it
        stacks up to ``_BLOCK_STEPS``.  The numpy flat resolver stacks
        below ``_NUMPY_FLAT_STACK_MAX_STEPS`` steps per replicate; the
        numpy heap resolver, and numpy flat past that length, get
        capacity 0: one replicate per block.
        """
        if self._kernel.name != "numpy":
            return _BLOCK_STEPS
        if use_flat and max_steps < _NUMPY_FLAT_STACK_MAX_STEPS:
            return _BLOCK_STEPS
        return 0

    def _pack_blocks(
        self, plan: List[bool], lengths: List[int], max_steps: int
    ) -> List[_Stack]:
        """Group same-shape replicates and greedy-pack them into blocks.

        Each block is at most :meth:`_block_capacity` stacked steps (a
        single replicate larger than the capacity still forms a block of
        its own — blocks never split a replicate).  Only the layout is
        made here; :meth:`_carve` gives the blocks their buffers.
        """
        groups: Dict[Tuple[bool, int, int], List[int]] = {}
        for index, (member, use_flat) in enumerate(zip(self.replicates, plan)):
            key = (use_flat, int(member.kernel.q), int(member.kernel.s))
            groups.setdefault(key, []).append(index)
        stacks: List[_Stack] = []
        for (use_flat, q, s), indices in groups.items():
            cap = self._block_capacity(use_flat, max_steps)
            start = 0
            while start < len(indices):
                stop = start + 1
                block_steps = lengths[indices[start]]
                while stop < len(indices) and (
                    block_steps + lengths[indices[stop]] <= cap
                ):
                    block_steps += lengths[indices[stop]]
                    stop += 1
                block = indices[start:stop]
                stacks.append(
                    _Stack.layout(
                        block,
                        use_flat,
                        q,
                        s,
                        [self.replicates[i].n_processes for i in block],
                        [lengths[i] for i in block],
                    )
                )
                start = stop
        return stacks

    def _carve(self, stacks: List[_Stack]) -> Optional[EnsembleWorkspace]:
        """Give every block its stack and success rows; return the
        workspace they were carved from, or ``None`` when this run
        allocated its own (no workspace given, or the run exceeds its
        cap).

        The plan fixes both sizes before anything is drawn: stack
        lengths follow from the crash maps, success rows from each
        block's steps and ``(q, s)``.
        """
        steps = sum(stack.steps for stack in stacks)
        slots = 3 * sum(stack.successes for stack in stacks)
        workspace = self._workspace
        buffer = None if workspace is None else workspace._claim(steps + slots)
        if buffer is None:
            # A one-shot run maps its own memory: the stacks apart from
            # the success rows, so that a result keeps only the rows.
            workspace = None
            sched, succ = _mapped(steps), _mapped(slots)
        else:
            sched, succ = buffer[:steps], buffer[steps:]
        step = slot = 0
        for stack in stacks:
            stack.sched = sched[step : step + stack.steps]
            step += stack.steps
            width = stack.successes
            stack.succ = succ[slot : slot + 3 * width].reshape(3, width)
            slot += 3 * width
        return workspace

    def _resolve_block(
        self,
        stack: _Stack,
        plans: List[Tuple[List[Tuple[int, Sequence[int], int]], bool]],
        max_steps: int,
        outcomes: List[Optional[ReplicateOutcome]],
    ) -> _ResolvedBlock:
        """Resolve one filled stack and split it back per replicate.

        Successes come out ordered by (global) CAS position, so a
        ``searchsorted`` on the time bases splits them per replicate;
        per-pid end state splits by the pid bases.  The kernel's success
        columns and pids are turned into replicate-local completion
        times and pids in place, and each outcome keeps views of them.
        """
        time_base, pid_base = stack.time_base, stack.pid_base
        n = int(pid_base[-1])
        if stack.use_flat:
            resolved = resolve_flat(
                stack.sched, n, stack.s, self._kernel, out=stack.succ
            )
        else:
            resolved = resolve_heap(
                stack.sched, n, stack.q, stack.s, self._kernel, out=stack.succ
            )

        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.inc("ensemble.fused_blocks")
            telemetry.inc("ensemble.fused_replicates", len(stack.indices))
            telemetry.inc("ensemble.fused_steps", int(time_base[-1]))

        times, pids, succ_seqs, seq, phase, counts = resolved
        bounds = np.searchsorted(times, time_base)
        edges = bounds.tolist()
        bases = pid_base.tolist()
        starts = time_base.tolist()
        for k, index in enumerate(stack.indices):
            span = slice(edges[k], edges[k + 1])
            local = slice(bases[k], bases[k + 1])
            times[span] -= starts[k] - 1  # executor time is 1-based
            pids[span] -= bases[k]
            schedule = None
            if self.record_schedule:
                schedule = (
                    stack.sched[starts[k] : starts[k + 1]] - bases[k]
                ).astype(np.int32)
            outcomes[index] = self._finish_replicate(
                self.replicates[index],
                max_steps,
                starts[k + 1] - starts[k],
                (
                    times[span],
                    pids[span],
                    succ_seqs[span],
                    seq[local],
                    phase[local],
                    counts[local],
                ),
                schedule,
                stopped_early=plans[index][1],
                segments=len(plans[index][0]),
            )
        return _ResolvedBlock(stack.indices, bounds, pid_base, times, pids)

    def _finish_replicate(
        self,
        member: EnsembleReplicate,
        max_steps: int,
        executed: int,
        resolved: Tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
        ],
        schedule: Optional[np.ndarray],
        stopped_early: bool,
        segments: int,
    ) -> ReplicateOutcome:
        """Finish a resolved replicate: memory (if any), telemetry, outcome.

        ``resolved`` is the replicate's local view of its block:
        completion times (1-based), completion pids, success sequence
        numbers and the per-pid ``seq``/``phase``/``counts`` end state.
        """
        n = member.n_processes
        times, pids, succ_seqs, seq, phase, counts = resolved
        memory = member.memory
        member.kernel.commit(
            memory,
            seq=seq,
            phase=phase,
            success_pids=pids,
            success_seqs=succ_seqs,
        )
        if memory is not None:
            memory.total_operations += executed
        counts = np.asarray(counts, dtype=np.int64)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            wins = int(times.shape[0])
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
                    "step_counts": counts.tolist(),
                },
            )
        return ReplicateOutcome(
            n_processes=n,
            steps_executed=executed,
            completion_times=times,
            completion_pids=pids,
            step_counts=counts,
            memory=memory,
            schedule=schedule,
            stopped_early=stopped_early,
            horizon=max_steps,
        )

    @staticmethod
    def _draw_schedule(
        scheduler: Any,
        n: int,
        rng: np.random.Generator,
        segments: List[Tuple[int, Sequence[int], int]],
        out: np.ndarray,
        pid_base: int,
    ) -> None:
        """Draw the whole schedule through the ``select_batch`` protocol.

        Element ``k`` of a batch corresponds to absolute time ``start + k``,
        and batched draws consume the RNG stream element-wise identically
        to sequential ``select`` calls, so one full-length draw matches
        ``run_batched``'s chunked draws bit for bit (chunk-size
        independence is part of the PR 1 protocol contract).

        ``segments`` comes from :func:`_plan_segments`: with crashes the
        horizon is split at the crash boundaries and each segment is
        drawn over its own active set — exactly the block structure
        ``run_batched`` uses, whose blocks never span a crash time.  Each
        segment's pids, offset by ``pid_base``, are added straight into
        their slice of ``out`` (the replicate's slot of its block's
        stack): that addition is the draw's only copy.
        """
        if getattr(scheduler, "observe_pending", None) is not None:
            raise ValueError(
                f"{type(scheduler).__name__} consumes per-step contention "
                "state (observe_pending); a whole-schedule draw cannot "
                "honour it — use the serial or batched engine"
            )
        select_batch = getattr(scheduler, "select_batch", None)
        offset = 0
        for start, active, length in segments:
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
                bad = pids.min() < 0 or pids.max() >= n
            else:
                inactive = ~np.isin(pids, np.asarray(active, dtype=np.int64))
                bad = inactive.any()
            if bad:
                if len(active) == n:
                    inactive = (pids < 0) | (pids >= n)
                position = int(np.argmax(inactive))
                raise RuntimeError(
                    f"scheduler selected inactive process "
                    f"{int(pids[position])} at t={start + position} "
                    f"(active: {list(active[:10])}"
                    f"{'...' if len(active) > 10 else ''})"
                )
            np.add(pids, pid_base, out=out[offset : offset + length])
            offset += length


def _replicate_rngs(seeds: List[RngLike]) -> Iterator[np.random.Generator]:
    """Each replicate's generator, in replicate order.

    A :class:`numpy.random.Generator` is its own.  Seeds that are an
    ``int`` or a tuple of non-negative ``int`` (the sweeps' ``(seed, n,
    r)``) get the PCG64 state ``np.random.default_rng(seed)`` would
    start from, all in one compiled pass (:func:`pcg64_seed_states`),
    each loaded in turn into one reused generator, which therefore
    holds a replicate's stream only until the next one is yielded.  Any
    other seed, and every seed on a host without the cc library, goes
    through ``np.random.default_rng`` itself, and so does a lone
    replicate's: for one seed, the pass and the reused generator cost
    more than ``default_rng``.
    """
    states = pcg64_seed_states(seeds) if len(seeds) > 1 else None
    if states is None:
        states = [None] * len(seeds)
    shared: Optional[np.random.Generator] = None
    for seed, state in zip(seeds, states):
        if isinstance(seed, np.random.Generator):
            yield seed
        elif state is None:
            yield np.random.default_rng(seed)
        else:
            if shared is None:
                shared = np.random.Generator(np.random.PCG64(0))
            shared.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state[0], "inc": state[1]},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield shared


def _plan_segments(
    n: int, max_steps: int, crash_times: Optional[Dict[int, int]]
) -> Tuple[List[Tuple[int, Sequence[int], int]], bool]:
    """A replicate's draw segments ``(start, active, length)``, in order.

    A crash fires just before the step at its time would be taken; times
    outside ``[1, max_steps]`` never fire (Simulator semantics).  The
    full active set is ``range(n)`` (the uniform scheduler then returns
    its draw ungathered); a crashed-down set is a sorted pid list.  The
    flag is True when the run ends early because every process crashed.
    """
    if max_steps == 0:
        return [], False
    crashes: Dict[int, List[int]] = {}
    for pid, crash_time in (crash_times or {}).items():
        if 1 <= crash_time <= max_steps:
            crashes.setdefault(crash_time, []).append(pid)
    if not crashes:
        return [(1, range(n), max_steps)], False

    alive = set(range(n))
    active: Sequence[int] = range(n)
    segments: List[Tuple[int, Sequence[int], int]] = []
    time = 1
    for boundary in sorted(crashes):
        if boundary > time:
            segments.append((time, active, boundary - time))
            time = boundary
        alive.difference_update(crashes[boundary])
        active = sorted(alive)
        if not active:
            # Crash containment emptied A_tau: the run ends with the
            # boundary - 1 steps already drawn, matching run_batched's
            # no-active-process early stop.
            return segments, True
    segments.append((time, active, max_steps - time + 1))
    return segments, False
