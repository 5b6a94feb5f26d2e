"""Schedulers (Definition 1 of the paper).

A scheduler for ``n`` processes is a triple ``(Pi_tau, A_tau, theta)``: at
every time step ``tau`` it draws the next process from a distribution
``Pi_tau`` supported on the possibly-active set ``A_tau``; it is
*stochastic* when every active process has probability at least
``theta > 0`` in every step (weak fairness).

The executor (:class:`repro.sim.Simulator`) owns the active set ``A_tau``
(crash containment) and hands it to the scheduler, so a scheduler here is
just the ``Pi_tau`` part: ``select(time, active, rng) -> pid``, plus an
optional ``distribution(time, active)`` used by validation utilities and
exact analyses.

Batched selection (the ``BatchedScheduler`` protocol)
-----------------------------------------------------

The batched executor (:meth:`repro.sim.Simulator.run_batched`) asks for
blocks of scheduling decisions at once::

    select_batch(time, active, rng, size) -> int64 array of pids

with the contract that, for a fixed ``active`` set, the returned pids and
the RNG words consumed are *identical* to ``size`` sequential ``select``
calls at times ``time, time + 1, ...``.  ``active`` is any sequence of
pids; the ensemble engine passes the full set as ``range(n)``, which
lets :class:`UniformStochasticScheduler` return its draw ungathered.
The base class provides a
sequential fallback; :class:`UniformStochasticScheduler` and
:class:`SkewedStochasticScheduler` override it with vectorized draws
(long uniform draws run in the cc library, bit-identical to numpy's), and
:class:`HardwareLikeScheduler` expands whole quantum runs per iteration.

Stateful schedulers additionally implement ``state_snapshot()`` /
``state_restore(snapshot)`` so the executor can rewind a partially
consumed block (a process finishing or a stop condition firing mid-block)
and replay exactly the consumed prefix, keeping batched runs
trace-equivalent to step-by-step runs.

A scheduler whose choice depends on the pending operations takes an
``observe_pending(pending)`` hook and must then also provide
``select_from_uniform(active, u)``: the pick ``select`` makes when its one
``rng.random()`` returns ``u``.  The batched executor draws a block of
uniforms and calls the hook and ``select_from_uniform`` once per step;
:class:`~repro.sim.executor.Simulator` refuses such a scheduler without
the second method.

Schedulers provided:

* :class:`UniformStochasticScheduler` — ``gamma_i = 1/|A_tau|``; the model
  under which the paper's latency bounds are proved.
* :class:`SkewedStochasticScheduler` / :class:`LotteryScheduler` — fixed
  positive weights; stochastic with ``theta = min weight share``.
* :class:`DistributionScheduler` — fully general ``Pi_tau`` given by a
  callable; validates Definition 1's well-formedness and weak fairness.
* :class:`AdversarialScheduler` — a deterministic strategy encoded as a
  distribution putting mass 1 on one process (``theta = 0``); includes the
  classic starvation adversaries used to show lock-free != wait-free.
* :class:`HardwareLikeScheduler` — the synthetic stand-in for the paper's
  hardware recordings (Appendix A): quantum-based runs with per-process
  speed jitter, near-uniform over long executions.
* :class:`EpsilonUniformScheduler` — a parameterized departure from
  uniform: ``(1 - epsilon) * uniform + epsilon * point mass``, giving a
  dial whose TV-distance from uniform is exactly ``epsilon * (1 - 1/n)``.
* :class:`ContentionScheduler` — a contention adversary (Bender et al.,
  arXiv:2604.14530 flavour): reweights toward processes whose pending
  operations target the same shared location, fed by the executor's
  :meth:`ContentionScheduler.observe_pending` hook.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.sim.kernels import uniform_draw

#: :meth:`UniformStochasticScheduler.select_batch` draws at least this
#: many pids in the cc library rather than with ``rng.integers``.  The
#: compiled draw costs ~1.6 ns a pid against numpy's ~4.2, but ~3 us
#: more per call (the state getter and setter, the ctypes entry), so it
#: breaks even at ~1,300 pids on a 2-CPU x86-64 host; the constant
#: leaves margin for the per-call cost's spread.
_COMPILED_DRAW_MIN_SIZE = 2048


class Scheduler(abc.ABC):
    """Interface every scheduler implements."""

    @abc.abstractmethod
    def select(
        self, time: int, active: Sequence[int], rng: np.random.Generator
    ) -> int:
        """Pick the process to schedule at ``time`` among ``active`` pids."""

    def select_batch(
        self,
        time: int,
        active: Sequence[int],
        rng: np.random.Generator,
        size: int,
    ) -> np.ndarray:
        """Pick ``size`` consecutive choices starting at ``time``.

        Must behave exactly like ``size`` sequential :meth:`select` calls
        (same pids, same RNG consumption) for a fixed ``active`` set.
        The default does exactly that; subclasses override with
        vectorized draws where the RNG stream provably matches.
        """
        out = np.empty(size, dtype=np.int64)
        for k in range(size):
            out[k] = self.select(time + k, active, rng)
        return out

    def state_snapshot(self):
        """Opaque snapshot of mutable scheduler state (``None`` if stateless).

        Together with :meth:`state_restore` this lets the batched executor
        rewind a block that was cut short and replay only its consumed
        prefix.  Stateful subclasses must override both methods.
        """
        return None

    def state_restore(self, snapshot) -> None:
        """Restore state captured by :meth:`state_snapshot`."""

    def distribution(self, time: int, active: Sequence[int]) -> Dict[int, float]:
        """The distribution ``Pi_tau`` restricted to ``active``, if known.

        Subclasses that can state their per-step distribution override
        this; the default raises, since e.g. stateful schedulers may not
        have a closed form.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose a per-step distribution"
        )

    def threshold(self, n_processes: int) -> float:
        """The weak-fairness threshold ``theta`` for ``n`` processes.

        Zero means the scheduler is not stochastic in the paper's sense
        (an adversary can be encoded).
        """
        return 0.0


class UniformStochasticScheduler(Scheduler):
    """Each active process is scheduled with probability ``1/|A_tau|``.

    This is the paper's refined model (Section 2.3): with no crashes,
    ``gamma_i = 1/n`` for every ``i`` and every ``tau``.
    """

    def select(
        self, time: int, active: Sequence[int], rng: np.random.Generator
    ) -> int:
        return int(active[rng.integers(len(active))])

    def select_batch(
        self,
        time: int,
        active: Sequence[int],
        rng: np.random.Generator,
        size: int,
    ) -> np.ndarray:
        # rng.integers(n, size=k) consumes the bit stream element by
        # element, exactly like k scalar rng.integers(n) calls.  From
        # _COMPILED_DRAW_MIN_SIZE draws on, a PCG64 generator's draw runs
        # in the cc library instead (uniform_draw: the same pids and the
        # same end state as rng.integers, or None when it cannot serve
        # this generator or n).  Over the full active set ``range(n)``
        # the indices are the pids already (int64, the default dtype),
        # so they are returned ungathered.
        indices = None
        if size >= _COMPILED_DRAW_MIN_SIZE:
            indices = uniform_draw(rng, len(active), size)
        if indices is None:
            indices = rng.integers(len(active), size=size)
        if isinstance(active, range) and active.start == 0 and active.step == 1:
            return indices
        return np.asarray(active, dtype=np.int64)[indices]

    def distribution(self, time: int, active: Sequence[int]) -> Dict[int, float]:
        share = 1.0 / len(active)
        return {pid: share for pid in active}

    def threshold(self, n_processes: int) -> float:
        return 1.0 / n_processes


class SkewedStochasticScheduler(Scheduler):
    """Fixed positive weights per process, renormalised over the active set.

    A stochastic scheduler with ``theta`` equal to the smallest weight
    share.  Used by the scheduler-sensitivity ablation (how far from
    uniform can the scheduler drift before the paper's latency shape
    degrades).
    """

    def __init__(self, weights: Sequence[float]) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if np.any(weights <= 0):
            raise ValueError("all weights must be positive for a stochastic scheduler")
        self.weights = weights

    def _probabilities(self, active: Sequence[int]) -> np.ndarray:
        w = self.weights[list(active)]
        return w / w.sum()

    def select(
        self, time: int, active: Sequence[int], rng: np.random.Generator
    ) -> int:
        probs = self._probabilities(active)
        return int(active[rng.choice(len(active), p=probs)])

    def select_batch(
        self,
        time: int,
        active: Sequence[int],
        rng: np.random.Generator,
        size: int,
    ) -> np.ndarray:
        # Generator.choice with p draws one uniform double and inverts the
        # cdf; a batch of rng.random(size) consumes the identical stream.
        probs = self._probabilities(active)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        indices = cdf.searchsorted(rng.random(size), side="right")
        return np.asarray(active, dtype=np.int64)[indices]

    def distribution(self, time: int, active: Sequence[int]) -> Dict[int, float]:
        probs = self._probabilities(active)
        return {pid: float(p) for pid, p in zip(active, probs)}

    def threshold(self, n_processes: int) -> float:
        if n_processes != self.weights.size:
            # Silently truncating weights[:n] used to report a theta for a
            # scheduler that select() would later IndexError on (or one
            # that ignores the surplus weights); both are configuration
            # errors and must be named, not papered over.
            raise ValueError(
                f"{type(self).__name__} has {self.weights.size} weights "
                f"but threshold() was asked about {n_processes} processes"
            )
        return float(self.weights.min() / self.weights.sum())


class LotteryScheduler(SkewedStochasticScheduler):
    """Lottery scheduling (Waldspurger-style, the paper's reference [19]).

    Each process holds a number of tickets; each step draws a ticket
    uniformly.  Equivalent to :class:`SkewedStochasticScheduler` with
    integer weights, provided as its own type because lottery scheduling
    is the practical system the paper cites as a deployed randomized
    scheduler.
    """

    def __init__(self, tickets: Sequence[int]) -> None:
        tickets_arr = np.asarray(tickets)
        if tickets_arr.size and not np.issubdtype(tickets_arr.dtype, np.integer):
            raise ValueError("lottery tickets must be integers")
        super().__init__(tickets_arr.astype(float))


class DistributionScheduler(Scheduler):
    """The fully general ``Pi_tau`` of Definition 1.

    Parameters
    ----------
    pi:
        ``pi(time, active) -> mapping pid -> probability``.  Probabilities
        must be supported on ``active`` (crash condition), sum to 1
        (well-formedness) and, for the scheduler to be stochastic, be at
        least ``theta`` on every active pid (weak fairness).
    theta:
        The claimed threshold; validated on every step when ``validate``.
    validate:
        Check Definition 1's conditions each step (default on; turn off in
        hot loops once a scheduler is trusted).
    """

    def __init__(
        self,
        pi: Callable[[int, Sequence[int]], Mapping[int, float]],
        *,
        theta: float = 0.0,
        validate: bool = True,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        self._pi = pi
        self._theta = theta
        self._validate = validate

    def _checked(self, time: int, active: Sequence[int]) -> Dict[int, float]:
        dist = dict(self._pi(time, active))
        if self._validate:
            unknown = set(dist) - set(active)
            if any(dist[pid] > 0 for pid in unknown):
                raise ValueError(
                    f"Pi_{time} puts mass on non-active processes {sorted(unknown)}"
                )
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"Pi_{time} sums to {total}, violating well-formedness")
            if self._theta > 0:
                for pid in active:
                    if dist.get(pid, 0.0) < self._theta - 1e-12:
                        raise ValueError(
                            f"Pi_{time} gives process {pid} probability "
                            f"{dist.get(pid, 0.0)} < theta={self._theta}"
                        )
        return dist

    #: Accepted drift of ``sum(Pi_tau)`` from 1 before a distribution is
    #: rejected as ill-formed even with ``validate=False`` (float round-off
    #: from summing many probabilities, not modelling error).
    SUM_TOLERANCE = 1e-9

    def select(
        self, time: int, active: Sequence[int], rng: np.random.Generator
    ) -> int:
        dist = self._checked(time, active)
        pids = list(dist)
        probs = np.array([dist[pid] for pid in pids])
        total = probs.sum()
        if abs(total - 1.0) > self.SUM_TOLERANCE:
            # validate=False skips the Definition 1 checks for speed, but an
            # ill-formed Pi_tau must never be silently renormalised away.
            raise ValueError(
                f"Pi_{time} sums to {total}, violating well-formedness"
            )
        probs = probs / total
        return int(pids[rng.choice(len(pids), p=probs)])

    def distribution(self, time: int, active: Sequence[int]) -> Dict[int, float]:
        return self._checked(time, active)

    def threshold(self, n_processes: int) -> float:
        return self._theta


class _RotationStrategy:
    """Pid-stable rotation over the active set.

    Remembers the last pid it scheduled and picks the smallest active pid
    strictly greater than it (wrapping around), so a crash removes exactly
    its own pid from the cycle.  Indexing the active *list* by time — the
    previous implementation — shifts every later process's slot whenever
    the list shrinks, silently skipping or double-scheduling pids after a
    crash.

    ``avoid`` (the starvation victim) is only returned when it is the sole
    active process; scheduling it then does not advance the rotation.
    """

    def __init__(self, avoid: Optional[int] = None) -> None:
        self.avoid = avoid
        self._last = -1

    def peek(self, time: int, active: Sequence[int]) -> int:
        """The pid :meth:`__call__` would return, without advancing."""
        candidates = [pid for pid in active if pid != self.avoid]
        if not candidates:
            return active[0]
        later = [pid for pid in candidates if pid > self._last]
        return min(later) if later else min(candidates)

    def state_snapshot(self) -> int:
        return self._last

    def state_restore(self, snapshot: int) -> None:
        self._last = snapshot

    def __call__(self, time: int, active: Sequence[int]) -> int:
        pid = self.peek(time, active)
        if pid != self.avoid:
            self._last = pid
        return pid


class _SpoilerStrategy:
    """The alternating-spoiler schedule with pid-stable spoiler rotation.

    Two victim steps (read + CAS attempt), then one spoiler step drawn
    from a pid-stable rotation over the other processes.  When the victim
    has crashed, the *same* rotation keeps cycling the survivors — the
    previous closure pinned ``others[0]`` for the victim's two slots,
    monopolising one survivor and (because ``others`` reindexes on every
    crash) changing which pid that was whenever the active set shrank.
    """

    def __init__(self, victim: int) -> None:
        self.victim = victim
        self._rotation = _RotationStrategy(avoid=victim)

    def _is_victim_slot(self, time: int, active: Sequence[int]) -> bool:
        return (time - 1) % 3 < 2 and self.victim in active

    def peek(self, time: int, active: Sequence[int]) -> int:
        """The pid :meth:`__call__` would return, without advancing."""
        others = [pid for pid in active if pid != self.victim]
        if not others:
            return self.victim
        if self._is_victim_slot(time, active):
            return self.victim
        return self._rotation.peek(time, active)

    def state_snapshot(self) -> int:
        return self._rotation.state_snapshot()

    def state_restore(self, snapshot: int) -> None:
        self._rotation.state_restore(snapshot)

    def __call__(self, time: int, active: Sequence[int]) -> int:
        others = [pid for pid in active if pid != self.victim]
        if not others:
            return self.victim
        if self._is_victim_slot(time, active):
            return self.victim
        return self._rotation(time, active)


class AdversarialScheduler(Scheduler):
    """A worst-case adversary encoded as a degenerate distribution.

    As Section 2.3 notes, any classic asynchronous adversary corresponds to
    ``Pi_tau`` putting probability 1 on the adversary's choice; the
    threshold is 0, so none of the stochastic guarantees apply — these
    schedulers exist to *witness* the gap between lock-freedom and
    wait-freedom in tests and benchmarks.

    Strategies may be stateful: a strategy object exposing ``peek(time,
    active)`` is consulted for :meth:`distribution` (which must not advance
    the state), and ``state_snapshot``/``state_restore`` are forwarded for
    batched-execution rewinds.
    """

    def __init__(self, strategy: Callable[[int, Sequence[int]], int]) -> None:
        self._strategy = strategy

    def select(
        self, time: int, active: Sequence[int], rng: np.random.Generator
    ) -> int:
        pid = self._strategy(time, active)
        if pid not in active:
            raise ValueError(
                f"adversary chose inactive process {pid} at t={time}"
            )
        return int(pid)

    def state_snapshot(self):
        snapshot = getattr(self._strategy, "state_snapshot", None)
        return None if snapshot is None else snapshot()

    def state_restore(self, snapshot) -> None:
        restore = getattr(self._strategy, "state_restore", None)
        if restore is not None:
            restore(snapshot)

    def distribution(self, time: int, active: Sequence[int]) -> Dict[int, float]:
        peek = getattr(self._strategy, "peek", None)
        if peek is not None:
            pid = peek(time, active)
        elif getattr(self._strategy, "state_snapshot", None) is not None:
            # Calling a stateful strategy here would advance its rotation
            # state mid-query, desyncing the batched executor's rewinds.
            raise NotImplementedError(
                f"stateful strategy {type(self._strategy).__name__} lacks "
                "peek(); distribution() would advance its state"
            )
        else:
            pid = self._strategy(time, active)
        return {p: (1.0 if p == pid else 0.0) for p in active}

    @classmethod
    def round_robin(cls) -> "AdversarialScheduler":
        """Cycle through the active processes in pid order.

        The rotation is pid-stable: after a crash the surviving processes
        keep their relative order and none is skipped or double-scheduled.
        """
        return cls(_RotationStrategy())

    @classmethod
    def starve(cls, victim: int) -> "AdversarialScheduler":
        """Never schedule ``victim`` unless it is the only active process.

        Against any lock-free (but not wait-free) algorithm this keeps the
        victim's invocation pending forever while the system still makes
        minimal progress.  The non-victim rotation is pid-stable under
        crashes, like :meth:`round_robin`.
        """
        return cls(_RotationStrategy(avoid=victim))

    @classmethod
    def alternating_spoiler(cls, victim: int) -> "AdversarialScheduler":
        """Let ``victim`` run just until it is about to commit, then let one
        other process steal the commit.

        A time-based approximation of the classic CAS-spoiling adversary:
        the victim gets scheduled in bursts but another process is always
        interleaved, so in scan-validate algorithms the victim's CAS keeps
        failing.  Exact spoiling (state-aware) is provided by tests that
        drive the simulator step by step.
        """
        return cls(_SpoilerStrategy(victim))


class MarkovModulatedScheduler(Scheduler):
    """A stochastic scheduler whose bias evolves through hidden regimes.

    Real interference is *time-correlated*: an interrupt storm or a
    co-scheduled job parks on one core for a while, then moves on.  This
    scheduler holds a hidden regime r (one per process, plus a neutral
    regime); within regime r process r's weight is divided by
    ``slowdown`` while the regime persists (geometric duration with mean
    ``mean_dwell``); regimes switch to a uniformly random one.

    The scheduler stays stochastic — every process keeps probability at
    least ``theta = 1 / (slowdown * (n - 1) + 1)`` each step (the slowed
    process's share ``(1/slowdown) / (n - 1 + 1/slowdown)``) — but its choices
    are correlated across time, unlike every Pi_tau model the paper
    analyses.  The tests check the paper's *long-run* predictions
    survive this (latency within a modest factor of the uniform model,
    everyone completes), exhibiting the robustness the Discussion hopes
    for.
    """

    def __init__(
        self, *, slowdown: float = 4.0, mean_dwell: float = 200.0
    ) -> None:
        if slowdown < 1.0:
            raise ValueError("slowdown must be >= 1")
        if mean_dwell < 1.0:
            raise ValueError("mean_dwell must be >= 1")
        self.slowdown = slowdown
        self.mean_dwell = mean_dwell
        self._regime: Optional[int] = None  # pid being slowed, or None
        self._remaining = 0

    def _advance_regime(
        self, active: Sequence[int], rng: np.random.Generator
    ) -> None:
        if self._remaining > 0 and (
            self._regime is None or self._regime in active
        ):
            self._remaining -= 1
            return
        # Pick a new regime: neutral or one slowed process.
        choices = [None] + list(active)
        self._regime = choices[int(rng.integers(len(choices)))]
        self._remaining = int(rng.geometric(1.0 / self.mean_dwell))

    def _weights(self, active: Sequence[int]) -> np.ndarray:
        weights = np.ones(len(active))
        if self._regime is not None:
            for position, pid in enumerate(active):
                if pid == self._regime:
                    weights[position] = 1.0 / self.slowdown
        return weights / weights.sum()

    def select(
        self, time: int, active: Sequence[int], rng: np.random.Generator
    ) -> int:
        self._advance_regime(active, rng)
        probs = self._weights(active)
        return int(active[rng.choice(len(active), p=probs)])

    def state_snapshot(self):
        return (self._regime, self._remaining)

    def state_restore(self, snapshot) -> None:
        self._regime, self._remaining = snapshot

    def threshold(self, n_processes: int) -> float:
        return float(
            (1.0 / self.slowdown)
            / (n_processes - 1 + 1.0 / self.slowdown)
        )


class HardwareLikeScheduler(Scheduler):
    """Synthetic stand-in for the paper's hardware schedule recordings.

    The paper's Appendix A records schedules on a real multicore and finds
    (i) long-run fairness — every thread takes about ``1/n`` of the steps
    (Figure 3) — and (ii) local near-uniformity — after a step of ``p_i``,
    every thread is roughly equally likely to step next (Figure 4).

    We model the mechanisms that produce those statistics rather than the
    statistics themselves: threads run in *quanta* (geometrically
    distributed run lengths, modelling timeslices and cache residency),
    quantum boundaries hand off to a thread drawn by current *speed
    weights*, and the weights jitter slowly around 1 (modelling frequency
    scaling, interrupts and contention noise).  With the default
    parameters the long-run statistics reproduce Figures 3-4; the quantum
    length knob lets the ablation benchmarks explore how burstiness
    affects the latency predictions.
    """

    def __init__(
        self,
        *,
        mean_quantum: float = 1.5,
        jitter: float = 0.1,
        jitter_rate: float = 0.01,
    ) -> None:
        if mean_quantum < 1.0:
            raise ValueError("mean_quantum must be >= 1 (a run has >= 1 step)")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if not 0.0 < jitter_rate <= 1.0:
            raise ValueError("jitter_rate must lie in (0, 1]")
        self.mean_quantum = mean_quantum
        self.jitter = jitter
        self.jitter_rate = jitter_rate
        self._current: Optional[int] = None
        self._remaining = 0
        self._weights: Dict[int, float] = {}

    def _weight(self, pid: int, rng: np.random.Generator) -> float:
        weight = self._weights.get(pid)
        if weight is None:
            weight = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            self._weights[pid] = weight
        return weight

    def _rejitter(self, active: Sequence[int], rng: np.random.Generator) -> None:
        # Mean-reverting nudge toward 1 with fresh noise: an AR(1) walk.
        for pid in active:
            weight = self._weight(pid, rng)
            noise = self.jitter * (2.0 * rng.random() - 1.0)
            self._weights[pid] = weight + self.jitter_rate * (1.0 - weight) + \
                self.jitter_rate * noise

    def _start_quantum(
        self, active: Sequence[int], rng: np.random.Generator
    ) -> int:
        self._rejitter(active, rng)
        weights = np.array([self._weight(pid, rng) for pid in active])
        weights = np.clip(weights, 1e-6, None)
        probs = weights / weights.sum()
        pid = int(active[rng.choice(len(active), p=probs)])
        # Geometric run length with mean mean_quantum (support >= 1).
        continue_p = 1.0 - 1.0 / self.mean_quantum
        self._remaining = int(rng.geometric(1.0 - continue_p)) - 1
        self._current = pid
        return pid

    def select(
        self, time: int, active: Sequence[int], rng: np.random.Generator
    ) -> int:
        if self._current in active and self._remaining > 0:
            self._remaining -= 1
            return self._current
        return self._start_quantum(active, rng)

    def select_batch(
        self,
        time: int,
        active: Sequence[int],
        rng: np.random.Generator,
        size: int,
    ) -> np.ndarray:
        # Quantum continuations consume no RNG, so a whole remaining run
        # can be emitted in one slice; only quantum boundaries run the
        # scalar draw path.  RNG consumption matches select() exactly.
        out = np.empty(size, dtype=np.int64)
        filled = 0
        while filled < size:
            if self._remaining > 0 and self._current in active:
                take = min(self._remaining, size - filled)
                out[filled : filled + take] = self._current
                self._remaining -= take
                filled += take
            else:
                out[filled] = self._start_quantum(active, rng)
                filled += 1
        return out

    def state_snapshot(self):
        return (self._current, self._remaining, dict(self._weights))

    def state_restore(self, snapshot) -> None:
        current, remaining, weights = snapshot
        self._current = current
        self._remaining = remaining
        self._weights = dict(weights)


class EpsilonUniformScheduler(Scheduler):
    """Controlled departure from uniform: ``(1-eps)·uniform + eps·point mass``.

    The dial for the "where does practically-wait-free break?" sweeps: at
    ``epsilon = 0`` this is exactly :class:`UniformStochasticScheduler`;
    at ``epsilon = 1`` it is a monopolising adversary.  With every process
    active, its total-variation distance from uniform is exactly
    ``epsilon * (1 - 1/n)``, so a sweep over ``epsilon`` produces a
    controlled, closed-form departure curve to plot latency against.

    The extra mass lands on ``favored``; when that process has crashed it
    falls back pid-stably to the smallest active pid (never an index into
    the shrinking active list).
    """

    def __init__(self, epsilon: float, *, favored: int = 0) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if favored < 0:
            raise ValueError("favored must be a valid pid (>= 0)")
        self.epsilon = float(epsilon)
        self.favored = int(favored)

    def _favored_in(self, active: Sequence[int]) -> int:
        return self.favored if self.favored in active else min(active)

    def _probabilities(self, active: Sequence[int]) -> np.ndarray:
        n = len(active)
        probs = np.full(n, (1.0 - self.epsilon) / n)
        target = self._favored_in(active)
        for position, pid in enumerate(active):
            if pid == target:
                probs[position] += self.epsilon
                break
        return probs

    def select(
        self, time: int, active: Sequence[int], rng: np.random.Generator
    ) -> int:
        probs = self._probabilities(active)
        return int(active[rng.choice(len(active), p=probs)])

    def select_batch(
        self,
        time: int,
        active: Sequence[int],
        rng: np.random.Generator,
        size: int,
    ) -> np.ndarray:
        # Same cdf-inversion equivalence as SkewedStochasticScheduler:
        # stateless, so a fixed active set fixes the cdf for the block.
        probs = self._probabilities(active)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        indices = cdf.searchsorted(rng.random(size), side="right")
        return np.asarray(active, dtype=np.int64)[indices]

    def distribution(self, time: int, active: Sequence[int]) -> Dict[int, float]:
        probs = self._probabilities(active)
        return {pid: float(p) for pid, p in zip(active, probs)}

    def threshold(self, n_processes: int) -> float:
        return (1.0 - self.epsilon) / n_processes


#: Most cdfs one :class:`ContentionScheduler` keeps: 2**8 contending sets
#: cover every n = 8 full-active-set state, with room for crashed subsets.
_CDF_CACHE_LIMIT = 1024


class ContentionScheduler(Scheduler):
    """A contention adversary: extra mass on processes fighting over one spot.

    Bender et al. (arXiv:2604.14530) motivate adversaries that concentrate
    scheduling mass on *conflicting* processes — exactly the schedules
    that make lock-free retry loops spin.  This scheduler weights each
    active process ``focus`` when its pending operation targets a shared
    memory location that at least one other pending operation also
    targets, and ``1.0`` otherwise, renormalised over the active set.

    Contention state is fed **only** through :meth:`observe_pending` — an
    executor hook called before a scheduling decision — never from inside
    :meth:`select`.  That split is what keeps the batched contract
    trivially true: for a fixed active set and a fixed contending set,
    :meth:`select_batch` consumes the identical RNG stream as sequential
    :meth:`select` calls.  Both engines fire the hook before every step.
    The serial engine then calls :meth:`select`; ``run_batched`` draws
    one block of uniforms up front (its active set is fixed within a
    block) and calls :meth:`select_from_uniform` on each step's uniform.

    :meth:`select` is ``select_from_uniform(active, rng.random())``: it
    inverts the same cdf ``Generator.choice(p=...)`` would build
    (``probs.cumsum()``, then divided by its last entry) with one uniform
    and a bisection, so it is draw-for-draw identical to ``choice`` at a
    fraction of the cost.  The contending set is kept as an int bitmask
    (bit ``pid`` set iff ``pid`` contends); the cdfs are cached per
    (active set, bitmask), at most ``_CDF_CACHE_LIMIT`` of them, oldest
    dropped first.  :meth:`state_snapshot` still hands out the
    contending set as a frozenset of pids.

    The scheduler remains stochastic: every active process keeps share at
    least ``theta = 1 / (1 + focus * (n - 1))``.  Crash containment is
    pid-stable — contending membership is a set of pids, so a crash
    removes exactly its own pid from consideration (a stale contending
    pid outside the active set is simply never weighted).
    """

    def __init__(self, *, focus: float = 4.0) -> None:
        if focus < 1.0:
            raise ValueError("focus must be >= 1 (1.0 degenerates to uniform)")
        self.focus = float(focus)
        self._mask = 0
        self._cdfs: Dict[tuple, List[float]] = {}

    def observe_pending(self, pending: Mapping[int, Optional[str]]) -> None:
        """Executor hook: ``pending`` maps pid -> register of its pending op.

        A ``None`` register (no pending operation, or a zero-cost marker)
        never contends.  Processes sharing a register with at least one
        other process form the contending set until the next observation.
        """
        first: Dict[str, int] = {}
        mask = 0
        for pid, register in pending.items():
            if register is not None:
                holder = first.setdefault(register, pid)
                if holder != pid:
                    mask |= (1 << holder) | (1 << pid)
        self._mask = mask

    def _probabilities(self, active: Sequence[int]) -> np.ndarray:
        mask = self._mask
        weights = np.array(
            [self.focus if mask >> pid & 1 else 1.0 for pid in active]
        )
        return weights / weights.sum()

    def select_from_uniform(self, active: Sequence[int], u: float) -> int:
        """The pick :meth:`select` makes when ``rng.random()`` returns ``u``.

        The batched engine draws a block of uniforms at once and feeds
        them here one step at a time, after each step's
        :meth:`observe_pending`.
        """
        cdfs = self._cdfs
        key = (tuple(active), self._mask)
        cdf = cdfs.get(key)
        if cdf is None:
            cdf = self._probabilities(active).cumsum()
            cdf /= cdf[-1]
            cdf = cdf.tolist()
            if len(cdfs) >= _CDF_CACHE_LIMIT:
                del cdfs[next(iter(cdfs))]
            cdfs[key] = cdf
        return int(active[bisect_right(cdf, u)])

    def select(
        self, time: int, active: Sequence[int], rng: np.random.Generator
    ) -> int:
        return self.select_from_uniform(active, rng.random())

    def select_batch(
        self,
        time: int,
        active: Sequence[int],
        rng: np.random.Generator,
        size: int,
    ) -> np.ndarray:
        # Valid because the contending set can only change through
        # observe_pending, which no executor calls inside a batch.
        probs = self._probabilities(active)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        indices = cdf.searchsorted(rng.random(size), side="right")
        return np.asarray(active, dtype=np.int64)[indices]

    def distribution(self, time: int, active: Sequence[int]) -> Dict[int, float]:
        probs = self._probabilities(active)
        return {pid: float(p) for pid, p in zip(active, probs)}

    def state_snapshot(self) -> frozenset:
        mask = self._mask
        return frozenset(
            pid for pid in range(mask.bit_length()) if mask >> pid & 1
        )

    def state_restore(self, snapshot) -> None:
        mask = 0
        for pid in snapshot:
            mask |= 1 << pid
        self._mask = mask

    def threshold(self, n_processes: int) -> float:
        return 1.0 / (1.0 + self.focus * (n_processes - 1))


def scheduler_chain_distribution(
    scheduler: Scheduler, n_processes: int
) -> np.ndarray:
    """The time-invariant per-step distribution of a stateless scheduler
    over the full active set, as an array indexed by pid.

    Raises for schedulers without a closed-form distribution.
    """
    active = list(range(n_processes))
    dist = scheduler.distribution(1, active)
    return np.array([dist.get(pid, 0.0) for pid in active])
