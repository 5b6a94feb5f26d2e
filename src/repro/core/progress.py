"""Progress guarantees and their empirical detectors (Section 2.2).

The paper's hierarchy, for executions:

* **minimal progress** — in every suffix of the history, *some* pending
  active invocation gets a response;
* **maximal progress** — in every suffix, *every* pending active
  invocation gets a response;
* **bounded** variants — some/every invocation responds within a fixed
  window of ``B`` system steps.

Infinite properties cannot be decided from finite runs; the detectors
here report the *empirical bounds* a finite history exhibits —
``empirical_minimal_progress_bound`` (the largest system-wide response
gap while work was pending) and ``empirical_maximal_progress_bound``
(the largest per-invocation response time) — plus starvation evidence
(invocations pending for an entire long suffix).  Theorem 3's claim is
then checked quantitatively: under a stochastic scheduler the empirical
maximal bound stays finite and small, while under a starvation adversary
it grows linearly with the run length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.sim.history import History


def empirical_minimal_progress_bound(history: History, end_time: int) -> int:
    """Largest stretch of steps with work pending but no response.

    This is the empirical version of the bound ``B`` in *bounded minimal
    progress*: over the recorded execution, some invocation completed
    within every window of this many steps (whenever any invocation was
    pending).  Returns 0 for a history with no pending work.
    """
    intervals = history.pending_intervals(end_time)
    if not intervals:
        return 0
    # A gap can start at any invocation or response time while something
    # is pending just after it, and runs to the next response (or to
    # end_time).  Responses never precede their invocations, so the
    # invocations pending just after t number #(invoke <= t) minus
    # #(respond <= t): a sorted sweep instead of a scan per event.
    invokes = np.sort(np.asarray([t for _, t, _ in intervals], dtype=np.int64))
    responds = np.sort(
        np.asarray([r for _, _, r in intervals if r is not None], dtype=np.int64)
    )
    response_times = np.sort(np.asarray(history.response_times(), dtype=np.int64))
    events = np.union1d(invokes, response_times)
    pending = np.searchsorted(invokes, events, side="right") > np.searchsorted(
        responds, events, side="right"
    )
    starts = events[pending]
    if not starts.size:
        return 0
    following = np.searchsorted(response_times, starts, side="right")
    ends = np.append(response_times, end_time)[following]
    return max(0, int((ends - starts).max()))


def empirical_maximal_progress_bound(history: History, end_time: int) -> int:
    """Largest response time of any single invocation (pending counted to
    ``end_time``) — the empirical bound ``B`` of *bounded maximal progress*.
    """
    worst = 0
    for _, invoke, respond in history.pending_intervals(end_time):
        finish = respond if respond is not None else end_time
        worst = max(worst, finish - invoke)
    return worst


def starved_processes(history: History, end_time: int, *, window: int) -> Set[int]:
    """Processes whose last ``window`` steps contain a pending invocation
    and no response — the empirical signature of starvation.

    ``window >= end_time`` means the window is the whole run: any
    process with a never-answered invocation is starved.  The cutoff is
    clamped to the first step (times are 1-based) so such invocations
    are not pushed outside a non-positive cutoff and missed.
    """
    cutoff = max(end_time - window, 1)
    starved: Set[int] = set()
    last_response: Dict[int, int] = {}
    for response in history.responses:
        last_response[response.pid] = response.time
    for pid, invoke, respond in history.pending_intervals(end_time):
        if respond is None and invoke <= cutoff:
            if last_response.get(pid, -1) <= cutoff:
                starved.add(pid)
    return starved


@dataclass(frozen=True)
class ProgressReport:
    """Summary of a run's empirical progress behaviour."""

    end_time: int
    total_responses: int
    minimal_bound: int
    maximal_bound: int
    starved: Set[int]

    @property
    def made_minimal_progress(self) -> bool:
        """Some operation completed, and no dead stretch spanned the run."""
        return self.total_responses > 0 and self.minimal_bound < self.end_time

    @property
    def made_maximal_progress(self) -> bool:
        """Every invocation completed within the run (nobody starved)."""
        return not self.starved


def progress_report(
    history: History, end_time: int, *, starvation_window: Optional[int] = None
) -> ProgressReport:
    """Compute all progress detectors at once."""
    if starvation_window is None:
        starvation_window = max(end_time // 2, 1)
    return ProgressReport(
        end_time=end_time,
        total_responses=len(history.responses),
        minimal_bound=empirical_minimal_progress_bound(history, end_time),
        maximal_bound=empirical_maximal_progress_bound(history, end_time),
        starved=starved_processes(history, end_time, window=starvation_window),
    )
