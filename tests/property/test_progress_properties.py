"""Property test: the sorted-sweep minimal progress bound equals the
original per-event scan on random histories.

``empirical_minimal_progress_bound`` answers, for every invocation or
response time ``t`` with something pending just after ``t``, how long
until the next response, with ``np.searchsorted`` over the sorted event
times.  The scan it replaced is kept here as the oracle: it tests every
interval for "pending after t" and walks the response times for the
next one, so the two share no code.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.progress import empirical_minimal_progress_bound
from repro.sim.history import History


def scan_minimal_progress_bound(history: History, end_time: int) -> int:
    intervals = history.pending_intervals(end_time)
    if not intervals:
        return 0
    response_times = sorted(history.response_times())
    worst = 0
    events = sorted({t for _, t, _ in intervals} | set(response_times))
    for start in events:
        pending = any(
            invoke <= start and (respond is None or respond > start)
            for _, invoke, respond in intervals
        )
        if not pending:
            continue
        nxt = next((t for t in response_times if t > start), None)
        gap = (nxt if nxt is not None else end_time) - start
        worst = max(worst, gap)
    return worst


@settings(max_examples=300, deadline=None)
@given(
    moves=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # pid
            st.integers(min_value=0, max_value=6),  # time advance (0: same step)
        ),
        max_size=60,
    ),
    tail=st.integers(min_value=-5, max_value=40),
)
def test_sorted_sweep_matches_the_scan(moves, tail):
    # Each move toggles a process: invoke when idle, respond when
    # pending; times never decrease, and several events may share one.
    history = History()
    pending = set()
    time = 1
    for pid, advance in moves:
        time += advance
        if pid in pending:
            history.respond(time, pid)
            pending.discard(pid)
        else:
            history.invoke(time, pid)
            pending.add(pid)
    end_time = max(time + tail, 0)
    assert empirical_minimal_progress_bound(
        history, end_time
    ) == scan_minimal_progress_bound(history, end_time)
