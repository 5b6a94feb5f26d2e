"""Property tests: the contention adversary on the batched engine.

``ContentionScheduler`` is observed before every decision, so
``Simulator.run_batched`` fires its hook once per step inside its usual
crash-bounded blocks.  It draws each block's uniforms at once
(``rng.random(block)``) and picks per step with
``select_from_uniform(active, u)``; a block cut short rewinds the RNG
and replays only the consumed prefix.  Two contracts keep that
bit-identical to the step-by-step engine:

* ``select`` (one ``rng.random()`` bisected into a cached cdf) equals
  ``Generator.choice(p=...)`` draw for draw and leaves the same RNG
  state — ``select`` is ``select_from_uniform`` on one scalar draw, so
  this oracle covers the pick both engines make;
* ``run_batched`` equals ``run`` on everything observable, with crashes
  (contending pids included), stop conditions, finite workloads that end
  mid-block, any block size, ``run``/``run_batched`` interleaved, and
  full schedule and history recording.
"""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.locks import make_tas_memory, tas_lock_counter
from repro.algorithms.msqueue import make_queue_memory, ms_queue_workload
from repro.algorithms.treiber import make_stack_memory, treiber_workload
from repro.core.scheduler import ContentionScheduler
from repro.sim.executor import Simulator
from repro.sim.memory import Memory
from repro.sim.ops import CAS, Read, Write
from repro.sim.process import repeat_method

# Queue and stack nodes chain through register values; deep ``==`` on
# final memories may recurse.
sys.setrecursionlimit(100_000)

FOCUSES = (1.0, 2.7, 4.0, 8.0, 1e3)
REGISTERS = ("hot", "warm", "cold", None)


# -- the draw oracle -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    focus=st.sampled_from(FOCUSES),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_select_is_generator_choice_draw_for_draw(n, focus, data, seed):
    rounds = data.draw(st.integers(min_value=1, max_value=6))
    scheduler = ContentionScheduler(focus=focus)
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    for _ in range(rounds):
        pending = data.draw(
            st.lists(st.sampled_from(REGISTERS), min_size=n, max_size=n)
        )
        scheduler.observe_pending(dict(enumerate(pending)))
        # Crashed pids drop out of the active set; their (stale)
        # contending membership must not leak into the draw.
        active = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=n,
                unique=True,
            ).map(sorted)
        )
        draws = data.draw(st.integers(min_value=1, max_value=8))
        for t in range(draws):
            expected = int(
                active[
                    oracle_rng.choice(
                        len(active), p=scheduler._probabilities(active)
                    )
                ]
            )
            assert scheduler.select(t, active, rng) == expected
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


# -- run_batched == run ---------------------------------------------------------


def _mixed_method(pid):
    """Read-then-CAS on a register shared by every third pid, then a write
    to the hot spot: pending registers (and so the contending set) change
    every step."""
    shared = f"r{pid % 3}"
    value = yield Read(shared)
    yield CAS(shared, value, (value or 0) + 1)
    yield Write("hot", pid)
    return pid


WORKLOADS = {
    "mixed": (
        lambda calls: repeat_method(_mixed_method, method="mixed", calls=calls),
        Memory,
    ),
    "tas-lock": (lambda calls: tas_lock_counter(calls=calls), make_tas_memory),
    "msqueue": (lambda calls: ms_queue_workload(calls=calls), make_queue_memory),
    "treiber": (lambda calls: treiber_workload(calls=calls), make_stack_memory),
}


def _build(workload, n, calls, crash_times, focus, seed):
    factory, memory = WORKLOADS[workload]
    return Simulator(
        factory(calls),
        ContentionScheduler(focus=focus),
        n_processes=n,
        memory=memory(),
        crash_times=crash_times,
        record_schedule=True,
        record_history=True,
        rng=seed,
    )


def _registers(memory):
    return {
        name: (reg.reads, reg.writes, reg.cas_attempts, reg.cas_successes,
               reg.rmws, repr(reg.value))
        for name, reg in memory.registers().items()
    }


def _observable(sim):
    recorder = sim.recorder
    return {
        "schedule": recorder.schedule.as_array().tolist(),
        "completion_times": list(recorder.completion_times),
        "completion_pids": list(recorder.completion_pids),
        "completions": list(recorder.completions),
        "steps": list(recorder.steps),
        "total_steps": recorder.total_steps,
        "invocations": sim.history.invocations,
        "responses": sim.history.responses,
        "process_steps": [p.steps for p in sim.processes],
        "process_state": [(p.completions, p.crashed, p.done) for p in sim.processes],
        "registers": _registers(sim.memory),
        "total_operations": sim.memory.total_operations,
        "rng": sim.rng.bit_generator.state,
        "contending": sim.scheduler.state_snapshot(),
        "time": sim.time,
    }


def _result(result):
    return (
        result.steps_executed,
        result.steps_this_run,
        result.completions_this_run,
        result.stopped_early,
    )


segment = st.tuples(
    st.sampled_from(["run", "batched"]),
    st.integers(min_value=0, max_value=400),
    st.sampled_from([1, 7, 4096]),
)


@settings(max_examples=40, deadline=None)
@given(
    workload=st.sampled_from(sorted(WORKLOADS)),
    n=st.integers(min_value=2, max_value=8),
    calls=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    crashes=st.dictionaries(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=900),
        max_size=4,
    ),
    stop=st.one_of(
        st.just({}),
        st.builds(
            lambda k: {"stop_after_completions": k},
            st.integers(min_value=0, max_value=60),
        ),
        st.builds(
            lambda pid: {"stop_after_completions_by": pid},
            st.integers(min_value=0, max_value=1),
        ),
    ),
    segments=st.lists(segment, min_size=1, max_size=4),
    focus=st.sampled_from(FOCUSES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_run_batched_equals_run(
    workload, n, calls, crashes, stop, segments, focus, seed
):
    crash_times = {pid: t for pid, t in crashes.items() if pid < n}
    reference = _build(workload, n, calls, crash_times, focus, seed)
    mixed = _build(workload, n, calls, crash_times, focus, seed)
    for engine, steps, batch_size in segments:
        expected = reference.run(steps, **stop)
        if engine == "run":
            got = mixed.run(steps, **stop)
        else:
            got = mixed.run_batched(steps, batch_size=batch_size, **stop)
        assert _result(got) == _result(expected)
        assert _observable(mixed) == _observable(reference)


def test_contending_pid_crashing_mid_block():
    """Pids 0 and 3 share register ``r0`` from their first step; both
    crash inside what would otherwise be one 4096-step block."""
    crash_times = {0: 37, 3: 38, 5: 611}
    reference = _build("mixed", 6, None, crash_times, 8.0, 11)
    batched = _build("mixed", 6, None, crash_times, 8.0, 11)
    reference.run(1_500)
    batched.run_batched(1_500)
    assert reference.processes[0].crashed and reference.processes[3].crashed
    assert _observable(batched) == _observable(reference)
