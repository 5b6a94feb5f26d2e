"""Property tests: ``ContentionScheduler.select_from_uniform``.

The batched engine draws a block of uniforms at once and picks each
step with ``select_from_uniform(active, u)``; the serial engine calls
``select``.  ``select(t, active, rng)`` must therefore equal
``select_from_uniform(active, twin.random())`` draw for draw, leaving
``rng`` and its twin in the same state, over any pending map and any
crashed subset.  A scheduler fed the pending operations without that
method is refused when the ``Simulator`` is built.  A step that raises
mid-block, or a pick of an inactive pid, leaves the RNG where the serial
engine leaves it, under a contention scheduler (one uniform per pick
made) and under the uniform one (one select per step taken, plus the
refused pick).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.msqueue import make_queue_memory, ms_queue_workload
from repro.core.scheduler import ContentionScheduler, UniformStochasticScheduler
from repro.sim.executor import Simulator
from repro.sim.ops import Read

REGISTERS = ("hot", "warm", "cold", None)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    focus=st.sampled_from((1.0, 2.7, 4.0, 8.0, 1e3)),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_select_equals_select_from_uniform_on_a_twin(n, focus, data, seed):
    serial = ContentionScheduler(focus=focus)
    blockwise = ContentionScheduler(focus=focus)
    rng = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    for round_ in range(data.draw(st.integers(min_value=1, max_value=6))):
        pending = dict(
            enumerate(
                data.draw(
                    st.lists(st.sampled_from(REGISTERS), min_size=n, max_size=n)
                )
            )
        )
        serial.observe_pending(pending)
        blockwise.observe_pending(pending)
        assert serial.state_snapshot() == blockwise.state_snapshot()
        # Crashed pids leave the active set; their stale contending bit
        # must not change the pick.
        active = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=n,
                unique=True,
            ).map(sorted)
        )
        for t in range(data.draw(st.integers(min_value=1, max_value=8))):
            picked = serial.select(round_ + t, active, rng)
            assert picked == blockwise.select_from_uniform(active, twin.random())
            assert picked in active
    assert rng.bit_generator.state == twin.bit_generator.state


def test_snapshot_is_a_frozenset_of_contending_pids():
    scheduler = ContentionScheduler()
    scheduler.observe_pending({0: "a", 3: "a", 5: "b", 9: None, 70: "b"})
    snapshot = scheduler.state_snapshot()
    assert snapshot == frozenset({0, 3, 5, 70})
    scheduler.observe_pending({})
    assert scheduler.state_snapshot() == frozenset()
    scheduler.state_restore(snapshot)
    assert scheduler.state_snapshot() == snapshot


class _ObservedWithoutUniformPick(UniformStochasticScheduler):
    def observe_pending(self, pending):
        pass


def test_observed_scheduler_without_select_from_uniform_is_refused():
    with pytest.raises(TypeError, match="select_from_uniform"):
        Simulator(
            ms_queue_workload(),
            _ObservedWithoutUniformPick(),
            n_processes=3,
            memory=make_queue_memory(),
            rng=0,
        )


def _reads_then_raise(pid):
    for _ in range(50):
        yield Read("hot" if pid < 2 else "cold")
    raise ArithmeticError(f"process {pid} gave up")


def _reads_forever(pid):
    while True:
        yield Read("hot" if pid < 2 else "cold")


class _PicksOutsideActive(ContentionScheduler):
    def select_from_uniform(self, active, u):
        return 99 if u < 0.01 else super().select_from_uniform(active, u)


class _UniformPicksOutsideActive(UniformStochasticScheduler):
    """Uniform, except that the pick for step 37 is pid 99."""

    def select(self, time, active, rng):
        pid = super().select(time, active, rng)
        return 99 if time == 37 else pid

    def select_batch(self, time, active, rng, size):
        pids = np.array(super().select_batch(time, active, rng, size))
        if time <= 37 < time + size:
            pids[37 - time] = 99
        return pids


@pytest.mark.parametrize(
    "factory, make_scheduler, error",
    [
        (_reads_then_raise, lambda: ContentionScheduler(focus=4.0), ArithmeticError),
        (_reads_forever, lambda: _PicksOutsideActive(focus=4.0), RuntimeError),
        (_reads_then_raise, UniformStochasticScheduler, ArithmeticError),
        (_reads_forever, _UniformPicksOutsideActive, RuntimeError),
    ],
    ids=["contention-raise", "contention-pid99", "uniform-raise", "uniform-pid99"],
)
def test_raising_step_leaves_rng_where_serial_leaves_it(
    factory, make_scheduler, error
):
    ends = []
    for batched in (False, True):
        sim = Simulator(
            [factory] * 3, make_scheduler(), rng=np.random.default_rng(11)
        )
        with pytest.raises(error):
            sim.run_batched(1_000) if batched else sim.run(1_000)
        ends.append((sim.time, sim.rng.bit_generator.state, sim.recorder.steps))
    assert 0 < ends[0][0] < 1_000
    assert ends[0] == ends[1]
