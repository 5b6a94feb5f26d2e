"""Property test: the compiled resolve kernel equals the numpy oracle.

The compiled cc backend resolves every ``SCU(q, s)`` schedule with one
time-ordered scan.  The numpy backend shares no algorithm with that
scan — a vectorized successor-chain walk for ``q == 0`` and a
``heapq`` scan otherwise — so agreement between
them, dtypes included, is an independent check.  Hypothesis draws fused
replicate stacks with mixed process counts and pid offsets, including
replicates whose processes crash (a pid that stops appearing
mid-schedule); ``q == 0`` stacks are checked against both oracle
algorithms.  One fixed-seed case runs the Figure 5 CAS grid at full
scale.  The cases skip only on a host without a C compiler.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernels import (
    NumpyKernel,
    available_backends,
    get_kernel,
    kernel_diagnostics,
    resolve_flat,
    resolve_flat_stacked,
    resolve_heap,
    resolve_heap_stacked,
)

ORACLE = NumpyKernel()
BACKENDS = ["cc"]


def compiled_backend(name):
    if name not in available_backends():
        pytest.skip(f"{name} backend unavailable: {kernel_diagnostics()[name]}")
    return get_kernel(name)


def assert_identical(expected, actual):
    assert len(expected) == len(actual) == 6
    for left, right in zip(expected, actual):
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)


def replicate_schedule(rng, n, steps, crashes):
    """A uniform schedule over ``n`` pids in which pid ``p`` stops
    appearing from time ``crashes[p]`` on (at least one pid survives)."""
    sched = np.empty(steps, dtype=np.int64)
    active = list(range(n))
    time = 0
    for boundary, pid in sorted((t, p) for p, t in crashes.items()):
        if boundary > time:
            sched[time:boundary] = rng.choice(active, size=boundary - time)
            time = boundary
        active.remove(pid)
    sched[time:] = rng.choice(active, size=steps - time)
    return sched


@st.composite
def replicates(draw, crash=False):
    n = draw(st.integers(2 if crash else 1, 10))
    steps = draw(st.integers(0, 300))
    crashed = (
        draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=n - 1))
        if crash
        else []
    )
    return n, steps, {pid: draw(st.integers(0, steps)) for pid in crashed}


def build_stack(seed, members):
    """Stack replicate schedules in time, each pid range offset."""
    rng = np.random.default_rng(seed)
    pid_base = [0]
    blocks = []
    for n, steps, crashes in members:
        blocks.append(replicate_schedule(rng, n, steps, crashes) + pid_base[-1])
        pid_base.append(pid_base[-1] + n)
    return np.concatenate(blocks), np.asarray(pid_base, dtype=np.int64)


def check_stack(backend, stacked, pid_base, q, s):
    n = int(pid_base[-1])
    expected = resolve_heap(stacked, n, q, s, ORACLE)
    assert_identical(expected, resolve_heap_stacked(stacked, pid_base, q, s, backend))
    if q == 0:
        assert_identical(expected, resolve_flat(stacked, n, s, ORACLE))
        assert_identical(
            expected, resolve_flat_stacked(stacked, pid_base, s, backend)
        )


SEEDS = st.integers(0, 2**32 - 1)
SHAPE_Q = st.integers(0, 3)
SHAPE_S = st.integers(0, 3)


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS,
    members=st.lists(replicates(), min_size=1, max_size=5),
    q=SHAPE_Q,
    s=SHAPE_S,
)
def test_fused_stacks_match_oracle(backend_name, seed, members, q, s):
    backend = compiled_backend(backend_name)
    stacked, pid_base = build_stack(seed, members)
    check_stack(backend, stacked, pid_base, q, s)


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS,
    crashing=replicates(crash=True),
    others=st.lists(replicates(), max_size=3),
    position=st.integers(0, 3),
    q=SHAPE_Q,
    s=SHAPE_S,
)
def test_crash_truncated_stacks_match_oracle(
    backend_name, seed, crashing, others, position, q, s
):
    backend = compiled_backend(backend_name)
    members = others[:position] + [crashing] + others[position:]
    stacked, pid_base = build_stack(seed, members)
    check_stack(backend, stacked, pid_base, q, s)


@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS,
    members=st.lists(
        st.one_of(replicates(), replicates(crash=True)), min_size=1, max_size=4
    ),
    s=SHAPE_S,
)
def test_q0_matches_both_oracle_algorithms(backend_name, seed, members, s):
    backend = compiled_backend(backend_name)
    stacked, pid_base = build_stack(seed, members)
    check_stack(backend, stacked, pid_base, 0, s)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_fig5_scale_cas_stack_matches_oracle(backend_name):
    """The Figure 5 CAS grid as one stack: 16 replicates at each of
    n = 4..64, 20k steps each (1.6M steps over 1984 pids)."""
    backend = compiled_backend(backend_name)
    members = [(n, 20_000, {}) for n in (4, 8, 16, 32, 64) for _ in range(16)]
    stacked, pid_base = build_stack(5, members)
    n = int(pid_base[-1])
    assert_identical(
        resolve_flat(stacked, n, 1, ORACLE),
        resolve_flat_stacked(stacked, pid_base, 1, backend),
    )
