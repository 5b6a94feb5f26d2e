"""Backend equivalence for the pluggable resolution kernels.

The numpy backend is the oracle: every compiled backend (cc via ctypes,
numba when installed) must produce bit-identical outputs from both
resolvers on arbitrary schedules.  The suite also pins the selection
semantics of :func:`get_kernel` — ``auto`` silently falling back to
numpy, and loud :class:`KernelUnavailable` for explicit backends that
cannot be provided.  The numba cases skip cleanly when
numba is absent (CI runs them in a dedicated optional-numba job).
"""

import numpy as np
import pytest

from repro.sim import kernels
from repro.sim.kernels import (
    KERNEL_NAMES,
    KernelUnavailable,
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


def random_schedule(rng, n, steps):
    return rng.integers(0, n, size=steps).astype(np.int64)


def assert_resolution_equal(left, right):
    assert len(left) == len(right) == 6
    for left_arr, right_arr in zip(left, right):
        assert np.array_equal(left_arr, right_arr)


def compiled_backend(name):
    if name not in available_backends():
        pytest.skip(f"{name} backend unavailable: {kernel_diagnostics()[name]}")
    return get_kernel(name)


SHAPES = [(0, 1), (0, 3), (2, 1), (3, 2)]


@pytest.mark.parametrize("backend_name", ["cc", "numba"])
@pytest.mark.parametrize("q,s", SHAPES, ids=[f"q{q}s{s}" for q, s in SHAPES])
def test_backend_matches_numpy_oracle(backend_name, q, s):
    backend = compiled_backend(backend_name)
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(1, 12))
        steps = int(rng.integers(0, 3000))
        sched = random_schedule(rng, n, steps)
        if q == 0:
            expected = resolve_flat(sched, n, s, ORACLE)
            actual = resolve_flat(sched, n, s, backend)
        else:
            expected = resolve_heap(sched, n, q, s, ORACLE)
            actual = resolve_heap(sched, n, q, s, backend)
        assert_resolution_equal(expected, actual)


@pytest.mark.parametrize("backend_name", ["cc", "numba"])
def test_backend_edge_cases(backend_name):
    backend = compiled_backend(backend_name)
    empty = np.empty(0, dtype=np.int64)
    # No steps at all; a schedule too short for any attempt; one process.
    for sched, n in [
        (empty, 3),
        (np.zeros(1, dtype=np.int64), 2),
        (np.zeros(50, dtype=np.int64), 1),
    ]:
        assert_resolution_equal(
            resolve_flat(sched, n, 1, ORACLE), resolve_flat(sched, n, 1, backend)
        )
        assert_resolution_equal(
            resolve_heap(sched, n, 2, 1, ORACLE),
            resolve_heap(sched, n, 2, 1, backend),
        )


@pytest.mark.parametrize("backend_name", ["cc", "numba"])
def test_backend_heap_scan_on_fused_stack(backend_name):
    """The stacked-replicate layout the fused path feeds the kernels."""
    backend = compiled_backend(backend_name)
    rng = np.random.default_rng(5)
    blocks = []
    pid_base = 0
    for n in (3, 5, 2):
        blocks.append(random_schedule(rng, n, 700) + pid_base)
        pid_base += n
    stacked = np.concatenate(blocks)
    assert_resolution_equal(
        resolve_heap(stacked, pid_base, 2, 2, ORACLE),
        resolve_heap(stacked, pid_base, 2, 2, backend),
    )


@pytest.mark.parametrize("backend_name", ["numpy", "cc", "numba"])
@pytest.mark.parametrize("bad_pid", [3, -1, 2**40])
def test_out_of_range_pid_raises(backend_name, bad_pid):
    """A pid outside ``[0, n)`` fails loudly, naming the pid and its
    position, through every public resolver on every backend."""
    backend = ORACLE if backend_name == "numpy" else compiled_backend(backend_name)
    sched = np.asarray([0, 1, 2, 1, bad_pid, 0], dtype=np.int64)
    pid_base = np.asarray([0, 1, 3], dtype=np.int64)
    calls = [
        lambda: resolve_flat(sched, 3, 1, backend),
        lambda: resolve_heap(sched, 3, 2, 1, backend),
        lambda: resolve_flat_stacked(sched, pid_base, 1, backend),
        lambda: resolve_heap_stacked(sched, pid_base, 2, 1, backend),
    ]
    message = rf"pid {bad_pid} at position 4 is outside \[0, 3\)"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_ensemble_engine_kernel_equivalence():
    """End to end: an EnsembleSimulator run is identical under every
    available backend name."""
    from repro.algorithms.scu import ScuStepKernel, make_scu_memory
    from repro.core.scheduler import UniformStochasticScheduler
    from repro.sim import EnsembleReplicate, EnsembleSimulator

    def outcomes(engine_kernel):
        members = [
            EnsembleReplicate(
                ScuStepKernel(2, 1),
                4,
                UniformStochasticScheduler(),
                make_scu_memory(1),
                rng=(31, r),
            )
            for r in range(3)
        ]
        return EnsembleSimulator(members, engine_kernel=engine_kernel).run(400)

    reference = outcomes("numpy")
    for name in available_backends():
        result = outcomes(name)
        for left, right in zip(reference, result):
            assert np.array_equal(left.completion_times, right.completion_times)
            assert np.array_equal(left.completion_pids, right.completion_pids)
            assert vars(left.memory) == vars(right.memory)


# -- stacked resolvers ---------------------------------------------------------


def fused_stack(rng, n_values, steps):
    """A fused replicate stack plus its pid offset table."""
    pid_base = [0]
    blocks = []
    for n in n_values:
        blocks.append(random_schedule(rng, n, steps) + pid_base[-1])
        pid_base.append(pid_base[-1] + n)
    return np.concatenate(blocks), np.asarray(pid_base, dtype=np.int64)


@pytest.mark.parametrize("q,s", SHAPES, ids=[f"q{q}s{s}" for q, s in SHAPES])
def test_stacked_resolvers_match_single_pass_oracle(q, s):
    """``resolve_*_stacked`` on a fused stack is bit-identical to the
    single-pass resolvers — the concatenation theorem as an API."""
    rng = np.random.default_rng(29)
    for n_values, steps in [((3, 5, 2), 400), ((1,), 200), ((4, 4), 0)]:
        stacked, pid_base = fused_stack(rng, n_values, steps)
        n = int(pid_base[-1])
        if q == 0:
            expected = resolve_flat(stacked, n, s, ORACLE)
            actual = resolve_flat_stacked(stacked, pid_base, s, ORACLE)
        else:
            expected = resolve_heap(stacked, n, q, s, ORACLE)
            actual = resolve_heap_stacked(stacked, pid_base, q, s, ORACLE)
        assert_resolution_equal(expected, actual)


@pytest.mark.parametrize("backend_name", ["cc", "numba"])
@pytest.mark.parametrize("q,s", SHAPES, ids=[f"q{q}s{s}" for q, s in SHAPES])
def test_stacked_resolvers_match_oracle_on_backends(backend_name, q, s):
    """Compiled backends resolve fused stacks bit-identically to the
    numpy oracle."""
    backend = compiled_backend(backend_name)
    rng = np.random.default_rng(41)
    for trial in range(8):
        count = int(rng.integers(1, 5))
        n_values = tuple(int(rng.integers(1, 8)) for _ in range(count))
        steps = int(rng.integers(0, 900))
        stacked, pid_base = fused_stack(rng, n_values, steps)
        n = int(pid_base[-1])
        if q == 0:
            expected = resolve_flat(stacked, n, s, ORACLE)
            actual = resolve_flat_stacked(stacked, pid_base, s, backend)
        else:
            expected = resolve_heap(stacked, n, q, s, ORACLE)
            actual = resolve_heap_stacked(stacked, pid_base, q, s, backend)
        assert_resolution_equal(expected, actual)


# -- selection semantics -------------------------------------------------------


def test_numpy_backend_always_available():
    assert "numpy" in available_backends()
    assert isinstance(get_kernel("numpy"), NumpyKernel)
    assert kernel_diagnostics()["numpy"] == "available"


def test_unknown_kernel_name_rejected():
    with pytest.raises(ValueError, match="unknown engine kernel"):
        get_kernel("fortran")
    assert "fortran" not in KERNEL_NAMES


def test_explicit_unavailable_backend_raises():
    missing = [
        name
        for name in ("numba", "cc")
        if name not in available_backends()
    ]
    if not missing:
        pytest.skip("every compiled backend is available here")
    with pytest.raises(KernelUnavailable, match=missing[0]):
        get_kernel(missing[0])


def test_auto_prefers_compiled_when_available():
    kernel = get_kernel("auto")
    compiled = [n for n in ("numba", "cc") if n in available_backends()]
    if compiled:
        assert kernel.name in compiled
    else:
        assert kernel.name == "numpy"


def test_auto_falls_back_to_numpy_silently(monkeypatch):
    """With no compiled backend, ``auto`` is the numpy kernel, without a
    warning; ``compiled`` is not a kernel name."""
    import warnings

    monkeypatch.setattr(kernels, "_KERNELS", {})
    monkeypatch.setattr(
        kernels, "_FAILURES", {"numba": "forced off", "cc": "forced off"}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert isinstance(get_kernel("auto"), NumpyKernel)
    assert KERNEL_NAMES == ("auto", "numpy", "numba", "cc")
    with pytest.raises(ValueError, match="unknown engine kernel 'compiled'"):
        get_kernel("compiled")


def test_cc_build_caches_shared_object(tmp_path, monkeypatch):
    if "cc" not in available_backends():
        pytest.skip("no C compiler on this machine")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    first = kernels._build_cc_library()
    built = list(tmp_path.glob("resolve_*.so"))
    assert len(built) == 1
    mtime = built[0].stat().st_mtime_ns
    second = kernels._build_cc_library()
    assert built[0].stat().st_mtime_ns == mtime  # reused, not rebuilt
    assert first is not second  # fresh CDLL handles over the same file
