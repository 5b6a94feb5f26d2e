"""Shared fixtures for the test suite."""

import glob
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.scheduler import UniformStochasticScheduler


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def uniform_scheduler():
    """The paper's uniform stochastic scheduler."""
    return UniformStochasticScheduler()


def dispatch_segments():
    """Shared-memory dispatch segments named by this process or one of
    its live workers.

    Segment names carry their creator's pid (``repro-{digest}-{pid}-
    {n}-{t|r}``, :class:`repro.core.shm.SweepTaskBuffers`), so another
    test process on the same host never shows up here.
    """
    if not os.path.isdir("/dev/shm"):  # pragma: no cover — non-Linux
        return []
    pids = {os.getpid()} | {
        child.pid for child in multiprocessing.active_children()
    }
    return sorted(
        path
        for pid in pids
        for path in glob.glob(f"/dev/shm/repro-{'?' * 8}-{pid}-*")
    )


@pytest.fixture
def shm_segments():
    """Asserts the test leaves no dispatch segment of this process
    behind — worker kills, hangs and poison replicates included — and
    yields :func:`dispatch_segments` for checks at the scene."""
    assert dispatch_segments() == []
    yield dispatch_segments
    assert dispatch_segments() == []
