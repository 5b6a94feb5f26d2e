"""The CAS-loop fetch-and-increment counter — ``SCU(0, 1)``.

This is the implementation the paper measures in Appendix B (Figure 5):
"a fetch-and-increment counter implementation which simply reads the value
``v`` of a shared register ``R``, and then attempts to increment the value
using a ``CAS(R, v, v + 1)`` call."

Each attempt costs two steps (one read, one CAS); the method call
completes at the step of the successful CAS.  The predicted completion
rate under the uniform stochastic scheduler is ``Theta(1/sqrt(n))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.sim.memory import Memory
from repro.sim.ops import CAS, Read
from repro.sim.process import Completion, Invoke, ProcessFactory

DEFAULT_REGISTER = "counter"


@dataclass(frozen=True)
class CounterStepKernel:
    """Array-encodable step kernel for the CAS counter (ensemble engine).

    The counter is the ``q = 0, s = 1`` shape: each attempt is a read
    followed by a validating ``CAS(v, v + 1)``.  The register value is its
    own version counter (it increments exactly on success), so a CAS
    succeeds iff no other CAS succeeded between its read and itself —
    which is the event condition :class:`repro.sim.EnsembleSimulator`
    resolves.  ``commit`` reconstructs the final register (value and
    access counters) in closed form from the per-process end state:
    every attempt contributes one read and one CAS attempt, plus one
    dangling read when a process ends mid-attempt (``phase == 1``).
    A replicate without a memory has nothing to rebuild, and ``commit``
    returns at once.
    """

    register: str = DEFAULT_REGISTER

    q = 0
    s = 1

    def commit(
        self,
        memory: Optional[Memory],
        *,
        seq: np.ndarray,
        phase: np.ndarray,
        success_pids: np.ndarray,
        success_seqs: np.ndarray,
    ) -> None:
        if memory is None:
            return
        reg = memory[self.register]
        attempts = int(seq.sum())
        reg.reads += attempts + int(np.count_nonzero(phase > 0))
        reg.cas_attempts += attempts
        successes = int(success_pids.shape[0])
        reg.cas_successes += successes
        if successes:
            reg.value = reg.value + successes


def cas_counter_method(
    pid: int, register: str = DEFAULT_REGISTER
) -> Generator[Any, Any, int]:
    """One fetch-and-increment method call; returns the fetched value."""
    read = Read(register)
    while True:
        value = yield read
        success = yield CAS(register, value, value + 1)
        if success:
            return value


def cas_counter(
    register: str = DEFAULT_REGISTER,
    *,
    calls: Optional[int] = None,
) -> ProcessFactory:
    """Process factory: an endless (or ``calls``-bounded) stream of
    fetch-and-increment operations on ``register``.

    Initialise the register to 0 with :func:`make_counter_memory` (or any
    integer) before running.
    """

    def factory(pid: int):
        # Flattened fast path: one generator frame instead of the
        # repeat_method -> cas_counter_method delegation, since each
        # executor step pays one ``send`` per frame.  Must stay
        # trace-identical to ``repeat_method`` around
        # :func:`cas_counter_method` — enforced by
        # tests/algorithms/test_counter.py.
        read = Read(register)
        invoke = Invoke("fetch_and_inc")
        count = 0
        while calls is None or count < calls:
            yield invoke
            while True:
                value = yield read
                if (yield CAS(register, value, value + 1)):
                    break
            yield Completion(value, "fetch_and_inc")
            count += 1

    if calls is None:
        # Endless symmetric workloads are ensemble-resolvable; expose the
        # kernel so EnsembleSimulator / latency_sweep(engine="ensemble")
        # can pick it up from the factory.
        factory.vector_kernel = CounterStepKernel(register)
    return factory


def make_counter_memory(register: str = DEFAULT_REGISTER, initial: int = 0) -> Memory:
    """A memory with the counter register initialised."""
    memory = Memory()
    memory.register(register, initial)
    return memory
