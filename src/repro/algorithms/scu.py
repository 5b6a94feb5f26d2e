"""The generic ``SCU(q, s)`` skeleton (Section 5, Algorithm 2).

An algorithm in ``SCU(q, s)`` runs a *preamble* of ``q`` steps (auxiliary
work: local updates, allocation — memory traffic that does not touch the
decision register), then loops through a *scan region* of ``s`` reads
(the decision register ``R`` plus ``s - 1`` auxiliary registers) followed
by a *validation* CAS on ``R``.  A successful CAS completes the method
call; a failed CAS restarts the loop.

Per the paper's assumptions, two processes never propose the same value
for ``R`` — here each proposal carries a ``(pid, sequence)`` timestamp,
which is exactly the paper's suggested fix ("this can be easily enforced
by adding a timestamp to each request").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Tuple

import numpy as np

from repro.sim.memory import Memory
from repro.sim.ops import CAS, Nop, Read
from repro.sim.process import Completion, Invoke, ProcessFactory

DEFAULT_DECISION = "R"
DEFAULT_AUX_PREFIX = "R_aux"


@dataclass(frozen=True)
class Proposal:
    """A timestamped proposed state for the decision register.

    ``payload`` is the logical new state; the ``(pid, sequence)`` pair
    makes proposals globally unique so CAS comparisons are unambiguous.
    """

    pid: int
    sequence: int
    payload: Any = None


def aux_register(index: int, prefix: str = DEFAULT_AUX_PREFIX) -> str:
    """Name of the ``index``-th auxiliary scan register (1-based)."""
    return f"{prefix}{index}"


@dataclass(frozen=True)
class ScuStepKernel:
    """Array-encodable step kernel for ``SCU(q, s)`` (ensemble engine).

    Proposals are globally unique (``(pid, sequence)`` timestamps), so the
    decision register acts as a version counter: a validating CAS succeeds
    iff no other CAS succeeded between its decision read and itself — the
    event condition :class:`repro.sim.EnsembleSimulator` resolves.
    ``commit`` rebuilds the final decision register from the time-ordered
    success events (each committed proposal's payload is the previous
    register value, per Algorithm 2) and settles the access counters in
    closed form: per completed attempt one read of the decision register
    and of each auxiliary register plus one CAS attempt, plus the partial
    reads of an unfinished attempt (``phase`` past the register's scan
    position).  Preamble steps are ``Nop``s and touch no register.
    A replicate without a memory has nothing to rebuild, and ``commit``
    returns at once.
    """

    q: int
    s: int
    decision: str = DEFAULT_DECISION
    aux_prefix: str = DEFAULT_AUX_PREFIX

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError("q must be non-negative")
        if self.s < 1:
            raise ValueError("s must be at least 1 (the decision register read)")

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
        attempts = int(seq.sum())
        reg = memory[self.decision]
        reg.reads += attempts + int(np.count_nonzero(phase > self.q))
        reg.cas_attempts += attempts
        reg.cas_successes += int(success_pids.shape[0])
        value = reg.value
        for pid, sequence in zip(success_pids.tolist(), success_seqs.tolist()):
            value = Proposal(pid, sequence, payload=value)
        reg.value = value
        for index in range(1, self.s):
            aux = memory[aux_register(index, self.aux_prefix)]
            aux.reads += attempts + int(np.count_nonzero(phase > self.q + index))


def scu_method(
    pid: int,
    q: int,
    s: int,
    *,
    sequence_start: int = 0,
    decision: str = DEFAULT_DECISION,
    aux_prefix: str = DEFAULT_AUX_PREFIX,
) -> Generator[Any, Any, Proposal]:
    """One ``SCU(q, s)`` method call; returns the committed proposal.

    Parameters mirror Algorithm 2: ``q`` preamble steps and ``s`` scan
    steps (``s >= 1``; the first scan step reads the decision register).
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    if s < 1:
        raise ValueError("s must be at least 1 (the decision register read)")
    # Operations are immutable values, so the loop-invariant ones are
    # built once up front instead of on every yield (hot-path allocation).
    nop = Nop()
    read_decision = Read(decision)
    aux_reads = [Read(aux_register(index, aux_prefix)) for index in range(1, s)]
    # Preamble region: q steps of auxiliary memory traffic.  They may
    # update the aux registers but never the decision register.
    for step in range(q):
        yield nop
    sequence = sequence_start
    while True:
        # Scan region: read the decision register, then the s - 1
        # auxiliary registers (the order is irrelevant to the analysis).
        view = yield read_decision
        for aux_read in aux_reads:
            yield aux_read
        proposal = Proposal(pid, sequence, payload=view)
        sequence += 1
        # Validation step.
        success = yield CAS(decision, view, proposal)
        if success:
            return proposal


def scu_algorithm(
    q: int,
    s: int,
    *,
    calls: Optional[int] = None,
    decision: str = DEFAULT_DECISION,
    aux_prefix: str = DEFAULT_AUX_PREFIX,
) -> ProcessFactory:
    """Process factory: an endless stream of ``SCU(q, s)`` method calls.

    Proposal sequence numbers continue across calls so every proposal a
    process ever makes is distinct.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    if s < 1:
        raise ValueError("s must be at least 1 (the decision register read)")
    sequence_counters = {}
    method = f"scu({q},{s})"

    def factory(pid: int):
        # Flattened fast path: a single generator frame instead of the
        # repeat_method -> method_call -> scu_method delegation chain.
        # The executor pays one ``send`` per frame per step, so nesting
        # depth is a direct per-step cost.  Must stay trace-identical to
        # ``repeat_method`` around :func:`scu_method` — enforced by
        # tests/algorithms/test_scu_generic.py.
        nop = Nop()
        read_decision = Read(decision)
        aux_reads = [Read(aux_register(index, aux_prefix)) for index in range(1, s)]
        invoke = Invoke(method)
        sequence = sequence_counters.get(pid, 0)
        count = 0
        while calls is None or count < calls:
            yield invoke
            for _ in range(q):
                yield nop
            while True:
                view = yield read_decision
                for aux_read in aux_reads:
                    yield aux_read
                proposal = Proposal(pid, sequence, payload=view)
                sequence += 1
                if (yield CAS(decision, view, proposal)):
                    break
            sequence_counters[pid] = sequence
            yield Completion(proposal, method)
            count += 1

    if calls is None:
        # Endless symmetric workloads are ensemble-resolvable; expose the
        # kernel so EnsembleSimulator / latency_sweep(engine="ensemble")
        # can pick it up from the factory.
        factory.vector_kernel = ScuStepKernel(
            q, s, decision=decision, aux_prefix=aux_prefix
        )
    return factory


def make_scu_memory(
    s: int,
    *,
    decision: str = DEFAULT_DECISION,
    aux_prefix: str = DEFAULT_AUX_PREFIX,
    initial: Any = None,
) -> Memory:
    """A memory with the decision and auxiliary registers initialised."""
    memory = Memory()
    memory.register(decision, initial)
    for index in range(1, s):
        memory.register(aux_register(index, aux_prefix), 0)
    return memory
