"""Discrete-time shared-memory simulator.

This package implements the paper's system model (Section 2.1): ``n``
processes communicate through atomic registers supporting ``read``,
``write`` and ``compare-and-swap``; at every discrete time step exactly one
process — chosen by a pluggable scheduler — performs one shared-memory
operation (local computation is free).

Algorithms are Python generators that ``yield`` operation objects
(:mod:`repro.sim.ops`); the executor applies each operation atomically and
sends the result back into the generator.  This substitutes for the paper's
real multicore testbed: Python's GIL rules out genuine lock-free execution,
but the paper's analysis is stated entirely in this discrete-time model, so
simulating the model directly exercises exactly the behaviour the paper
predicts (see DESIGN.md, "Hardware / data substitutions").
"""

from repro.sim.ensemble import (
    EnsembleReplicate,
    EnsembleResult,
    EnsembleSimulator,
    EnsembleWorkspace,
    ReplicateOutcome,
)
from repro.sim.executor import SimulationResult, Simulator
from repro.sim.history import History, Invocation, Response
from repro.sim.memory import Memory, Register
from repro.sim.ops import (
    CAS,
    FetchAndIncrement,
    Nop,
    Operation,
    Read,
    ReadModifyWrite,
    Write,
    augmented_cas,
)
from repro.sim.process import Completion, Invoke, Process, repeat_method
from repro.sim.recording import ScheduleRecording, record_schedule
from repro.sim.trace import ScheduleTrace, TraceRecorder

__all__ = [
    "CAS",
    "Completion",
    "EnsembleReplicate",
    "EnsembleResult",
    "EnsembleSimulator",
    "EnsembleWorkspace",
    "FetchAndIncrement",
    "History",
    "Invocation",
    "Invoke",
    "Memory",
    "Nop",
    "Operation",
    "Process",
    "Read",
    "ReadModifyWrite",
    "Register",
    "ReplicateOutcome",
    "Response",
    "ScheduleRecording",
    "ScheduleTrace",
    "SimulationResult",
    "Simulator",
    "TraceRecorder",
    "Write",
    "augmented_cas",
    "record_schedule",
    "repeat_method",
]
