"""Shared-memory operations.

Each operation object names a register and carries the operation's
arguments.  An algorithm generator ``yield``s one of these per *step* — a
step being a single shared-memory access, matching the paper's cost model
(Section 2.1).  The executor applies the operation atomically and sends the
result back as the value of the ``yield`` expression.

Operation results:

=====================  =======================================================
``Read``               the register's current value
``Write``              ``None``
``CAS``                ``True`` on success, ``False`` on failure (classic CAS)
``ReadModifyWrite``    the register's *previous* value (covers the paper's
                       "augmented CAS" of Section 7 via :func:`augmented_cas`,
                       and atomic fetch-and-increment)
``FetchAndIncrement``  the register's previous value
``Nop``                ``None`` (a step with no semantic effect — models
                       preamble memory traffic that does not touch the
                       analysed registers)
=====================  =======================================================

Operations are values: two compare equal when their class and fields do.
They are immutable by convention only.  Every simulated step builds one,
so they are ``@dataclass(slots=True)`` rather than frozen: a frozen
dataclass's ``__init__`` pays one ``object.__setattr__`` per field, and
constructing a ``Read`` took 400-515 ns frozen against 200 ns slotted,
a ``CAS`` 750-795 ns against 220 ns (CPython 3.11, Xeon).  The price is
that an operation is unhashable and nothing stops a caller from
assigning to a field; the simulator neither hashes nor mutates one, and
algorithms must not either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(slots=True)
class Operation:
    """Base class for all shared-memory operations."""

    register: str


@dataclass(slots=True)
class Read(Operation):
    """Atomic read of a register."""


@dataclass(slots=True)
class Write(Operation):
    """Atomic write of ``value`` to a register."""

    value: Any = None


@dataclass(slots=True)
class CAS(Operation):
    """Classic compare-and-swap: succeed iff the register holds ``expected``.

    The result sent back is ``True``/``False`` — the boolean-returning CAS
    of Section 2.1 ("The operation returns true if it successful, and false
    otherwise").
    """

    expected: Any = None
    new: Any = None


@dataclass(slots=True)
class ReadModifyWrite(Operation):
    """General atomic read-modify-write: ``register <- update(old)``.

    The result sent back is the *previous* value.  This models the richer
    primitives the paper mentions: augmented CAS (Section 7) and the
    hardware fetch-and-increment used for schedule recording (Appendix A.2).
    """

    update: Callable[[Any], Any] = lambda old: old


@dataclass(slots=True)
class FetchAndIncrement(Operation):
    """Atomic fetch-and-increment; returns the previous value."""

    amount: int = 1


@dataclass(slots=True)
class Nop(Operation):
    """A step that performs no semantic update.

    Still consumes one scheduling slot and one shared-memory access, so it
    is the right model for preamble work (local allocations, updates to
    registers outside the scan set) whose only analytical role is costing
    ``q`` steps.
    """

    register: str = "__nop__"


def augmented_cas(register: str, expected: Any, new: Any) -> ReadModifyWrite:
    """Augmented CAS (Section 7): atomically install ``new`` iff the register
    holds ``expected``; the step's result is the register's previous value
    either way.

    The caller detects success by comparing the returned value with
    ``expected``, exactly as Algorithm 5 in the paper does.
    """

    def update(old: Any) -> Any:
        return new if old == expected else old

    return ReadModifyWrite(register, update)
