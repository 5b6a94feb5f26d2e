"""Simulated processes.

A process is a Python generator yielding :mod:`repro.sim.ops` operations —
one per step — interleaved with zero-cost markers:

* :class:`Invoke` marks the start of a method call,
* :class:`Completion` marks a method call returning.

Markers cost nothing because, in the paper's model, a step is a shared
memory access; invocation and response are bookkeeping on the history
(Section 2.1: "a history can be the image of several schedules").

The executor keeps each process *one operation ahead*: immediately after a
process's step is applied, its generator is resumed (consuming any markers
at the current time) until it produces the next operation.  This pins
completion events to the exact time step of the operation that caused them
— a successful CAS completes the method call at the CAS's own step.

Markers, like operations, are ``@dataclass(slots=True)`` values: equal
by value, unhashable, and immutable by convention only.  Every method
call builds two of them, and a frozen dataclass would pay one
``object.__setattr__`` per field to build each (see :mod:`repro.sim.ops`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Union

from repro.sim.ops import Operation


@dataclass(slots=True)
class Invoke:
    """Zero-cost marker: a method call begins.

    ``argument`` is recorded into the history so safety checkers
    (:mod:`repro.verify`) can replay the operation against a sequential
    specification.
    """

    method: str = "method"
    argument: Any = None


@dataclass(slots=True)
class Completion:
    """Zero-cost marker: the current method call returns ``result``."""

    result: Any = None
    method: str = "method"


Yieldable = Union[Operation, Invoke, Completion]
ProcessGenerator = Generator[Yieldable, Any, None]
ProcessFactory = Callable[[int], ProcessGenerator]


class Process:
    """Runtime state of one simulated process.

    Attributes
    ----------
    pid:
        Process index in ``range(n)``.
    steps:
        Shared-memory steps taken so far.
    completions:
        Method calls completed so far.
    crashed:
        Set by the executor when the process crashes; a crashed process is
        never scheduled again (Definition 1, crash containment).
    done:
        The generator ran out of work (finite workloads).
    """

    def __init__(self, pid: int, factory: ProcessFactory) -> None:
        self.pid = pid
        self._generator: ProcessGenerator = factory(pid)
        self.pending: Optional[Operation] = None
        self._last_result: Any = None
        self.steps = 0
        self.completions = 0
        self.crashed = False
        self.done = False

    @property
    def active(self) -> bool:
        """Whether the process can be scheduled."""
        return not self.crashed and not self.done

    def advance(self, send_value: Any, on_marker: Callable[[Yieldable], None]) -> None:
        """Resume the generator until the next operation is pending.

        ``send_value`` is the result of the previously applied operation
        (``None`` on the priming call).  Zero-cost markers encountered on
        the way are reported through ``on_marker``.
        """
        try:
            item = self._generator.send(send_value)
            while not isinstance(item, Operation):
                if not isinstance(item, (Invoke, Completion)):
                    raise TypeError(
                        f"process {self.pid} yielded {item!r}; expected an "
                        "Operation, Invoke or Completion"
                    )
                on_marker(item)
                item = self._generator.send(None)
        except StopIteration:
            self.pending = None
            self.done = True
            return
        self.pending = item

    def take_step(self, apply: Callable[[Operation], Any]) -> Operation:
        """Apply the pending operation and remember its result.

        Returns the operation that was applied.  The caller must follow up
        with :meth:`refill` to line up the next operation.
        """
        if self.pending is None:
            raise RuntimeError(f"process {self.pid} has no pending operation")
        op = self.pending
        self._last_result = apply(op)
        self.steps += 1
        self.pending = None
        return op

    def refill(self, on_marker: Callable[[Yieldable], None]) -> None:
        """Advance the generator past the just-applied operation."""
        self.advance(self._last_result, on_marker)

    def crash(self) -> None:
        """Mark the process crashed; it takes no further steps."""
        self.crashed = True


def repeat_method(
    method_call: Callable[[int], Generator[Yieldable, Any, Any]],
    *,
    method: str = "method",
    calls: Optional[int] = None,
) -> ProcessFactory:
    """Wrap a single-method-call generator into an infinite (or ``calls``-
    bounded) sequence of invocations with history markers.

    ``method_call(pid)`` yields the operations of *one* method call and may
    ``return`` a result; the wrapper brackets each call with
    :class:`Invoke`/:class:`Completion` markers.  This matches the paper's
    workload: "Each thread executes an infinite number of such operations."
    """

    def factory(pid: int) -> ProcessGenerator:
        count = 0
        while calls is None or count < calls:
            yield Invoke(method)
            result = yield from method_call(pid)
            yield Completion(result, method)
            count += 1

    return factory
