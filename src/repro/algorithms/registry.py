"""The workload registry: every algorithm in the zoo as a first-class
measured workload.

The paper's claim is about a *class* — SCU(q, s) is practically
wait-free under a uniform stochastic scheduler — but a measurement
pipeline that only ever runs the CAS counter cannot probe the claim's
boundary.  This module gives each algorithm in
:mod:`repro.algorithms` a uniform handle, a :class:`Workload`, that
flows through :func:`repro.core.latency.measure_latencies`,
:func:`repro.core.sweep.latency_sweep` and the CLI
exactly like the CAS counter: same checkpoint fingerprints (the
workload name is folded into the schema-versioned sweep fingerprint),
same telemetry events, same stores.

Every builder referenced here is a **module-level callable**, so
registry workloads remain picklable for pooled sweeps — the builders,
not the factories, cross process boundaries.

Use :func:`get_workload` to resolve a name, :func:`workload_names` to
enumerate, and :func:`register_workload` to add project-local entries
(tests register throwaway workloads this way).

Engine support: the ensemble engine resolves only SCU-shaped symmetric
workloads (the CAS counter exposes a vector kernel), so sweeps run every
other zoo member on the batched engine; the serial engine runs them all,
and every engine gives the same bits.  Blocking workloads (``blocking=True``) spin
forever if the lock holder crashes — crash sweeps over them measure
exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.algorithms.harris_set import harris_set_workload, make_set_memory
from repro.algorithms.locks import (
    make_tas_memory,
    make_ticket_memory,
    tas_lock_counter,
    ticket_lock_counter,
)
from repro.algorithms.msqueue import make_queue_memory, ms_queue_workload
from repro.algorithms.obstruction import (
    make_obstruction_memory,
    obstruction_free_counter,
)
from repro.algorithms.randomized_lock import (
    make_randomized_lock_memory,
    randomized_tas_counter,
)
from repro.algorithms.treiber import make_stack_memory, treiber_workload
from repro.algorithms.universal import sequential_counter, universal_workload
from repro.sim.memory import Memory
from repro.sim.process import ProcessFactory


@dataclass(frozen=True)
class Workload:
    """One registered algorithm, ready for the measurement pipeline.

    Attributes
    ----------
    name:
        Registry key; also the value folded into sweep fingerprints, so
        renaming a workload invalidates its checkpoints on purpose.
    factory_builder:
        Zero-argument callable returning a fresh
        :data:`~repro.sim.process.ProcessFactory` (module-level, hence
        picklable).  Fresh per run: factories may close over shared
        allocators.
    memory_builder:
        Zero-argument callable returning the workload's initial
        :class:`~repro.sim.memory.Memory`.
    description:
        One line for ``repro latency --workload help`` style listings.
    blocking:
        True for lock-based members: a crash of the holder blocks
        everyone else forever (Section 2.2's blocking half).
    scu_shape:
        ``(q, s)`` when the workload is a strict SCU(q, s) member, else
        ``None`` — the paper's bounds only speak to the former.
    """

    name: str
    factory_builder: Callable[[], ProcessFactory]
    memory_builder: Callable[[], Memory]
    description: str = ""
    blocking: bool = False
    scu_shape: Optional[Tuple[int, int]] = None

    @property
    def fingerprint(self) -> str:
        """The value folded into sweep fingerprints for this workload."""
        return self.name


def _universal_counter_factory() -> ProcessFactory:
    return universal_workload(sequential_counter(), _increment_operation)


def _increment_operation(pid: int, k: int):
    return ("inc",)


def _universal_counter_memory() -> Memory:
    return sequential_counter().make_memory()


_REGISTRY: Dict[str, Workload] = {}


def register_workload(workload: Workload, *, replace: bool = False) -> Workload:
    """Add ``workload`` to the registry; returns it for chaining.

    Refuses to shadow an existing name unless ``replace=True`` — a
    silently replaced workload would fingerprint-collide with sweeps
    recorded under the old definition.
    """
    if not replace and workload.name in _REGISTRY:
        raise ValueError(f"workload {workload.name!r} is already registered")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    """Resolve a registered workload by name; KeyError names the options."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def workload_names() -> Tuple[str, ...]:
    """All registered names, sorted."""
    return tuple(sorted(_REGISTRY))


def iter_workloads() -> Iterator[Workload]:
    """All registered workloads in name order."""
    for name in workload_names():
        yield _REGISTRY[name]


register_workload(
    Workload(
        "cas-counter",
        cas_counter,
        make_counter_memory,
        description="CAS-loop fetch-and-increment (SCU(0,1); Figure 5)",
        scu_shape=(0, 1),
    )
)
register_workload(
    Workload(
        "msqueue",
        ms_queue_workload,
        make_queue_memory,
        description="Michael-Scott lock-free queue (multi-register CAS, helping)",
    )
)
register_workload(
    Workload(
        "treiber",
        treiber_workload,
        make_stack_memory,
        description="Treiber lock-free stack (scan-validate on one top pointer)",
    )
)
register_workload(
    Workload(
        "harris-set",
        harris_set_workload,
        make_set_memory,
        description="Harris ordered set (logical deletion, helping unlinks)",
    )
)
register_workload(
    Workload(
        "universal-counter",
        _universal_counter_factory,
        _universal_counter_memory,
        description="Herlihy universal construction around a counter (SCU(0,1))",
        scu_shape=(0, 1),
    )
)
register_workload(
    Workload(
        "obstruction",
        obstruction_free_counter,
        make_obstruction_memory,
        description="collision-abort counter (obstruction-free, not lock-free)",
    )
)
register_workload(
    Workload(
        "tas-lock",
        tas_lock_counter,
        make_tas_memory,
        description="test-and-set spin-lock counter (deadlock-free, blocking)",
        blocking=True,
    )
)
register_workload(
    Workload(
        "ticket-lock",
        ticket_lock_counter,
        make_ticket_memory,
        description="ticket-lock counter (starvation-free, blocking)",
        blocking=True,
    )
)
register_workload(
    Workload(
        "rtas-lock",
        randomized_tas_counter,
        make_randomized_lock_memory,
        description=(
            "randomized TAS lock counter (Ben-David-Blelloch fairness baseline)"
        ),
        blocking=True,
    )
)
