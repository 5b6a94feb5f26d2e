"""Operations and markers are slotted values.

Every simulated step builds an operation and every method call two
markers, so they are ``@dataclass(slots=True)``: equal by value, with
no per-instance ``__dict__``.  They are unhashable and immutable by
convention only (see :mod:`repro.sim.ops`).
"""

import pytest

from repro.sim.ops import (
    CAS,
    FetchAndIncrement,
    Nop,
    Operation,
    Read,
    ReadModifyWrite,
    Write,
)
from repro.sim.process import Completion, Invoke


def _identity(old):
    return old


VALUES = [
    lambda: Operation("r"),
    lambda: Read("r"),
    lambda: Write("r", 3),
    lambda: CAS("r", 1, 2),
    lambda: ReadModifyWrite("r", _identity),
    lambda: FetchAndIncrement("r", 2),
    lambda: Nop(),
    lambda: Invoke("push", 5),
    lambda: Completion(True, "push"),
]


@pytest.mark.parametrize("build", VALUES)
def test_equal_by_value_without_instance_dict(build):
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert not hasattr(first, "__dict__")


def test_field_and_class_both_take_part_in_equality():
    assert CAS("r", 1, 2) != CAS("r", 1, 3)
    assert Read("r") != Read("s")
    assert Read("r") != Operation("r")
    assert Completion(None, "m") != Invoke("m", None)
    assert Nop() == Nop("__nop__")
