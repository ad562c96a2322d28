"""Operand kinds for the generic load/store IR.

The IR models the instruction set of the paper's baseline architecture: a
generic load/store ISA with integer and floating-point virtual registers,
plus the 1-bit predicate register file added by the full-predication ISA
extension (Section 2.1 of the paper).

All operand objects are immutable and hashable so they can be used as
dictionary keys in dataflow analyses.  Liveness, DCE, copy propagation,
CSE, the dependence DAG and the reference emulator's register file look
operands up millions of times per compile, so every kind is built on a
type that hashes and compares in C:

* a register is an ``int`` whose value is ``index << 2 | class``: 0 and
  1 for the :class:`RegClass` ordinals, 3 for a :class:`PReg`.  Registers
  of different kinds never share a value, and each value is the hash the
  register had as a dataclass, so every dict and set of registers keeps
  its iteration order and every pass its output.
* an :class:`Imm` is the 1-tuple ``(value,)`` and a :class:`GlobalAddr`
  the 2-tuple ``(name, offset)``; each hashes like the frozen dataclass
  it replaces.

All of them print, pickle and compare as before: a register never
equals an immediate, an address or a register of another kind, and an
immediate (one element) never equals an address (two).  Build
registers with :meth:`~repro.ir.function.Function.new_vreg` and
:meth:`~repro.ir.function.Function.new_preg`.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class RegClass(enum.Enum):
    """Architectural classes of virtual registers."""

    INT = "r"
    FLOAT = "f"

    def __init__(self, prefix: str):
        #: 0, 1 in declaration order: the low two bits of a register's
        #: value (see :class:`VReg`); 3 marks a :class:`PReg`
        self.ordinal = len(type(self).__members__)


#: register class by ordinal
_RCLASS = tuple(RegClass)
_PREG_TAG = 3


class _Register(int):
    """An int-valued register: C hashing and equality on the value."""

    __slots__ = ()

    def __bool__(self) -> bool:
        # Register 0 is a register, not a false value.
        return True

    @property
    def index(self) -> int:
        return self >> 2

    def __str__(self) -> str:
        return self.__repr__()

    # ``int.__format__`` would print the raw value for a non-empty spec.
    __format__ = object.__format__


class VReg(_Register):
    """A virtual register.

    The paper's baseline processor assumes an infinite register file, so the
    compiler never runs out of virtual registers and no spilling is modelled.
    """

    __slots__ = ()

    def __new__(cls, index: int, rclass: RegClass = RegClass.INT) -> VReg:
        return int.__new__(cls, index << 2 | rclass.ordinal)

    @property
    def rclass(self) -> RegClass:
        return _RCLASS[self & 3]

    @property
    def is_float(self) -> bool:
        return self & 3 == 1

    def __reduce__(self):
        return VReg, (self >> 2, _RCLASS[self & 3])

    def __repr__(self) -> str:
        return f"{_RCLASS[self & 3].value}{self >> 2}"


class PReg(_Register):
    """A 1-bit predicate register from the predicate register file."""

    __slots__ = ()

    def __new__(cls, index: int) -> PReg:
        return int.__new__(cls, index << 2 | _PREG_TAG)

    @property
    def is_pred(self) -> bool:
        return True

    def __reduce__(self):
        return PReg, (self >> 2,)

    def __repr__(self) -> str:
        return f"p{self >> 2}"


class Imm(NamedTuple):
    """An immediate (literal) operand; int or float."""

    value: int | float

    def __reduce__(self):
        return Imm, (self[0],)

    def __repr__(self) -> str:
        return f"#{self[0]}"


class GlobalAddr(NamedTuple):
    """Symbolic address of a global object, resolved at load time.

    ``offset`` is a byte offset into the object, used e.g. for the
    ``$safe_addr`` scratch slot of the partial-predication store conversion.
    """

    name: str
    offset: int = 0

    def __reduce__(self):
        return GlobalAddr, (self[0], self[1])

    def __repr__(self) -> str:
        if self.offset:
            return f"@{self.name}+{self.offset}"
        return f"@{self.name}"


Operand = VReg | PReg | Imm | GlobalAddr
"""Anything that may appear in an instruction source position."""


def is_register(op: object) -> bool:
    """True for register operands (integer, float, or predicate)."""
    return isinstance(op, (VReg, PReg))
