"""Operand kinds for the generic load/store IR.

The IR models the instruction set of the paper's baseline architecture: a
generic load/store ISA with integer and floating-point virtual registers,
plus the 1-bit predicate register file added by the full-predication ISA
extension (Section 2.1 of the paper).

All operand objects are immutable and hashable so they can be used as
dictionary keys in dataflow analyses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RegClass(enum.Enum):
    """Architectural register classes."""

    INT = "r"
    FLOAT = "f"
    PRED = "p"

    def __init__(self, prefix: str):
        #: 0, 1, 2 in declaration order: the class's part of a
        #: register hash (see :meth:`VReg.__hash__`)
        self.ordinal = len(type(self).__members__)


@dataclass(frozen=True, slots=True)
class VReg:
    """A virtual register.

    The paper's baseline processor assumes an infinite register file, so the
    compiler never runs out of virtual registers and no spilling is modelled.
    """

    index: int
    rclass: RegClass = RegClass.INT

    def __hash__(self) -> int:
        # An int from (index, class): no enum hash per lookup, and the
        # same value in every process.  PReg takes the fourth residue.
        return self.index << 2 | self.rclass.ordinal

    def __reduce__(self):
        # Frozen slots dataclasses otherwise pickle through a generated
        # __getstate__ that calls dataclasses.fields() per object.
        return VReg, (self.index, self.rclass)

    def __repr__(self) -> str:
        return f"{self.rclass.value}{self.index}"

    @property
    def is_float(self) -> bool:
        return self.rclass is RegClass.FLOAT

    @property
    def is_pred(self) -> bool:
        return self.rclass is RegClass.PRED


@dataclass(frozen=True, slots=True)
class PReg:
    """A 1-bit predicate register from the predicate register file."""

    index: int

    def __hash__(self) -> int:
        return self.index << 2 | 3

    def __reduce__(self):
        return PReg, (self.index,)

    def __repr__(self) -> str:
        return f"p{self.index}"

    @property
    def is_pred(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class Imm:
    """An immediate (literal) operand; int or float."""

    value: int | float

    def __reduce__(self):
        return Imm, (self.value,)

    def __repr__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True, slots=True)
class GlobalAddr:
    """Symbolic address of a global object, resolved at load time.

    ``offset`` is a byte offset into the object, used e.g. for the
    ``$safe_addr`` scratch slot of the partial-predication store conversion.
    """

    name: str
    offset: int = 0

    def __reduce__(self):
        return GlobalAddr, (self.name, self.offset)

    def __repr__(self) -> str:
        if self.offset:
            return f"@{self.name}+{self.offset}"
        return f"@{self.name}"


Operand = VReg | PReg | Imm | GlobalAddr
"""Anything that may appear in an instruction source position."""


def is_register(op: object) -> bool:
    """True for register operands (integer, float, or predicate)."""
    return isinstance(op, (VReg, PReg))
