"""Instruction latency table modelled on the HP PA-RISC 7100.

The paper states: "The instruction latencies assumed are those of the HP
PA-RISC 7100."  The PA-7100 executes integer ALU operations in a single
cycle, loads in two (use-delay of one), floating-point add/multiply in two
cycles, and iterative divide in roughly 8 (single precision).  Integer
multiply runs through the FP unit.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from repro.ir.opcodes import OpCategory, Opcode, category

#: Cycles from issue until the result may be consumed.
_LATENCY_BY_OPCODE: dict[Opcode, int] = {
    Opcode.MUL: 3,        # integer multiply via the FP unit
    Opcode.DIV: 8,
    Opcode.REM: 8,
    Opcode.FADD: 2,
    Opcode.FSUB: 2,
    Opcode.FMUL: 2,
    Opcode.FDIV: 8,
    Opcode.CVT_IF: 2,
    Opcode.CVT_FI: 2,
}

_LATENCY_BY_CATEGORY: dict[OpCategory, int] = {
    OpCategory.ALU: 1,
    OpCategory.CMP: 1,
    OpCategory.FALU: 2,
    OpCategory.FCMP: 1,
    OpCategory.LOAD: 2,
    OpCategory.STORE: 1,
    OpCategory.BRANCH: 1,
    OpCategory.JUMP: 1,
    OpCategory.CALL: 1,
    OpCategory.RET: 1,
    OpCategory.PREDDEF: 1,
    OpCategory.PREDSET: 1,
    OpCategory.CMOV: 1,
    OpCategory.SELECT: 1,
    OpCategory.NOP: 1,
}


#: every opcode's result latency, flattened so a query is one lookup
PA7100_LATENCY: Mapping[Opcode, int] = MappingProxyType({
    op: _LATENCY_BY_OPCODE.get(op, _LATENCY_BY_CATEGORY[category(op)])
    for op in Opcode})


def latency(op: Opcode) -> int:
    """Result latency in cycles of opcode ``op``."""
    return PA7100_LATENCY[op]
