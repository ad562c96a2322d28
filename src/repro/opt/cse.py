"""Local common subexpression elimination.

Pure computations with identical opcode and operands reuse the earlier
result via a copy.  Loads participate until a store or call invalidates
memory.  The partial-predication peephole relies on this pass to remove
the redundant comparisons introduced by basic conversions (paper
Section 3.2, "Peephole Optimizations").
"""

from __future__ import annotations

from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import Instruction
from repro.ir.opcodes import (CSE_COMMUTATIVE, CSE_LOAD, OpCategory,
                              Opcode)
from repro.ir.operands import Operand, PReg, VReg

_STORE = OpCategory.STORE
_CALL = OpCategory.CALL
_MOV = Opcode.MOV
_FMOV = Opcode.FMOV
_REGISTER_TYPES = (VReg, PReg)


def _commuted(srcs: tuple) -> tuple:
    """The sources of a commutative operation in a canonical order.

    Two orders are equal exactly when the sources sorted by ``repr``
    are: an immediate or address prints before any register, so it
    goes first, and no two registers print alike, so two registers go
    in int order.  Anything else is sorted by ``repr``.
    """
    if len(srcs) == 2:
        a, b = srcs
        a_reg = isinstance(a, _REGISTER_TYPES)
        b_reg = isinstance(b, _REGISTER_TYPES)
        if a_reg and b_reg:
            return srcs if a <= b else (b, a)
        if a_reg != b_reg:
            return (b, a) if a_reg else srcs
    return tuple(sorted(srcs, key=repr))


def cse_block(block: BasicBlock) -> bool:
    """Reuse earlier results of identical computations in ``block``;
    returns True if changed."""
    changed = False
    # Expression key -> the register holding its value.  A key is the
    # opcode's value string and the sources, plus the speculative flag
    # for a load (``_value_``: an enum hashes and reads ``value`` in
    # Python).  Loads have their own table, which a store or call
    # empties.
    pure: dict[tuple, VReg] = {}
    loads: dict[tuple, VReg] = {}
    # Register -> the keys it is the value of or a source of, each with
    # its table, in insertion order: a write finds the entries it
    # invalidates without scanning the tables.
    users: dict[Operand, dict[tuple, dict]] = {}

    def add(table: dict, key: tuple, value: VReg) -> None:
        table[key] = value
        users.setdefault(value, {})[key] = table
        for s in key[1]:
            users.setdefault(s, {})[key] = table

    def drop(table: dict, key: tuple) -> None:
        users[table.pop(key)].pop(key, None)
        for s in key[1]:
            users[s].pop(key, None)

    new_insts: list[Instruction] = []
    append = new_insts.append
    for inst in block.instructions:
        op = inst.op
        if loads and (op.category is _STORE or op.category is _CALL):
            # Invalidate memory-dependent expressions.
            for k in list(loads):
                drop(loads, k)
        dest = inst.dest
        kind = op.cse
        key = None
        if kind and dest is not None and inst.pred is None \
                and dest not in inst.srcs:
            # (A self-referential update's result is not reusable.)
            srcs = inst.srcs
            if kind == CSE_LOAD:
                key = (op._value_, srcs, inst.speculative)
                table = loads
            else:
                if kind == CSE_COMMUTATIVE:
                    srcs = _commuted(srcs)
                key = (op._value_, srcs)
                table = pure
            prior = table.get(key)
            if prior is not None and prior != dest:
                mov = _FMOV if dest.is_float else _MOV
                append(inst.copy(op=mov, srcs=(prior,)))
                changed = True
                # The dest now holds the same value; later uses fold via
                # copy propagation.  Invalidate entries keyed on the
                # overwritten register below.
            else:
                if prior is None:
                    add(table, key, dest)
                append(inst)
        else:
            append(inst)
        for d in inst.defined_regs():
            stale = users.get(d)
            if not stale:
                continue
            for k, table in list(stale.items()):
                # Keep the entry if this very instruction defines it.
                if k == key and table[k] == dest:
                    continue
                drop(table, k)
    block.instructions = new_insts
    return changed


def eliminate_common_subexpressions(fn: Function) -> bool:
    """:func:`cse_block` over every block of ``fn``."""
    return any([cse_block(block) for block in fn.blocks])
