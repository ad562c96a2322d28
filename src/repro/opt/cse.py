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
from repro.ir.opcodes import COMMUTATIVE, OpCategory, Opcode
from repro.ir.operands import Operand, VReg


def _expr_key(inst: Instruction) -> tuple | None:
    """Hashable value-number key, or None if not CSE-able."""
    cat = inst.cat
    if inst.pred is not None:
        return None
    if inst.dest is not None and inst.dest in inst.srcs:
        return None  # self-referential update: result is not reusable
    if cat in (OpCategory.ALU, OpCategory.CMP, OpCategory.FALU,
               OpCategory.FCMP):
        if inst.op in (Opcode.MOV, Opcode.FMOV):
            return None
        srcs = inst.srcs
        if inst.op in COMMUTATIVE:
            srcs = tuple(sorted(srcs, key=repr))
        return (inst.op, srcs)
    if cat is OpCategory.LOAD:
        return (inst.op, inst.srcs, inst.speculative, "mem")
    return None


def cse_block(block: BasicBlock) -> bool:
    """Reuse earlier results of identical computations in ``block``;
    returns True if changed."""
    changed = False
    available: dict[tuple, VReg] = {}
    # Register -> the keys of ``available`` it is the value of or a
    # source of, in ``available``'s order: a write finds the entries it
    # invalidates without scanning the table.
    users: dict[Operand, dict[tuple, None]] = {}

    def add(key: tuple, value: VReg) -> None:
        available[key] = value
        users.setdefault(value, {})[key] = None
        for s in key[1]:
            users.setdefault(s, {})[key] = None

    def drop(key: tuple) -> None:
        users[available.pop(key)].pop(key, None)
        for s in key[1]:
            users[s].pop(key, None)

    new_insts: list[Instruction] = []
    for inst in block.instructions:
        cat = inst.cat
        if cat is OpCategory.STORE or cat is OpCategory.CALL:
            # Invalidate memory-dependent expressions.
            for k in [k for k in available
                      if len(k) >= 3 and k[-1] == "mem"]:
                drop(k)
        key = _expr_key(inst)
        if key is not None and inst.dest is not None:
            prior = available.get(key)
            if prior is not None and prior != inst.dest:
                mov = Opcode.FMOV if inst.dest.is_float else Opcode.MOV
                new_insts.append(inst.copy(op=mov, srcs=(prior,)))
                changed = True
                # The dest now holds the same value; later uses fold via
                # copy propagation.  Invalidate entries keyed on the
                # overwritten register below.
            else:
                if prior is None:
                    add(key, inst.dest)
                new_insts.append(inst)
        else:
            new_insts.append(inst)
        for d in inst.defined_regs():
            stale = users.get(d)
            if not stale:
                continue
            for k in list(stale):
                # Keep the entry if this very instruction defines it.
                if available[k] == inst.dest and key == k:
                    continue
                drop(k)
    block.instructions = new_insts
    return changed


def eliminate_common_subexpressions(fn: Function) -> bool:
    """:func:`cse_block` over every block of ``fn``."""
    return any([cse_block(block) for block in fn.blocks])
