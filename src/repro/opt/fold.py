"""Constant folding, algebraic simplification, and branch folding."""

from __future__ import annotations

from repro.emu.memory import EmulationFault
from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import Instruction
from repro.ir.opcodes import OpCategory, Opcode
from repro.ir.operands import Imm

_U32 = 0xFFFFFFFF


def _w32(x: int) -> int:
    return ((x + 0x80000000) & _U32) - 0x80000000


def _cdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


_INT_EVAL = {
    Opcode.ADD: lambda a, b: _w32(a + b),
    Opcode.SUB: lambda a, b: _w32(a - b),
    Opcode.MUL: lambda a, b: _w32(a * b),
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: _w32(a << (b & 31)),
    Opcode.SHR: lambda a, b: a >> (b & 31),
    Opcode.AND_NOT: lambda a, b: 1 if (a != 0 and b == 0) else 0,
    Opcode.OR_NOT: lambda a, b: 1 if (a != 0 or b == 0) else 0,
}

_FLOAT_EVAL = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
}

_CMP_EVAL = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
}


def _fold_instruction(inst: Instruction) -> Instruction | None:
    """Return a simplified replacement for ``inst``, or None."""
    op = inst.op
    srcs = inst.srcs
    cat = inst.cat
    all_imm = all(isinstance(s, Imm) for s in srcs)

    if cat is OpCategory.ALU and all_imm and srcs:
        a = srcs[0].value
        if op is Opcode.MOV:
            return None
        if op is Opcode.NEG:
            return inst.copy(op=Opcode.MOV, srcs=(Imm(_w32(-a)),))
        if op is Opcode.NOT:
            return inst.copy(op=Opcode.MOV, srcs=(Imm(_w32(~a)),))
        if len(srcs) == 2:
            b = srcs[1].value
            if op in (Opcode.DIV, Opcode.REM):
                if b == 0:
                    return None
                value = _cdiv(a, b) if op is Opcode.DIV \
                    else a - _cdiv(a, b) * b
                return inst.copy(op=Opcode.MOV, srcs=(Imm(_w32(value)),))
            fn = _INT_EVAL.get(op)
            if fn is not None:
                return inst.copy(op=Opcode.MOV, srcs=(Imm(fn(a, b)),))

    if cat is OpCategory.CMP and all_imm:
        value = 1 if _CMP_EVAL[inst.condition](srcs[0].value,
                                               srcs[1].value) else 0
        return inst.copy(op=Opcode.MOV, srcs=(Imm(value),))

    if cat is OpCategory.FALU and all_imm and srcs:
        a = srcs[0].value
        if op is Opcode.FNEG:
            return inst.copy(op=Opcode.FMOV, srcs=(Imm(-float(a)),))
        if op is Opcode.CVT_IF:
            return inst.copy(op=Opcode.FMOV, srcs=(Imm(float(a)),))
        if op is Opcode.CVT_FI:
            return inst.copy(op=Opcode.MOV, srcs=(Imm(_w32(int(a))),))
        if len(srcs) == 2:
            fn = _FLOAT_EVAL.get(op)
            if fn is not None:
                value = fn(float(a), float(srcs[1].value))
                return inst.copy(op=Opcode.FMOV, srcs=(Imm(value),))

    # Algebraic identities (second operand immediate).
    if cat is OpCategory.ALU and len(srcs) == 2 \
            and isinstance(srcs[1], Imm):
        b = srcs[1].value
        if b == 0 and op in (Opcode.ADD, Opcode.SUB, Opcode.OR,
                             Opcode.XOR, Opcode.SHL, Opcode.SHR):
            return inst.copy(op=Opcode.MOV, srcs=(srcs[0],))
        if b == 1 and op in (Opcode.MUL, Opcode.DIV):
            return inst.copy(op=Opcode.MOV, srcs=(srcs[0],))
        if b == 0 and op in (Opcode.MUL, Opcode.AND):
            return inst.copy(op=Opcode.MOV, srcs=(Imm(0),))
    if cat is OpCategory.ALU and len(srcs) == 2 \
            and isinstance(srcs[0], Imm):
        a = srcs[0].value
        if a == 0 and op in (Opcode.ADD, Opcode.OR, Opcode.XOR):
            return inst.copy(op=Opcode.MOV, srcs=(srcs[1],))
        if a == 0 and op in (Opcode.MUL, Opcode.AND):
            return inst.copy(op=Opcode.MOV, srcs=(Imm(0),))
    return None


def fold_block(block: BasicBlock) -> bool:
    """Fold constant expressions in ``block``; returns True if changed."""
    changed = False
    new_insts: list[Instruction] = []
    for inst in block.instructions:
        # Fold constant conditional branches to jumps / fallthroughs.
        if inst.cat is OpCategory.BRANCH \
                and all(isinstance(s, Imm) for s in inst.srcs) \
                and inst.pred is None:
            taken = _CMP_EVAL[inst.condition](inst.srcs[0].value,
                                              inst.srcs[1].value)
            changed = True
            if taken:
                new_insts.append(inst.copy(op=Opcode.JUMP, srcs=()))
                # The rest of the block is unreachable behind the
                # now-unconditional jump.
                break
            continue
        folded = _fold_instruction(inst)
        if folded is not None:
            new_insts.append(folded)
            changed = True
        else:
            new_insts.append(inst)
    block.instructions = new_insts
    return changed


def fold_constants(fn: Function) -> bool:
    """Fold constant expressions in place; returns True if changed."""
    return any([fold_block(block) for block in fn.blocks])
