"""Local copy and constant propagation within basic blocks."""

from __future__ import annotations

from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.operands import Imm, Operand, VReg


def _kill(copies: dict[VReg, Operand],
          copied_from: dict[Operand, dict[VReg, None]], reg: VReg) -> None:
    """Forget every copy fact ``reg`` is the destination or source of.

    ``copied_from`` maps each source to the destinations holding it, in
    ``copies``' order.
    """
    src = copies.pop(reg, None)
    if src is not None:
        del copied_from[src][reg]
    for dest in copied_from.pop(reg, ()):
        del copies[dest]


def propagate_block(block: BasicBlock) -> bool:
    """Replace uses of registers with their known copy source or
    constant within ``block``; returns True if changed.

    Only unguarded ``mov``/``mov_f`` create copy facts; guarded writes
    kill facts without creating new ones.
    """
    changed = False
    copies: dict[VReg, Operand] = {}
    copied_from: dict[Operand, dict[VReg, None]] = {}
    for inst in block.instructions:
        # Rewrite sources through the copy map.
        if copies:
            new_srcs = []
            for s in inst.srcs:
                replaced = copies.get(s, s) if isinstance(s, VReg) else s
                new_srcs.append(replaced)
                if replaced is not s:
                    changed = True
            inst.srcs = tuple(new_srcs)
        if inst.op is Opcode.JSR:
            # Calls may clobber memory but not registers; keep facts.
            pass
        for d in inst.defined_regs():
            if isinstance(d, VReg):
                _kill(copies, copied_from, d)
        if inst.op in (Opcode.MOV, Opcode.FMOV) and inst.pred is None \
                and inst.dest is not None:
            src = inst.srcs[0]
            if isinstance(src, (VReg, Imm)) and src != inst.dest:
                copies[inst.dest] = src
                copied_from.setdefault(src, {})[inst.dest] = None
    return changed


def propagate_copies(fn: Function) -> bool:
    """:func:`propagate_block` over every block of ``fn``."""
    return any([propagate_block(block) for block in fn.blocks])
