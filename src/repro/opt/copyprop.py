"""Local copy and constant propagation within basic blocks."""

from __future__ import annotations

from operator import is_not

from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.operands import Imm, Operand, VReg

_MOV = Opcode.MOV
_FMOV = Opcode.FMOV


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
    kill facts without creating new ones.  Calls may clobber memory but
    not registers, so they keep the facts.
    """
    changed = False
    copies: dict[VReg, Operand] = {}
    copied_from: dict[Operand, dict[VReg, None]] = {}
    for inst in block.instructions:
        if copies:
            # Rewrite sources through the copy map.
            srcs = inst.srcs
            inst.srcs = tuple([copies.get(s, s) if type(s) is VReg else s
                               for s in srcs])
            if not changed:
                changed = any(map(is_not, inst.srcs, srcs))
            for d in inst.defined_regs():
                if type(d) is VReg:
                    _kill(copies, copied_from, d)
        op = inst.op
        if (op is _MOV or op is _FMOV) and inst.pred is None \
                and inst.dest is not None:
            src = inst.srcs[0]
            if isinstance(src, (VReg, Imm)) and src != inst.dest:
                copies[inst.dest] = src
                copied_from.setdefault(src, {})[inst.dest] = None
    return changed


def propagate_copies(fn: Function) -> bool:
    """:func:`propagate_block` over every block of ``fn``."""
    return any([propagate_block(block) for block in fn.blocks])
