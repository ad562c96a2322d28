"""Basic blocks, functions, CFG and whole programs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instruction import Instruction
from repro.ir.opcodes import OpCategory
from repro.ir.operands import PReg, RegClass, VReg

# Read once: an enum member read through its class costs ten times a
# global read, and every CFG query tests each instruction.
_BRANCH = OpCategory.BRANCH
_JUMP = OpCategory.JUMP
_RET = OpCategory.RET


class IRError(Exception):
    """Structural error in the IR."""


@dataclass(eq=False)
class BasicBlock:
    """A basic block: straight-line instructions plus a terminator region.

    Control may leave mid-block only through hyperblock exit branches;
    before region formation blocks have at most one branch + one jump at
    the end.
    """

    name: str
    instructions: list[Instruction] = field(default_factory=list)

    def append(self, inst: Instruction) -> Instruction:
        self.instructions.append(inst)
        return inst

    @property
    def terminator(self) -> Instruction | None:
        """The final control instruction, if any."""
        if self.instructions and self.instructions[-1].is_control:
            return self.instructions[-1]
        return None

    def branch_instructions(self) -> list[Instruction]:
        """All control-transfer instructions in the block, in order."""
        return [i for i in self.instructions if i.is_control]

    def successor_labels(self, layout_next: str | None) -> list[str]:
        """Labels this block may transfer control to.

        ``layout_next`` is the label of the next block in layout order
        (the fall-through target), or None at the end of the function.
        """
        succs: list[str] = []
        falls_through = True
        for inst in self.instructions:
            cat = inst.op.category
            if cat is _BRANCH and inst.target:
                succs.append(inst.target)
            elif cat is _JUMP and inst.target:
                succs.append(inst.target)
                if inst.pred is None:
                    falls_through = False
                    break
            elif cat is _RET and inst.pred is None:
                falls_through = False
                break
        if falls_through and layout_next is not None:
            succs.append(layout_next)
        # Deduplicate, preserving order.
        seen: set[str] = set()
        out: list[str] = []
        for s in succs:
            if s not in seen:
                seen.add(s)
                out.append(s)
        return out

    def __repr__(self) -> str:
        return f"<block {self.name}: {len(self.instructions)} insts>"


@dataclass(eq=False)
class Function:
    """A function: ordered blocks plus virtual register allocation state.

    Block order is the *layout* order: a block without a terminator falls
    through to the next block in ``blocks``.
    """

    name: str
    params: list[VReg] = field(default_factory=list)
    blocks: list[BasicBlock] = field(default_factory=list)
    next_vreg: int = 0
    next_preg: int = 1          # p0 reserved as "always true" if needed
    returns_float: bool = False

    # ----- construction -------------------------------------------------

    def new_block(self, name: str) -> BasicBlock:
        if any(b.name == name for b in self.blocks):
            raise IRError(f"duplicate block name {name!r} in {self.name}")
        block = BasicBlock(name)
        self.blocks.append(block)
        return block

    def new_vreg(self, rclass: RegClass = RegClass.INT) -> VReg:
        reg = VReg(self.next_vreg, rclass)
        self.next_vreg += 1
        return reg

    def new_preg(self) -> PReg:
        reg = PReg(self.next_preg)
        self.next_preg += 1
        return reg

    # ----- CFG ----------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block(self, name: str) -> BasicBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise IRError(f"no block named {name!r} in {self.name}")

    def layout_next(self, block: BasicBlock) -> str | None:
        """Label of the fall-through successor in layout order."""
        idx = self.blocks.index(block)
        if idx + 1 < len(self.blocks):
            return self.blocks[idx + 1].name
        return None

    def successors(self, block: BasicBlock) -> list[BasicBlock]:
        return [self.block(lbl)
                for lbl in block.successor_labels(self.layout_next(block))]

    def predecessors_map(self) -> dict[str, list[BasicBlock]]:
        preds: dict[str, list[BasicBlock]] = {b.name: [] for b in self.blocks}
        for b in self.blocks:
            for s in b.successor_labels(self.layout_next(b)):
                if s in preds:
                    preds[s].append(b)
                else:
                    raise IRError(f"branch to unknown block {s!r}")
        return preds

    def all_instructions(self):
        """Iterate over every instruction in layout order."""
        for b in self.blocks:
            yield from b.instructions

    def clone(self) -> Function:
        """A copy sharing no mutable object with this function.

        Blocks, instruction lists and instructions are new; each
        instruction keeps its uid.  Operands are immutable and shared.
        """
        return Function(
            self.name, list(self.params),
            [BasicBlock(b.name, [inst.copy() for inst in b.instructions])
             for b in self.blocks],
            self.next_vreg, self.next_preg, self.returns_float)

    def __repr__(self) -> str:
        return f"<function {self.name}: {len(self.blocks)} blocks>"


@dataclass(eq=False)
class GlobalVar:
    """A global data object.

    ``elem_size`` is 1 (bytes), 4 (ints) or 8 (floats); ``count`` is the
    number of elements.  ``init`` optionally provides initial values.
    """

    name: str
    elem_size: int
    count: int
    init: list[int | float] | None = None
    is_float: bool = False

    @property
    def byte_size(self) -> int:
        return self.elem_size * self.count


@dataclass(eq=False)
class Program:
    """A whole program: functions plus global data declarations."""

    functions: dict[str, Function] = field(default_factory=dict)
    globals: dict[str, GlobalVar] = field(default_factory=dict)
    entry: str = "main"

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise IRError(f"duplicate function {fn.name!r}")
        self.functions[fn.name] = fn
        return fn

    def add_global(self, g: GlobalVar) -> GlobalVar:
        if g.name in self.globals:
            raise IRError(f"duplicate global {g.name!r}")
        self.globals[g.name] = g
        return g

    @property
    def main(self) -> Function:
        return self.functions[self.entry]

    def clone(self) -> Program:
        """A copy for a compile to transform, keeping instruction uids.

        Every function, block, instruction list, instruction and global
        is new (see :meth:`Function.clone`).  ``copy.deepcopy`` gives
        the same program about twenty times slower, because it also
        copies every immutable operand.  A field added to one of these
        classes, or to :class:`Instruction`, must be copied here too.
        """
        return Program(
            {name: fn.clone() for name, fn in self.functions.items()},
            {name: GlobalVar(g.name, g.elem_size, g.count,
                             None if g.init is None else list(g.init),
                             g.is_float)
             for name, g in self.globals.items()},
            self.entry)

    def static_size(self) -> int:
        """Total static instruction count."""
        return sum(len(b.instructions)
                   for f in self.functions.values() for b in f.blocks)
