"""IR instructions, including full-predication extensions.

Every instruction may carry a *guard predicate* (``pred``), matching the
full-predication model in which each opcode gains an extra predicate
source operand (paper Section 2.1).  Predicate define instructions have up
to two typed predicate destinations following the HPL PlayDoh semantics.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.ir.opcodes import OpCategory, Opcode, CONDITION
from repro.ir.operands import GlobalAddr, Imm, Operand, PReg, VReg


class PType(enum.Enum):
    """Predicate define destination types (paper Table 1).

    ``U``/``U_BAR`` always write; ``OR``/``OR_BAR`` may only set to 1;
    ``AND``/``AND_BAR`` may only clear to 0.
    """

    U = "U"
    U_BAR = "U~"
    OR = "OR"
    OR_BAR = "OR~"
    AND = "AND"
    AND_BAR = "AND~"

    @property
    def complement(self) -> "PType":
        return _COMPLEMENT[self]

    @property
    def is_bar(self) -> bool:
        return self in (PType.U_BAR, PType.OR_BAR, PType.AND_BAR)


_COMPLEMENT = {
    PType.U: PType.U_BAR, PType.U_BAR: PType.U,
    PType.OR: PType.OR_BAR, PType.OR_BAR: PType.OR,
    PType.AND: PType.AND_BAR, PType.AND_BAR: PType.AND,
}


@dataclass(frozen=True, slots=True)
class PredDest:
    """One typed destination of a predicate define instruction."""

    reg: PReg
    ptype: PType

    def __reduce__(self):
        return PredDest, (self.reg, self.ptype)

    def __repr__(self) -> str:
        return f"{self.reg}<{self.ptype.value}>"


#: the operand types that are registers (no operand type is subclassed)
_REGISTER_TYPES = frozenset({VReg, PReg})
#: predicate define types that write without reading the old value
_UNCONDITIONAL = frozenset({PType.U, PType.U_BAR})
# Categories the queries test, read once: an enum member read through
# its class costs ten times a global read.
_BRANCH = OpCategory.BRANCH
_JUMP = OpCategory.JUMP
_RET = OpCategory.RET
_CALL = OpCategory.CALL
_CMOV = OpCategory.CMOV
_PREDDEF = OpCategory.PREDDEF
_PREDSET = OpCategory.PREDSET

_ids = itertools.count()


def ensure_uid_headroom(minimum: int) -> None:
    """Advance the uid allocator strictly past ``minimum``.

    Artifacts loaded from the cache carry uids allocated by *another*
    process whose counter state this process does not share.  Before any
    further allocation (tail duplication's ``fresh_copy``), the loader
    must reserve headroom past the adopted uids, or new instructions
    would collide with loaded ones and corrupt the uid-keyed
    address/trace correlation.
    """
    global _ids
    nxt = next(_ids)
    if minimum + 1 > nxt:
        nxt = minimum + 1
    _ids = itertools.count(nxt)


@dataclass(eq=False, slots=True)
class Instruction:
    """A single IR instruction.

    Attributes:
        op: the opcode.
        dest: destination register, or None.
        srcs: source operands (registers, immediates, global addresses).
        pred: guard predicate register, or None for always-execute.
        pdests: typed predicate destinations (predicate defines only).
        target: branch/jump target label, or callee name for JSR.
        speculative: True for the silent (non-excepting) version of the
            opcode, used for speculated instructions.
        uid: unique id, stable across copies for trace correlation.
    """

    op: Opcode
    dest: VReg | None = None
    srcs: tuple[Operand, ...] = ()
    pred: PReg | None = None
    pdests: tuple[PredDest, ...] = ()
    target: str | None = None
    speculative: bool = False
    #: alias hint: name of the single global object this memory access
    #: can touch (set by lowerings that obscure the address, e.g. the
    #: partial-predication $safe_addr store conversion)
    mem_hint: str | None = None
    uid: int = field(default_factory=lambda: next(_ids))

    # ----- structural queries -------------------------------------------

    @property
    def cat(self) -> OpCategory:
        return self.op.category

    @property
    def is_branch(self) -> bool:
        return self.op.category is _BRANCH

    @property
    def is_control(self) -> bool:
        return self.op.control

    @property
    def is_terminator(self) -> bool:
        """True if control never falls through (unpredicated jump/ret)."""
        cat = self.op.category
        return (cat is _JUMP or cat is _RET) and self.pred is None

    @property
    def is_pred_define(self) -> bool:
        cat = self.op.category
        return cat is _PREDDEF or cat is _PREDSET

    @property
    def is_conditional_write(self) -> bool:
        """True when the destination may keep its old value: guarded
        instructions and conditional moves (but not selects, which
        always write)."""
        return self.pred is not None or self.op.category is _CMOV

    @property
    def condition(self) -> str | None:
        """Comparison condition name for compare-flavoured opcodes."""
        return CONDITION.get(self.op)

    def defined_regs(self) -> tuple[VReg | PReg, ...]:
        """All registers written by this instruction."""
        dest = self.dest
        pdests = self.pdests
        if not pdests:
            return () if dest is None else (dest,)
        regs = tuple([pd.reg for pd in pdests])
        return regs if dest is None else (dest,) + regs

    def used_regs(self) -> tuple[VReg | PReg, ...]:
        """All registers read by this instruction (guard included)."""
        regs = self.srcs
        for s in regs:
            if type(s) not in _REGISTER_TYPES:
                regs = tuple([s for s in regs
                              if type(s) in _REGISTER_TYPES])
                break
        if self.pred is not None:
            regs += (self.pred,)
        # OR/AND-type predicate destinations read-modify-write the register.
        for pd in self.pdests:
            if pd.ptype not in _UNCONDITIONAL:
                regs += (pd.reg,)
        # Conditional moves implicitly read their destination: when the
        # condition blocks the move, the old value must survive.
        if self.op.category is _CMOV and self.dest is not None:
            regs += (self.dest,)
        return regs

    @property
    def is_pure(self) -> bool:
        """True if removing the instruction only loses its dest value(s)."""
        return not self.op.side_effects  # control transfers have them

    def copy(self, **overrides: object) -> "Instruction":
        """Shallow copy with field overrides; keeps the same ``uid``."""
        inst = Instruction(self.op, self.dest, self.srcs, self.pred,
                           self.pdests, self.target, self.speculative,
                           self.mem_hint, self.uid)
        for name, value in overrides.items():
            setattr(inst, name, value)
        return inst

    def fresh_copy(self, **overrides: object) -> "Instruction":
        """Copy with a new ``uid`` (for tail duplication)."""
        inst = self.copy(**overrides)
        inst.uid = next(_ids)
        return inst

    # ----- rewriting ----------------------------------------------------

    def replace_srcs(self, mapping: dict[Operand, Operand]) -> None:
        """Substitute source operands (guard included) in place."""
        self.srcs = tuple(mapping.get(s, s) for s in self.srcs)
        if self.pred is not None and self.pred in mapping:
            new = mapping[self.pred]
            assert isinstance(new, PReg)
            self.pred = new

    # ----- display ------------------------------------------------------

    def __repr__(self) -> str:
        parts: list[str] = [self.op.value]
        if self.speculative:
            parts[0] += ".s"
        operands: list[str] = []
        if self.pdests:
            operands.extend(repr(pd) for pd in self.pdests)
        if self.dest is not None:
            operands.append(repr(self.dest))
        operands.extend(repr(s) for s in self.srcs)
        if self.target is not None:
            operands.append(self.target)
        text = f"{parts[0]} " + ", ".join(operands) if operands \
            else parts[0]
        if self.pred is not None:
            text += f" ({self.pred})"
        return text.strip()


class InstFacts(NamedTuple):
    """What liveness, DCE and the dependence DAG read of one instruction.

    Computed by :func:`instruction_facts` for a whole block and never
    cached on the :class:`Instruction`: passes rewrite instructions in
    place, so a cached copy would go stale.  An analysis computes them
    once per call; the scalar pass driver keeps each block's list in a
    :class:`FactsCache` until a pass changes the block.
    """

    defs: tuple[VReg | PReg, ...]
    uses: tuple[VReg | PReg, ...]
    #: the predicate registers among ``defs``
    pdefs: tuple[PReg, ...]
    guard: PReg | None
    #: pred_clear / pred_set: definitely rewrites every predicate
    predset: bool
    cond_write: bool
    #: where control may leave for: the target of a branch or jump,
    #: None for everything else (calls return, returns have no label)
    exit: str | None
    pure: bool


def instruction_facts(insts: list[Instruction]) -> list[InstFacts]:
    """:class:`InstFacts` of each instruction, parallel to ``insts``."""
    facts = []
    append = facts.append
    for inst in insts:
        op = inst.op
        cat = op.category
        pred = inst.pred
        defs = inst.defined_regs()
        if inst.pdests:
            pdefs = tuple([d for d in defs if type(d) is PReg])
        else:
            pdefs = defs if type(inst.dest) is PReg else ()
        append(InstFacts(
            defs, inst.used_regs(), pdefs, pred, cat is _PREDSET,
            pred is not None or cat is _CMOV,
            inst.target if op.control and cat is not _CALL else None,
            not op.side_effects))
    return facts


class FactsCache(dict):
    """Instruction facts by block name, shared by the passes that keep
    them valid, and what a pass derives from each block's facts.

    ``derived`` maps a block name to a record whose ``facts`` attribute
    is the list it was derived from.  A record holds only while the
    block's entry here *is* that list, so whoever drops or replaces a
    block's facts invalidates what was derived from them too.
    """

    __slots__ = ("derived",)

    def __init__(self) -> None:
        super().__init__()
        self.derived: dict[str, object] = {}
