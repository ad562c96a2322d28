"""The register queries against straightforward reference versions.

``defined_regs``, ``used_regs`` and ``instruction_facts`` are read by
liveness, DCE, CSE, copy propagation and the dependence DAG hundreds of
thousands of times per compile, so they are written for speed.  The
reference versions below state the same rules plainly; every query
must return equal tuples, in the same order, on every instruction of
the shared program set and on hand-built corner cases.
"""

import pytest

from repro.ir.instruction import (InstFacts, Instruction, PredDest, PType,
                                  instruction_facts)
from repro.ir.opcodes import OpCategory, Opcode
from repro.ir.operands import GlobalAddr, Imm, PReg, RegClass, VReg
from tests.programs import ALL_PROGRAMS, program_functions


def reference_defined_regs(inst):
    regs = []
    if inst.dest is not None:
        regs.append(inst.dest)
    regs.extend(pd.reg for pd in inst.pdests)
    return tuple(regs)


def reference_used_regs(inst):
    regs = [s for s in inst.srcs if isinstance(s, (VReg, PReg))]
    if inst.pred is not None:
        regs.append(inst.pred)
    for pd in inst.pdests:
        if pd.ptype is not PType.U and pd.ptype is not PType.U_BAR:
            regs.append(pd.reg)
    if inst.cat is OpCategory.CMOV and inst.dest is not None:
        regs.append(inst.dest)
    return tuple(regs)


def reference_facts(inst):
    op = inst.op
    cat = op.category
    defs = reference_defined_regs(inst)
    return InstFacts(
        defs, reference_used_regs(inst),
        tuple(d for d in defs if isinstance(d, PReg)),
        inst.pred, cat is OpCategory.PREDSET,
        inst.pred is not None or cat is OpCategory.CMOV,
        inst.target if op.control and cat is not OpCategory.CALL else None,
        not op.side_effects)


def _assert_queries_match(insts):
    facts = instruction_facts(insts)
    assert len(facts) == len(insts)
    for inst, got in zip(insts, facts):
        assert inst.defined_regs() == reference_defined_regs(inst), inst
        assert inst.used_regs() == reference_used_regs(inst), inst
        want = reference_facts(inst)
        assert got == want, inst
        # A tuple subclass would compare equal: check the types too.
        assert all(type(a) is type(b) for a, b in zip(got, want)), inst


@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_queries_match_the_reference_on_every_program(name):
    """The frontend program and each model's optimized program, so
    OR/AND-type pdests, guards, cmovs and ``pred_set`` all appear."""
    seen = set()
    for _tag, fn in program_functions(name):
        for block in fn.blocks:
            _assert_queries_match(block.instructions)
            seen.update(inst.op for inst in block.instructions)
    assert seen


def test_the_program_set_reaches_every_corner():
    ops, ptypes, guarded = set(), set(), False
    for name in ALL_PROGRAMS:
        for _tag, fn in program_functions(name):
            for block in fn.blocks:
                for inst in block.instructions:
                    ops.add(inst.op.category)
                    ptypes.update(pd.ptype for pd in inst.pdests)
                    guarded |= inst.pred is not None
    # No pass emits select; the hand-built cases cover it.
    assert {OpCategory.CMOV, OpCategory.PREDSET, OpCategory.PREDDEF} <= ops
    assert {PType.OR, PType.AND, PType.U} <= ptypes
    assert guarded


def _p(i):
    return PReg(i)


HAND_BUILT = {
    "preg-dest": Instruction(Opcode.MOV, dest=_p(4), srcs=(_p(5),),
                             pred=_p(6)),
    "repeated-pdests": Instruction(
        Opcode.PRED_EQ, srcs=(VReg(1), Imm(0)),
        pdests=(PredDest(_p(1), PType.OR), PredDest(_p(1), PType.OR_BAR))),
    "repeated-u-pdests": Instruction(
        Opcode.PRED_LT, srcs=(VReg(1), VReg(2)),
        pdests=(PredDest(_p(2), PType.U), PredDest(_p(2), PType.AND))),
    "guarded-pdefine": Instruction(
        Opcode.PRED_NE, srcs=(VReg(3), Imm(1)), pred=_p(7),
        pdests=(PredDest(_p(8), PType.AND_BAR),
                PredDest(_p(9), PType.U_BAR))),
    "select": Instruction(Opcode.SELECT, dest=VReg(0),
                          srcs=(VReg(1), Imm(2), VReg(3))),
    "fselect": Instruction(
        Opcode.FSELECT, dest=VReg(0, RegClass.FLOAT),
        srcs=(VReg(1, RegClass.FLOAT), VReg(2, RegClass.FLOAT), VReg(3))),
    "cmov": Instruction(Opcode.CMOV, dest=VReg(0), srcs=(Imm(1), VReg(2))),
    "guarded-fcmov-com": Instruction(
        Opcode.FCMOV_COM, dest=VReg(0, RegClass.FLOAT),
        srcs=(VReg(1, RegClass.FLOAT), VReg(2)), pred=_p(3)),
    "store": Instruction(Opcode.STORE,
                         srcs=(GlobalAddr("a", 4), VReg(1), VReg(2))),
    "pred-set": Instruction(Opcode.PRED_SET),
    "pred-clear": Instruction(Opcode.PRED_CLEAR, pred=_p(1)),
    "branch": Instruction(Opcode.BEQ, srcs=(VReg(1), Imm(0)),
                          target="L1", pred=_p(2)),
    "call": Instruction(Opcode.JSR, dest=VReg(9), srcs=(VReg(1),),
                        target="callee"),
    "ret": Instruction(Opcode.RET, srcs=(VReg(1),)),
    "no-operands": Instruction(Opcode.JUMP, target="L2"),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_queries_match_the_reference_on_hand_built_instructions(case):
    _assert_queries_match([HAND_BUILT[case]])


def test_repeated_pdests_keep_every_entry():
    inst = HAND_BUILT["repeated-pdests"]
    assert inst.defined_regs() == (_p(1), _p(1))
    assert inst.used_regs() == (VReg(1), _p(1), _p(1))
    assert instruction_facts([inst])[0].pdefs == (_p(1), _p(1))


def test_a_preg_dest_is_a_predicate_define():
    facts = instruction_facts([HAND_BUILT["preg-dest"]])[0]
    assert facts.defs == (_p(4),) and facts.pdefs == (_p(4),)
    assert facts.uses == (_p(5), _p(6)) and facts.cond_write
