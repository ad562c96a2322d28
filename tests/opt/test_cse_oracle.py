"""CSE's table layout against the version it replaces.

``cse_block`` keys expressions by the opcode's value string, puts the
sources of a commutative operation in order by kind and register
number, and keeps loads in a table of their own that a store or call
empties.  The oracle below is the version before that: enum members in
the keys, commutative sources sorted by ``repr``, and one table that a
store scans for its loads.  Every CSE call the compile of each model
makes on the paper kernels, the fuzz corpus and short generated
programs is checked against it: the same instructions with the same
uids, and the same changed flag.
"""

import pytest

from repro.analysis.profile import Profile
from repro.ir import (BasicBlock, GlobalAddr, Imm, Instruction, Opcode,
                      PReg, VReg)
from repro.ir.function import Function
from repro.ir.opcodes import COMMUTATIVE, OpCategory
from repro.ir.operands import Operand, RegClass
from repro.opt.cse import cse_block
from repro.toolchain import Model, frontend, optimize_for_model
import repro.opt.pipeline as pipeline
import repro.toolchain as toolchain
from tests.programs import ALL_PROGRAMS, program_source


def _oracle_key(inst: Instruction) -> tuple | None:
    cat = inst.cat
    if inst.pred is not None:
        return None
    if inst.dest is not None and inst.dest in inst.srcs:
        return None
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


def oracle_cse_block(block: BasicBlock) -> bool:
    """The ``cse_block`` the current one replaces."""
    changed = False
    available: dict[tuple, VReg] = {}
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
            for k in [k for k in available
                      if len(k) >= 3 and k[-1] == "mem"]:
                drop(k)
        key = _oracle_key(inst)
        if key is not None and inst.dest is not None:
            prior = available.get(key)
            if prior is not None and prior != inst.dest:
                mov = Opcode.FMOV if inst.dest.is_float else Opcode.MOV
                new_insts.append(inst.copy(op=mov, srcs=(prior,)))
                changed = True
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
                if available[k] == inst.dest and key == k:
                    continue
                drop(k)
    block.instructions = new_insts
    return changed


def _listing(block: BasicBlock) -> list[tuple]:
    """Everything of each instruction, immediates by type and repr."""
    return [(i.uid, repr(i), i.op, i.dest,
             tuple((type(s), repr(s)) for s in i.srcs), i.pred, i.pdests,
             i.target, i.speculative, i.mem_hint)
            for i in block.instructions]


class Checked:
    """``cse_block`` checked against the oracle on every call."""

    def __init__(self):
        self.calls = 0

    def __call__(self, block: BasicBlock) -> bool:
        twin = BasicBlock(block.name,
                          [inst.copy() for inst in block.instructions])
        want = oracle_cse_block(twin)
        got = cse_block(block)
        self.calls += 1
        assert got == want
        assert _listing(block) == _listing(twin)
        return got


@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_every_cse_call_matches_the_oracle(name, monkeypatch):
    checked = Checked()

    def with_checked_cse(passes):
        return [p._replace(block=checked) if p.block is cse_block else p
                for p in passes]
    monkeypatch.setattr(pipeline, "CLASSIC_PASSES",
                        with_checked_cse(pipeline.CLASSIC_PASSES))
    monkeypatch.setattr(toolchain, "PEEPHOLE_PASSES",
                        with_checked_cse(toolchain.PEEPHOLE_PASSES))
    source, inputs = program_source(name)
    base = frontend(source)
    profile = Profile.collect(base, inputs=inputs, max_steps=2_000_000)
    for model in Model:
        optimize_for_model(base, model, profile)
    assert checked.calls > 0


def _block(*insts: Instruction) -> BasicBlock:
    fn = Function("f")
    block = fn.new_block("entry")
    block.instructions = list(insts)
    block.append(Instruction(Opcode.RET, srcs=(VReg(99),)))
    return block


def _check(block: BasicBlock) -> bool:
    return Checked()(block)


def test_immediate_matches_in_either_position():
    """``add r1, #1`` and ``add #1, r1`` compute the same value."""
    block = _block(
        Instruction(Opcode.ADD, dest=VReg(2), srcs=(VReg(1), Imm(1))),
        Instruction(Opcode.ADD, dest=VReg(3), srcs=(Imm(1), VReg(1))))
    assert _check(block)
    assert repr(block.instructions[1]) == "mov r3, r2"


def test_registers_match_in_either_order_but_not_across_classes():
    block = _block(
        Instruction(Opcode.FADD, dest=VReg(4, RegClass.FLOAT),
                    srcs=(VReg(10, RegClass.FLOAT), VReg(2, RegClass.FLOAT))),
        Instruction(Opcode.FADD, dest=VReg(5, RegClass.FLOAT),
                    srcs=(VReg(2, RegClass.FLOAT), VReg(10, RegClass.FLOAT))),
        Instruction(Opcode.CMP_EQ, dest=VReg(6), srcs=(VReg(3), VReg(7))),
        Instruction(Opcode.CMP_EQ, dest=VReg(8),
                    srcs=(VReg(7), VReg(3, RegClass.FLOAT))))
    assert _check(block)
    assert [i.op for i in block.instructions[:4]] == [
        Opcode.FADD, Opcode.FMOV, Opcode.CMP_EQ, Opcode.CMP_EQ]


def test_store_and_call_drop_loads_only():
    base = GlobalAddr("tab")
    load = Instruction(Opcode.LOAD, dest=VReg(1), srcs=(base, Imm(0)))
    block = _block(
        load,
        Instruction(Opcode.MUL, dest=VReg(2), srcs=(VReg(0), Imm(3))),
        Instruction(Opcode.STORE, srcs=(base, Imm(4), VReg(2))),
        Instruction(Opcode.LOAD, dest=VReg(3), srcs=(base, Imm(0))),
        Instruction(Opcode.MUL, dest=VReg(4), srcs=(Imm(3), VReg(0))),
        Instruction(Opcode.JSR, target="g"),
        Instruction(Opcode.LOAD, dest=VReg(5), srcs=(base, Imm(0))),
        Instruction(Opcode.LOAD, dest=VReg(6), srcs=(base, Imm(0))),
        Instruction(Opcode.LOAD, dest=VReg(7), srcs=(base, Imm(0)),
                    speculative=True))
    assert _check(block)
    assert [repr(i) for i in block.instructions[3:9]] == [
        "load r3, @tab, #0", "mov r4, r2", "jsr g", "load r5, @tab, #0",
        "mov r6, r5", "load.s r7, @tab, #0"]


def test_redefining_a_source_or_the_value_drops_the_entry():
    block = _block(
        Instruction(Opcode.ADD, dest=VReg(2), srcs=(VReg(0), VReg(1))),
        Instruction(Opcode.MOV, dest=VReg(2), srcs=(Imm(5),)),
        Instruction(Opcode.ADD, dest=VReg(3), srcs=(VReg(1), VReg(0))),
        Instruction(Opcode.SUB, dest=VReg(4), srcs=(VReg(3), VReg(0))),
        Instruction(Opcode.MOV, dest=VReg(0), srcs=(Imm(1),)),
        Instruction(Opcode.SUB, dest=VReg(5), srcs=(VReg(3), VReg(0))),
        Instruction(Opcode.ADD, dest=VReg(6), srcs=(VReg(1), VReg(0)),
                    pred=PReg(1)))
    assert not _check(block)
