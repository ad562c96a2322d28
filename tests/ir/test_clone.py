"""``Program.clone()``: the same program as ``copy.deepcopy``, sharing
no mutable object with its source."""

import copy
import dataclasses

import pytest

from repro.analysis.profile import Profile
from repro.ir.function import BasicBlock, Function, GlobalVar, Program
from repro.ir.instruction import Instruction, PredDest, PType
from repro.ir.opcodes import Opcode
from repro.ir.operands import PReg, VReg
from repro.ir.printer import format_function
from repro.toolchain import Model, frontend, optimize_for_model
from repro.workloads.base import get_workload


def _programs():
    for name in ("wc", "espresso"):
        workload = get_workload(name)
        base = frontend(workload.source)
        profile = Profile.collect(base, inputs=workload.inputs(0.05))
        yield f"{name}-base", base
        yield f"{name}-cmov", optimize_for_model(base, Model.CMOV,
                                                 profile).program


PROGRAMS = dict(_programs())


def _uids(program):
    return [[inst.uid for inst in fn.all_instructions()]
            for fn in program.functions.values()]


def _globals(program):
    return [(g.name, g.elem_size, g.count, g.init, g.is_float)
            for g in program.globals.values()]


@pytest.mark.parametrize("label", sorted(PROGRAMS))
def test_clone_prints_like_deepcopy(label):
    program = PROGRAMS[label]
    clone, deep = program.clone(), copy.deepcopy(program)
    assert list(clone.functions) == list(deep.functions)
    for name, fn in clone.functions.items():
        other = deep.functions[name]
        assert format_function(fn) == format_function(other)
        assert (fn.params, fn.next_vreg, fn.next_preg, fn.returns_float) \
            == (other.params, other.next_vreg, other.next_preg,
                other.returns_float)
    assert _uids(clone) == _uids(deep) == _uids(program)
    assert _globals(clone) == _globals(deep)
    assert clone.entry == deep.entry


@pytest.mark.parametrize("label", sorted(PROGRAMS))
def test_clone_shares_no_mutable_object(label):
    program = PROGRAMS[label]
    clone = program.clone()
    assert clone is not program
    assert clone.functions is not program.functions
    assert clone.globals is not program.globals
    originals = {id(obj) for fn in program.functions.values()
                 for obj in [fn, fn.params, fn.blocks]
                 + list(fn.blocks)
                 + [b.instructions for b in fn.blocks]
                 + list(fn.all_instructions())}
    originals |= {id(obj) for g in program.globals.values()
                  for obj in (g, g.init) if obj is not None}
    for fn in clone.functions.values():
        for obj in [fn, fn.params, fn.blocks] + list(fn.blocks) \
                + [b.instructions for b in fn.blocks] \
                + list(fn.all_instructions()):
            assert id(obj) not in originals, obj
    for g in clone.globals.values():
        assert id(g) not in originals
        assert g.init is None or id(g.init) not in originals


#: the fields ``Program.clone`` / ``Function.clone`` and
#: ``Instruction.copy`` copy; a new field must be copied there first
CLONED_FIELDS = {
    Instruction: {"op", "dest", "srcs", "pred", "pdests", "target",
                  "speculative", "mem_hint", "uid"},
    BasicBlock: {"name", "instructions"},
    Function: {"name", "params", "blocks", "next_vreg", "next_preg",
               "returns_float"},
    GlobalVar: {"name", "elem_size", "count", "init", "is_float"},
    Program: {"functions", "globals", "entry"},
}


@pytest.mark.parametrize("cls", list(CLONED_FIELDS),
                         ids=lambda cls: cls.__name__)
def test_clone_handles_every_field(cls):
    assert {f.name for f in dataclasses.fields(cls)} == CLONED_FIELDS[cls]


def test_instruction_copy_keeps_every_field():
    inst = Instruction(Opcode.PRED_EQ, dest=VReg(3), srcs=(VReg(1),),
                       pred=PReg(2),
                       pdests=(PredDest(PReg(4), PType.OR),),
                       target="exit", speculative=True, mem_hint="buf")
    twin = inst.copy()
    assert twin is not inst
    for f in dataclasses.fields(Instruction):
        assert getattr(twin, f.name) == getattr(inst, f.name), f.name
