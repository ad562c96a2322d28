"""The scalar passes run to their fixpoint, or fail loudly.

``run_function_passes`` loops until a round changes nothing.  A pass
list that keeps changing a function for ``MAX_ROUNDS`` rounds raises a
``CompileError`` naming the function instead of stopping silently.
"""

import pytest

import repro.opt.pipeline as pipeline
import repro.toolchain as toolchain
from repro.analysis.profile import Profile
from repro.cli import main
from repro.ir import Function, Imm, Instruction, Opcode, VReg
from repro.opt.pipeline import PassEntry, run_function_passes
from repro.robustness.errors import CompileError
from repro.toolchain import Model, frontend, optimize_for_model
from repro.workloads.base import get_workload


def _spin() -> Function:
    fn = Function("spin")
    fn.new_block("entry").instructions = [
        Instruction(Opcode.RET, srcs=(VReg(0),))]
    return fn


def _add(fn: Function) -> bool:
    fn.entry.instructions.insert(
        0, Instruction(Opcode.MOV, dest=VReg(0), srcs=(Imm(1),)))
    return True


def _drop(fn: Function) -> bool:
    del fn.entry.instructions[0]
    return True


#: two passes that undo each other: every round changes the function
UNDOING = [PassEntry("add", _add), PassEntry("drop", _drop)]


def test_passes_that_undo_each_other_raise_compile_error():
    with pytest.raises(CompileError) as exc:
        run_function_passes(_spin(), UNDOING)
    assert exc.value.function == "spin"
    assert "spin" in str(exc.value)
    assert f"{pipeline.MAX_ROUNDS} rounds" in str(exc.value)
    assert exc.value.exit_code == 11


def test_a_non_converging_peephole_exits_11(tmp_path, monkeypatch, capsys):
    path = tmp_path / "k.c"
    path.write_text("int main() { int s; s = 3; return s + 4; }")
    monkeypatch.setattr(toolchain, "PEEPHOLE_PASSES", UNDOING)
    assert main(["compile", str(path), "--model", "superblock"]) == 11
    err = capsys.readouterr().err
    assert "error[CompileError]" in err and "main" in err


def test_cccp_cmov_main_reaches_a_fixpoint(monkeypatch):
    """The one paper-kernel call that four rounds left unconverged:
    it now stops where one more round changes nothing, and it needs
    more than four rounds to get there."""
    workload = get_workload("cccp")
    base = frontend(workload.source)
    profile = Profile.collect(base, inputs=workload.inputs(1.0))
    extra_round_changed = {}

    def peephole(fn, passes):
        changed = run_function_passes(fn, passes)
        extra_round_changed[fn.name] = run_function_passes(fn.clone(),
                                                           passes)
        return changed
    monkeypatch.setattr(toolchain, "run_function_passes", peephole)
    optimize_for_model(base, Model.CMOV, profile)
    assert extra_round_changed["main"] is False
    assert not any(extra_round_changed.values())

    monkeypatch.undo()
    monkeypatch.setattr(pipeline, "MAX_ROUNDS", 4)
    with pytest.raises(CompileError) as exc:
        optimize_for_model(base, Model.CMOV, profile)
    assert exc.value.function == "main"
