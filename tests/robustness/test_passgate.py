"""Pass gates: paranoid verification, IR artifacts, typed crashes."""

import copy
import os

import pytest

from repro.ir import Imm, Instruction, Opcode
from repro.robustness.errors import CompileError, PassVerificationError
from repro.robustness.passgate import PassGate
from repro.toolchain import Model, ToolchainOptions, compile_for_model


def _append_after_terminator(fn) -> None:
    # The last block ends with ret; anything after it is invalid IR.
    fn.blocks[-1].append(Instruction(Opcode.MOV, dest=fn.new_vreg(),
                                     srcs=(Imm(1),)))


def test_paranoid_names_the_pass_and_dumps_ir(campaign, tmp_path):
    program = copy.deepcopy(campaign.compiled[Model.FULLPRED].program)
    gate = PassGate(program, paranoid=True, artifact_dir=str(tmp_path),
                    model="fullpred")
    fn = program.main
    with pytest.raises(PassVerificationError) as exc:
        gate.run(fn, "evil-pass", lambda: _append_after_terminator(fn))
    err = exc.value
    assert err.pass_name == "evil-pass"
    assert err.function == fn.name
    assert err.artifact_path and os.path.exists(err.artifact_path)
    snapshot = open(err.artifact_path).read()
    assert "evil-pass" in snapshot
    assert fn.name in snapshot


def test_unparanoid_gate_lets_bad_ir_through(campaign):
    program = copy.deepcopy(campaign.compiled[Model.FULLPRED].program)
    gate = PassGate(program, paranoid=False)
    fn = program.main
    before = sum(len(b.instructions) for b in fn.blocks)
    gate.run(fn, "evil-pass", lambda: _append_after_terminator(fn))
    # Nothing checked, nothing caught: the bad instruction stays.
    assert sum(len(b.instructions) for b in fn.blocks) == before + 1


def test_crash_inside_a_pass_becomes_compile_error(campaign, tmp_path):
    program = copy.deepcopy(campaign.compiled[Model.FULLPRED].program)
    gate = PassGate(program, artifact_dir=str(tmp_path))
    fn = program.main

    def explode():
        raise RuntimeError("boom")

    with pytest.raises(CompileError) as exc:
        gate.run(fn, "exploding-pass", explode)
    assert exc.value.pass_name == "exploding-pass"
    assert exc.value.function == fn.name
    assert exc.value.exit_code == 11
    assert not isinstance(exc.value, PassVerificationError)
    assert "boom" in str(exc.value)
    # The function as the crash left it is on disk.
    (snapshot,) = tmp_path.iterdir()
    assert str(snapshot) in str(exc.value)


def test_paranoid_toolchain_compiles_cleanly(campaign, tmp_path):
    options = ToolchainOptions(paranoid=True, artifact_dir=str(tmp_path))
    compile_for_model(campaign.base, Model.FULLPRED, campaign.profile,
                      campaign.machine, options)
    assert not list(tmp_path.iterdir())


def test_artifact_names_are_uniquified(campaign, tmp_path):
    program = copy.deepcopy(campaign.compiled[Model.FULLPRED].program)
    gate = PassGate(program, paranoid=True, artifact_dir=str(tmp_path),
                    model="fullpred")
    fn = program.main
    paths = set()
    for _ in range(2):
        with pytest.raises(PassVerificationError) as exc:
            gate.run(fn, "evil-pass",
                     lambda: _append_after_terminator(fn))
        paths.add(exc.value.artifact_path)
    assert len(paths) == 2 and None not in paths
