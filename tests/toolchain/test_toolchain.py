"""Toolchain driver: model pipelines, options, one-call API."""

import pytest

from repro.analysis.profile import Profile
from repro.ir import ISALevel, Opcode, VerificationError, verify_program
from repro.ir.opcodes import OpCategory
from repro.machine.descriptor import fig8_machine, scalar_machine
from repro.toolchain import (MODEL_NAMES, Model, ToolchainOptions,
                             baseline_cycles, compile_and_simulate,
                             compile_for_model, frontend, model_passes,
                             run_compiled)

SRC = """
char buf[256];
int n;
int vowels;
int other;
int main() {
  int i; int c;
  for (i = 0; i < n; i = i + 1) {
    c = buf[i];
    if (c == 'a' || c == 'e' || c == 'i') vowels = vowels + 1;
    else other = other + 1;
  }
  return vowels * 1000 + other;
}
"""

INPUTS = {"buf": [ord(c) for c in "realistic sample of text data!" * 7],
          "n": [200]}


@pytest.fixture(scope="module")
def base():
    return frontend(SRC)


@pytest.fixture(scope="module")
def profile(base):
    return Profile.collect(base, inputs=INPUTS)


def test_isa_levels_by_model():
    assert Model.SUPERBLOCK.isa_level is ISALevel.BASELINE
    assert Model.CMOV.isa_level is ISALevel.PARTIAL
    assert Model.FULLPRED.isa_level is ISALevel.FULL


def test_each_pipeline_respects_its_isa(base, profile):
    for model in Model:
        compiled = compile_for_model(base, model, profile,
                                     fig8_machine())
        verify_program(compiled.program, model.isa_level)


def test_fullpred_code_fails_partial_verification(base, profile):
    compiled = compile_for_model(base, Model.FULLPRED, profile,
                                 fig8_machine())
    has_predication = any(
        i.pred is not None or i.pdests
        for f in compiled.program.functions.values()
        for i in f.all_instructions())
    assert has_predication
    with pytest.raises(VerificationError):
        verify_program(compiled.program, ISALevel.PARTIAL)


def test_cmov_code_contains_conditional_moves(base, profile):
    compiled = compile_for_model(base, Model.CMOV, profile,
                                 fig8_machine())
    ops = {i.op for f in compiled.program.functions.values()
           for i in f.all_instructions()}
    assert ops & {Opcode.CMOV, Opcode.CMOV_COM, Opcode.SELECT}


def test_compile_does_not_mutate_base(base, profile):
    before = base.static_size()
    compile_for_model(base, Model.FULLPRED, profile, fig8_machine())
    assert base.static_size() == before


def test_run_compiled_cross_machine(base, profile):
    compiled = compile_for_model(base, Model.SUPERBLOCK, profile,
                                 fig8_machine())
    perfect = run_compiled(compiled, inputs=INPUTS)
    real = run_compiled(compiled, inputs=INPUTS,
                        machine=fig8_machine().with_real_caches())
    assert perfect.return_value == real.return_value
    assert real.stats.cycles >= perfect.stats.cycles


def test_compile_and_simulate_one_call():
    result = compile_and_simulate(SRC, Model.FULLPRED, fig8_machine(),
                                  inputs=INPUTS)
    golden = compile_and_simulate(SRC, Model.SUPERBLOCK,
                                  scalar_machine(), inputs=INPUTS)
    assert result.return_value == golden.return_value
    assert result.cycles < golden.cycles


def test_baseline_cycles_matches_scalar_run():
    assert baseline_cycles(SRC, inputs=INPUTS) == compile_and_simulate(
        SRC, Model.SUPERBLOCK, scalar_machine(), inputs=INPUTS).cycles


def test_options_disable_machinery(base, profile):
    options = ToolchainOptions(branch_combine=None,
                               enable_promotion=False,
                               enable_or_tree=False, unroll=None)
    for model in Model:
        compiled = compile_for_model(base, model, profile,
                                     fig8_machine(), options)
        result = run_compiled(compiled, inputs=INPUTS)
        golden = compile_and_simulate(SRC, Model.SUPERBLOCK,
                                      scalar_machine(), inputs=INPUTS)
        assert result.return_value == golden.return_value


def test_pass_table_names_and_order():
    # Pass names key IR artifact files, typed compile errors and the
    # per-pass benchmark metrics: renaming one is a visible change.
    names = {m: [p[0] for p in model_passes(m, ToolchainOptions())]
             for m in Model}
    sb = ["superblock-formation", "loop-unroll"]
    hb = ["hyperblock-formation", "predicate-optimization",
          "predicate-promotion", "branch-combine"]
    assert names[Model.SUPERBLOCK] == sb + ["peephole"]
    assert names[Model.FULLPRED] == hb + sb + ["peephole"]
    assert names[Model.CMOV] == hb + sb + [
        "partial-conversion", "or-tree-reduction", "peephole"]


def test_options_drop_switched_off_passes():
    options = ToolchainOptions(branch_combine=None,
                               enable_promotion=False,
                               enable_or_tree=False, unroll=None)
    assert [p[0] for p in model_passes(Model.CMOV, options)] == [
        "hyperblock-formation", "predicate-optimization",
        "superblock-formation", "partial-conversion", "peephole"]


def test_one_model_name_scheme_for_every_entry_point():
    from repro.cli import build_parser
    from repro.robustness.errors import SpecError
    from repro.sweep.spec import SweepSpec

    expected = {m.name.lower() for m in Model}
    assert set(MODEL_NAMES) == expected
    assert all(Model[name.upper()].name.lower() == name
               for name in MODEL_NAMES)
    subcommands = build_parser()._subparsers._group_actions[0].choices
    for command in ("compile", "run"):
        (model_arg,) = [a for a in subcommands[command]._actions
                        if a.dest == "model"]
        assert set(model_arg.choices) == expected
    for name in expected:
        assert SweepSpec(models=(name,)).models == (name,)
    with pytest.raises(SpecError):
        SweepSpec(models=("Superblock",))


def test_schedule_annotations_cover_instructions(base, profile):
    compiled = compile_for_model(base, Model.FULLPRED, profile,
                                 fig8_machine())
    for fn in compiled.program.functions.values():
        for inst in fn.all_instructions():
            assert inst.uid in compiled.schedule.cycles
