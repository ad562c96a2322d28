"""One emulation per distinct scheduled program.

``PipelineContext`` keys its emulations by the scheduled program's
content (``program_content``) and the inputs, not by compile key: one
model's schedules for machines whose extra issue slots never bind come
out alike, and then share one emulation.  Every stored key stays as it
was.  These tests pin which programs share, that a single differing
constant, ``speculative`` flag or uid never does, that paranoid mode
still checks every triple's program, that ``release_traces`` drops the
shared entries, and that sharing changes no result on either engine.
"""

import dataclasses

import pytest

from repro.engine import stages
from repro.engine.stages import PipelineContext, program_content
from repro.experiments.runner import scaled_fig11_machine
from repro.ir.operands import Imm
from repro.machine.descriptor import (fig8_machine, fig9_machine,
                                      fig10_machine)
from repro.toolchain import Model, ToolchainOptions
from repro.workloads import get_workload

SCALE = 0.1

MACHINES = (fig8_machine(), fig9_machine(), fig10_machine())


def _emulations(ctx) -> int:
    return ctx.metrics.stages["emulate"].invocations


def _measure(ctx, name, model, machines=MACHINES):
    workload = get_workload(name)
    return [ctx.run_summary(workload, model, machine).stats
            for machine in machines]


def test_espresso_superblock_shares_one_emulation_across_figures():
    ctx = PipelineContext(scale=SCALE)
    _measure(ctx, "espresso", Model.SUPERBLOCK)
    assert _emulations(ctx) == 1
    # Three compiled artifacts and three stats keys all the same.
    workload = get_workload("espresso")
    assert len({ctx.compile_key(workload, Model.SUPERBLOCK, m)
                for m in MACHINES}) == 3
    assert len(ctx._execution) == 3 and len(ctx._emulations) == 1


def test_grep_shares_no_emulation():
    ctx = PipelineContext(scale=SCALE)
    for model in Model:
        _measure(ctx, "grep", model)
    assert _emulations(ctx) == 3 * len(Model)


def _swap_imm(inst):
    for k, src in enumerate(inst.srcs):
        if type(src) is Imm and type(src.value) is int \
                and src.value in (0, 1):
            # Equal to the old constant in Python, but a bool.
            srcs = list(inst.srcs)
            srcs[k] = Imm(bool(src.value))
            inst.srcs = tuple(srcs)
            return True
    return False


def _flip_speculative(inst):
    inst.speculative = not inst.speculative
    return True


def _new_uid(inst):
    inst.uid = 10**9
    return True


@pytest.mark.parametrize("mutate", [_swap_imm, _flip_speculative, _new_uid],
                         ids=["imm", "speculative", "uid"])
def test_a_clone_differing_in_one_field_never_shares(mutate):
    ctx = PipelineContext(scale=SCALE)
    workload = get_workload("espresso")
    model = Model.SUPERBLOCK
    first, second = MACHINES[0], MACHINES[1]
    compiled = ctx.compiled(workload, model, first)
    program = compiled.program.clone()
    assert program_content(program) == program_content(compiled.program)
    assert any(mutate(inst) for fn in program.functions.values()
               for inst in fn.all_instructions())
    assert program_content(program) != program_content(compiled.program)
    # The second machine's triple compiles to the mutated clone.
    ctx._compiled[ctx.compile_key(workload, model, second)] = \
        dataclasses.replace(compiled, program=program)
    ctx.execution(workload, model, first)
    ctx.execution(workload, model, second)
    assert _emulations(ctx) == 2


def test_equal_python_constants_of_other_types_differ_in_content():
    ctx = PipelineContext(scale=SCALE)
    compiled = ctx.compiled(get_workload("espresso"), Model.SUPERBLOCK,
                            MACHINES[0])
    for old, new in ((0, 0.0), (0.0, -0.0), (1, True)):
        program = compiled.program.clone()
        inst = next(i for fn in program.functions.values()
                    for i in fn.all_instructions() if i.srcs)
        inst.srcs = (Imm(old),) + inst.srcs[1:]
        before = program_content(program)
        inst.srcs = (Imm(new),) + inst.srcs[1:]
        assert program_content(program) != before, (old, new)


def test_paranoid_mode_checks_every_triples_program(monkeypatch):
    checked = []
    real = stages.check_trace_integrity

    def spy(execution, program):
        checked.append(program)
        return real(execution, program)

    monkeypatch.setattr(stages, "check_trace_integrity", spy)
    ctx = PipelineContext(scale=SCALE,
                          options=ToolchainOptions(paranoid=True))
    _measure(ctx, "espresso", Model.SUPERBLOCK)
    assert _emulations(ctx) == 1
    assert len(checked) == 3
    assert len({id(program) for program in checked}) == 3


def test_release_traces_empties_the_shared_memo():
    ctx = PipelineContext(scale=SCALE)
    workload = get_workload("espresso")
    ctx.execution(workload, Model.SUPERBLOCK, MACHINES[0])
    ctx.execution(workload, Model.SUPERBLOCK, MACHINES[1])
    assert ctx._emulations and ctx._execution
    ctx.release_traces()
    assert not ctx._emulations and not ctx._execution
    ctx.execution(workload, Model.SUPERBLOCK, MACHINES[2])
    assert _emulations(ctx) == 2


def test_shared_emulations_change_no_result_on_either_engine():
    """Stats of a context that shares equal those of one context per
    machine, which has nothing to share, on both engines alike."""
    machines = MACHINES + (scaled_fig11_machine(),)
    for name, model in (("espresso", Model.SUPERBLOCK),
                        ("espresso", Model.CMOV), ("li", Model.FULLPRED)):
        results = []
        for engine in ("vector", "legacy"):
            ctx = PipelineContext(scale=SCALE, engine=engine)
            results.append(_measure(ctx, name, model, machines))
            assert _emulations(ctx) < len(machines) - 1, (name, model)
            results.append([
                _measure(PipelineContext(scale=SCALE, engine=engine),
                         name, model, (machine,))[0]
                for machine in machines])
        assert all(stats == results[0] for stats in results), (name, model)
