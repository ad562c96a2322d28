#!/usr/bin/env python3
"""The paper's Figure 5 case study: the wc loop.

Compiles the wc benchmark for a 4-issue, 1-branch processor (the
machine of the paper's example) under all three models, prints the
scheduled hot loop with issue-cycle annotations, and reports the
branch/instruction statistics the paper discusses.

Run:  python examples/wc_case_study.py
"""

from repro.analysis.profile import Profile
from repro.ir import format_block
from repro.machine.descriptor import fig10_machine, scalar_machine
from repro.toolchain import (Model, compile_for_model, frontend,
                             run_compiled)
from repro.workloads import get_workload


def hottest_block(compiled, execution):
    """The block containing the most-executed instruction."""
    exec_counts: dict[int, int] = {}
    assert execution.trace is not None
    for event in execution.trace:
        exec_counts[event.inst.uid] = \
            exec_counts.get(event.inst.uid, 0) + 1
    best_block, best = None, -1
    for fn in compiled.program.functions.values():
        for block in fn.blocks:
            score = sum(exec_counts.get(i.uid, 0)
                        for i in block.instructions)
            if score > best:
                best_block, best = block, score
    return best_block


def main() -> None:
    wc = get_workload("wc")
    inputs = wc.inputs(0.5)
    base = frontend(wc.source)
    profile = Profile.collect(base, inputs=inputs)
    machine = fig10_machine()

    scalar_cycles = None
    for model in Model:
        compiled = compile_for_model(base, model, profile, machine)
        result = run_compiled(compiled, inputs=inputs, engine="legacy")
        if scalar_cycles is None:
            scalar = compile_for_model(base, Model.SUPERBLOCK, profile,
                                       scalar_machine())
            scalar_cycles = run_compiled(scalar, inputs=inputs).cycles
        stats = result.stats
        print("=" * 72)
        print(f"{model.value} — wc on {machine.name}")
        print("=" * 72)
        print(f"cycles={stats.cycles}  "
              f"speedup={scalar_cycles / stats.cycles:.2f}  "
              f"instrs={stats.executed_instructions}  "
              f"branches={stats.branches}  "
              f"mispredicts={stats.mispredictions}")
        block = hottest_block(compiled, result.execution)
        assert block is not None
        print(f"\nhot loop ({len(block.instructions)} instructions, "
              f"issue cycles on the right):")
        print(format_block(block, cycles=compiled.schedule.cycles))
        print()


if __name__ == "__main__":
    main()
