"""Dependence DAG and list scheduler tests."""

from repro.analysis.liveness import liveness
from repro.ir import (Function, GlobalAddr, IRBuilder, Imm, Instruction,
                      Opcode, PReg, PredDest, Program, PType, VReg)
from repro.machine.descriptor import MachineDescription
from repro.schedule.dag import build_dag
from repro.schedule.list_scheduler import schedule_block
from tests.schedule.test_shared_dag import MACHINES, PROGRAMS, _optimized


def _machine(width=4, branches=1):
    return MachineDescription(issue_width=width,
                              branch_issue_limit=branches)


def _fn_with(insts):
    fn = Function("f")
    block = fn.new_block("entry")
    block.instructions = list(insts)
    block.append(Instruction(Opcode.RET))
    return fn, block


def _schedule_is_topological(fn, block, machine):
    live = liveness(fn)
    original = list(block.instructions)
    graph = build_dag(fn, block, live, machine)
    schedule_block(fn, block, machine, live)
    pos = {inst.uid: k for k, inst in enumerate(block.instructions)}
    for i in range(len(original)):
        for j, _lat in graph.succs[i]:
            if pos[original[i].uid] > pos[original[j].uid]:
                return False
    return True


def test_raw_dependences_respected():
    fn, block = _fn_with([
        Instruction(Opcode.ADD, dest=VReg(0), srcs=(Imm(1), Imm(2))),
        Instruction(Opcode.MUL, dest=VReg(1), srcs=(VReg(0), Imm(3))),
        Instruction(Opcode.SUB, dest=VReg(2), srcs=(VReg(1), Imm(4))),
    ])
    assert _schedule_is_topological(fn, block, _machine())


def test_independent_ops_pack_into_one_cycle():
    insts = [Instruction(Opcode.ADD, dest=VReg(k),
                         srcs=(Imm(k), Imm(1))) for k in range(4)]
    fn, block = _fn_with(insts)
    result = schedule_block(fn, block, _machine(width=8))
    cycles = {result.cycles[i.uid] for i in block.instructions[:-1]}
    assert cycles == {0}


def test_issue_width_limits_parallelism():
    insts = [Instruction(Opcode.ADD, dest=VReg(k),
                         srcs=(Imm(k), Imm(1))) for k in range(8)]
    fn, block = _fn_with(insts)
    result = schedule_block(fn, block, _machine(width=2))
    assert result.length >= 4


def test_branch_slot_limit():
    fn = Function("f")
    block = fn.new_block("entry")
    for k in range(3):
        block.append(Instruction(Opcode.BEQ, srcs=(VReg(9), Imm(k)),
                                 target=f"t{k}"))
    block.append(Instruction(Opcode.RET))
    for k in range(3):
        fn.new_block(f"t{k}").append(Instruction(Opcode.RET))
    result = schedule_block(fn, block, _machine(width=8, branches=1))
    branch_cycles = [result.cycles[i.uid] for i in block.instructions
                     if i.op is Opcode.BEQ]
    assert len(set(branch_cycles)) == len(branch_cycles)


def test_or_defines_issue_same_cycle():
    p = PReg(1)
    insts = [
        Instruction(Opcode.PRED_EQ, srcs=(VReg(1), Imm(k)),
                    pdests=(PredDest(p, PType.OR),))
        for k in range(3)
    ]
    fn, block = _fn_with(insts)
    result = schedule_block(fn, block, _machine(width=8))
    cycles = {result.cycles[i.uid] for i in block.instructions[:-1]}
    assert cycles == {0}, "wired-OR defines must be order independent"


def test_u_defines_serialize():
    p = PReg(1)
    insts = [
        Instruction(Opcode.PRED_EQ, srcs=(VReg(1), Imm(k)),
                    pdests=(PredDest(p, PType.U),))
        for k in range(2)
    ]
    fn, block = _fn_with(insts)
    result = schedule_block(fn, block, _machine(width=8))
    cycles = [result.cycles[i.uid] for i in block.instructions
              if i.is_pred_define]
    assert len(cycles) == 2 and cycles[0] != cycles[1]


def test_guarded_use_waits_for_define():
    p = PReg(1)
    insts = [
        Instruction(Opcode.PRED_EQ, srcs=(VReg(1), Imm(0)),
                    pdests=(PredDest(p, PType.U),)),
        Instruction(Opcode.ADD, dest=VReg(2), srcs=(Imm(1), Imm(2)),
                    pred=p),
    ]
    fn, block = _fn_with(insts)
    result = schedule_block(fn, block, _machine(width=8))
    define = next(i for i in block.instructions if i.is_pred_define)
    use = next(i for i in block.instructions if i.op is Opcode.ADD)
    # The guard must be available a full cycle before the guarded use
    # (suppression at decode/issue, paper Section 2.1).
    assert result.cycles[use.uid] >= result.cycles[define.uid] + 1


def test_complementary_cmovs_may_share_cycle():
    cond = VReg(9)
    insts = [
        Instruction(Opcode.CMOV, dest=VReg(0), srcs=(VReg(1), cond)),
        Instruction(Opcode.CMOV_COM, dest=VReg(0), srcs=(VReg(2), cond)),
    ]
    fn, block = _fn_with(insts)
    result = schedule_block(fn, block, _machine(width=8))
    cycles = [result.cycles[i.uid] for i in block.instructions[:-1]]
    assert cycles[0] == cycles[1]


def test_memory_disambiguation_distinct_globals():
    insts = [
        Instruction(Opcode.STORE, srcs=(GlobalAddr("a"), Imm(0),
                                        VReg(1))),
        Instruction(Opcode.LOAD, dest=VReg(2),
                    srcs=(GlobalAddr("b"), Imm(0))),
    ]
    fn, block = _fn_with(insts)
    live = liveness(fn)
    graph = build_dag(fn, block, live, _machine())
    assert not any(j == 1 for j, _ in graph.succs[0]), \
        "distinct globals must not serialize"


def test_memory_same_global_serializes():
    insts = [
        Instruction(Opcode.STORE, srcs=(GlobalAddr("a"), Imm(0),
                                        VReg(1))),
        Instruction(Opcode.LOAD, dest=VReg(2),
                    srcs=(GlobalAddr("a"), Imm(4))),
    ]
    fn, block = _fn_with(insts)
    live = liveness(fn)
    graph = build_dag(fn, block, live, _machine())
    assert (1, 1) in graph.succs[0]


def test_register_address_is_opaque():
    insts = [
        Instruction(Opcode.STORE, srcs=(VReg(5), Imm(0), VReg(1))),
        Instruction(Opcode.LOAD, dest=VReg(2),
                    srcs=(GlobalAddr("a"), Imm(0))),
    ]
    fn, block = _fn_with(insts)
    graph = build_dag(fn, block, liveness(fn), _machine())
    assert any(j == 1 for j, _ in graph.succs[0])


def test_mem_hint_restores_disambiguation():
    store = Instruction(Opcode.STORE, srcs=(VReg(5), Imm(0), VReg(1)))
    store.mem_hint = "a"
    insts = [
        store,
        Instruction(Opcode.LOAD, dest=VReg(2),
                    srcs=(GlobalAddr("b"), Imm(0))),
    ]
    fn, block = _fn_with(insts)
    graph = build_dag(fn, block, liveness(fn), _machine())
    assert not any(j == 1 for j, _ in graph.succs[0])


def test_speculative_load_crossing_branch_marked_silent():
    fn = Function("f")
    cold = fn.new_block("cold")
    cold.append(Instruction(Opcode.RET))
    block = BasicBlockHelper = fn.new_block("entry")
    block.append(Instruction(Opcode.BEQ, srcs=(VReg(9), Imm(0)),
                             target="cold"))
    block.append(Instruction(Opcode.LOAD, dest=VReg(0),
                             srcs=(GlobalAddr("a"), Imm(0))))
    block.append(Instruction(Opcode.RET, srcs=(VReg(0),)))
    fn.blocks.reverse()  # entry must be first
    fn.blocks.sort(key=lambda b: 0 if b.name == "entry" else 1)
    result = schedule_block(fn, fn.block("entry"), _machine(width=8))
    insts = fn.block("entry").instructions
    load = next(i for i in insts if i.op is Opcode.LOAD)
    branch = next(i for i in insts if i.op is Opcode.BEQ)
    if insts.index(load) < insts.index(branch):
        assert load.speculative
        assert result.speculated == 1
    del BasicBlockHelper


def test_scheduler_never_drops_instructions():
    insts = [Instruction(Opcode.ADD, dest=VReg(k), srcs=(Imm(k), Imm(1)))
             for k in range(20)]
    fn, block = _fn_with(insts)
    schedule_block(fn, block, _machine(width=3))
    assert len(block.instructions) == 21


def test_store_stream_keeps_program_order():
    # Regression found by the differential fuzzer (case-feed-00204):
    # two stores to distinct globals carry no alias edge, so the
    # scheduler was free to emit the cheap-operand store first.  The
    # emulator executes emission order and the differential oracle
    # treats the dynamic store stream as observable, so superblock code
    # diverged from the predicated models.  Writes must keep program
    # order even when provably independent.
    insts = [
        Instruction(Opcode.MUL, dest=VReg(0), srcs=(VReg(8), VReg(9))),
        Instruction(Opcode.MUL, dest=VReg(1), srcs=(VReg(0), VReg(9))),
        Instruction(Opcode.MUL, dest=VReg(2), srcs=(VReg(1), VReg(9))),
        Instruction(Opcode.STORE, srcs=(GlobalAddr("g2"), Imm(0),
                                        VReg(2))),
        Instruction(Opcode.STORE, srcs=(GlobalAddr("g1"), Imm(0),
                                        VReg(7))),
    ]
    fn, block = _fn_with(insts)
    schedule_block(fn, block, _machine(width=8))
    stores = [i.srcs[0].name for i in block.instructions
              if i.op is Opcode.STORE]
    assert stores == ["g2", "g1"]


def test_store_order_edge_still_allows_same_cycle_issue():
    # The ordering edge is latency 0: two ready stores to distinct
    # globals still dual-issue.
    insts = [
        Instruction(Opcode.STORE, srcs=(GlobalAddr("a"), Imm(0),
                                        VReg(1))),
        Instruction(Opcode.STORE, srcs=(GlobalAddr("b"), Imm(0),
                                        VReg(2))),
    ]
    fn, block = _fn_with(insts)
    result = schedule_block(fn, block, _machine(width=8))
    cycles = [result.cycles[i.uid] for i in block.instructions
              if i.op is Opcode.STORE]
    assert cycles[0] == cycles[1] == 0


def test_program_length_is_the_sum_of_its_block_lengths():
    from repro.analysis.profile import Profile
    from repro.machine.descriptor import fig8_machine
    from repro.toolchain import Model, compile_for_model, frontend
    from repro.workloads.base import get_workload

    workload = get_workload("wc")
    base = frontend(workload.source)
    profile = Profile.collect(base, inputs=workload.inputs(0.05))
    for model in Model:
        compiled = compile_for_model(base, model, profile, fig8_machine())
        cycles = compiled.schedule.cycles
        lengths = [max(cycles[inst.uid] for inst in block.instructions) + 1
                   for fn in compiled.program.functions.values()
                   for block in fn.blocks if block.instructions]
        assert compiled.schedule.length == sum(lengths) > 0, model


def _crossing_reference(original, scheduled):
    """Uids of the may-except instructions of ``original`` that the
    ``scheduled`` order moved above a control transfer."""
    from repro.ir.opcodes import MAY_EXCEPT

    pos = {inst.uid: k for k, inst in enumerate(scheduled)}
    return {inst.uid for i, inst in enumerate(original)
            if inst.op in MAY_EXCEPT and not inst.speculative
            and any(b.is_control and pos[b.uid] > pos[inst.uid]
                    for b in original[:i])}


def test_silent_marks_follow_the_crossing_rule():
    """Every block of real code on every machine: exactly the
    may-except instructions that moved above a branch turn silent."""
    crossed = 0
    for optimized in (o for program in PROGRAMS
                      for o in _optimized(program)):
        for machine in MACHINES:
            clone = optimized.program.clone()
            for fn in clone.functions.values():
                live = liveness(fn)
                for block in fn.blocks:
                    original = list(block.instructions)
                    result = schedule_block(fn, block, machine, live)
                    expected = _crossing_reference(original,
                                                   block.instructions)
                    silent = {inst.uid for inst in block.instructions
                              if inst.speculative}
                    was_silent = {inst.uid for inst in original
                                  if inst.speculative}
                    assert silent - was_silent == expected, block.name
                    assert result.speculated == len(expected)
                    crossed += len(expected)
    assert crossed
