"""Liveness (including predication subtleties) and loop detection."""

import importlib
import itertools

import pytest

from repro.analysis.liveness import block_use_def, live_before_each, liveness
from repro.analysis.loops import find_loops, innermost_loops
from repro.ir import (BasicBlock, Function, IRBuilder, Imm, Instruction,
                      Opcode, PReg, PredDest, PType, VReg)
from tests.programs import ALL_PROGRAMS, program_functions


def test_block_use_def_simple():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.ADD, dest=VReg(0),
                             srcs=(VReg(1), VReg(2))))
    block.append(Instruction(Opcode.MOV, dest=VReg(3), srcs=(VReg(0),)))
    uses, defs = block_use_def(block)
    assert uses == {VReg(1), VReg(2)}
    assert defs == {VReg(0), VReg(3)}


def test_guarded_def_is_not_definite_kill():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.MOV, dest=VReg(0), srcs=(Imm(1),),
                             pred=PReg(1)))
    uses, defs = block_use_def(block)
    assert VReg(0) not in defs
    assert PReg(1) in uses


def test_same_guard_use_not_upward_exposed():
    """The Fig. 2 pattern: def and use under the same guard."""
    block = BasicBlock("b")
    p = PReg(1)
    block.append(Instruction(Opcode.LOAD, dest=VReg(0),
                             srcs=(VReg(9), Imm(0)), pred=p))
    block.append(Instruction(Opcode.ADD, dest=VReg(2),
                             srcs=(VReg(0), Imm(1)), pred=p))
    uses, _defs = block_use_def(block)
    assert VReg(0) not in uses
    assert VReg(9) in uses


def test_different_guard_use_is_exposed():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.MOV, dest=VReg(0), srcs=(Imm(1),),
                             pred=PReg(1)))
    block.append(Instruction(Opcode.ADD, dest=VReg(2),
                             srcs=(VReg(0), Imm(1)), pred=PReg(2)))
    uses, _defs = block_use_def(block)
    assert VReg(0) in uses


def test_guard_redefinition_invalidates_kill():
    """Redefining the guard between def and use re-exposes the use."""
    block = BasicBlock("b")
    p = PReg(1)
    block.append(Instruction(Opcode.MOV, dest=VReg(0), srcs=(Imm(1),),
                             pred=p))
    block.append(Instruction(Opcode.PRED_EQ, srcs=(Imm(0), Imm(0)),
                             pdests=(PredDest(p, PType.U),)))
    block.append(Instruction(Opcode.ADD, dest=VReg(2),
                             srcs=(VReg(0), Imm(1)), pred=p))
    uses, _defs = block_use_def(block)
    assert VReg(0) in uses


def test_cmov_dest_not_killed():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.CMOV, dest=VReg(0),
                             srcs=(VReg(1), VReg(2))))
    uses, defs = block_use_def(block)
    assert VReg(0) not in defs
    assert VReg(0) in uses


def _loop_function():
    fn = Function("f")
    entry = fn.new_block("entry")
    head = fn.new_block("head")
    body = fn.new_block("body")
    exit_ = fn.new_block("exit")
    b = IRBuilder(fn, entry)
    i = fn.new_vreg()
    s = fn.new_vreg()
    b.mov_to(i, Imm(0))
    b.mov_to(s, Imm(0))
    b.jump("head")
    b.set_block(head)
    b.bge(i, Imm(10), "exit")
    b.jump("body")
    b.set_block(body)
    ns = b.add(s, i)
    b.mov_to(s, ns)
    ni = b.add(i, Imm(1))
    b.mov_to(i, ni)
    b.jump("head")
    b.set_block(exit_)
    b.ret(s)
    return fn, i, s


def test_liveness_around_loop():
    fn, i, s = _loop_function()
    live = liveness(fn)
    assert i in live.live_in["head"]
    assert s in live.live_in["head"]
    assert s in live.live_in["exit"]
    assert i not in live.live_in["exit"]
    assert i not in live.live_in["entry"]


def test_live_before_each_positions():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.ADD, dest=VReg(0),
                             srcs=(VReg(1), Imm(1))))
    block.append(Instruction(Opcode.MUL, dest=VReg(2),
                             srcs=(VReg(0), VReg(0))))
    result = live_before_each(block, frozenset({VReg(2)}))
    assert VReg(1) in result[0]
    assert VReg(0) not in result[0]
    assert VReg(0) in result[1]


def test_live_before_each_revives_exit_targets():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.BEQ, srcs=(VReg(5), Imm(0)),
                             target="cold"))
    block.append(Instruction(Opcode.MOV, dest=VReg(7), srcs=(Imm(0),)))
    live_in_map = {"cold": frozenset({VReg(7)})}
    result = live_before_each(block, frozenset(), live_in_map)
    # r7 is needed if the exit is taken, even though the straight-line
    # code redefines it afterwards.
    assert VReg(7) in result[0]


def test_find_loops():
    fn, _i, _s = _loop_function()
    loops = find_loops(fn)
    assert len(loops) == 1
    assert loops[0].header == "head"
    assert loops[0].body == {"head", "body"}
    assert loops[0].is_innermost


def test_nested_loops():
    fn = Function("f")
    for name in ("entry", "oh", "ob", "ih", "ib", "exit"):
        fn.new_block(name)
    b = IRBuilder(fn, fn.block("entry"))
    b.jump("oh")
    b.set_block(fn.block("oh"))
    b.bge(VReg(0), Imm(10), "exit")
    b.jump("ob")
    b.set_block(fn.block("ob"))
    b.jump("ih")
    b.set_block(fn.block("ih"))
    b.bge(VReg(1), Imm(5), "oh")
    b.jump("ib")
    b.set_block(fn.block("ib"))
    b.jump("ih")
    b.set_block(fn.block("exit"))
    b.ret(Imm(0))
    loops = find_loops(fn)
    headers = {l.header for l in loops}
    assert headers == {"oh", "ih"}
    inner = [l for l in loops if l.header == "ih"][0]
    outer = [l for l in loops if l.header == "oh"][0]
    assert inner.is_innermost
    assert not outer.is_innermost
    assert inner.body < outer.body
    assert innermost_loops(fn) == [inner]


def _round_robin_liveness(fn):
    """The pre-worklist formulation, kept as the test oracle: sweep
    every block until nothing changes."""
    from repro.analysis.cfg import successors_map
    from repro.analysis.liveness import Liveness, _scan_block
    from repro.ir.instruction import instruction_facts

    succs = successors_map(fn)
    live_in = {b.name: frozenset() for b in fn.blocks}
    live_out = {b.name: frozenset() for b in fn.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(fn.blocks):
            name = block.name
            out = set()
            for s in succs[name]:
                out |= live_in[s]
            new_in = frozenset(_scan_block(
                instruction_facts(block.instructions), frozenset(out),
                live_in))
            out_f = frozenset(out)
            if out_f != live_out[name] or new_in != live_in[name]:
                live_out[name] = out_f
                live_in[name] = new_in
                changed = True
    return Liveness(live_in=dict(live_in), live_out=dict(live_out))


def test_worklist_liveness_matches_round_robin_on_real_code():
    # Regression for the worklist rewrite: the fixpoint must be
    # identical to the old whole-function sweep on real compiled code,
    # including predicated hyperblocks.
    from repro.analysis.profile import Profile
    from repro.fuzz.generator import generate_case
    from repro.machine.descriptor import MachineDescription
    from repro.toolchain import Model, compile_for_model, frontend

    case = generate_case(0x11e, 2)
    machine = MachineDescription(issue_width=8, branch_issue_limit=1,
                                 name="8-issue,1-branch")
    base = frontend(case.source)
    profile = Profile.collect(base, inputs=case.inputs,
                              max_steps=300_000)
    for model in (Model.SUPERBLOCK, Model.FULLPRED):
        compiled = compile_for_model(base, model, profile, machine)
        for fn in compiled.program.functions.values():
            got = liveness(fn)
            want = _round_robin_liveness(fn)
            assert got.live_in == want.live_in, (model, fn.name)
            assert got.live_out == want.live_out, (model, fn.name)


@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_summary_liveness_matches_round_robin(name):
    """Every kernel, corpus entry and short generated program, before
    and after each model's optimization: the summary-driven worklist
    solve equals the exact-scan round-robin oracle."""
    for tag, fn in program_functions(name):
        got = liveness(fn)
        want = _round_robin_liveness(fn)
        assert got.live_in == want.live_in, (tag, fn.name)
        assert got.live_out == want.live_out, (tag, fn.name)


def _summary_transfer(summary, live_out, live_in_map):
    return set(summary.gen) | (set(live_out) - summary.kill) | {
        r for target, above in summary.exits
        for r in live_in_map.get(target, ()) if r not in above}


def _assert_summary_is_exact(block, regs, targets):
    """The summary's transfer equals ``_scan_block`` for every live-out
    drawn from ``regs`` and every exit-target live-in drawn from them."""
    from repro.analysis.liveness import _scan_block, block_summary
    from repro.ir.instruction import instruction_facts

    facts = instruction_facts(block.instructions)
    summary = block_summary(facts)
    assert summary is not None
    subsets = [frozenset(c) for n in range(len(regs) + 1)
               for c in itertools.combinations(regs, n)]
    for out in subsets:
        for ins in itertools.product(subsets, repeat=len(targets)):
            live_in_map = dict(zip(targets, ins))
            assert _summary_transfer(summary, out, live_in_map) == set(
                _scan_block(facts, out, live_in_map)), (out, live_in_map)
    return summary


def test_summary_exit_below_a_definite_kill():
    """The kill above an exit hides the exit target's need; a kill
    below it does not."""
    block = BasicBlock("b")
    block.append(Instruction(Opcode.MOV, dest=VReg(1), srcs=(Imm(5),)))
    block.append(Instruction(Opcode.BEQ, srcs=(VReg(2), Imm(0)),
                             target="cold"))
    block.append(Instruction(Opcode.MOV, dest=VReg(3), srcs=(VReg(1),)))
    block.append(Instruction(Opcode.JUMP, target="next"))
    summary = _assert_summary_is_exact(
        block, (VReg(1), VReg(3), VReg(4)), ("cold", "next"))
    assert summary.exits == (("cold", frozenset({VReg(1)})),
                             ("next", frozenset({VReg(1), VReg(3)})))
    cold = frozenset({VReg(1), VReg(3), VReg(4)})
    assert _summary_transfer(summary, frozenset(), {"cold": cold}) == {
        VReg(2), VReg(3), VReg(4)}


def test_summary_cmov_does_not_kill_its_destination():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.CMOV, dest=VReg(0),
                             srcs=(VReg(1), VReg(2))))
    block.append(Instruction(Opcode.MOV, dest=VReg(3), srcs=(VReg(0),)))
    summary = _assert_summary_is_exact(block, (VReg(0), VReg(3)), ())
    assert VReg(0) not in summary.kill
    assert VReg(0) in summary.gen


def test_summary_unguarded_predicate_define_kills():
    p = PReg(1)
    block = BasicBlock("b")
    block.append(Instruction(Opcode.PRED_EQ, srcs=(VReg(0), Imm(0)),
                             pdests=(PredDest(p, PType.U),)))
    block.append(Instruction(Opcode.MOV, dest=VReg(2), srcs=(VReg(0),)))
    summary = _assert_summary_is_exact(block, (p, VReg(0), VReg(2)), ())
    assert p in summary.kill
    assert p not in summary.gen


@pytest.mark.parametrize("inst", [
    Instruction(Opcode.MOV, dest=VReg(0), srcs=(Imm(1),), pred=PReg(1)),
    Instruction(Opcode.PRED_SET),
], ids=["guarded", "pred_set"])
def test_guarded_or_predset_block_takes_the_exact_scan(inst, monkeypatch):
    """One guarded instruction or ``pred_set`` and the block has no
    summary: the solver rescans it, and only it, with ``_scan_block``."""
    from repro.ir.instruction import instruction_facts

    # ``repro.analysis`` re-exports the function under the module's name.
    live_mod = importlib.import_module("repro.analysis.liveness")

    fn = Function("f")
    entry = fn.new_block("entry")
    loop = fn.new_block("loop")
    fn.new_block("exit")
    p = PReg(1)
    entry.instructions = [
        Instruction(Opcode.PRED_EQ, srcs=(VReg(9), Imm(0)),
                    pdests=(PredDest(p, PType.U),)),
        Instruction(Opcode.JUMP, target="loop")]
    loop.instructions = [
        inst,
        Instruction(Opcode.ADD, dest=VReg(2), srcs=(VReg(0), Imm(1))),
        Instruction(Opcode.BEQ, srcs=(VReg(2), Imm(0)), target="loop"),
        Instruction(Opcode.JUMP, target="exit")]
    fn.block("exit").instructions = [Instruction(Opcode.RET,
                                                 srcs=(VReg(2),))]
    assert live_mod.block_summary(
        instruction_facts(loop.instructions)) is None
    scanned = []
    real_scan = live_mod._scan_block

    def scan(facts, *args):
        scanned.append(len(facts))
        return real_scan(facts, *args)
    monkeypatch.setattr(live_mod, "_scan_block", scan)
    got = liveness(fn)
    monkeypatch.undo()
    assert scanned and set(scanned) == {len(loop.instructions)}
    want = _round_robin_liveness(fn)
    assert got.live_in == want.live_in
    assert got.live_out == want.live_out
