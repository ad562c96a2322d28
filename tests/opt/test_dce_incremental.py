"""DCE's one solve per call and its partial re-sweep, against the loop
they replace.

``remove_dead_instructions`` solves liveness again only after removing
an instruction with an upward-exposed operand, and re-sweeps only a
block whose facts, live-out or exit-target live-ins differ from its
last sweep.  The oracle below is the plain loop: a fresh solve each
round, every block swept, until nothing dies.  Every DCE call the
compile of each model makes on the paper kernels, the fuzz corpus and
short generated programs is checked against it, and three small
functions each catch one way the skips could go wrong.
"""

import importlib

import pytest

from repro.analysis.liveness import block_summary, liveness
from repro.analysis.profile import Profile
from repro.ir import Function, Imm, Instruction, Opcode, VReg
from repro.ir.instruction import FactsCache, instruction_facts
from repro.ir.printer import format_function
from repro.opt.dce import remove_dead_instructions
from repro.toolchain import Model, frontend, optimize_for_model
import repro.opt.pipeline as pipeline
import repro.toolchain as toolchain
from tests.programs import ALL_PROGRAMS, program_source

dce = importlib.import_module("repro.opt.dce")


def oracle_dce(fn: Function) -> set[str]:
    """The loop the incremental DCE replaces."""
    rewritten: set[str] = set()
    while True:
        live = liveness(fn)
        round_changed = False
        for block in fn.blocks:
            live_now = set(live.live_out[block.name])
            block_facts = instruction_facts(block.instructions)
            kept = []
            for inst, f in zip(reversed(block.instructions),
                               reversed(block_facts)):
                if f.pure and f.defs and live_now.isdisjoint(f.defs):
                    round_changed = True
                    continue
                if not f.cond_write:
                    live_now.difference_update(f.defs)
                live_now.update(f.uses)
                if f.exit is not None:
                    live_now.update(live.live_in.get(f.exit, ()))
                kept.append(inst)
            if len(kept) != len(block.instructions):
                block.instructions = kept[::-1]
                rewritten.add(block.name)
        if not round_changed:
            return rewritten


def exposed_removal(before: Function, after: Function) -> bool:
    """Whether ``after`` lacks an instruction of ``before`` with an
    operand that no kept definite definition above it kills."""
    for old, new in zip(before.blocks, after.blocks):
        kept = {inst.uid for inst in new.instructions}
        killed: set = set()
        for inst, f in zip(old.instructions,
                           instruction_facts(old.instructions)):
            if inst.uid not in kept:
                if not killed.issuperset(f.uses):
                    return True
            elif not f.cond_write:
                killed.update(f.defs)
    return False


class Checked:
    """``remove_dead_instructions`` checked against the oracle on every
    call, with its solves counted."""

    def __init__(self, monkeypatch):
        self.solves = 0
        self.calls = 0

        def counted(*args, **kwargs):
            self.solves += 1
            return liveness(*args, **kwargs)
        monkeypatch.setattr(dce, "liveness", counted)

    def __call__(self, fn, facts):
        twin = fn.clone()
        want = oracle_dce(twin)
        before = fn.clone()
        start = self.solves
        got = remove_dead_instructions(fn, facts)
        self.calls += 1
        assert got == want
        assert format_function(fn) == format_function(twin)
        assert facts == {b.name: instruction_facts(b.instructions)
                         for b in fn.blocks}
        for name, state in facts.derived.items():
            if state.facts is facts.get(name):
                assert state.summary == block_summary(state.facts)
        solves = self.solves - start
        if exposed_removal(before, fn):
            assert solves >= 2
        else:
            assert solves == 1
        return got


@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_every_dce_call_matches_the_oracle(name, monkeypatch):
    checked = Checked(monkeypatch)

    def with_checked_dce(passes):
        return [p._replace(facts=checked) if p.facts is not None else p
                for p in passes]
    monkeypatch.setattr(pipeline, "CLASSIC_PASSES",
                        with_checked_dce(pipeline.CLASSIC_PASSES))
    monkeypatch.setattr(toolchain, "PEEPHOLE_PASSES",
                        with_checked_dce(toolchain.PEEPHOLE_PASSES))
    source, inputs = program_source(name)
    base = frontend(source)
    profile = Profile.collect(base, inputs=inputs, max_steps=2_000_000)
    for model in Model:
        optimize_for_model(base, model, profile)
    assert checked.calls > 0


def _function(blocks: dict[str, list[Instruction]]) -> Function:
    fn = Function("f")
    for name, insts in blocks.items():
        fn.new_block(name).instructions = insts
    return fn


def _add(dest, a, b):
    return Instruction(Opcode.ADD, dest=VReg(dest), srcs=(a, b))


def _ops(fn) -> dict[str, list[str]]:
    return {b.name: [repr(i) for i in b.instructions] for b in fn.blocks}


def test_dead_chain_across_blocks_needs_a_second_solve(monkeypatch):
    """Removing ``r2 = r1 * 2`` in ``b`` exposes ``r1``, so only a
    second solve sees ``r1 = r0 + 1`` in ``a`` die: a DCE that never
    re-solves keeps it."""
    fn = _function({
        "a": [_add(1, VReg(0), Imm(1)),
              Instruction(Opcode.JUMP, target="b")],
        "b": [Instruction(Opcode.MUL, dest=VReg(2), srcs=(VReg(1), Imm(2))),
              Instruction(Opcode.RET, srcs=(VReg(0),))],
    })
    checked = Checked(monkeypatch)
    assert checked(fn, FactsCache()) == {"a", "b"}
    assert _ops(fn) == {"a": ["jump b"], "b": ["ret r0"]}


def test_loop_carried_register_dies_after_its_only_use(monkeypatch):
    """``r1`` stays live around the back edge after its only use, the
    dead ``r2 = r1 + 1``, goes: the loop's live-in is unchanged at the
    old live-out, yet the least solution drops ``r1`` and with it
    ``r1 = 5``.  A DCE that re-solves only when some live-in changed
    keeps it."""
    fn = _function({
        "entry": [Instruction(Opcode.MOV, dest=VReg(1), srcs=(Imm(5),)),
                  Instruction(Opcode.MOV, dest=VReg(3), srcs=(Imm(0),)),
                  Instruction(Opcode.JUMP, target="loop")],
        "loop": [_add(2, VReg(1), Imm(1)),
                 _add(3, VReg(3), Imm(1)),
                 Instruction(Opcode.BLT, srcs=(VReg(3), Imm(10)),
                             target="loop"),
                 Instruction(Opcode.JUMP, target="exit")],
        "exit": [Instruction(Opcode.RET, srcs=(VReg(3),))],
    })
    checked = Checked(monkeypatch)
    assert checked(fn, FactsCache()) == {"entry", "loop"}
    assert _ops(fn)["entry"] == ["mov r3, #0", "jump loop"]


def test_block_whose_live_out_shrinks_in_a_later_round(monkeypatch):
    """Between two calls another pass rewrites ``b`` so it no longer
    reads ``r1`` and drops ``b``'s facts, as the driver does.  ``a``
    keeps its facts list but loses ``r1`` from its live-out: a DCE that
    skips a block on its facts alone keeps ``r1 = r0 + 1``."""
    fn = _function({
        "a": [_add(1, VReg(0), Imm(1)),
              Instruction(Opcode.JUMP, target="b")],
        "b": [_add(2, VReg(1), Imm(2)),
              Instruction(Opcode.RET, srcs=(VReg(2),))],
    })
    checked = Checked(monkeypatch)
    facts = FactsCache()
    assert checked(fn, facts) == set()
    a_facts = facts["a"]
    fn.block("b").instructions = [Instruction(Opcode.RET, srcs=(Imm(2),))]
    facts.pop("b")
    assert checked(fn, facts) == {"a"}
    assert facts["a"] is not a_facts
    assert _ops(fn) == {"a": ["jump b"], "b": ["ret #2"]}


def test_a_call_with_nothing_exposed_solves_once(monkeypatch):
    """``r1 = 7`` dies with no operand to expose; one solve settles it."""
    fn = _function({
        "a": [Instruction(Opcode.MOV, dest=VReg(1), srcs=(Imm(7),)),
              Instruction(Opcode.RET, srcs=(VReg(0),))],
    })
    checked = Checked(monkeypatch)
    assert checked(fn, FactsCache()) == {"a"}
    assert checked.solves == 1
