"""The pass manager's skips and the preconditions they rest on.

``run_function_passes`` skips a ``fixpoint`` pass (DCE) while no pass
has changed the function since it last ran, and a block-local pass on
every block it has left as it is now.  That is sound only if a pass
returning False has changed nothing and a block-local pass is
idempotent on a block.  These tests replay the peephole of every model
on real pre-peephole IR without the skips, check every False return
against the printed function, check that a skipped DCE would have found
nothing and that a skipped block would have stayed as it is, and check
that the skipping run leaves the same function.  A plain round-robin
driver then serves as the oracle for whole programs.
"""

import itertools

import pytest

from repro.analysis.profile import Profile
from repro.engine.serialize import program_fingerprint
from repro.ir import Function, Imm, Instruction, Opcode, VReg, instruction
from repro.ir.instruction import ensure_uid_headroom
from repro.ir.printer import format_block, format_function
from repro.opt.copyprop import propagate_block, propagate_copies
from repro.opt.cse import cse_block, eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code, remove_dead_instructions
from repro.opt.fold import fold_block, fold_constants
from repro.opt.pipeline import CLASSIC_PASSES, run_function_passes
from repro.toolchain import Model, frontend, optimize_for_model
import repro.opt.pipeline as pipeline
import repro.toolchain as toolchain
from tests.programs import ALL_PROGRAMS, CORPUS, program_source

#: three paper kernels at scale 0.05, then every corpus entry
PROGRAMS = ["wc", "grep", "compress"] + sorted(CORPUS)


def _blocks(fn) -> dict[str, str]:
    return {b.name: format_block(b) for b in fn.blocks}


def _checked_passes(fn, passes):
    """``run_function_passes`` without the skips, checking as it goes.

    Every pass runs over every block in every round.  Beside it, the
    replay keeps the blocks the incremental driver would skip: a
    block-local pass's blocks stay clean until another pass changes
    them, a ``facts`` pass (DCE) dirties the blocks it rewrites, and
    any other pass that changes the function dirties every block.  Returns the number of
    fixpoint-pass runs and of block-pass runs the skips save.
    """
    settled: set[str] = set()
    clean: dict = {}
    saved = skipped = 0
    while True:
        round_change = False
        for name, run, fixpoint, block_pass, facts_pass in passes:
            before_fn = format_function(fn)
            before = _blocks(fn)
            if block_pass is None:
                changed = run(fn)
                after = _blocks(fn)
                if changed and facts_pass is None:
                    clean.clear()
                for done in clean.values():
                    done.difference_update(
                        label for label, text in after.items()
                        if before.get(label) != text)
            else:
                done = clean.setdefault(block_pass, set())
                changed = False
                for block in fn.blocks:
                    label = block.name
                    block_changed = block_pass(block)
                    if label in done:
                        assert not block_changed, f"skipped {name} on " \
                            f"{label} had work to do"
                        skipped += 1
                    if block_changed:
                        changed = True
                        for other in clean.values():
                            other.discard(label)
                    else:
                        assert format_block(block) == before[label], \
                            (name, label)
                    done.add(label)
            if not changed:
                assert format_function(fn) == before_fn, name
            if name in settled:
                assert not changed, f"skipped {name} had work to do"
                saved += 1
            if changed:
                round_change = True
                settled.clear()
            if fixpoint:
                settled.add(name)
        if not round_change:
            break
    return saved, skipped


def _round_robin(fn, passes=None):
    """The driver with no skips: every pass over the whole function in
    every round, until a round changes nothing."""
    if passes is None:
        passes = CLASSIC_PASSES
    any_change = False
    while True:
        round_change = False
        for entry in passes:
            if entry.run(fn):
                round_change = True
        if not round_change:
            break
        any_change = True
    return any_change


def test_dce_is_the_fixpoint_pass():
    assert [(p.name, p.run, p.facts) for p in CLASSIC_PASSES
            if p.fixpoint or p.facts is not None] == [
        ("dce", eliminate_dead_code, remove_dead_instructions)]


def test_block_local_passes_carry_their_per_block_form():
    assert [(p.name, p.run, p.block) for p in CLASSIC_PASSES
            if p.block is not None] == [
        ("fold", fold_constants, fold_block),
        ("copyprop", propagate_copies, propagate_block),
        ("cse", eliminate_common_subexpressions, cse_block),
        ("copyprop2", propagate_copies, propagate_block),
    ]


def test_a_block_dce_rewrites_is_dirty_for_the_block_passes():
    """Removing the dead ``v0 = 7`` lets CSE reuse ``v0 = v8 + v9`` in
    the next round, so the block must not stay clean for CSE."""
    fn = Function("f")
    fn.new_block("entry").instructions = [
        Instruction(Opcode.ADD, dest=VReg(0), srcs=(VReg(8), VReg(9))),
        Instruction(Opcode.MUL, dest=VReg(1), srcs=(VReg(0), Imm(2))),
        Instruction(Opcode.MOV, dest=VReg(0), srcs=(Imm(7),)),
        Instruction(Opcode.ADD, dest=VReg(2), srcs=(VReg(8), VReg(9))),
        Instruction(Opcode.ADD, dest=VReg(3), srcs=(VReg(2), VReg(1))),
        Instruction(Opcode.RET, srcs=(VReg(3),)),
    ]
    plain = fn.clone()
    assert run_function_passes(fn) and _round_robin(plain)
    assert format_function(fn) == format_function(plain)
    assert [repr(inst) for inst in fn.entry.instructions] == [
        "add r0, r8, r9", "mul r1, r0, #2", "add r3, r0, r1", "ret r3"]


@pytest.mark.parametrize("name", PROGRAMS)
def test_false_returns_change_nothing_and_skips_lose_nothing(
        name, monkeypatch):
    source, inputs = program_source(name)
    base = frontend(source)
    profile = Profile.collect(base, inputs=inputs, max_steps=2_000_000)

    saved = []

    def peephole(fn, passes):
        # The same function through the skipping pass manager...
        twin = fn.clone()
        skipping = run_function_passes(twin, passes)
        # ...and through the checking replay, which must agree.
        saved.append(_checked_passes(fn, passes))
        assert format_function(fn) == format_function(twin)
        return skipping
    monkeypatch.setattr(toolchain, "run_function_passes", peephole)
    for model in Model:
        optimize_for_model(base, model, profile)
    # The replay met at least one skipped DCE and one skipped block.
    assert sum(fixpoint for fixpoint, _ in saved) > 0
    assert sum(blocks for _, blocks in saved) > 0


def _optimized_fingerprints(source: str, inputs: dict) -> list[str]:
    base = frontend(source)
    profile = Profile.collect(base, inputs=inputs, max_steps=2_000_000)
    return [program_fingerprint(base)] + [
        program_fingerprint(optimize_for_model(base, model, profile).program)
        for model in Model]


@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_incremental_driver_matches_round_robin(name, monkeypatch):
    """Frontend and every model's optimized program, uids included:
    both compiles allocate uids from the same start."""
    source, inputs = program_source(name)
    start = next(instruction._ids)
    monkeypatch.setattr(instruction, "_ids", itertools.count(start))
    incremental = _optimized_fingerprints(source, inputs)
    monkeypatch.setattr(instruction, "_ids", itertools.count(start))
    monkeypatch.setattr(pipeline, "run_function_passes", _round_robin)
    monkeypatch.setattr(toolchain, "run_function_passes", _round_robin)
    plain = _optimized_fingerprints(source, inputs)
    end = next(instruction._ids)
    monkeypatch.undo()
    ensure_uid_headroom(end)
    assert plain == incremental
