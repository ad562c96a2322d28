"""Pass manager and the standard classic-optimization pipeline."""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from repro.ir.function import BasicBlock, Function, Program
from repro.ir.instruction import FactsCache
from repro.opt.cfg_cleanup import cleanup_cfg
from repro.opt.copyprop import propagate_block, propagate_copies
from repro.opt.cse import cse_block, eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code, remove_dead_instructions
from repro.opt.fold import fold_block, fold_constants
from repro.robustness.errors import CompileError

#: a pass returns True iff it changed the function
FunctionPass = Callable[[Function], bool]
#: a block-local pass returns True iff it changed the block
BlockPass = Callable[[BasicBlock], bool]
#: a pass that shares the driver's per-block instruction facts and
#: returns the names of the blocks it rewrote
FactsPass = Callable[[Function, FactsCache], set[str]]


class PassEntry(NamedTuple):
    """One pass of a pass list."""

    name: str
    run: FunctionPass
    #: the pass iterates to its own fixpoint, so running it again on a
    #: function no pass has changed since would change nothing
    fixpoint: bool = False
    #: the per-block form of a block-local pass (``run`` is a loop over
    #: it): it reads nothing outside the block, and running it again on
    #: a block it has just run on changes nothing
    block: BlockPass | None = None
    #: the form of the pass that the driver calls instead of ``run``:
    #: it takes the driver's facts cache, keeps the entry of each block
    #: it rewrites valid, and reports those blocks
    facts: FactsPass | None = None


#: The classic scalar pipeline run before region formation on all three
#: processor models, and re-run as the post-conversion peephole cleanup
#: for partial predication.
CLASSIC_PASSES: list[PassEntry] = [
    PassEntry("fold", fold_constants, block=fold_block),
    PassEntry("copyprop", propagate_copies, block=propagate_block),
    PassEntry("cse", eliminate_common_subexpressions, block=cse_block),
    PassEntry("copyprop2", propagate_copies, block=propagate_block),
    PassEntry("dce", eliminate_dead_code, fixpoint=True,
              facts=remove_dead_instructions),
    PassEntry("cfg", cleanup_cfg),
]

#: rounds after which :func:`run_function_passes` stops looking for a
#: fixpoint and raises.  No function of the paper kernels, the corpus or
#: the generated programs has needed more than 18, so a function that
#: reaches this bound has passes that undo each other.
MAX_ROUNDS = 100


def run_function_passes(fn: Function,
                        passes: list[PassEntry] | None = None) -> bool:
    """Run passes until a round changes nothing; returns True if
    anything changed.  Raises :class:`CompileError` naming ``fn`` when
    :data:`MAX_ROUNDS` rounds all change it.

    It computes what running every pass over the whole function in
    each round would, and skips work that would change nothing:

    - a ``fixpoint`` pass while no pass has changed the function since
      it last ran;
    - a block-local pass on each block it has left as it is now;
    - the instruction facts of each block no pass but a ``facts``
      pass (DCE) has changed since they were computed, and what DCE
      derives from them (see :class:`FactsCache`).

    Any other pass that changes the function drops all of this.
    """
    if passes is None:
        passes = CLASSIC_PASSES
    any_change = False
    # Fixpoint passes with nothing left to do until the next change.
    settled: set[str] = set()
    # Per block-local pass: the blocks it has left as they are now.
    clean: dict[BlockPass, set[str]] = {}
    # Instruction facts by block name, shared by the ``facts`` passes.
    facts = FactsCache()
    for _ in range(MAX_ROUNDS):
        round_change = False
        for name, run, fixpoint, block_pass, facts_pass in passes:
            if name in settled:
                continue
            if block_pass is not None:
                done = clean.setdefault(block_pass, set())
                changed = False
                for block in fn.blocks:
                    label = block.name
                    if label in done:
                        continue
                    if block_pass(block):
                        changed = True
                        facts.pop(label, None)
                        for other in clean.values():
                            other.discard(label)
                    done.add(label)
            elif facts_pass is not None:
                rewritten = facts_pass(fn, facts)
                changed = bool(rewritten)
                for done in clean.values():
                    done.difference_update(rewritten)
            else:
                changed = run(fn)
                if changed:
                    clean.clear()
                    facts.clear()
            if changed:
                round_change = True
                settled.clear()
            if fixpoint:
                settled.add(name)
        if not round_change:
            return any_change
        any_change = True
    raise CompileError(
        f"passes {[p.name for p in passes]} still changed {fn.name} "
        f"after {MAX_ROUNDS} rounds", function=fn.name)


def optimize_program(program: Program) -> None:
    """Run the classic pipeline over every function."""
    for fn in program.functions.values():
        run_function_passes(fn)
