"""Global dead code elimination using liveness.

Hyperblocks contain mid-block exit branches, so the backward in-block
scan revives the exit target's live-in set at every control
instruction: a value needed only on an early-exit path must stay live
at that point even if the straight-line code redefines it later.

Each call solves liveness once, from block summaries it keeps in the
driver's facts cache, and sweeps only the blocks whose sweep could
differ from the last one.  It solves again only after removing an
instruction whose operands reach the top of its block, the one kind of
removal that can shrink a live-in.
"""

from __future__ import annotations

from repro.analysis.cfg import predecessors_map, successors_map
from repro.analysis.liveness import BlockSummary, block_summary, liveness
from repro.ir.function import Function
from repro.ir.instruction import FactsCache, InstFacts, instruction_facts


class _BlockState:
    """What DCE derives from one facts list of a block."""

    __slots__ = ("facts", "summary", "exits", "swept")

    def __init__(self, facts: list[InstFacts]) -> None:
        self.facts = facts
        self.summary: BlockSummary | None = block_summary(facts)
        #: every exit's target, in order
        self.exits = tuple(f.exit for f in facts if f.exit is not None)
        #: the live-out and exit-target live-ins of the last sweep that
        #: left ``facts`` as they are, or None
        self.swept: tuple | None = None


def eliminate_dead_code(fn: Function) -> bool:
    """Remove pure instructions whose results are never used."""
    return bool(remove_dead_instructions(fn, FactsCache()))


def remove_dead_instructions(fn: Function, facts: FactsCache) -> set[str]:
    """Remove pure instructions whose results are never used; returns
    the names of the blocks it rewrote.

    ``facts`` maps block names to :func:`instruction_facts` of their
    instructions.  A missing entry is computed here and every rewritten
    block's entry is replaced, so the cache stays valid for a caller
    that drops the entry of each block it changes itself.  Beside each
    entry, ``facts.derived`` keeps the block's liveness summary and the
    inputs of its last sweep for the next call.

    A sweep of a block is a function of its facts, its live-out and its
    exit targets' live-ins, and sweeping its own output again removes
    nothing; so a block whose three inputs match its last sweep is
    skipped.  Removing an instruction whose every operand a kept
    definite definition above it kills leaves the block's transfer as
    it was (its own definitions were dead, so neither their kills nor a
    predicate define's promotion touched a live need), so liveness is
    solved again only after a round that removed an instruction with an
    upward-exposed operand.
    """
    derived = facts.derived
    states: dict[str, _BlockState] = {}
    for block in fn.blocks:
        name = block.name
        block_facts = facts.get(name)
        if block_facts is None:
            block_facts = facts[name] = instruction_facts(block.instructions)
        state = derived.get(name)
        if state is None or state.facts is not block_facts:
            state = derived[name] = _BlockState(block_facts)
        states[name] = state
    # Removing a pure instruction does not change the CFG.
    succs = successors_map(fn)
    preds = predecessors_map(fn, succs)
    rewritten: set[str] = set()
    while True:
        live = liveness(fn, facts, succs, preds,
                        {name: s.summary for name, s in states.items()})
        live_in = live.live_in
        resolve = False
        for block in fn.blocks:
            name = block.name
            state = states[name]
            live_out = live.live_out[name]
            inputs = (live_out,) + tuple(live_in.get(t, ())
                                         for t in state.exits)
            if state.swept == inputs:
                continue
            live_now = set(live_out)
            # Operands of removed instructions that no kept definite
            # definition above has killed yet.
            exposed: set = set()
            kept = []
            for inst, f in zip(reversed(block.instructions),
                               reversed(state.facts)):
                defs = f.defs
                if f.pure and defs and live_now.isdisjoint(defs):
                    exposed.update(f.uses)
                    continue
                if not f.cond_write:
                    # Only definite writes kill.
                    live_now.difference_update(defs)
                    exposed.difference_update(defs)
                live_now.update(f.uses)
                if f.exit is not None:
                    # Mid-block exit: everything its target needs is
                    # live here, even if redefined later in the block.
                    live_now.update(live_in.get(f.exit, ()))
                kept.append((inst, f))
            if len(kept) != len(state.facts):
                kept.reverse()
                block.instructions = [inst for inst, _ in kept]
                # Removing an instruction changes no other's facts.
                facts[name] = [f for _, f in kept]
                state = states[name] = derived[name] = \
                    _BlockState(facts[name])
                rewritten.add(name)
                resolve = resolve or bool(exposed)
            state.swept = inputs
        if not resolve:
            return rewritten
