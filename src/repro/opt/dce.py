"""Global dead code elimination using liveness.

Hyperblocks contain mid-block exit branches, so the backward in-block
scan revives the exit target's live-in set at every control
instruction: a value needed only on an early-exit path must stay live
at that point even if the straight-line code redefines it later.
"""

from __future__ import annotations

from repro.analysis.cfg import predecessors_map, successors_map
from repro.analysis.liveness import liveness
from repro.ir.function import Function
from repro.ir.instruction import InstFacts, instruction_facts


def eliminate_dead_code(fn: Function) -> bool:
    """Remove pure instructions whose results are never used."""
    return bool(remove_dead_instructions(fn, {}))


def remove_dead_instructions(fn: Function,
                             facts: dict[str, list[InstFacts]]
                             ) -> set[str]:
    """Remove pure instructions whose results are never used; returns
    the names of the blocks it rewrote.

    ``facts`` maps block names to :func:`instruction_facts` of their
    instructions.  A missing entry is computed here and every rewritten
    block's entry is replaced, so the cache stays valid for a caller
    that drops the entry of each block it changes itself.
    """
    # Removing an instruction changes no other's facts, so one
    # computation serves every round: the swept lists shrink in step
    # with the blocks.
    for block in fn.blocks:
        if block.name not in facts:
            facts[block.name] = instruction_facts(block.instructions)
    # Nor does removing a pure instruction change the CFG.
    succs = successors_map(fn)
    preds = predecessors_map(fn, succs)
    rewritten: set[str] = set()
    while True:
        live = liveness(fn, facts, succs, preds)
        round_changed = False
        for block in fn.blocks:
            live_now = set(live.live_out[block.name])
            block_facts = facts[block.name]
            kept = []
            for inst, f in zip(reversed(block.instructions),
                               reversed(block_facts)):
                defs = f.defs
                if f.pure and defs and live_now.isdisjoint(defs):
                    round_changed = True
                    continue
                if not f.cond_write:
                    # Only definite writes kill.
                    live_now.difference_update(defs)
                live_now.update(f.uses)
                if f.exit is not None:
                    # Mid-block exit: everything its target needs is
                    # live here, even if redefined later in the block.
                    live_now.update(live.live_in.get(f.exit, ()))
                kept.append((inst, f))
            if len(kept) != len(block_facts):
                kept.reverse()
                block.instructions = [inst for inst, _ in kept]
                facts[block.name] = [f for _, f in kept]
                rewritten.add(block.name)
        if not round_changed:
            return rewritten
