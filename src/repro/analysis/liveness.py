"""Backward liveness analysis over virtual and predicate registers.

Blocks here are *extended* blocks: superblocks and hyperblocks contain
mid-block exit branches, so the per-block transfer function walks
instructions backward and revives each exit target's live-in set at the
exit's position — a later definite definition must not hide a value the
exit path needs.

The analysis is also predication-aware.  A guarded definition is not a
definite kill (the old value survives a false guard), but it does
satisfy needs that arise only under the *same still-valid guard*: the
need-set for each register tracks the guards under which it is read, a
guarded definition removes its own guard from the set, and redefining a
predicate register promotes needs conditioned on it to unconditional.
This precision is what lets predicate promotion (paper Figure 2) see
single-iteration temporaries as loop-dead.

Most blocks hold no guarded instruction and no ``pred_set`` /
``pred_clear``; there every need is unconditional and the scan reduces
to set algebra on a :class:`BlockSummary`, computed once per block.
The solver rescans such a block from its summary and keeps
:func:`_scan_block`, the one exact transfer, for the rest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.analysis.cfg import predecessors_map, successors_map
from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import InstFacts, instruction_facts
from repro.ir.operands import PReg, VReg

Reg = VReg | PReg
#: guard key meaning "needed unconditionally"
ALWAYS = None
_EMPTY: frozenset[Reg] = frozenset()


@dataclass
class Liveness:
    """Per-block live-in/live-out register sets."""

    live_in: dict[str, frozenset[Reg]] = field(default_factory=dict)
    live_out: dict[str, frozenset[Reg]] = field(default_factory=dict)

    def live_at_exit(self, block: BasicBlock) -> frozenset[Reg]:
        return self.live_out.get(block.name, frozenset())


def _scan_block(facts: list[InstFacts], live_out: frozenset[Reg],
                live_in_map: dict[str, frozenset[Reg]],
                record: list | None = None) -> frozenset[Reg]:
    """Backward transfer: registers live before the block.

    ``facts`` describes the block's instructions, in order.
    ``record``, if given, is filled with the live set *before* each
    instruction (parallel to ``facts``).
    """
    need: dict[Reg, set] = {r: {ALWAYS} for r in live_out}
    # Every predicate some need may be conditioned on (a superset):
    # most predicate defines then skip the sweep over ``need``.
    guarding: set[PReg] = set()
    if record is not None:
        record.clear()
        record.extend([frozenset()] * len(facts))
    for i in range(len(facts) - 1, -1, -1):
        defs, uses, pdefs, g, predset, cond_write, exit_target, _ = facts[i]
        # Redefining a predicate register invalidates needs conditioned
        # on its (new) value: they refer to the value defined *here*,
        # so for code above this point they are unconditional needs of
        # whatever feeds this define — conservatively promote to ALWAYS.
        for d in pdefs:
            if d in guarding:
                guarding.discard(d)
                for guards in need.values():
                    if d in guards:
                        guards.discard(d)
                        guards.add(ALWAYS)
        if predset:
            # pred_clear/pred_set definitely define every predicate.
            for guards in need.values():
                if len(guards) > 1 or ALWAYS not in guards:
                    guards.clear()
                    guards.add(ALWAYS)
            for r in [r for r in need if isinstance(r, PReg)]:
                del need[r]
            guarding.clear()
        # Kills.
        if not cond_write:
            for d in defs:
                need.pop(d, None)
        elif g is not None:
            for d in defs:
                guards = need.get(d)
                if guards is not None:
                    guards.discard(g)
                    if not guards:
                        del need[d]
        # Uses.  The guard itself is among them, under ALWAYS: it must
        # be readable whenever the instruction is fetched.
        if g is None:
            for r in uses:
                need.setdefault(r, set()).add(ALWAYS)
        else:
            guarding.add(g)
            for r in uses:
                need.setdefault(r, set()).add(ALWAYS if r == g else g)
        # Mid-block exits revive their target's live-ins, conditioned
        # on the exit's guard.
        if exit_target is not None:
            for r in live_in_map.get(exit_target, ()):
                need.setdefault(r, set()).add(g)
        if record is not None:
            record[i] = frozenset(need)
    return frozenset(need)


class BlockSummary(NamedTuple):
    """The transfer of a block with no guarded instruction and no
    ``pred_set``/``pred_clear``, as set algebra::

        live_in = gen | (live_out - kill)
                      | union(live_in[t] - above for t, above in exits)
    """

    #: upward-exposed uses
    gen: frozenset[Reg]
    #: registers definitely defined somewhere in the block
    kill: frozenset[Reg]
    #: each exit's target, in order, with the kills above that exit
    exits: tuple[tuple[str, frozenset[Reg]], ...]


def block_summary(facts: list[InstFacts]) -> BlockSummary | None:
    """The :class:`BlockSummary` of a block, or None when the block
    needs the exact :func:`_scan_block`: it holds a guarded instruction
    or a ``pred_set``/``pred_clear``.

    Without guards every need is unconditional and no predicate define
    has a conditioned need to promote, so a forward walk that matches
    the scan's order at each instruction (kills, then uses, then the
    exit's target) gives the same live-in for any live-out.
    """
    gen: set[Reg] = set()
    kill: set[Reg] = set()
    exits = []
    for f in facts:
        if f.guard is not None or f.predset:
            return None
        for r in f.uses:
            if r not in kill:
                gen.add(r)
        if f.exit is not None:
            exits.append((f.exit, frozenset(kill)))
        if not f.cond_write:
            kill.update(f.defs)
    return BlockSummary(frozenset(gen), frozenset(kill), tuple(exits))


def liveness(fn: Function,
             facts: dict[str, list[InstFacts]] | None = None,
             succs: dict[str, list[str]] | None = None,
             preds: dict[str, list[str]] | None = None,
             summaries: dict[str, BlockSummary | None] | None = None
             ) -> Liveness:
    """Worklist fixpoint, seeded in layout order and driven backward.

    A block is rescanned only when some successor's live-in actually
    grew — the round-robin formulation rescanned the whole function per
    sweep, which is quadratic-ish on the multi-thousand-block CFGs the
    fuzzer's diamond-ladder programs produce.  Each block's transfer is
    summarized once (:func:`block_summary`), so a rescan is set algebra;
    a block without a summary is rescanned by :func:`_scan_block`.  The
    transfer functions are unchanged and monotone, so the least
    fixpoint (and therefore every client: DCE, promotion, scheduling)
    is identical.

    ``facts`` maps block names to :func:`instruction_facts` of their
    instructions, for a caller that already has them; by default they
    are computed here, once per block rather than once per rescan.
    ``succs`` and ``preds`` are the function's :func:`successors_map`
    and :func:`predecessors_map`, and ``summaries`` maps every block
    name to its :func:`block_summary`, likewise.
    """
    if facts is None:
        facts = {b.name: instruction_facts(b.instructions)
                 for b in fn.blocks}
    if succs is None:
        succs = successors_map(fn)
    if preds is None:
        preds = predecessors_map(fn, succs)
    if summaries is None:
        summaries = {b.name: block_summary(facts[b.name])
                     for b in fn.blocks}
    live_in: dict[str, frozenset[Reg]] = {b.name: frozenset()
                                          for b in fn.blocks}
    live_out: dict[str, frozenset[Reg]] = {b.name: frozenset()
                                           for b in fn.blocks}
    worklist = deque(b.name for b in reversed(fn.blocks))
    queued = set(worklist)
    while worklist:
        name = worklist.popleft()
        queued.discard(name)
        out: set[Reg] = set()
        for s in succs[name]:
            out |= live_in[s]
        live_out[name] = out = frozenset(out)
        summary = summaries[name]
        if summary is None:
            new_in = _scan_block(facts[name], out, live_in)
        else:
            gen, kill, exits = summary
            new_in = gen.union(out - kill, *[
                live_in.get(target, _EMPTY) - above
                for target, above in exits])
        if new_in != live_in[name]:
            live_in[name] = new_in
            for p in preds[name]:
                if p not in queued:
                    queued.add(p)
                    worklist.append(p)
    return Liveness(live_in=dict(live_in), live_out=dict(live_out))


def block_use_def(block: BasicBlock) -> tuple[set[Reg], set[Reg]]:
    """(upward-exposed uses, definitely-defined regs) for one block.

    Provided for diagnostics and tests; :func:`liveness` uses the
    position-aware scan directly.
    """
    facts = instruction_facts(block.instructions)
    uses = set(_scan_block(facts, frozenset(), {}))
    defs: set[Reg] = set()
    for f in facts:
        if not f.cond_write:
            defs.update(f.defs)
    return uses, defs


def live_before_each(block: BasicBlock, live_out: frozenset[Reg],
                     live_in_map: dict[str, frozenset[Reg]] | None = None
                     ) -> list[frozenset[Reg]]:
    """Registers live immediately *before* each instruction of ``block``.

    ``live_in_map`` supplies live-in sets of branch targets so mid-block
    exits revive what their targets need.  Returned list is parallel to
    ``block.instructions``.
    """
    record: list = []
    _scan_block(instruction_facts(block.instructions), live_out,
                live_in_map or {}, record)
    return record
