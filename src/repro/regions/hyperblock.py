"""Hyperblock formation: profile-driven block selection + if-conversion.

Implements the paper's Section 3.1: basic blocks from many control-flow
paths are grouped into a single-entry region based on execution
frequency, size, and hazard heuristics; the region is then if-converted
into one linear hyperblock of predicated instructions with explicit
(possibly predicated) exit branches.

Formation targets innermost loop bodies — the paper's case studies (the
wc and grep loops) and its speedups are dominated by hot loops — plus
simple acyclic diamonds elsewhere via the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import predecessors_map, successors_map
from repro.analysis.loops import find_loops
from repro.analysis.profile import Profile
from repro.ir.function import Function
from repro.ir.opcodes import OpCategory, Opcode
from repro.opt.cfg_cleanup import (normalize_basic_blocks, relayout,
                                   remove_unreachable)
from repro.regions.ifconvert import (IfConversionError, PredInfo,
                                     if_convert)


@dataclass(frozen=True)
class HyperblockParams:
    """Block-selection heuristics (paper Section 3.1).

    Inclusion weighs execution frequency against size: blocks executed
    rarely relative to the region entry are excluded *unless* they are
    small (cheap to predicate); essentially-never-executed blocks are
    always excluded; ``max_instructions`` bounds resource consumption so
    the hyperblock does not over-saturate the processor; blocks
    containing hazardous instructions (subroutine calls) are always
    excluded.
    """

    min_ratio: float = 0.05
    #: blocks at or below this size join regardless of frequency
    small_block_size: int = 10
    #: below this entry-relative frequency a block never joins (0.0:
    #: any block that executed at least once may join if small)
    min_exec_ratio: float = 0.0
    max_instructions: int = 220
    min_entry_count: int = 50
    #: skip loops averaging fewer header visits per outside entry
    min_iteration_ratio: float = 2.0
    #: bound on fetched-vs-useful instructions per entry: dropping cold
    #: blocks when static size exceeds this multiple of the average
    #: dynamic instructions prevents issue-width oversaturation (the
    #: paper's resource heuristic, Section 3.1)
    max_expansion_ratio: float = 2.6


def _is_hazardous(fn: Function, label: str) -> bool:
    for inst in fn.block(label).instructions:
        if inst.cat is OpCategory.CALL:
            return True
        if inst.pred is not None or inst.pdests:
            return True  # already predicated (previously formed region)
    return False


def select_blocks(fn: Function, entry: str, candidates: set[str],
                  profile: Profile,
                  params: HyperblockParams) -> set[str]:
    """Choose the subset of ``candidates`` to include in a hyperblock.

    The returned set is closed under reachability from ``entry`` within
    the selection and contains no side entrances.
    """
    entry_count = max(profile.block_count(fn.name, entry), 1)
    selected = {entry}
    for label in candidates:
        if label == entry:
            continue
        if _is_hazardous(fn, label):
            continue
        count = profile.block_count(fn.name, label)
        if count == 0:
            continue  # never executed on the measured run
        ratio = count / entry_count
        if ratio < params.min_exec_ratio:
            continue
        size = len(fn.block(label).instructions)
        if ratio < params.min_ratio and size > params.small_block_size:
            continue
        selected.add(label)

    succs = successors_map(fn)
    preds = predecessors_map(fn, succs)

    def close(sel: set[str]) -> set[str]:
        """Blocks reachable from entry inside ``sel``."""
        reach = {entry}
        stack = [entry]
        while stack:
            cur = stack.pop()
            for nxt in succs[cur]:
                if nxt in sel and nxt != entry and nxt not in reach:
                    reach.add(nxt)
                    stack.append(nxt)
        return reach

    # Iteratively drop side-entered blocks and re-close.
    while True:
        selected = close(selected)
        side_entered = [b for b in selected if b != entry
                        and any(p not in selected for p in preds[b])]
        if not side_entered:
            break
        for b in side_entered:
            selected.discard(b)

    # Resource bounds: drop the least-frequent blocks while the region
    # is too large, or while it would fetch far more instructions than
    # it executes on average (issue-width oversaturation), keeping
    # closure/side-entrance invariants.
    def total_size(sel: set[str]) -> int:
        return sum(len(fn.block(b).instructions) for b in sel)

    def dynamic_avg(sel: set[str]) -> float:
        weighted = sum(len(fn.block(b).instructions)
                       * profile.block_count(fn.name, b) for b in sel)
        return weighted / entry_count

    def oversaturated(sel: set[str]) -> bool:
        if len(sel) <= 1:
            return False
        useful = max(dynamic_avg(sel), 1.0)
        return total_size(sel) > params.max_expansion_ratio * useful

    while len(selected) > 1 and (total_size(selected)
                                 > params.max_instructions
                                 or oversaturated(selected)):
        # Tie-break by name: iterating the set would break count ties
        # in str-hash order, which varies per process (PYTHONHASHSEED)
        # and would make compiled figures differ across CLI invocations.
        coldest = min((b for b in selected if b != entry),
                      key=lambda b: (profile.block_count(fn.name, b), b))
        selected.discard(coldest)
        while True:
            selected = close(selected)
            side = [b for b in selected if b != entry
                    and any(p not in selected for p in preds[b])]
            if not side:
                break
            for b in side:
                selected.discard(b)
    return selected


def form_hyperblocks(fn: Function, profile: Profile,
                     params: HyperblockParams | None = None
                     ) -> list[tuple[str, PredInfo]]:
    """Form hyperblocks over hot innermost loops of ``fn`` in place.

    Returns ``(hyperblock label, PredInfo)`` pairs for each region
    formed; the PredInfo feeds predicate promotion.
    """
    if params is None:
        params = HyperblockParams()
    normalize_basic_blocks(fn)
    remove_unreachable(fn)
    formed: list[tuple[str, PredInfo]] = []
    loops = [l for l in find_loops(fn) if l.is_innermost]
    loops.sort(key=lambda l: profile.block_count(fn.name, l.header),
               reverse=True)
    converted: set[str] = set()
    edge_counts = profile.edge_counts(fn)
    for loop in loops:
        header_count = profile.block_count(fn.name, loop.header)
        if header_count < params.min_entry_count:
            continue
        # Loops that rarely iterate are not worth predicating: the
        # converted body would be fetched on every (non-)entry.  Average
        # header visits per outside entry approximates the trip count.
        entries = sum(count for (src, dst), count in edge_counts.items()
                      if dst == loop.header and src not in loop.body)
        trips = header_count / max(entries, 1)
        if trips < params.min_iteration_ratio:
            continue
        if loop.body & converted:
            continue
        present = {b.name for b in fn.blocks}
        if not loop.body <= present:
            continue
        region = select_blocks(fn, loop.header, set(loop.body), profile,
                               params)
        if len(region) < 2:
            continue
        try:
            _hyper, info = if_convert(fn, region, loop.header)
        except IfConversionError:
            continue
        converted |= region
        formed.append((loop.header, info))
    relayout(fn)
    return formed
