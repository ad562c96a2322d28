"""Critical-path list scheduler with issue-width and branch-slot
resources.

Schedules each block independently (superblocks and hyperblocks are
single blocks, so they are the scheduling regions).  The scheduled order
is a topological order of the dependence DAG, which keeps sequential
emulation of the output correct; issue-cycle annotations drive both the
paper's case-study listings (Figures 5/6) and static schedule-length
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.analysis.liveness import Liveness, liveness
from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import Instruction
from repro.ir.opcodes import MAY_EXCEPT, OpCategory
from repro.machine.descriptor import MachineDescription
from repro.schedule.dag import DagEdges, build_dag


@dataclass
class ScheduleResult:
    """Issue cycles by instruction uid plus the schedule length."""

    cycles: dict[int, int] = field(default_factory=dict)
    length: int = 0
    speculated: int = 0


def schedule_block(fn: Function, block: BasicBlock,
                   machine: MachineDescription,
                   live=None, dags: dict | None = None) -> ScheduleResult:
    """Reorder ``block`` in place according to the list schedule.

    ``dags`` is :func:`~repro.schedule.dag.build_dag`'s edge-list memo.
    """
    if live is None:
        live = liveness(fn)
    insts = block.instructions
    n = len(insts)
    result = ScheduleResult()
    if n == 0:
        return result
    graph = build_dag(fn, block, live, machine, dags)
    height = graph.heights()

    indegree = [len(graph.preds[i]) for i in range(n)]
    earliest = [0] * n
    # Ready heap: (-height, original index) for determinism.
    ready: list[tuple[int, int]] = []
    for i in range(n):
        if indegree[i] == 0:
            heappush(ready, (-height[i], i))

    scheduled_order: list[int] = []
    start_cycle = [0] * n
    cycle = 0
    slots = 0
    branch_slots = 0
    pending: list[tuple[int, int]] = []  # (earliest_cycle, index) deferred

    while ready or pending:
        if not ready:
            # Advance to the next cycle where something becomes ready.
            cycle = max(cycle + 1, min(c for c, _ in pending))
            slots = 0
            branch_slots = 0
            requeue = [(c, i) for c, i in pending if c <= cycle]
            pending = [(c, i) for c, i in pending if c > cycle]
            for _c, i in requeue:
                heappush(ready, (-height[i], i))
            continue
        neg_h, i = heappop(ready)
        if earliest[i] > cycle:
            pending.append((earliest[i], i))
            continue
        inst = insts[i]
        is_branchy = inst.is_control
        if slots >= machine.issue_width or \
                (is_branchy and branch_slots >= machine.branch_issue_limit):
            # Current cycle is full for this instruction: defer it to the
            # next cycle and try other ready instructions first.
            pending.append((cycle + 1, i))
            continue
        # Issue.
        start_cycle[i] = cycle
        scheduled_order.append(i)
        slots += 1
        if is_branchy:
            branch_slots += 1
        for j, lat in graph.succs[i]:
            earliest[j] = max(earliest[j], cycle + lat)
            indegree[j] -= 1
            if indegree[j] == 0:
                if earliest[j] <= cycle:
                    heappush(ready, (-height[j], j))
                else:
                    pending.append((earliest[j], j))
        if slots >= machine.issue_width:
            cycle += 1
            slots = 0
            branch_slots = 0
            requeue = [(c, k) for c, k in pending if c <= cycle]
            pending = [(c, k) for c, k in pending if c > cycle]
            for _c, k in requeue:
                heappush(ready, (-height[k], k))

    assert len(scheduled_order) == n, "scheduler dropped instructions"

    # Mark may-except instructions that moved above a branch as silent.
    final_pos = {idx: pos for pos, idx in enumerate(scheduled_order)}
    new_insts: list[Instruction] = []
    branch_positions = [(i, final_pos[i]) for i in range(n)
                        if insts[i].is_control]
    for idx in scheduled_order:
        inst = insts[idx]
        if inst.op in MAY_EXCEPT and not inst.speculative:
            crossed = any(orig < idx and pos > final_pos[idx]
                          for orig, pos in branch_positions)
            if crossed:
                inst = inst.copy(speculative=True)
                result.speculated += 1
        new_insts.append(inst)
        result.cycles[inst.uid] = start_cycle[idx]
    block.instructions = new_insts
    result.length = max(start_cycle) + 1 if n else 0
    return result


def schedule_function(fn: Function, machine: MachineDescription,
                      live: Liveness | None = None,
                      dags: dict | None = None) -> ScheduleResult:
    """Schedule every block of ``fn``; returns merged cycle annotations.

    ``live`` is ``fn``'s liveness before scheduling (solved here when
    None); ``dags`` is the edge-list memo of :func:`schedule_program`.
    """
    if live is None:
        live = liveness(fn)
    merged = ScheduleResult()
    for block in fn.blocks:
        r = schedule_block(fn, block, machine, live, dags)
        merged.cycles.update(r.cycles)
        merged.length += r.length
        merged.speculated += r.speculated
    return merged


def schedule_program(program, machine: MachineDescription,
                     live: dict[str, Liveness] | None = None,
                     dags: dict[tuple[str, str], DagEdges] | None = None
                     ) -> ScheduleResult:
    """Schedule every function of ``program``.

    ``live`` maps function names to their liveness before scheduling.
    A missing entry is solved and added, so one dict passed to every
    schedule of clones of one unscheduled program solves each function
    once: liveness is keyed by block names and registers, both values,
    so it holds for every clone.  ``dags`` does the same for each
    block's dependence edges, keyed by (function, block) name; their
    latencies are resolved once per latency table.
    """
    merged = ScheduleResult()
    for fn in program.functions.values():
        fn_live = None if live is None else live.get(fn.name)
        if fn_live is None:
            fn_live = liveness(fn)
            if live is not None:
                live[fn.name] = fn_live
        r = schedule_function(fn, machine, fn_live, dags)
        merged.cycles.update(r.cycles)
        merged.speculated += r.speculated
    return merged
