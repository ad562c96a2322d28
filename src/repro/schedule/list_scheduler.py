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
from repro.ir.instruction import InstFacts, Instruction, instruction_facts
from repro.ir.opcodes import MAY_EXCEPT
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
                   live=None, dags: dict | None = None,
                   facts: list[InstFacts] | None = None) -> ScheduleResult:
    """Reorder ``block`` in place according to the list schedule.

    ``dags`` is :func:`~repro.schedule.dag.build_dag`'s edge-list memo
    and ``facts`` the block's :func:`instruction_facts`, which it reads
    when it finds the edges.
    """
    if live is None:
        live = liveness(fn)
    insts = block.instructions
    n = len(insts)
    result = ScheduleResult()
    if n == 0:
        return result
    graph = build_dag(fn, block, live, machine, dags, facts)
    height = graph.heights()
    succs = graph.succs
    control = [inst.op.control for inst in insts]
    issue_width = machine.issue_width
    branch_limit = machine.branch_issue_limit

    indegree = [len(into) for into in graph.preds]
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
    # Deferred instructions: a heap of (cycle it may issue, index).
    pending: list[tuple[int, int]] = []

    while ready or pending:
        if not ready:
            # Advance to the next cycle where something becomes ready.
            cycle = max(cycle + 1, pending[0][0])
            slots = 0
            branch_slots = 0
            while pending and pending[0][0] <= cycle:
                i = heappop(pending)[1]
                heappush(ready, (-height[i], i))
            continue
        i = heappop(ready)[1]
        if earliest[i] > cycle:
            heappush(pending, (earliest[i], i))
            continue
        is_branchy = control[i]
        if slots >= issue_width or \
                (is_branchy and branch_slots >= branch_limit):
            # Current cycle is full for this instruction: defer it to the
            # next cycle and try other ready instructions first.
            heappush(pending, (cycle + 1, i))
            continue
        # Issue.
        start_cycle[i] = cycle
        scheduled_order.append(i)
        slots += 1
        if is_branchy:
            branch_slots += 1
        for j, lat in succs[i]:
            if earliest[j] < cycle + lat:
                earliest[j] = cycle + lat
            indegree[j] -= 1
            if indegree[j] == 0:
                if earliest[j] <= cycle:
                    heappush(ready, (-height[j], j))
                else:
                    heappush(pending, (earliest[j], j))
        if slots >= issue_width:
            cycle += 1
            slots = 0
            branch_slots = 0
            while pending and pending[0][0] <= cycle:
                k = heappop(pending)[1]
                heappush(ready, (-height[k], k))

    assert len(scheduled_order) == n, "scheduler dropped instructions"

    # Mark may-except instructions that moved above a branch as silent:
    # an instruction crossed one when the latest final position of the
    # control transfers before it in the original order is after its own.
    final_pos = [0] * n
    for pos, idx in enumerate(scheduled_order):
        final_pos[idx] = pos
    latest_above = [-1] * n
    latest = -1
    for i in range(n):
        latest_above[i] = latest
        if control[i] and final_pos[i] > latest:
            latest = final_pos[i]
    new_insts: list[Instruction] = []
    for idx in scheduled_order:
        inst = insts[idx]
        if latest_above[idx] > final_pos[idx] and inst.op in MAY_EXCEPT \
                and not inst.speculative:
            inst = inst.copy(speculative=True)
            result.speculated += 1
        new_insts.append(inst)
        result.cycles[inst.uid] = start_cycle[idx]
    block.instructions = new_insts
    result.length = max(start_cycle) + 1
    return result


def schedule_function(fn: Function, machine: MachineDescription,
                      live: Liveness | None = None,
                      dags: dict | None = None,
                      facts: dict[str, list[InstFacts]] | None = None
                      ) -> ScheduleResult:
    """Schedule every block of ``fn``; returns merged cycle annotations.

    ``live`` is ``fn``'s liveness before scheduling (solved here when
    None); ``dags`` is the edge-list memo of :func:`schedule_program`
    and ``facts`` maps block names to their :func:`instruction_facts`
    before scheduling.
    """
    if live is None:
        live = liveness(fn)
    merged = ScheduleResult()
    for block in fn.blocks:
        r = schedule_block(fn, block, machine, live, dags,
                           None if facts is None else facts[block.name])
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
    latencies are resolved once per latency table.  Solving a
    function's liveness computes its blocks' instruction facts, and
    each block whose edges are missing too finds them from those facts.
    """
    merged = ScheduleResult()
    for fn in program.functions.values():
        fn_live = None if live is None else live.get(fn.name)
        facts = None
        if fn_live is None:
            facts = {b.name: instruction_facts(b.instructions)
                     for b in fn.blocks}
            fn_live = liveness(fn, facts)
            if live is not None:
                live[fn.name] = fn_live
        r = schedule_function(fn, machine, fn_live, dags, facts)
        merged.cycles.update(r.cycles)
        merged.length += r.length
        merged.speculated += r.speculated
    return merged
