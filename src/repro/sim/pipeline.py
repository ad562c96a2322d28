"""Trace-driven cycle simulator: in-order k-issue with register
interlocks (paper Section 4.1, "emulation-driven simulation").

The simulator consumes the dynamic trace produced by the emulator and
assigns an issue cycle to every fetched instruction under:

* in-order issue, up to ``issue_width`` instructions per cycle with at
  most ``branch_issue_limit`` control transfers per cycle;
* register interlocks: an instruction stalls until all source operands
  (including its guard predicate and a conditional move's incumbent
  destination value) are available;
* the PA-7100-style latency table;
* a 1K-entry 2-bit-counter BTB with a 2-cycle misprediction penalty on
  executed conditional branches;
* optional 64K direct-mapped I/D caches (64-byte lines, write-through
  no-allocate data cache, 12-cycle miss penalty, blocking).

Nullified (guard-false) instructions consume fetch/issue bandwidth but
produce no result, access no memory, and make no prediction — the
decode/issue suppression model of Section 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.emu.trace import TraceEvent
from repro.ir.function import Program
from repro.ir.opcodes import OpCategory, Opcode
from repro.machine.descriptor import MachineDescription
from repro.sim.btb import BranchTargetBuffer
from repro.sim.cache import DirectMappedCache


@dataclass
class SimulationStats:
    """Everything a table or figure needs from one simulated run."""

    cycles: int = 0
    dynamic_instructions: int = 0
    executed_instructions: int = 0
    suppressed_instructions: int = 0
    branches: int = 0
    mispredictions: int = 0
    icache_accesses: int = 0
    icache_misses: int = 0
    dcache_accesses: int = 0
    dcache_misses: int = 0

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0

    @property
    def ipc(self) -> float:
        return self.dynamic_instructions / self.cycles if self.cycles \
            else 0.0


def assign_addresses(program: Program,
                     instruction_bytes: int = 4) -> dict[int, int]:
    """Lay out every static instruction; returns uid -> byte address."""
    addresses: dict[int, int] = {}
    addr = 0
    for fn in program.functions.values():
        for block in fn.blocks:
            for inst in block.instructions:
                addresses[inst.uid] = addr
                addr += instruction_bytes
    return addresses


def simulate_trace(trace: list[TraceEvent], addresses: dict[int, int],
                   machine: MachineDescription) -> SimulationStats:
    """Assign cycles to a dynamic trace; returns run statistics."""
    stats = SimulationStats()
    btb = BranchTargetBuffer(machine.btb)
    perfect = machine.perfect_caches
    icache = None if perfect else DirectMappedCache(machine.icache)
    dcache = None if perfect else DirectMappedCache(machine.dcache)

    width = machine.issue_width
    branch_limit = machine.branch_issue_limit
    latency_of = machine.latency_table.__getitem__

    ready: dict = {}
    cur_cycle = 0
    slots = 0
    branch_slots = 0
    fetch_available = 0
    mem_busy_until = 0

    get_addr = addresses.get
    CONTROL = (OpCategory.BRANCH, OpCategory.JUMP, OpCategory.CALL,
               OpCategory.RET)

    for inst, executed, taken, mem_addr, _value in trace:
        op = inst.op
        cat = inst.cat
        stats.dynamic_instructions += 1

        earliest = fetch_available
        # Instruction fetch.
        if icache is not None:
            pc = get_addr(inst.uid, 0)
            if not icache.access(pc):
                # Fetch stalls while the line is filled.
                fill_done = max(cur_cycle, earliest) + icache.miss_penalty
                fetch_available = max(fetch_available, fill_done)
                earliest = max(earliest, fill_done)

        # Operand interlocks.  A nullified instruction still needed its
        # guard at decode; an executed one needs all sources.
        if executed:
            for r in inst.used_regs():
                t = ready.get(r)
                if t is not None and t > earliest:
                    earliest = t
        elif inst.pred is not None:
            t = ready.get(inst.pred)
            if t is not None and t > earliest:
                earliest = t

        # Blocking data cache: memory ops wait for an outstanding miss.
        is_mem = executed and (cat is OpCategory.LOAD
                               or cat is OpCategory.STORE)
        if is_mem and mem_busy_until > earliest:
            earliest = mem_busy_until

        # In-order issue: find the slot.
        t = earliest if earliest > cur_cycle else cur_cycle
        if t == cur_cycle:
            if slots >= width:
                t += 1
            elif cat in CONTROL and executed \
                    and branch_slots >= branch_limit:
                t += 1
        if t > cur_cycle:
            cur_cycle = t
            slots = 0
            branch_slots = 0
        slots += 1
        if cat in CONTROL and executed:
            branch_slots += 1

        # Branch prediction.  Conditional branches and predicated jumps
        # are dynamically conditional: they are predicted at fetch even
        # when the guard later nullifies them (outcome: not taken).
        if cat is OpCategory.BRANCH \
                or (cat is OpCategory.JUMP and inst.pred is not None):
            # Fetched conditional transfers count as dynamic branches
            # whether or not the guard later nullifies them: they occupy
            # a prediction slot either way (and this matches the paper's
            # near-equal branch counts for the two predicated models).
            stats.branches += 1
            outcome = taken if executed else False
            if cat is OpCategory.JUMP:
                outcome = executed
            pc = get_addr(inst.uid, 0)
            if btb.predict_and_update(pc, outcome):
                stats.mispredictions += 1
                fetch_available = max(fetch_available,
                                      t + 1 + btb.penalty)

        if not executed:
            stats.suppressed_instructions += 1
            continue
        stats.executed_instructions += 1

        # Result latency and memory timing.
        lat = latency_of(op)
        if cat is OpCategory.LOAD:
            if dcache is not None and mem_addr >= 0:
                if not dcache.access(mem_addr):
                    lat += dcache.miss_penalty
                    mem_busy_until = t + lat
        elif cat is OpCategory.STORE:
            if dcache is not None and mem_addr >= 0:
                # Write-through, no allocate: a miss neither fills the
                # line nor stalls (store buffer absorbs it).
                dcache.access(mem_addr, allocate=False)

        dest = inst.dest
        if dest is not None:
            ready[dest] = t + lat
        for pd in inst.pdests:
            ready[pd.reg] = t + lat

        # Unpredicated jumps/calls/returns resolve at decode: no bubble,
        # no prediction (their BTB handling happened above when guarded).

    stats.cycles = cur_cycle + 1
    if icache is not None:
        stats.icache_accesses = icache.accesses
        stats.icache_misses = icache.misses
    if dcache is not None:
        stats.dcache_accesses = dcache.accesses
        stats.dcache_misses = dcache.misses
    return stats
