"""Columnar cycle simulation — the fastpath half of Section 4.1.

:func:`prepare_sim` completes a decoded program's machine-independent
simulator columns (:class:`~repro.fastpath.decode.SimColumns`: behaviour
flags, dense source/destination register ids, guard) with one
machine's byte addresses and latencies; :class:`StreamSimulator` then
assigns issue cycles to :class:`TraceColumns` chunks with the exact
model of ``sim.pipeline.simulate_trace`` (in-order k-issue, register
interlocks, BTB, optional blocking I/D caches) but no per-event
attribute lookups.

Because the simulator is incremental (``feed`` chunks, then ``finish``),
it composes with the streaming emulator: :func:`emulate_and_simulate_stream`
runs emulate→simulate with the trace never materialized.  Both are the
pure-Python rung of the ``vector`` engine (:mod:`repro.fastpath.vector`),
which runs a ``StreamSimulator`` whenever the native scan kernel is
unavailable or switched off.
"""

from __future__ import annotations

import hashlib
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from repro.fastpath.columns import TraceColumns
from repro.fastpath.decode import (F_CONTROL, F_DYNBRANCH, F_JUMP, F_LOAD,
                                   F_STORE, DecodedProgram)
from repro.machine.descriptor import MachineDescription
from repro.machine.latencies import PA7100_LATENCY
from repro.sim.btb import BranchTargetBuffer
from repro.sim.cache import DirectMappedCache
from repro.sim.pipeline import SimulationStats

if TYPE_CHECKING:
    from repro.emu.trace import ExecutionResult
    from repro.ir.function import Program

_F_MEM = F_LOAD | F_STORE


class SimPrep(NamedTuple):
    """Per-program arrays the column simulator indexes by ``sidx``: one
    machine's addresses and latencies beside the decoded
    :class:`~repro.fastpath.decode.SimColumns`."""

    pc_addr: list[int]
    lat: list[int]
    flags: list[int]
    #: dense ids of all registers read (guard included) — interlocks
    used: list[tuple[int, ...]]
    #: dense ids of all registers written (dest + pdests)
    dests: list[tuple[int, ...]]
    #: dense id of the guard predicate, -1 when unguarded
    pred: list[int]
    nregs: int


def prepare_sim(decoded: DecodedProgram, addresses: dict[int, int],
                machine: MachineDescription | None = None) -> SimPrep:
    """One machine's simulator arrays for a decoded program: each
    instruction's byte address and latency, beside the decoded
    machine-independent columns (shared, not copied).

    ``machine`` supplies the latency table (PA-7100 defaults plus any
    ``latency_overrides``); omitting it keeps the plain PA-7100 table.
    The prep reads nothing else of the machine, so one serves every
    machine with the same program, addresses and latency table.
    """
    latency_of = (PA7100_LATENCY if machine is None
                  else machine.latency_table).__getitem__
    cols = decoded.sim
    return SimPrep(
        list(map(addresses.get, cols.uids, repeat(0))),
        list(map(latency_of, cols.ops)),
        cols.flags, cols.used, cols.dests, cols.pred, cols.nregs)


class StreamSimulator:
    """Incremental column simulator: ``feed`` chunks, then ``finish``."""

    def __init__(self, prep: SimPrep, machine: MachineDescription):
        self.prep = prep
        self.machine = machine
        self.btb = BranchTargetBuffer(machine.btb)
        perfect = machine.perfect_caches
        self.icache = None if perfect else DirectMappedCache(
            machine.icache)
        self.dcache = None if perfect else DirectMappedCache(
            machine.dcache)
        self.ready = [0] * prep.nregs
        self.cur_cycle = 0
        self.slots = 0
        self.branch_slots = 0
        self.fetch_available = 0
        self.mem_busy_until = 0
        self.dynamic = 0
        self.executed_n = 0
        self.suppressed_n = 0
        self.branches = 0
        self.mispredictions = 0

    def feed(self, cols: TraceColumns) -> None:
        """Assign cycles to one chunk of the dynamic trace."""
        prep = self.prep
        pc_addr = prep.pc_addr
        lat_tab = prep.lat
        flags_tab = prep.flags
        used_tab = prep.used
        dests_tab = prep.dests
        pred_tab = prep.pred
        ready = self.ready

        machine = self.machine
        width = machine.issue_width
        branch_limit = machine.branch_issue_limit
        btb_predict = self.btb.predict_and_update
        btb_bubble = self.btb.penalty + 1
        icache = self.icache
        dcache = self.dcache
        ic_access = icache.access if icache is not None else None
        ic_penalty = icache.miss_penalty if icache is not None else 0
        dc_access = dcache.access if dcache is not None else None
        dc_penalty = dcache.miss_penalty if dcache is not None else 0

        cur_cycle = self.cur_cycle
        slots = self.slots
        branch_slots = self.branch_slots
        fetch_available = self.fetch_available
        mem_busy_until = self.mem_busy_until
        dynamic = self.dynamic
        executed_n = self.executed_n
        suppressed_n = self.suppressed_n
        branches = self.branches
        mispredictions = self.mispredictions

        for si, fl, mem_addr in zip(cols.sidx, cols.flags, cols.addr):
            dynamic += 1
            f = flags_tab[si]
            executed = fl & 1

            earliest = fetch_available
            # Instruction fetch.
            if ic_access is not None and not ic_access(pc_addr[si]):
                fill_done = (cur_cycle if cur_cycle > earliest
                             else earliest) + ic_penalty
                if fill_done > fetch_available:
                    fetch_available = fill_done
                if fill_done > earliest:
                    earliest = fill_done

            # Operand interlocks: a nullified instruction still needed
            # its guard at decode; an executed one needs all sources.
            if executed:
                for r in used_tab[si]:
                    t = ready[r]
                    if t > earliest:
                        earliest = t
            else:
                p = pred_tab[si]
                if p >= 0:
                    t = ready[p]
                    if t > earliest:
                        earliest = t

            # Blocking data cache: memory ops wait out a pending miss.
            if executed and f & _F_MEM and mem_busy_until > earliest:
                earliest = mem_busy_until

            # In-order issue: find the slot.
            t = earliest if earliest > cur_cycle else cur_cycle
            if t == cur_cycle:
                if slots >= width:
                    t += 1
                elif executed and f & F_CONTROL \
                        and branch_slots >= branch_limit:
                    t += 1
            if t > cur_cycle:
                cur_cycle = t
                slots = 0
                branch_slots = 0
            slots += 1
            if executed and f & F_CONTROL:
                branch_slots += 1

            # Branch prediction: conditional branches and predicated
            # jumps are predicted at fetch even when nullified.
            if f & F_DYNBRANCH:
                branches += 1
                if f & F_JUMP:
                    outcome = bool(executed)
                else:
                    outcome = bool(fl & 2) if executed else False
                if btb_predict(pc_addr[si], outcome):
                    mispredictions += 1
                    stall = t + btb_bubble
                    if stall > fetch_available:
                        fetch_available = stall
            if not executed:
                suppressed_n += 1
                continue
            executed_n += 1

            # Result latency and memory timing.
            lat = lat_tab[si]
            if f & F_LOAD:
                if dc_access is not None and mem_addr >= 0 \
                        and not dc_access(mem_addr):
                    lat += dc_penalty
                    mem_busy_until = t + lat
            elif f & F_STORE:
                if dc_access is not None and mem_addr >= 0:
                    # Write-through, no allocate: no fill, no stall.
                    dc_access(mem_addr, False)
            done = t + lat
            for r in dests_tab[si]:
                ready[r] = done

        self.cur_cycle = cur_cycle
        self.slots = slots
        self.branch_slots = branch_slots
        self.fetch_available = fetch_available
        self.mem_busy_until = mem_busy_until
        self.dynamic = dynamic
        self.executed_n = executed_n
        self.suppressed_n = suppressed_n
        self.branches = branches
        self.mispredictions = mispredictions

    def boundary_snapshot(self) -> dict:
        """Canonical inter-chunk state, independent of how the trace
        was chunked.

        Register ready times at or before the current cycle can never
        delay a later event (issue never happens before ``cur``), so
        they are dropped — this is what makes the snapshot identical
        whether the simulator got here in one chunk or many.
        """
        cur = self.cur_cycle
        icache, dcache = self.icache, self.dcache
        return {
            "cur_cycle": cur,
            "slots": self.slots,
            "branch_slots": self.branch_slots,
            "fetch_available": self.fetch_available,
            "mem_busy_until": self.mem_busy_until,
            "ready": tuple((r, t) for r, t in enumerate(self.ready)
                           if t > cur),
            "btb_tags": tuple(self.btb.tags),
            "btb_counters": tuple(self.btb.counters),
            "ic_tags": None if icache is None else tuple(icache.tags),
            "dc_tags": None if dcache is None else tuple(dcache.tags),
            "counters": (self.dynamic, self.executed_n,
                         self.suppressed_n, self.branches,
                         self.mispredictions,
                         *((icache.accesses, icache.misses,
                            dcache.accesses, dcache.misses)
                           if icache is not None else (0, 0, 0, 0))),
        }

    def boundary_digest(self) -> str:
        payload = repr(sorted(self.boundary_snapshot().items()))
        return hashlib.sha256(payload.encode()).hexdigest()

    def finish(self) -> SimulationStats:
        stats = SimulationStats(
            cycles=self.cur_cycle + 1,
            dynamic_instructions=self.dynamic,
            executed_instructions=self.executed_n,
            suppressed_instructions=self.suppressed_n,
            branches=self.branches,
            mispredictions=self.mispredictions)
        if self.icache is not None:
            stats.icache_accesses = self.icache.accesses
            stats.icache_misses = self.icache.misses
        if self.dcache is not None:
            stats.dcache_accesses = self.dcache.accesses
            stats.dcache_misses = self.dcache.misses
        return stats


def simulate_columns(cols: TraceColumns, prep: SimPrep,
                     machine: MachineDescription) -> SimulationStats:
    """One-shot columnar equivalent of ``sim.pipeline.simulate_trace``."""
    sim = StreamSimulator(prep, machine)
    sim.feed(cols)
    return sim.finish()


def emulate_and_simulate_stream(
        program: "Program", addresses: dict[int, int],
        machine: MachineDescription,
        inputs: dict[str, list[int | float] | bytes] | None = None,
        max_steps: int = 50_000_000,
        chunk_events: int | None = None,
        decoded: DecodedProgram | None = None,
        prep: SimPrep | None = None,
        metrics=None
) -> "tuple[ExecutionResult, SimulationStats]":
    """Streaming emulate→simulate on the Python rung: the trace is
    consumed chunk-by-chunk and never materialized
    (``ExecutionResult.trace`` is ``None``).  This is
    :func:`~repro.fastpath.vector.emulate_and_simulate_vector` with the
    native kernels off, and credits ``metrics`` the same way."""
    from repro.fastpath.vector import emulate_and_simulate_vector
    return emulate_and_simulate_vector(
        program, addresses, machine, inputs=inputs, max_steps=max_steps,
        chunk_events=chunk_events, decoded=decoded, prep=prep,
        metrics=metrics, native=False)
