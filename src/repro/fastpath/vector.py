"""The ``vector`` engine's simulator: the native scan over columnar
chunks, with :class:`~repro.fastpath.simulate.StreamSimulator` as its
pure-Python rung.

:class:`VectorSimulator` keeps all carried simulator state — register
ready times, issue counters, BTB, cache tags — in NumPy arrays that
the C ``sim_scan`` kernel (:func:`~repro.fastpath.native.sim_scan_chunk`)
updates in place, one ``feed`` per chunk the fused emulator hands over
and one ``feed`` for a whole emulated trace
(:func:`simulate_columns_vector`).  When the kernel is unavailable or
switched off (``REPRO_NATIVE=0``), the simulator runs on the
``StreamSimulator`` from the start: results are byte-identical however
the trace is split into feeds.

:func:`emulate_and_simulate_vector` fuses the native emulator
(:func:`~repro.fastpath.native.run_program_native`) with this
simulator.  Which rung runs is decided once per process, at load (see
:mod:`repro.fastpath.supervisor`); nothing switches rungs mid-run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.fastpath.columns import TraceColumns
from repro.fastpath.decode import DecodedProgram, decode_program
from repro.fastpath.simulate import SimPrep, StreamSimulator, prepare_sim
from repro.machine.descriptor import MachineDescription
from repro.sim.pipeline import SimulationStats

if TYPE_CHECKING:
    from repro.emu.trace import ExecutionResult
    from repro.ir.function import Program


class VectorSimPrep:
    """Per-program specialization: ``SimPrep`` plus the flat CSR tables
    of the native scan kernel, built on first use."""

    __slots__ = ("prep", "_nt")

    def __init__(self, prep: SimPrep):
        self.prep = prep
        self._nt = None

    def native_tables(self):
        if self._nt is None:
            from repro.fastpath.native import NativeSimTables
            self._nt = NativeSimTables(self.prep)
        return self._nt

    @classmethod
    def from_prep(cls, prep: "SimPrep | VectorSimPrep"
                  ) -> "VectorSimPrep":
        if isinstance(prep, VectorSimPrep):
            return prep
        return cls(prep)


class VectorSimulator:
    """Incremental simulator: ``feed`` chunks, then ``finish``.

    ``python`` is the Python rung.  While the native scan runs, its
    state is stale and refreshed from the kernel arrays on demand
    (:meth:`boundary_digest`, :meth:`finish`).
    """

    def __init__(self, prep: "SimPrep | VectorSimPrep",
                 machine: MachineDescription, native: bool = True):
        vprep = VectorSimPrep.from_prep(prep)
        self.chunks_fed = 0
        self.python = StreamSimulator(vprep.prep, machine)
        self._native = False
        if not native:
            return
        from repro.fastpath import native as native_mod
        if not native_mod.available():
            return
        self._native = True
        self._scan = native_mod.sim_scan_chunk
        self._nt = vprep.native_tables()
        btb = machine.btb
        self._ready = np.zeros(vprep.prep.nregs, dtype=np.int64)
        self._btb_tags = np.full(btb.entries, -1, dtype=np.int64)
        self._btb_ctr = np.ones(btb.entries, dtype=np.uint8)
        self._st = np.zeros(14, dtype=np.int64)
        bubble = btb.mispredict_penalty + 1
        if machine.perfect_caches:
            self._cfg = np.array(
                [0, btb.entries, bubble, 1, 1, 0, 1, 1, 0, 1,
                 machine.issue_width, machine.branch_issue_limit],
                dtype=np.int64)
            self._ic_tags = self._dc_tags = np.zeros(1, dtype=np.int64)
        else:
            icc, dcc = machine.icache, machine.dcache
            self._cfg = np.array(
                [0, btb.entries, bubble, icc.num_lines, icc.line_bytes,
                 icc.miss_penalty, dcc.num_lines, dcc.line_bytes,
                 dcc.miss_penalty, 0, machine.issue_width,
                 machine.branch_issue_limit], dtype=np.int64)
            self._ic_tags = np.full(icc.num_lines, -1, dtype=np.int64)
            self._dc_tags = np.full(dcc.num_lines, -1, dtype=np.int64)

    def _sync_python(self) -> None:
        """Copy the kernel's carried state into the Python rung."""
        py = self.python
        st = self._st.tolist()
        (py.cur_cycle, py.slots, py.branch_slots, py.fetch_available,
         py.mem_busy_until, py.dynamic, py.executed_n, py.suppressed_n,
         py.branches, py.mispredictions) = st[:10]
        py.ready = self._ready.tolist()
        py.btb.tags = self._btb_tags.tolist()
        py.btb.counters = self._btb_ctr.tolist()
        if py.icache is not None:
            py.icache.tags = self._ic_tags.tolist()
            py.icache.accesses, py.icache.misses = st[10:12]
            py.dcache.tags = self._dc_tags.tolist()
            py.dcache.accesses, py.dcache.misses = st[12:14]

    def feed(self, cols: TraceColumns) -> None:
        self.chunks_fed += 1
        if not self._native:
            self.python.feed(cols)
        elif len(cols):
            self._scan(self._nt,
                       np.frombuffer(cols.sidx, dtype=np.int32),
                       np.frombuffer(cols.flags, dtype=np.uint8),
                       np.frombuffer(cols.addr, dtype=np.int64),
                       self._ready, self._btb_tags, self._btb_ctr,
                       self._ic_tags, self._dc_tags, self._st, self._cfg)

    def boundary_digest(self) -> str:
        """Digest of the carried state (see
        :meth:`StreamSimulator.boundary_snapshot`)."""
        if self._native:
            self._sync_python()
        return self.python.boundary_digest()

    def finish(self) -> SimulationStats:
        if self._native:
            self._sync_python()
        return self.python.finish()


def simulate_columns_vector(cols: TraceColumns,
                            prep: "SimPrep | VectorSimPrep",
                            machine: MachineDescription,
                            *, metrics=None,
                            native: bool | None = None
                            ) -> SimulationStats:
    """Vector-engine equivalent of ``simulate_columns``: the whole trace
    in one ``feed`` (the state carried between feeds makes any split
    give the same stats).

    ``native=False`` (from the
    :class:`~repro.engine.stages.PipelineContext`'s once-per-process
    resolution) keeps the scan on the Python rung.
    """
    sim = VectorSimulator(prep, machine, native=native is not False)
    sim.feed(cols)
    if metrics is not None:
        metrics.vector_chunks_total += sim.chunks_fed
    return sim.finish()


def emulate_and_simulate_vector(
        program: "Program", addresses: dict[int, int],
        machine: MachineDescription,
        inputs: dict[str, list[int | float] | bytes] | None = None,
        max_steps: int = 50_000_000,
        chunk_events: int | None = None,
        decoded: DecodedProgram | None = None,
        prep: "SimPrep | VectorSimPrep" = None,
        metrics=None,
        native: bool | None = None
) -> "tuple[ExecutionResult, SimulationStats]":
    """Streaming emulate→simulate on the vector engine.

    The emulator side is the native kernel, or the interpreter when the
    kernel is unavailable; the simulator side is a
    :class:`VectorSimulator`.

    When a :class:`~repro.engine.metrics.PipelineMetrics` is supplied,
    the fused run times every simulator feed separately, credits the
    emulate/simulate split to the matching stages (one invocation
    each), and bumps ``vector_chunks_total``.
    """
    from time import perf_counter

    from repro.fastpath.interp import DEFAULT_CHUNK_EVENTS
    from repro.fastpath.native import run_program_native
    if decoded is None:
        decoded = decode_program(program)
    vprep = VectorSimPrep.from_prep(
        prep if prep is not None
        else prepare_sim(decoded, addresses, machine))
    chunk_events = chunk_events or DEFAULT_CHUNK_EVENTS
    sim = VectorSimulator(vprep, machine, native=native is not False)
    sim_seconds = 0.0

    def sink(cols: TraceColumns) -> None:
        nonlocal sim_seconds
        start = perf_counter()
        sim.feed(cols)
        sim_seconds += perf_counter() - start

    begin = perf_counter()
    execution = run_program_native(
        program, inputs=inputs, max_steps=max_steps, sink=sink,
        chunk_events=chunk_events, decoded=decoded,
        native=native)
    mid = perf_counter()
    stats = sim.finish()
    if metrics is not None:
        metrics.vector_chunks_total += sim.chunks_fed
        metrics.record_stage("emulate", max(mid - begin - sim_seconds,
                                            0.0))
        metrics.record_stage("simulate",
                             sim_seconds + (perf_counter() - mid))
    return execution, stats
