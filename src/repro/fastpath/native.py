"""Native (C) kernels for the fastpath emulate→simulate pipeline.

The pure-Python fastpath pays ~1µs of interpreter overhead per dynamic
event; at millions of events per figure cell that dominates wall time.
This module binds the supervised kernel shared object with
:mod:`ctypes`; building, the sacrificial-subprocess canary and the
golden parity replay live in :mod:`repro.fastpath.supervisor`, which
decides once per process, at load, whether the kernels are used.  No
compiler, a failed build, a failed probe, a parity mismatch, a canary
crash, or ``REPRO_NATIVE=0`` all leave the process on the pure-Python
rung (:func:`~repro.fastpath.interp.run_program_fast` and
:class:`~repro.fastpath.simulate.StreamSimulator`) with byte-identical
results.

Two kernels:

* :func:`run_program_native` — full-program emulation producing the
  same observables as ``interp.run_program_fast`` (return value,
  dynamic/suppressed counts, branch outcomes and block counts with
  serial dict insertion order, store-stream signature, memory digest,
  fault messages) and the same :class:`TraceColumns` chunk stream.
  The C side suspends whenever its chunk buffer fills; Python drains
  the buffer (sink flush or trace merge) and resumes, so sink chunk
  boundaries match the serial engine exactly.  The kernel folds the
  store-stream signature itself, with CPython's hash reproduced in C.
* :func:`sim_scan_chunk` — one ``StreamSimulator.feed`` pass over a
  chunk with all carried state (scoreboard, BTB, cache tags, issue
  counters) in caller-owned numpy arrays, driven by
  :class:`~repro.fastpath.vector.VectorSimulator`.

The emulation kernel's program image is recorded once, by
:func:`~repro.fastpath.decode.decode_program`: per-pc operand fields,
CSR tables for call args and predicate defines, params, and the
pre-walked fall-through chains whose block keys the C kernel counts in
first-occurrence order so Python can rebuild ``block_counts`` with
serial insertion order.  Each run only resolves the constants against
its global layout and packs the image into flat arrays
(:class:`NativeProgram`, one array per dtype); the scan kernel's tables
(:class:`NativeSimTables`) wrap a :class:`~repro.fastpath.simulate.SimPrep`
as arrays.  Neither walks the instructions in Python.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
import time
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.emu.interpreter import StepLimitExceeded
from repro.emu.memory import (DEFAULT_SIZE, GLOBAL_BASE, EmulationFault,
                              Memory, layout_globals, zero_pages)
from repro.emu.trace import ExecutionResult
from repro.fastpath.columns import TraceColumns
from repro.fastpath.decode import (IMAGE_ROW, DecodedProgram,
                                   decode_program)
from repro.fastpath.interp import run_program_fast

if TYPE_CHECKING:
    from repro.fastpath.simulate import SimPrep
    from repro.ir.function import Program

_U64 = 0xFFFFFFFFFFFFFFFF

# emu_run statuses / fault codes — keep in sync with _native_src.
_ST_DONE = 0
_ST_CHUNK = 1
_ST_FAULT = 2
_FLT_STEPS = 1
_FLT_FELL_OFF = 2
_FLT_BRANCH_LABEL = 3
_FLT_JUMP_LABEL = 4
_FLT_LOAD = 5
_FLT_LOAD_B = 6
_FLT_LOAD_F = 7
_FLT_STORE = 8
_FLT_IDIV0 = 9
_FLT_FDIV0 = 10

# ----------------------------------------------------------------- #
# Library build + load (supervised)                                 #
# ----------------------------------------------------------------- #
#
# Building, sandbox-validating and parity-checking the shared object
# all live in :mod:`repro.fastpath.supervisor`; this module only binds
# the validated object and holds the handle.

_lock = threading.Lock()
_lib = None
_lib_tried = False


def _bind_library(path: str):
    """``CDLL`` + probe + argtype binding for a kernel object.

    Raises :class:`NativeBuildError` when the object cannot be loaded
    or its probe misbehaves — shared by the in-process loader and the
    sacrificial-subprocess canary child.
    """
    from repro.robustness.errors import NativeBuildError
    try:
        lib = ctypes.CDLL(path)
        lib.native_probe.restype = ctypes.c_int
        lib.native_probe.argtypes = ()
        probe = lib.native_probe()
    except (OSError, AttributeError) as exc:
        raise NativeBuildError(
            f"kernel object failed to load: {exc}",
            so_path=path) from exc
    if probe != 42:
        raise NativeBuildError(
            f"kernel probe returned {probe}, expected 42",
            so_path=path)
    p64 = ctypes.POINTER(ctypes.c_int64)
    lib.sim_scan.restype = None
    lib.sim_scan.argtypes = (p64, p64)
    lib.emu_new.restype = ctypes.c_void_p
    lib.emu_new.argtypes = (p64, p64)
    lib.emu_run.restype = ctypes.c_int
    lib.emu_run.argtypes = (ctypes.c_void_p,)
    lib.emu_free.restype = None
    lib.emu_free.argtypes = (ctypes.c_void_p,)
    return lib


def _get_lib():
    """The validated kernel handle, or None when this process runs on
    the interpreter.

    The first call per process makes the one trust decision
    (:func:`repro.fastpath.supervisor.load`); its answer stands for
    the rest of the process.
    """
    global _lib_tried
    if not _lib_tried:
        with _lock:
            if not _lib_tried:
                _lib_tried = True
                from repro.fastpath import supervisor
                supervisor.load()
    return _lib


def available() -> bool:
    """True when the native kernels built, validated, and probed OK."""
    return _get_lib() is not None


def _as_ptrs(arrays) -> tuple[np.ndarray, "ctypes.pointer"]:
    """Pack buffer addresses into one int64 vector for the C entry
    points (keep the returned array referenced for the call's
    duration)."""
    vec = np.array([a if isinstance(a, int) else a.ctypes.data
                    for a in arrays], dtype=np.int64)
    return vec, vec.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


# ----------------------------------------------------------------- #
# Program marshaling                                                #
# ----------------------------------------------------------------- #

#: Pointer slots of ``emu_new`` (see the C source).  Slots 10..25 and
#: 32..35 are the image's per-pc columns, in ``IMAGE_ROW`` order.
_NSLOTS = 52
_SLOT_MEM = 36       # 36: memory, 37..43: the chunk buffers
_SLOT_RESULTS = 44   # 44..49: profile counters and the out vectors
_SLOT_CHAIN = 50     # 50/51: the chain CSR


def _addr(a: np.ndarray) -> int:
    return a.ctypes.data


class NativeProgram:
    """The decoded :class:`~repro.fastpath.decode.ProgramImage` with its
    constants resolved against one run's global layout, packed for the
    kernel.

    The per-pc columns become the rows of one int32 table, and the
    other sections (a CSR table, the constants, ...) are packed into
    one array per dtype; ``arrays`` keeps them alive.  ``ptrs`` holds
    the image's slots of the ``emu_new`` pointer vector, which each run
    copies and completes.
    """

    __slots__ = ("decoded", "names", "entry_fid", "arrays", "ptrs")

    def __init__(self, decoded: DecodedProgram, layout: dict[str, int]):
        self.decoded = decoded
        image = decoded.image
        fns = list(decoded.functions.values())
        self.names = [fn.name for fn in fns]
        self.entry_fid = self.names.index(decoded.entry)
        consts = [spec[1] if spec[0] == "imm"
                  else layout[spec[1]] + spec[2]
                  for fn in fns for spec in fn.consts_spec]
        const_isf = [isinstance(v, float) for v in consts]
        const_i = [0 if f else int(v) for v, f in zip(consts, const_isf)]
        const_f = [v if f else 0.0 for v, f in zip(consts, const_isf)]

        i32 = np.int32
        # The per-pc columns, one row each; the last two rows are the
        # CSR tables' row lengths, which give their offsets.
        rows = image.rows
        ncols = len(IMAGE_ROW) - 2
        table = np.fromiter(rows, i32, len(rows)).reshape(
            -1, len(IMAGE_ROW)).T.copy()
        offsets = np.zeros((2, table.shape[1] + 1), i32)
        np.cumsum(table[ncols:], axis=1, out=offsets[:, 1:])
        small, addrs = _pack_sections([
            (i32, [fn.nregs for fn in fns]),
            (i32, [fn.npregs for fn in fns]),
            (i32, image.fn_entry_pc), (i32, image.fn_entry_chain),
            (i32, list(accumulate((len(fn.params) for fn in fns),
                                  initial=0))),
            (i32, [p for fn in fns for p in fn.params]),
            (i32, list(accumulate((len(fn.consts_spec) for fn in fns),
                                  initial=0))),
            (np.int64, const_i), (np.float64, const_f),
            (np.uint8, const_isf),
            (i32, image.cargs_mode), (i32, image.cargs_idx),
            (i32, image.pd_pidx), (np.int8, image.pd_table),
            (i32, image.chain_off), (i32, image.chain_keys),
        ])
        self.arrays = [table, offsets, *small]
        column = range(_addr(table),
                       _addr(table) + ncols * table.strides[0],
                       table.strides[0])
        # Slot order must match emu_new in the C source; slots 36..49
        # are the run's own and stay 0 here.
        ptrs = self.ptrs = np.zeros(_NSLOTS, np.int64)
        ptrs[:10] = addrs[:10]
        ptrs[10:26] = column[:16]
        ptrs[26:29] = (_addr(offsets), addrs[10], addrs[11])
        ptrs[29:32] = (_addr(offsets) + offsets.strides[0], addrs[12],
                       addrs[13])
        ptrs[32:_SLOT_MEM] = column[16:]
        ptrs[_SLOT_CHAIN:] = addrs[14:]


def _pack_sections(sections) -> tuple[list[np.ndarray], list[int]]:
    """Pack ``(dtype, values)`` sections into one array per dtype.

    Returns the arrays, which must stay alive while the kernel reads
    them, and each section's address in section order.  An empty
    section still gets one element of its own.
    """
    parts: dict = {}
    lengths: dict = {}
    placed = []
    for dtype, values in sections:
        values = values if len(values) else (0,)
        offset = lengths.get(dtype, 0)
        placed.append((dtype, offset))
        lengths[dtype] = offset + len(values)
        parts.setdefault(dtype, []).append(values)
    arrays = {dtype: np.fromiter(chain.from_iterable(seqs), dtype,
                                 lengths[dtype])
              for dtype, seqs in parts.items()}
    bases = {dtype: _addr(a) for dtype, a in arrays.items()}
    addrs = [bases[dtype] + offset * arrays[dtype].itemsize
             for dtype, offset in placed]
    return list(arrays.values()), addrs


#: The chunk buffers in ``emu_new`` slot order (37..43).
_CHUNK_FIELDS = (("sidx", np.int32), ("flags", np.uint8),
                 ("addr", np.int64), ("vidx", np.int32),
                 ("val_i", np.int64), ("val_f", np.float64),
                 ("val_isf", np.uint8))


class _ChunkBuffers:
    """The trace-chunk buffers the kernel fills between suspensions.

    The kernel rewrites them from index 0 every chunk and Python reads
    only what the current chunk wrote, so they hold no results and one
    set serves run after run: a run pays no page faults for them.  They
    live in one :func:`~repro.emu.memory.zero_pages` mapping, so only
    pages some chunk has written are resident.
    """

    __slots__ = ("events", "ptrs") + tuple(n for n, _ in _CHUNK_FIELDS)

    def __init__(self, events: int):
        self.events = events
        block = zero_pages(events * sum(np.dtype(t).itemsize
                                        for _, t in _CHUNK_FIELDS))
        # Widest fields first, so every field is aligned.
        offset = 0
        for name, dtype in sorted(_CHUNK_FIELDS,
                                  key=lambda f: -np.dtype(f[1]).itemsize):
            setattr(self, name, np.frombuffer(block, dtype, events, offset))
            offset += events * np.dtype(dtype).itemsize
        self.ptrs = [_addr(getattr(self, n)) for n, _ in _CHUNK_FIELDS]

    def drain(self, tn: int, nvals: int, cols: TraceColumns) -> None:
        """Append the current chunk (``tn`` events, ``nvals`` store
        values) to ``cols``."""
        vbase = len(cols.values)
        cols.sidx.frombytes(self.sidx[:tn].view(np.uint8))
        cols.flags.frombytes(self.flags[:tn])
        cols.addr.frombytes(self.addr[:tn].view(np.uint8))
        vidx = self.vidx[:tn]
        if vbase:
            vidx = vidx.copy()
            vidx[vidx >= 0] += vbase
        cols.vidx.frombytes(vidx.view(np.uint8))
        if nvals:
            values = self.val_i[:nvals].tolist()
            isf = self.val_isf[:nvals]
            if isf.any():
                values = [f if is_f else i for i, f, is_f in zip(
                    values, self.val_f[:nvals].tolist(), isf.tolist())]
            cols.values.extend(values)


#: Idle chunk-buffer sets.  A run takes one out and puts it back, so
#: concurrent or nested runs never share a set.
_IDLE_BUFFERS: list[_ChunkBuffers] = []


def _take_buffers(events: int) -> _ChunkBuffers:
    try:
        buffers = _IDLE_BUFFERS.pop()
    except IndexError:
        return _ChunkBuffers(events)
    return buffers if buffers.events == events \
        else _ChunkBuffers(events)


# ----------------------------------------------------------------- #
# Emulation driver                                                  #
# ----------------------------------------------------------------- #

def _raise_fault(nprog: NativeProgram, out: np.ndarray,
                 max_steps: int) -> None:
    code = int(out[4])
    pc = int(out[5])
    addr = int(out[6])
    name = nprog.names[int(out[11])]
    if code == _FLT_STEPS:
        raise StepLimitExceeded(f"exceeded {max_steps} steps in {name}")
    if code == _FLT_FELL_OFF:
        raise EmulationFault(f"fell off the end of function {name}")
    if code == _FLT_BRANCH_LABEL or code == _FLT_JUMP_LABEL:
        what = "branch" if code == _FLT_BRANCH_LABEL else "jump"
        label = nprog.decoded.instructions[pc].target
        raise EmulationFault(f"{name}: {what} to unknown label {label!r}")
    if code == _FLT_LOAD:
        raise EmulationFault(f"illegal load at {addr:#x}")
    if code == _FLT_LOAD_B:
        raise EmulationFault(f"illegal byte load at {addr:#x}")
    if code == _FLT_LOAD_F:
        raise EmulationFault(f"illegal float load at {addr:#x}")
    if code == _FLT_STORE:
        raise EmulationFault(f"illegal memory access at {addr:#x}")
    if code == _FLT_IDIV0:
        raise EmulationFault("integer divide by zero")
    if code == _FLT_FDIV0:
        raise EmulationFault("float divide by zero")
    raise MemoryError("native emulator allocation failure")


def run_program_native(program: "Program",
                       inputs: dict | None = None,
                       collect_trace: bool = False,
                       max_steps: int = 50_000_000,
                       sink: Callable[[TraceColumns], None]
                       | None = None,
                       chunk_events: int | None = None,
                       decoded: DecodedProgram | None = None,
                       native: bool | None = None
                       ) -> ExecutionResult:
    """Native-kernel equivalent of ``interp.run_program_fast``.

    Serves a traced run (``collect_trace`` or ``sink``) and an untraced
    one, such as a profile's training run, which keeps only the
    counts, branch outcomes and block counts.  The kernel folds the
    store-stream signature itself; Python only marshals the program
    and the globals in, and the chunks (when traced) and the run's
    summary out.  A run without a kernel delegates to
    :func:`repro.fastpath.interp.run_program_fast`; results are
    identical on both paths.

    ``native=False`` skips the kernel outright — callers thread the
    :class:`~repro.engine.stages.PipelineContext`'s once-per-process
    engine resolution through here instead of re-reading the
    environment.  The C source installs no signal handler: a kernel
    crash mid-run ends the process.
    """
    lib = None if native is False else _get_lib()
    if lib is not None:
        if decoded is None:
            decoded = decode_program(program)
        if chunk_events is None:
            chunk_events = 1 << 16
        buffers = _take_buffers(chunk_events)
        try:
            execution = _run_kernel(lib, buffers, program, decoded, inputs,
                                    collect_trace, max_steps, sink)
        finally:
            _IDLE_BUFFERS.append(buffers)
        if execution is not None:
            return execution
    return run_program_fast(program, inputs=inputs,
                            collect_trace=collect_trace,
                            max_steps=max_steps, sink=sink,
                            chunk_events=chunk_events or (1 << 16),
                            decoded=decoded)


def _run_kernel(lib, buffers: _ChunkBuffers, program: "Program",
                decoded: DecodedProgram, inputs: dict | None,
                collect_trace: bool, max_steps: int,
                sink: Callable[[TraceColumns], None] | None
                ) -> ExecutionResult | None:
    """One run on the kernel, or None when the kernel cannot start."""
    image = np.frombuffer(zero_pages(DEFAULT_SIZE), np.uint8)
    memory = Memory(DEFAULT_SIZE, data=memoryview(image))
    layout = layout_globals(program, memory, inputs)
    global_end = max((layout[g.name] + g.byte_size
                      for g in program.globals.values()),
                     default=GLOBAL_BASE)
    nprog = NativeProgram(decoded, layout)

    keys_list = decoded.image.keys
    uids = decoded.image.branch_uids
    nkeys = max(len(keys_list), 1)
    nbuids = max(len(uids), 1)
    site_counts = np.zeros(nkeys, np.int64)
    site_order = np.zeros(nkeys, np.int32)
    branch_counts = np.zeros(2 * nbuids, np.int64)
    branch_order = np.zeros(nbuids, np.int32)
    out = np.zeros(16, np.int64)
    out_f = np.zeros(2, np.float64)
    ptrs = nprog.ptrs.copy()
    ptrs[_SLOT_MEM] = _addr(image)
    ptrs[_SLOT_MEM + 1:_SLOT_RESULTS] = buffers.ptrs
    ptrs[_SLOT_RESULTS:_SLOT_CHAIN] = [_addr(a) for a in (
        site_counts, site_order, branch_counts, branch_order, out,
        out_f)]
    cfg = np.array([len(nprog.names), len(decoded.instructions),
                    memory.size, max_steps, buffers.events,
                    nprog.entry_fid, len(keys_list), len(uids),
                    decoded.image.max_call_args],
                   dtype=np.int64)
    p64 = ctypes.POINTER(ctypes.c_int64)

    started = time.monotonic()
    handle = lib.emu_new(ptrs.ctypes.data_as(p64),
                         cfg.ctypes.data_as(p64))
    if not handle:
        return None
    trace = TraceColumns() if collect_trace else None
    try:
        while True:
            rc = lib.emu_run(handle)
            if rc == _ST_FAULT:
                _raise_fault(nprog, out, max_steps)
            tn = int(out[9])
            if tn and sink is not None:
                cols = TraceColumns()
                buffers.drain(tn, int(out[10]), cols)
                sink(cols)
            elif tn and collect_trace:
                buffers.drain(tn, int(out[10]), trace)
            if rc == _ST_DONE:
                break
    finally:
        lib.emu_free(handle)
    wall_time = time.monotonic() - started

    block_counts: dict[tuple, int] = {}
    counts = site_counts.tolist()
    for kid in site_order[:int(out[7])].tolist():
        block_counts[keys_list[kid]] = counts[kid]
    branch_outcomes: dict[int, list[int]] = {}
    counts = branch_counts.tolist()
    for bi in branch_order[:int(out[8])].tolist():
        branch_outcomes[uids[bi]] = counts[2 * bi:2 * bi + 2]
    digest = hashlib.sha256(
        memory.data[GLOBAL_BASE:global_end]).hexdigest()
    return ExecutionResult(
        return_value=float(out_f[0]) if out[2] else int(out[3]),
        dynamic_count=int(out[0]),
        suppressed_count=int(out[1]),
        trace=trace,
        branch_outcomes=branch_outcomes,
        block_counts=block_counts,
        output_signature=int(out[13]) & _U64,
        output_count=int(out[12]),
        memory_digest=digest,
        wall_time_seconds=wall_time,
    )


# ----------------------------------------------------------------- #
# Simulator scan                                                    #
# ----------------------------------------------------------------- #

class NativeSimTables:
    """A :class:`~repro.fastpath.simulate.SimPrep` as the C ``sim_scan``
    reads it: flat per-sidx arrays, and the register lists as CSR."""

    __slots__ = ("pc_addr", "lat", "flags", "pred", "used_off",
                 "used_idx", "dests_off", "dests_idx", "nregs")

    def __init__(self, prep: "SimPrep"):
        self.nregs = prep.nregs
        self.pc_addr = np.array(prep.pc_addr, dtype=np.int64)
        self.lat = np.array(prep.lat, dtype=np.int32)
        self.flags = np.array(prep.flags, dtype=np.uint8)
        self.pred = np.array(prep.pred, dtype=np.int32)
        self.used_off, self.used_idx = _csr(prep.used)
        self.dests_off, self.dests_idx = _csr(prep.dests)


def _csr(rows: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and concatenated values of ``rows``; the values array
    keeps one element when every row is empty."""
    off = np.zeros(len(rows) + 1, np.int32)
    np.cumsum(np.fromiter(map(len, rows), np.int32, len(rows)),
              out=off[1:])
    total = int(off[-1])
    idx = np.fromiter(chain.from_iterable(rows), np.int32, total) \
        if total else np.zeros(1, np.int32)
    return off, idx


def sim_scan_chunk(tables: NativeSimTables,
                   sidx: np.ndarray, flags: np.ndarray,
                   addr: np.ndarray,
                   ready: np.ndarray,
                   btb_tags: np.ndarray, btb_ctr: np.ndarray,
                   ic_tags: np.ndarray, dc_tags: np.ndarray,
                   st: np.ndarray, cfg: np.ndarray) -> None:
    """One ``StreamSimulator.feed`` pass over a chunk, in C.

    ``cfg[0]`` is overwritten with ``len(sidx)``; all other state
    (scoreboard ``ready``, BTB, cache tags, the 14-slot ``st`` issue
    vector) is read and written in place, so consecutive calls chain
    exactly like consecutive ``feed`` calls.
    """
    lib = _get_lib()
    if lib is None:
        from repro.robustness.errors import NativeEngineError
        raise NativeEngineError("native kernels unavailable")
    cfg[0] = len(sidx)
    ptrs_vec, ptrs = _as_ptrs([
        sidx, flags, addr, tables.pc_addr, tables.lat, tables.flags,
        tables.pred, tables.used_off, tables.used_idx,
        tables.dests_off, tables.dests_idx, ready, btb_tags, btb_ctr,
        ic_tags, dc_tags, st])
    lib.sim_scan(ptrs, cfg.ctypes.data_as(
        ctypes.POINTER(ctypes.c_int64)))
