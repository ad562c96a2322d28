"""Native (C) kernels for the fastpath emulate→simulate pipeline.

The pure-Python fastpath pays ~1µs of interpreter overhead per dynamic
event; at millions of events per figure cell that dominates wall time.
This module binds the supervised kernel shared object with
:mod:`ctypes`; building, digest verification, the sacrificial-
subprocess canary, the golden parity replay, and the degradation
ladder all live in :mod:`repro.fastpath.supervisor`.  Every failure is
typed and demotes the process one rung — no compiler, a failed build,
a failed probe, a parity mismatch, a kernel crash, or
``REPRO_NATIVE=0`` all degrade to the pure-Python rung
(:func:`~repro.fastpath.interp.run_program_fast` and
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

Each run marshals its :class:`DecodedProgram` into flat int32/
int64/float64 arrays (:class:`NativeProgram`, one array per dtype) —
per-pc operand fields, CSR tables for call args, predicate
define tables, params, constants, and the pre-walked fall-through
chains whose block keys the C kernel counts in first-occurrence order
so Python can rebuild ``block_counts`` with serial insertion order.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
import time
from itertools import chain
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.emu.interpreter import _CMP, StepLimitExceeded
from repro.emu.memory import (DEFAULT_SIZE, GLOBAL_BASE, EmulationFault,
                              Memory, layout_globals, zero_pages)
from repro.emu.trace import ExecutionResult
from repro.fastpath.columns import TraceColumns
from repro.fastpath.decode import (
    K_BRANCH, K_CALL, K_CMP, K_FSTORE, K_JUMP, K_NOP, K_PREDDEF,
    K_PREDSET, K_RET, K_STORE, K_STORE_B, DecodedProgram,
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

_NXT_NONE = -10
_TGT_UNKNOWN = -2

#: Kinds that write ``regs[dest]`` unconditionally or conditionally —
#: a ``dest == -1`` means the serial engine writes ``regs[-1]`` (the
#: highest dense register), which the flat image reproduces by
#: remapping.  ``K_CALL`` keeps ``-1``: it means "no writeback".
_NO_REG_WRITE = frozenset((K_PREDDEF, K_PREDSET, K_NOP, K_STORE,
                           K_STORE_B, K_FSTORE, K_BRANCH, K_JUMP,
                           K_CALL, K_RET))

# ----------------------------------------------------------------- #
# Library build + load (supervised)                                 #
# ----------------------------------------------------------------- #
#
# Building, digest-verifying, sandbox-validating and parity-checking
# the shared object all live in :mod:`repro.fastpath.supervisor`; this
# module only binds the validated object and caches the handle.

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
    """The validated kernel handle, or None once the process demoted.

    First call per process walks the full supervised path: build (or
    digest-verified cache load), sacrificial-subprocess canary for
    never-validated objects, then the in-process golden parity replay.
    Any typed failure demotes the ladder and this returns None forever
    after — byte-identical pure-Python engines take over.
    """
    global _lib, _lib_tried
    from repro.fastpath import supervisor
    from repro.robustness.errors import (NativeEngineError,
                                         NativeParityError)
    if not supervisor.native_active():
        return None
    if _lib is None and not _lib_tried:
        with _lock:
            if _lib is None and not _lib_tried:
                _lib_tried = True
                path = supervisor.acquire_so()
                if path is not None:
                    try:
                        _lib = _bind_library(path)
                    except NativeEngineError as exc:
                        supervisor._record_failure(exc)
                        _lib = None
                    if _lib is not None:
                        try:
                            supervisor.verify_process_parity(path)
                        except NativeParityError:
                            _lib = None
    if not supervisor.native_active():
        return None
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
# Comparison-function ordinals                                      #
# ----------------------------------------------------------------- #

def _cmp_ordinals() -> dict[int, int]:
    """Map each ``_CMP`` lambda (by identity) to the C ``docmp``
    ordinal, identified behaviourally so the key type of ``_CMP``
    never matters."""
    probe_to_ord = {
        (True, False, False): 0,   # eq
        (False, True, True): 1,    # ne
        (False, True, False): 2,   # lt
        (True, True, False): 3,    # le
        (False, False, True): 4,   # gt
        (True, False, True): 5,    # ge
    }
    out = {}
    for fn in _CMP.values():
        sig = (bool(fn(0, 0)), bool(fn(0, 1)), bool(fn(1, 0)))
        out[id(fn)] = probe_to_ord[sig]
    return out


_CMP_ORD = _cmp_ordinals()


# ----------------------------------------------------------------- #
# Program marshaling                                                #
# ----------------------------------------------------------------- #

#: Per-pc columns of the program image, in their ``emu_new`` slot
#: order: the first 16 fill slots 10..25, the last 4 slots 32..35.
_PC_COLUMNS = ("kind", "sidx", "dest", "m0", "i0", "m1", "i1", "m2",
               "i2", "guard", "cond", "spec", "buid", "tgt_pc",
               "tgt_chain", "callee", "pdp", "nxt_pc", "nxt_chain",
               "fn_of_pc")
#: Pointer slots of ``emu_new`` (see the C source).
_NSLOTS = 52
_SLOT_MEM = 36       # 36: memory, 37..43: the chunk buffers
_SLOT_RESULTS = 44   # 44..49: profile counters and the out vectors
_SLOT_CHAIN = 50     # 50/51: the chain CSR


def _addr(a: np.ndarray) -> int:
    return a.ctypes.data


class NativeProgram:
    """Flat array image of a :class:`DecodedProgram` (+ resolved
    constants) for one native run.

    Every section (a per-pc column, a CSR table, ...) is gathered as a
    Python list, and the sections are packed into one array per dtype
    (``arrays``).  ``ptrs`` holds the image's slots of the ``emu_new``
    pointer vector, which each run copies and completes.
    """

    __slots__ = (
        "arrays", "ptrs", "nfuncs", "ncode", "entry_fid", "nkeys",
        "nbuids", "max_call_args", "keys_list", "uids", "names",
        "branch_msgs", "jump_msgs")

    def __init__(self, decoded: DecodedProgram, layout: dict[str, int]):
        fns = list(decoded.functions.values())
        fid_of = {fn.name: i for i, fn in enumerate(fns)}
        self.nfuncs = len(fns)
        self.names = [fn.name for fn in fns]
        self.entry_fid = fid_of[decoded.entry]

        # Shared namespaces: block-profile keys, chains, branch uids.
        key_id: dict[tuple, int] = {}
        keys_list: list[tuple] = []
        chain_id: dict[tuple, int] = {}
        chain_off = [0]
        chain_keys: list[int] = []

        def intern_chain(keys: tuple) -> int:
            ci = chain_id.get(keys)
            if ci is None:
                ci = chain_id[keys] = len(chain_off) - 1
                for k in keys:
                    i = key_id.get(k)
                    if i is None:
                        i = key_id[k] = len(keys_list)
                        keys_list.append(k)
                    chain_keys.append(i)
                chain_off.append(len(chain_keys))
            return ci

        uid_id: dict[int, int] = {}
        uids: list[int] = []

        fn_nregs: list[int] = []
        fn_npregs: list[int] = []
        fn_entry_pc: list[int] = []
        fn_entry_chain: list[int] = []
        fn_params_off = [0]
        fn_const_off = [0]
        params_flat: list[int] = []
        const_i: list[int] = []
        const_f: list[float] = []
        const_isf: list[int] = []
        # The per-pc columns, interleaved one pc after another.  Each
        # row tuple is freed as soon as it is appended, so building the
        # image leaves the cyclic GC nothing new to track.
        flat: list[int] = []
        ncode = 0
        cargs_off = [0]
        cargs_mode: list[int] = []
        cargs_idx: list[int] = []
        pd_off = [0]
        pd_pidx: list[int] = []
        pd_table: list[int] = []
        branch_msgs: dict[int, str] = {}
        jump_msgs: dict[int, str] = {}
        max_call_args = 1

        for fid, fn in enumerate(fns):
            base = ncode
            fn_nregs.append(fn.nregs)
            fn_npregs.append(fn.npregs)
            ek, epc = fn.entry
            fn_entry_pc.append(base + epc if epc >= 0 else -1)
            fn_entry_chain.append(intern_chain(ek))
            params_flat.extend(fn.params)
            fn_params_off.append(len(params_flat))
            for cspec in fn.consts_spec:
                if cspec[0] == "imm":
                    v = cspec[1]
                else:
                    v = layout[cspec[1]] + cspec[2]
                if isinstance(v, float):
                    const_i.append(0)
                    const_f.append(v)
                    const_isf.append(1)
                else:
                    const_i.append(int(v))
                    const_f.append(0.0)
                    const_isf.append(0)
            fn_const_off.append(len(const_i))
            top_reg = max(fn.nregs, 1) - 1

            for t, ne in zip(fn.code, fn.nxt):
                (kind, sidx, dest, m0, i0, m1, i1, m2, i2, guard,
                 aux) = t
                if dest < 0 and kind not in _NO_REG_WRITE:
                    dest = top_reg
                cond = spec = buid = tgt_pc = tgt_chain = callee = 0
                pdp = 0
                target = None
                if aux is None:  # a plain op: no payload
                    pass
                elif kind == K_CMP:
                    cond = _CMP_ORD[id(aux)]
                elif kind == K_BRANCH:
                    cmpfn, uid, target, label = aux
                    cond = _CMP_ORD[id(cmpfn)]
                    buid = uid_id.get(uid)
                    if buid is None:
                        buid = uid_id[uid] = len(uids)
                        uids.append(uid)
                    if target is None:
                        tgt_pc = _TGT_UNKNOWN
                        branch_msgs[ncode] = (
                            f"{fn.name}: branch to unknown label "
                            f"{label!r}")
                elif kind == K_JUMP:
                    target, label = aux
                    if target is None:
                        tgt_pc = _TGT_UNKNOWN
                        jump_msgs[ncode] = (
                            f"{fn.name}: jump to unknown label "
                            f"{label!r}")
                elif kind == K_CALL:
                    callee_name, argspec = aux
                    callee = fid_of[callee_name]
                    for m, i in argspec:
                        cargs_mode.append(m)
                        cargs_idx.append(i)
                    if len(argspec) > max_call_args:
                        max_call_args = len(argspec)
                elif kind == K_PREDDEF:
                    cmpfn, pdp, pdspec = aux
                    cond = _CMP_ORD[id(cmpfn)]
                    for pidx, table in pdspec:
                        pd_pidx.append(pidx)
                        pd_table.extend(-1 if nv is None else int(nv)
                                        for nv in table)
                elif kind == K_PREDSET:
                    spec = aux
                else:  # ret, cmov and the speculative ops: a flag
                    spec = 1 if aux else 0
                if target is not None:
                    tk, tpc = target
                    tgt_pc = base + tpc if tpc >= 0 else -1
                    tgt_chain = intern_chain(tk)
                cargs_off.append(len(cargs_mode))
                pd_off.append(len(pd_pidx))

                if ne is None:
                    nxt_pc, nxt_chain = _NXT_NONE, 0
                else:
                    nk, npc = ne
                    nxt_pc = base + npc if npc >= 0 else -1
                    nxt_chain = intern_chain(nk)
                flat += (kind, sidx, dest, m0, i0, m1, i1, m2, i2, guard,
                         cond, spec, buid, tgt_pc, tgt_chain, callee, pdp,
                         nxt_pc, nxt_chain, fid)
                ncode += 1

        self.ncode = ncode
        self.keys_list = keys_list
        self.uids = uids
        self.nkeys = len(keys_list)
        self.nbuids = len(uids)
        self.max_call_args = max_call_args
        self.branch_msgs = branch_msgs
        self.jump_msgs = jump_msgs

        i32 = np.int32
        ncols = len(_PC_COLUMNS)
        cols = [flat[j::ncols] for j in range(ncols)]
        # Slot order must match emu_new in the C source.
        self.arrays, addrs = _pack_sections([
            (i32, fn_nregs), (i32, fn_npregs), (i32, fn_entry_pc),
            (i32, fn_entry_chain), (i32, fn_params_off),
            (i32, params_flat), (i32, fn_const_off),
            (np.int64, const_i), (np.float64, const_f),
            (np.uint8, const_isf),
            *[(i32, c) for c in cols[:16]],
            (i32, cargs_off), (i32, cargs_mode), (i32, cargs_idx),
            (i32, pd_off), (i32, pd_pidx), (np.int8, pd_table),
            *[(i32, c) for c in cols[16:]],
            (i32, chain_off), (i32, chain_keys),
        ])
        # Slots 36..49 are the run's own and stay 0 here.
        self.ptrs = np.zeros(_NSLOTS, np.int64)
        self.ptrs[:_SLOT_MEM] = addrs[:-2]
        self.ptrs[_SLOT_CHAIN:] = addrs[-2:]


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
    if code == _FLT_BRANCH_LABEL:
        raise EmulationFault(nprog.branch_msgs[pc])
    if code == _FLT_JUMP_LABEL:
        raise EmulationFault(nprog.jump_msgs[pc])
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
                       watchdog=None,
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
    summary out.  A watchdog needs in-loop heartbeats, which stay on
    the interpreter: a watchdogged run (and any run without a kernel)
    delegates to :func:`repro.fastpath.interp.run_program_fast`;
    results are identical on both paths.

    ``native=False`` skips the kernel outright — callers thread the
    :class:`~repro.engine.stages.PipelineContext`'s once-per-process
    engine resolution through here instead of re-reading the
    environment.  Only an injected kernel fault
    (``supervisor.maybe_fault_emu``) reaches the mid-run fault path:
    the C source installs no signal handler, so a real crash ends the
    process.  Without a ``sink`` an injected fault demotes the process
    and reruns on the interpreter.  With a ``sink`` it re-raises as the
    typed, transient :class:`NativeKernelCrash`, as does one the sink
    raises: the sink's consumer may already hold chunks, so only the
    caller can restart the stream, and the caller records it.
    """
    lib = None if native is False else _get_lib()
    if lib is not None and watchdog is None:
        if decoded is None:
            decoded = decode_program(program)
        if chunk_events is None:
            chunk_events = 1 << 16
        from repro.fastpath import supervisor
        from repro.robustness.errors import NativeKernelCrash
        buffers = _take_buffers(chunk_events)
        try:
            execution = _run_kernel(lib, buffers, program, decoded, inputs,
                                    collect_trace, max_steps, sink)
        except NativeKernelCrash as crash:
            if sink is not None:
                raise
            # No chunk has left this function: demote the process and
            # rerun from scratch on the interpreter (identical result).
            supervisor.report_kernel_fault(crash)
            execution = None
        finally:
            _IDLE_BUFFERS.append(buffers)
        if execution is not None:
            return execution
    return run_program_fast(program, inputs=inputs,
                            collect_trace=collect_trace,
                            max_steps=max_steps, watchdog=watchdog,
                            sink=sink,
                            chunk_events=chunk_events or (1 << 16),
                            decoded=decoded)


def _run_kernel(lib, buffers: _ChunkBuffers, program: "Program",
                decoded: DecodedProgram, inputs: dict | None,
                collect_trace: bool, max_steps: int,
                sink: Callable[[TraceColumns], None] | None
                ) -> ExecutionResult | None:
    """One run on the kernel, or None when the kernel cannot start."""
    from repro.fastpath import supervisor

    image = np.frombuffer(zero_pages(DEFAULT_SIZE), np.uint8)
    memory = Memory(DEFAULT_SIZE, data=memoryview(image))
    layout = layout_globals(program, memory, inputs)
    global_end = max((layout[g.name] + g.byte_size
                      for g in program.globals.values()),
                     default=GLOBAL_BASE)
    nprog = NativeProgram(decoded, layout)

    nkeys = max(nprog.nkeys, 1)
    nbuids = max(nprog.nbuids, 1)
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
    cfg = np.array([nprog.nfuncs, nprog.ncode, memory.size, max_steps,
                    buffers.events, nprog.entry_fid, nprog.nkeys,
                    nprog.nbuids, nprog.max_call_args], dtype=np.int64)
    p64 = ctypes.POINTER(ctypes.c_int64)

    started = time.monotonic()
    handle = lib.emu_new(ptrs.ctypes.data_as(p64),
                         cfg.ctypes.data_as(p64))
    if not handle:
        return None
    trace = TraceColumns() if collect_trace else None
    try:
        while True:
            supervisor.maybe_fault_emu()
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
    keys_list = nprog.keys_list
    counts = site_counts.tolist()
    for kid in site_order[:int(out[7])].tolist():
        block_counts[keys_list[kid]] = counts[kid]
    branch_outcomes: dict[int, list[int]] = {}
    uids = nprog.uids
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
        heartbeats=[],
    )


# ----------------------------------------------------------------- #
# Simulator scan                                                    #
# ----------------------------------------------------------------- #

class NativeSimTables:
    """Flat per-sidx arrays + CSR reg lists for the C ``sim_scan``."""

    __slots__ = ("pc_addr", "lat", "flags", "pred", "used_off",
                 "used_idx", "dests_off", "dests_idx", "nregs")

    def __init__(self, prep: "SimPrep"):
        n = len(prep.pc_addr)
        self.nregs = prep.nregs
        self.pc_addr = np.array(prep.pc_addr, dtype=np.int64)
        self.lat = np.array(prep.lat, dtype=np.int32)
        self.flags = np.array(prep.flags, dtype=np.uint8)
        self.pred = np.array(prep.pred, dtype=np.int32)
        used_off = np.zeros(n + 1, np.int32)
        used_idx: list[int] = []
        dests_off = np.zeros(n + 1, np.int32)
        dests_idx: list[int] = []
        for i in range(n):
            used_idx.extend(prep.used[i])
            used_off[i + 1] = len(used_idx)
            dests_idx.extend(prep.dests[i])
            dests_off[i + 1] = len(dests_idx)
        self.used_off = used_off
        self.used_idx = np.array(used_idx, dtype=np.int32) \
            if used_idx else np.zeros(1, np.int32)
        self.dests_off = dests_off
        self.dests_idx = np.array(dests_idx, dtype=np.int32) \
            if dests_idx else np.zeros(1, np.int32)


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
    from repro.fastpath import supervisor
    lib = _get_lib()
    if lib is None:
        from repro.robustness.errors import NativeEngineError
        raise NativeEngineError("native kernels unavailable")
    # Injected faults fire before the C call; the caller reruns the
    # whole simulation on the Python rung.
    supervisor.maybe_fault_scan()
    cfg[0] = len(sidx)
    ptrs_vec, ptrs = _as_ptrs([
        sidx, flags, addr, tables.pc_addr, tables.lat, tables.flags,
        tables.pred, tables.used_off, tables.used_idx,
        tables.dests_off, tables.dests_idx, ready, btb_tags, btb_ctr,
        ic_tags, dc_tags, st])
    lib.sim_scan(ptrs, cfg.ctypes.data_as(
        ctypes.POINTER(ctypes.c_int64)))
