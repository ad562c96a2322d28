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
  the buffer (sink flush or trace merge, signature update) and
  resumes, so sink chunk boundaries match the serial engine exactly.
* :func:`sim_scan_chunk` — one ``StreamSimulator.feed`` pass over a
  chunk with all carried state (scoreboard, BTB, cache tags, issue
  counters) in caller-owned numpy arrays, driven by
  :class:`~repro.fastpath.vector.VectorSimulator`.

The emulator marshals a :class:`DecodedProgram` once into flat int32/
int64/float64 arrays (:class:`NativeProgram`, cached per decoded
program) — per-pc operand fields, CSR tables for call args, predicate
define tables, params, constants, and the pre-walked fall-through
chains whose block keys the C kernel counts in first-occurrence order
so Python can rebuild ``block_counts`` with serial insertion order.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.emu.interpreter import _CMP, StepLimitExceeded
from repro.emu.memory import (GLOBAL_BASE, SAFE_ADDR, EmulationFault,
                              Memory, layout_globals)
from repro.emu.trace import ExecutionResult
from repro.fastpath.columns import TraceColumns
from repro.fastpath.decode import (
    K_BRANCH, K_CALL, K_CMOV, K_CMP, K_DIV, K_FDIV, K_FLOAD, K_JUMP,
    K_LOAD, K_LOAD_B, K_NOP, K_PREDDEF, K_PREDSET, K_REM, K_RET,
    K_STORE, K_STORE_B, K_FSTORE, DecodedProgram, decode_program)
from repro.fastpath.interp import run_program_fast

if TYPE_CHECKING:
    from repro.fastpath.simulate import SimPrep
    from repro.ir.function import Program

_U64 = 0xFFFFFFFFFFFFFFFF
_SIG_PRIME = 1099511628211
#: signature stand-in for NaN store values (quiet-NaN bit
#: pattern); int hashes are deterministic where hash(nan)
#: is id-based on 3.10+
_NAN_KEY = 0x7FF8000000000000

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

class NativeProgram:
    """Flat array image of a :class:`DecodedProgram` (+ resolved
    constants) shared by every native run of that program."""

    __slots__ = (
        "static_arrays", "chain_off", "chain_keys", "nfuncs", "ncode",
        "entry_fid", "nkeys", "nbuids", "max_call_args", "keys_list",
        "uids", "names", "branch_msgs", "jump_msgs", "decoded")

    def __init__(self, decoded: DecodedProgram, layout: dict[str, int]):
        self.decoded = decoded
        fns = list(decoded.functions.values())
        fid_of = {fn.name: i for i, fn in enumerate(fns)}
        nf = len(fns)
        self.nfuncs = nf
        self.names = [fn.name for fn in fns]
        self.entry_fid = fid_of[decoded.entry]

        pc_base = []
        ncode = 0
        for fn in fns:
            pc_base.append(ncode)
            ncode += len(fn.code)
        self.ncode = ncode

        # Shared namespaces: block-profile keys, chains, branch uids.
        key_id: dict[tuple, int] = {}
        keys_list: list[tuple] = []
        chain_id: dict[tuple, int] = {}
        chain_rows: list[tuple] = []

        def intern_chain(keys: tuple) -> int:
            kids = []
            for k in keys:
                i = key_id.get(k)
                if i is None:
                    i = key_id[k] = len(keys_list)
                    keys_list.append(k)
                kids.append(i)
            row = tuple(kids)
            ci = chain_id.get(row)
            if ci is None:
                ci = chain_id[row] = len(chain_rows)
                chain_rows.append(row)
            return ci

        uid_id: dict[int, int] = {}
        uids: list[int] = []

        i32 = np.int32
        fn_nregs = np.zeros(max(nf, 1), i32)
        fn_npregs = np.zeros(max(nf, 1), i32)
        fn_entry_pc = np.zeros(max(nf, 1), i32)
        fn_entry_chain = np.zeros(max(nf, 1), i32)
        fn_params_off = np.zeros(nf + 1, i32)
        fn_const_off = np.zeros(nf + 1, i32)
        params_flat: list[int] = []
        const_i: list[int] = []
        const_f: list[float] = []
        const_isf: list[int] = []

        col = {name: np.zeros(max(ncode, 1), i32)
               for name in ("kind", "sidx", "dest", "m0", "i0", "m1",
                            "i1", "m2", "i2", "guard", "cond", "spec",
                            "buid", "tgt_pc", "tgt_chain", "callee",
                            "pdp", "nxt_pc", "nxt_chain", "fn_of_pc")}
        cargs_off = np.zeros(ncode + 2, i32)
        cargs_mode: list[int] = []
        cargs_idx: list[int] = []
        pd_off = np.zeros(ncode + 2, i32)
        pd_pidx: list[int] = []
        pd_table: list[int] = []
        branch_msgs: dict[int, str] = {}
        jump_msgs: dict[int, str] = {}
        max_call_args = 1

        for fid, fn in enumerate(fns):
            base = pc_base[fid]
            fn_nregs[fid] = fn.nregs
            fn_npregs[fid] = fn.npregs
            ek, epc = fn.entry
            fn_entry_pc[fid] = base + epc if epc >= 0 else -1
            fn_entry_chain[fid] = intern_chain(ek)
            fn_params_off[fid + 1] = fn_params_off[fid] + len(fn.params)
            params_flat.extend(fn.params)
            fn_const_off[fid + 1] = fn_const_off[fid] \
                + len(fn.consts_spec)
            for spec in fn.consts_spec:
                if spec[0] == "imm":
                    v = spec[1]
                else:
                    v = layout[spec[1]] + spec[2]
                if isinstance(v, float):
                    const_i.append(0)
                    const_f.append(v)
                    const_isf.append(1)
                else:
                    const_i.append(int(v))
                    const_f.append(0.0)
                    const_isf.append(0)

            for lpc, t in enumerate(fn.code):
                pc = base + lpc
                (kind, sidx, dest, m0, i0, m1, i1, m2, i2, guard,
                 aux) = t
                c = col
                c["kind"][pc] = kind
                c["sidx"][pc] = sidx
                c["m0"][pc] = m0
                c["i0"][pc] = i0
                c["m1"][pc] = m1
                c["i1"][pc] = i1
                c["m2"][pc] = m2
                c["i2"][pc] = i2
                c["guard"][pc] = guard
                c["fn_of_pc"][pc] = fid
                if dest < 0 and kind not in _NO_REG_WRITE:
                    dest = max(fn.nregs, 1) - 1
                c["dest"][pc] = dest
                cargs_off[pc + 1] = cargs_off[pc]
                pd_off[pc + 1] = pd_off[pc]

                if kind == K_CMP:
                    c["cond"][pc] = _CMP_ORD[id(aux)]
                elif kind == K_BRANCH:
                    cmpfn, uid, target, label = aux
                    c["cond"][pc] = _CMP_ORD[id(cmpfn)]
                    bi = uid_id.get(uid)
                    if bi is None:
                        bi = uid_id[uid] = len(uids)
                        uids.append(uid)
                    c["buid"][pc] = bi
                    if target is None:
                        c["tgt_pc"][pc] = _TGT_UNKNOWN
                        branch_msgs[pc] = (f"{fn.name}: branch to "
                                           f"unknown label {label!r}")
                    else:
                        tk, tpc = target
                        c["tgt_pc"][pc] = base + tpc if tpc >= 0 else -1
                        c["tgt_chain"][pc] = intern_chain(tk)
                elif kind == K_JUMP:
                    target, label = aux
                    if target is None:
                        c["tgt_pc"][pc] = _TGT_UNKNOWN
                        jump_msgs[pc] = (f"{fn.name}: jump to "
                                         f"unknown label {label!r}")
                    else:
                        tk, tpc = target
                        c["tgt_pc"][pc] = base + tpc if tpc >= 0 else -1
                        c["tgt_chain"][pc] = intern_chain(tk)
                elif kind == K_CALL:
                    callee_name, argspec = aux
                    c["callee"][pc] = fid_of[callee_name]
                    for m, i in argspec:
                        cargs_mode.append(m)
                        cargs_idx.append(i)
                    cargs_off[pc + 1] = cargs_off[pc] + len(argspec)
                    if len(argspec) > max_call_args:
                        max_call_args = len(argspec)
                elif kind == K_RET:
                    c["spec"][pc] = 1 if aux else 0
                elif kind == K_PREDDEF:
                    cmpfn, p_in_idx, pdspec = aux
                    c["cond"][pc] = _CMP_ORD[id(cmpfn)]
                    c["pdp"][pc] = p_in_idx
                    for pidx, table in pdspec:
                        pd_pidx.append(pidx)
                        pd_table.extend(-1 if nv is None else int(nv)
                                        for nv in table)
                    pd_off[pc + 1] = pd_off[pc] + len(pdspec)
                elif kind == K_PREDSET:
                    c["spec"][pc] = aux
                elif kind == K_CMOV:
                    c["spec"][pc] = 1 if aux else 0
                elif kind in (K_DIV, K_REM, K_FDIV, K_LOAD, K_LOAD_B,
                              K_FLOAD):
                    c["spec"][pc] = 1 if aux else 0

                ne = fn.nxt[lpc]
                if ne is None:
                    c["nxt_pc"][pc] = _NXT_NONE
                else:
                    nk, npc = ne
                    c["nxt_pc"][pc] = base + npc if npc >= 0 else -1
                    c["nxt_chain"][pc] = intern_chain(nk)

        chain_off = np.zeros(len(chain_rows) + 1, i32)
        chain_keys: list[int] = []
        for ci, row in enumerate(chain_rows):
            chain_keys.extend(row)
            chain_off[ci + 1] = chain_off[ci] + len(row)

        def arr(seq, dtype):
            return np.array(seq, dtype=dtype) if len(seq) \
                else np.zeros(1, dtype=dtype)

        self.chain_off = chain_off
        self.chain_keys = arr(chain_keys, i32)

        self.keys_list = keys_list
        self.uids = uids
        self.nkeys = len(keys_list)
        self.nbuids = len(uids)
        self.max_call_args = max_call_args
        self.branch_msgs = branch_msgs
        self.jump_msgs = jump_msgs
        # Slot order must match emu_new in the C source.
        self.static_arrays = [
            fn_nregs, fn_npregs, fn_entry_pc, fn_entry_chain,
            fn_params_off, arr(params_flat, i32), fn_const_off,
            arr(const_i, np.int64), arr(const_f, np.float64),
            arr(const_isf, np.uint8),
            col["kind"], col["sidx"], col["dest"], col["m0"],
            col["i0"], col["m1"], col["i1"], col["m2"], col["i2"],
            col["guard"], col["cond"], col["spec"], col["buid"],
            col["tgt_pc"], col["tgt_chain"], col["callee"],
            cargs_off, arr(cargs_mode, i32), arr(cargs_idx, i32),
            pd_off, arr(pd_pidx, i32), arr(pd_table, np.int8),
            col["pdp"], col["nxt_pc"], col["nxt_chain"],
            col["fn_of_pc"],
        ]


_NPROG_CACHE: dict[int, tuple[DecodedProgram, NativeProgram]] = {}
_NPROG_CACHE_MAX = 8


def _native_program(decoded: DecodedProgram,
                    layout: dict[str, int]) -> NativeProgram:
    """Marshal (or fetch the cached image of) ``decoded``.

    ``layout`` is deterministic per program (inputs only change global
    *contents*), so one image serves every run of the same decoded
    program.  The cache holds a strong reference to ``decoded`` to
    keep ``id()`` keys stable.
    """
    key = id(decoded)
    hit = _NPROG_CACHE.get(key)
    if hit is not None and hit[0] is decoded:
        return hit[1]
    nprog = NativeProgram(decoded, layout)
    if len(_NPROG_CACHE) >= _NPROG_CACHE_MAX:
        _NPROG_CACHE.pop(next(iter(_NPROG_CACHE)))
    _NPROG_CACHE[key] = (decoded, nprog)
    return nprog


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
    counts, branch outcomes and block counts.  A watchdog needs
    in-loop heartbeats, which stay on the interpreter: a watchdogged
    run (and any run without a kernel) delegates to
    :func:`repro.fastpath.interp.run_program_fast`; results are
    identical on both paths.

    ``native=False`` skips the kernel outright — callers thread the
    :class:`~repro.engine.stages.PipelineContext`'s once-per-process
    engine resolution through here instead of re-reading the
    environment.  A kernel fault mid-run (injected or real) without a
    ``sink`` demotes the process and reruns on the interpreter.  With
    a ``sink`` the fault re-raises as the typed, transient
    :class:`NativeKernelCrash`, whether the emulator or the sink
    raised it: the sink's consumer may already hold chunks, so only
    the caller can restart the stream, and the caller records it.
    """
    lib = None if native is False else _get_lib()
    if lib is None or watchdog is not None:
        return run_program_fast(program, inputs=inputs,
                                collect_trace=collect_trace,
                                max_steps=max_steps, watchdog=watchdog,
                                sink=sink,
                                chunk_events=chunk_events or (1 << 16),
                                decoded=decoded)
    if decoded is None:
        decoded = decode_program(program)
    if chunk_events is None:
        chunk_events = 1 << 16

    memory = Memory()
    layout = layout_globals(program, memory, inputs)
    global_end = max((layout[g.name] + g.byte_size
                      for g in program.globals.values()),
                     default=GLOBAL_BASE)
    nprog = _native_program(decoded, layout)

    t_sidx = np.zeros(chunk_events, np.int32)
    t_flags = np.zeros(chunk_events, np.uint8)
    t_addr = np.zeros(chunk_events, np.int64)
    t_vidx = np.zeros(chunk_events, np.int32)
    val_i = np.zeros(chunk_events, np.int64)
    val_f = np.zeros(chunk_events, np.float64)
    val_isf = np.zeros(chunk_events, np.uint8)
    site_counts = np.zeros(max(nprog.nkeys, 1), np.int64)
    site_order = np.zeros(max(nprog.nkeys, 1), np.int32)
    branch_counts = np.zeros(max(2 * nprog.nbuids, 1), np.int64)
    branch_order = np.zeros(max(nprog.nbuids, 1), np.int32)
    out = np.zeros(16, np.int64)
    out_f = np.zeros(2, np.float64)

    membuf = (ctypes.c_ubyte * len(memory.data)).from_buffer(
        memory.data)
    # Slots 0..35 program image, 36 memory, 37..49 per-run buffers,
    # 50/51 the chain CSR — must match emu_new in the C source.
    ptrs_vec, ptrs = _as_ptrs(list(nprog.static_arrays) + [
        ctypes.addressof(membuf),
        t_sidx, t_flags, t_addr, t_vidx, val_i, val_f, val_isf,
        site_counts, site_order, branch_counts, branch_order,
        out, out_f, nprog.chain_off, nprog.chain_keys,
    ])
    cfg = np.array([nprog.nfuncs, nprog.ncode, len(memory.data),
                    max_steps, chunk_events, nprog.entry_fid,
                    nprog.nkeys, nprog.nbuids, nprog.max_call_args],
                   dtype=np.int64)

    started = time.monotonic()
    handle = lib.emu_new(ptrs, cfg.ctypes.data_as(
        ctypes.POINTER(ctypes.c_int64)))
    if not handle:
        del membuf
        return run_program_fast(program, inputs=inputs,
                                collect_trace=collect_trace,
                                max_steps=max_steps, watchdog=watchdog,
                                sink=sink, chunk_events=chunk_events,
                                decoded=decoded)

    from repro.fastpath import supervisor
    from repro.robustness.errors import NativeKernelCrash

    signature = 0
    out_count = 0
    trace = TraceColumns() if collect_trace else None
    try:
        try:
            while True:
                supervisor.maybe_fault_emu()
                rc = lib.emu_run(handle)
                if rc == _ST_FAULT:
                    _raise_fault(nprog, out, max_steps)
                tn = int(out[9])
                nvals = int(out[10])
                if tn:
                    values = [float(val_f[i]) if val_isf[i]
                              else int(val_i[i]) for i in range(nvals)]
                    if nvals:
                        mask = t_vidx[:tn] >= 0
                        for a, v in zip(t_addr[:tn][mask].tolist(),
                                        values):
                            if a != SAFE_ADDR:
                                out_count += 1
                                # NaN folds through _NAN_KEY:
                                # hash(nan) is id-based on 3.10+
                                key = v if v == v else _NAN_KEY
                                signature = ((signature
                                              ^ hash((a, key)))
                                             * _SIG_PRIME) & _U64
                    if sink is not None:
                        cols = TraceColumns()
                        cols.sidx.frombytes(t_sidx[:tn].tobytes())
                        cols.flags.frombytes(t_flags[:tn].tobytes())
                        cols.addr.frombytes(t_addr[:tn].tobytes())
                        cols.vidx.frombytes(t_vidx[:tn].tobytes())
                        cols.values = values
                        sink(cols)
                    elif collect_trace:
                        vbase = len(trace.values)
                        trace.sidx.frombytes(t_sidx[:tn].tobytes())
                        trace.flags.frombytes(t_flags[:tn].tobytes())
                        trace.addr.frombytes(t_addr[:tn].tobytes())
                        if vbase:
                            vv = t_vidx[:tn].copy()
                            vv[vv >= 0] += vbase
                            trace.vidx.frombytes(vv.tobytes())
                        else:
                            trace.vidx.frombytes(t_vidx[:tn].tobytes())
                        trace.values.extend(values)
                if rc == _ST_DONE:
                    break
        finally:
            lib.emu_free(handle)
            del membuf
    except NativeKernelCrash as crash:
        if sink is not None:
            raise
        # No chunk has left this function: demote the process and
        # rerun from scratch on the interpreter (identical result).
        supervisor.report_kernel_fault(crash)
        return run_program_fast(program, inputs=inputs,
                                collect_trace=collect_trace,
                                max_steps=max_steps, watchdog=watchdog,
                                sink=sink, chunk_events=chunk_events,
                                decoded=decoded)

    wall_time = time.monotonic() - started
    value = float(out_f[0]) if out[2] else int(out[3])

    block_counts: dict[tuple, int] = {}
    keys_list = nprog.keys_list
    for kid in site_order[:int(out[7])].tolist():
        block_counts[keys_list[kid]] = int(site_counts[kid])
    branch_outcomes: dict[int, list[int]] = {}
    uids = nprog.uids
    for bi in branch_order[:int(out[8])].tolist():
        branch_outcomes[uids[bi]] = [int(branch_counts[2 * bi]),
                                     int(branch_counts[2 * bi + 1])]
    digest = hashlib.sha256(
        bytes(memory.data[GLOBAL_BASE:global_end])).hexdigest()
    return ExecutionResult(
        return_value=value,
        dynamic_count=int(out[0]),
        suppressed_count=int(out[1]),
        trace=trace,
        branch_outcomes=branch_outcomes,
        block_counts=block_counts,
        output_signature=signature,
        output_count=out_count,
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
