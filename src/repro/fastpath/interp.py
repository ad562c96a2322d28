"""Flat micro-op interpreter — the fastpath emulator.

Executes a :class:`~repro.fastpath.decode.DecodedProgram` with semantics
bit-identical to ``repro.emu.interpreter`` (the differential oracle):
same wrap-to-32-bit arithmetic, guard nullification, predicate truth
tables, store-stream signature, block/branch profiles, memory digest,
step budget, and fault messages.  The difference is
mechanical: one non-recursive loop over flat code lists, int-keyed
dispatch, dense list register files, and a columnar trace appended to
with bound ``array.append`` methods instead of per-event NamedTuples.

Streaming: pass ``sink`` to receive :class:`TraceColumns` chunks of at
most ``chunk_events`` events as they are produced (the final
``ExecutionResult.trace`` is then ``None``); the cycle simulator
consumes them without the full trace ever being materialized.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable

from repro.emu.interpreter import StepLimitExceeded, _cdiv, _crem, _w32
from repro.emu.memory import (GLOBAL_BASE, SAFE_ADDR, EmulationFault,
                              Memory, layout_globals)
from repro.emu.trace import ExecutionResult
from repro.fastpath.columns import TraceColumns
from repro.fastpath.decode import (
    K_ADD, K_AND, K_AND_NOT, K_BRANCH, K_CALL, K_CMOV, K_CMP, K_CVT_FI,
    K_CVT_IF, K_DIV, K_FADD, K_FDIV, K_FMUL, K_FMOV, K_FNEG, K_FSUB,
    K_JUMP, K_LOAD, K_LOAD_B, K_MOV, K_MUL, K_NEG, K_NOP, K_NOT, K_OR,
    K_OR_NOT, K_PREDDEF, K_PREDSET, K_REM, K_SELECT, K_SHL, K_SHR,
    K_STORE, K_STORE_B, K_SUB, K_XOR, DecodedProgram, decode_program)
from repro.ir.function import Program

_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF
_SIG_PRIME = 1099511628211
#: signature stand-in for NaN store values (quiet-NaN bit pattern);
#: int hashes are deterministic where hash(nan) is id-based on 3.10+
_NAN_KEY = 0x7FF8000000000000
#: Stores to $safe_addr are the partial-predication nullification
#: trick, excluded from the output signature (as in the legacy loop).
_SAFE_ADDR = SAFE_ADDR

#: Default streaming granularity: large enough to amortize per-chunk
#: simulator overhead, small enough to keep peak trace memory bounded.
DEFAULT_CHUNK_EVENTS = 1 << 16


def run_program_fast(program: Program,
                     inputs: dict[str, list[int | float] | bytes]
                     | None = None,
                     collect_trace: bool = False,
                     max_steps: int = 50_000_000,
                     sink: Callable[[TraceColumns], None] | None = None,
                     chunk_events: int = DEFAULT_CHUNK_EVENTS,
                     decoded: DecodedProgram | None = None
                     ) -> ExecutionResult:
    """Drop-in fast replacement for ``emu.interpreter.run_program``.

    Identical observable results; the trace (when collected) is a
    :class:`TraceColumns` instead of ``list[TraceEvent]``.  Pass an
    already decoded program via ``decoded`` to skip the lowering pass.
    """
    if decoded is None:
        decoded = decode_program(program)
    memory = Memory()
    layout = layout_globals(program, memory, inputs)
    global_end = max((layout[g.name] + g.byte_size
                      for g in program.globals.values()),
                     default=GLOBAL_BASE)
    started = time.monotonic()
    (value, steps, suppressed, trace, branch_outcomes, block_counts,
     signature, out_count) = _execute(decoded, memory, layout,
                                      collect_trace, max_steps, sink,
                                      chunk_events)
    wall_time = time.monotonic() - started
    digest = hashlib.sha256(
        bytes(memory.data[GLOBAL_BASE:global_end])).hexdigest()
    return ExecutionResult(
        return_value=value,
        dynamic_count=steps,
        suppressed_count=suppressed,
        trace=trace,
        branch_outcomes=branch_outcomes,
        block_counts=block_counts,
        output_signature=signature,
        output_count=out_count,
        memory_digest=digest,
        wall_time_seconds=wall_time,
    )


def _execute(decoded, memory, layout, collect_trace, max_steps, sink,
             chunk_events):
    functions = decoded.functions
    const_cache: dict[str, list] = {}

    def consts_of(d):
        c = const_cache.get(d.name)
        if c is None:
            c = [spec[1] if spec[0] == "imm"
                 else layout[spec[1]] + spec[2]
                 for spec in d.consts_spec]
            const_cache[d.name] = c
        return c

    tracing = collect_trace or sink is not None
    cols = TraceColumns()
    sidx_arr = cols.sidx
    ap_s = sidx_arr.append
    ap_f = cols.flags.append
    ap_a = cols.addr.append
    ap_v = cols.vidx.append
    values = cols.values

    load_word = memory.load_word
    load_byte = memory.load_byte
    load_float = memory.load_float
    store_word = memory.store_word
    store_byte = memory.store_byte
    store_float = memory.store_float

    steps = 0
    suppressed = 0
    signature = 0
    out_count = 0
    branch_outcomes: dict[int, list[int]] = {}
    block_counts: dict[tuple[str, str], int] = {}
    stack: list[tuple] = []

    dfn = functions[decoded.entry]
    code = dfn.code
    nxt = dfn.nxt
    consts = consts_of(dfn)
    regs: list = [0] * dfn.nregs
    plist: list = [0] * dfn.npregs
    name = dfn.name
    keys, pc = dfn.entry
    for k in keys:
        block_counts[k] = block_counts.get(k, 0) + 1
    if pc < 0:
        raise EmulationFault(f"fell off the end of function {name}")

    while True:
        if sink is not None and len(sidx_arr) >= chunk_events:
            sink(cols)
            cols = TraceColumns()
            sidx_arr = cols.sidx
            ap_s = sidx_arr.append
            ap_f = cols.flags.append
            ap_a = cols.addr.append
            ap_v = cols.vidx.append
            values = cols.values

        kind, sidx, dest, m0, i0, m1, i1, m2, i2, guard, aux = code[pc]
        steps += 1
        if steps > max_steps:
            raise StepLimitExceeded(
                f"exceeded {max_steps} steps in {name}")

        # Guard check: fetched but nullified when the predicate is 0
        # (predicate defines decoded with guard == -1; see decode).
        if guard >= 0 and not plist[guard]:
            suppressed += 1
            if tracing:
                ap_s(sidx); ap_f(0); ap_a(-1); ap_v(-1)
            ne = nxt[pc]
            if ne is None:
                pc += 1
                continue
            keys, pc = ne
            for k in keys:
                block_counts[k] = block_counts.get(k, 0) + 1
            if pc < 0:
                raise EmulationFault(
                    f"fell off the end of function {name}")
            continue

        if kind < K_LOAD:
            # --- pure register ops: compute, then the shared tail ----
            if kind == K_ADD:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = (a + b + 0x80000000 & _U32) - 0x80000000
            elif kind == K_MOV:
                regs[dest] = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
            elif kind == K_CMP:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = 1 if aux(a, b) else 0
            elif kind == K_SUB:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = (a - b + 0x80000000 & _U32) - 0x80000000
            elif kind == K_AND:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = a & b
            elif kind == K_PREDDEF:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                cmpfn, p_in_idx, pdspec = aux
                idx = 2 if p_in_idx < 0 or plist[p_in_idx] else 0
                if cmpfn(a, b):
                    idx += 1
                for pidx, table in pdspec:
                    nv = table[idx]
                    if nv is not None:
                        plist[pidx] = nv
            elif kind == K_OR:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = a | b
            elif kind == K_CMOV:
                cond = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                if (cond != 0) == aux:
                    regs[dest] = regs[i0] if m0 == 0 else (
                        consts[i0] if m0 == 1 else plist[i0])
            elif kind == K_SELECT:
                cond = regs[i2] if m2 == 0 else (
                    consts[i2] if m2 == 1 else plist[i2])
                if cond != 0:
                    regs[dest] = regs[i0] if m0 == 0 else (
                        consts[i0] if m0 == 1 else plist[i0])
                else:
                    regs[dest] = regs[i1] if m1 == 0 else (
                        consts[i1] if m1 == 1 else plist[i1])
            elif kind == K_XOR:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = a ^ b
            elif kind == K_SHL:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = ((a << (b & 31)) + 0x80000000
                              & _U32) - 0x80000000
            elif kind == K_SHR:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = a >> (b & 31)
            elif kind == K_NOT:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                regs[dest] = (~a + 0x80000000 & _U32) - 0x80000000
            elif kind == K_NEG:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                regs[dest] = (-a + 0x80000000 & _U32) - 0x80000000
            elif kind == K_MUL:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = (a * b + 0x80000000 & _U32) - 0x80000000
            elif kind == K_AND_NOT:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = 1 if (a != 0 and b == 0) else 0
            elif kind == K_OR_NOT:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = 1 if (a != 0 or b == 0) else 0
            elif kind == K_DIV or kind == K_REM:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                if aux and b == 0:
                    regs[dest] = 0
                elif kind == K_DIV:
                    regs[dest] = _w32(_cdiv(a, b))
                else:
                    regs[dest] = _w32(_crem(a, b))
            elif kind == K_FADD:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = a + b
            elif kind == K_FSUB:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = a - b
            elif kind == K_FMUL:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                regs[dest] = a * b
            elif kind == K_FDIV:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                b = regs[i1] if m1 == 0 else (
                    consts[i1] if m1 == 1 else plist[i1])
                if b == 0.0:
                    if aux:
                        regs[dest] = 0.0
                    else:
                        raise EmulationFault("float divide by zero")
                else:
                    regs[dest] = a / b
            elif kind == K_FNEG:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                regs[dest] = -a
            elif kind == K_FMOV or kind == K_CVT_IF:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                regs[dest] = float(a)
            elif kind == K_CVT_FI:
                a = regs[i0] if m0 == 0 else (
                    consts[i0] if m0 == 1 else plist[i0])
                regs[dest] = _w32(int(a))
            elif kind == K_PREDSET:
                plist[:] = [aux] * len(plist)
            # else: K_NOP — nothing to compute.

            if tracing:
                ap_s(sidx); ap_f(1); ap_a(-1); ap_v(-1)
            ne = nxt[pc]
            if ne is None:
                pc += 1
                continue
            keys, pc = ne
            for k in keys:
                block_counts[k] = block_counts.get(k, 0) + 1
            if pc < 0:
                raise EmulationFault(
                    f"fell off the end of function {name}")
            continue

        if kind < K_STORE:
            # --- loads ------------------------------------------------
            a = regs[i0] if m0 == 0 else (
                consts[i0] if m0 == 1 else plist[i0])
            b = regs[i1] if m1 == 0 else (
                consts[i1] if m1 == 1 else plist[i1])
            addr = a + b
            if kind == K_LOAD:
                regs[dest] = load_word(addr, aux)
            elif kind == K_LOAD_B:
                regs[dest] = load_byte(addr, aux)
            else:
                regs[dest] = load_float(addr, aux)
            if tracing:
                ap_s(sidx); ap_f(1); ap_a(addr); ap_v(-1)
            ne = nxt[pc]
            if ne is None:
                pc += 1
                continue
            keys, pc = ne
            for k in keys:
                block_counts[k] = block_counts.get(k, 0) + 1
            if pc < 0:
                raise EmulationFault(
                    f"fell off the end of function {name}")
            continue

        if kind < K_BRANCH:
            # --- stores -----------------------------------------------
            a = regs[i0] if m0 == 0 else (
                consts[i0] if m0 == 1 else plist[i0])
            b = regs[i1] if m1 == 0 else (
                consts[i1] if m1 == 1 else plist[i1])
            value = regs[i2] if m2 == 0 else (
                consts[i2] if m2 == 1 else plist[i2])
            addr = a + b
            if kind == K_STORE:
                store_word(addr, value)
                sval = value & _U32
            elif kind == K_STORE_B:
                store_byte(addr, value)
                sval = value & 0xFF
            else:
                store_float(addr, value)
                sval = float(value)
            if addr != _SAFE_ADDR:
                out_count += 1
                # NaN folds through _NAN_KEY: hash(nan) is id-based
                key = sval if sval == sval else _NAN_KEY
                signature = ((signature ^ hash((addr, key)))
                             * _SIG_PRIME) & _U64
            if tracing:
                ap_s(sidx); ap_f(1); ap_a(addr)
                ap_v(len(values)); values.append(sval)
            ne = nxt[pc]
            if ne is None:
                pc += 1
                continue
            keys, pc = ne
            for k in keys:
                block_counts[k] = block_counts.get(k, 0) + 1
            if pc < 0:
                raise EmulationFault(
                    f"fell off the end of function {name}")
            continue

        if kind == K_BRANCH:
            a = regs[i0] if m0 == 0 else (
                consts[i0] if m0 == 1 else plist[i0])
            b = regs[i1] if m1 == 0 else (
                consts[i1] if m1 == 1 else plist[i1])
            cmpfn, uid, target, label = aux
            taken = cmpfn(a, b)
            counts = branch_outcomes.get(uid)
            if counts is None:
                counts = [0, 0]
                branch_outcomes[uid] = counts
            counts[1 if taken else 0] += 1
            if tracing:
                ap_s(sidx); ap_f(3 if taken else 1); ap_a(-1); ap_v(-1)
            if taken:
                if target is None:
                    raise EmulationFault(
                        f"{name}: branch to unknown label {label!r}")
                keys, pc = target
                for k in keys:
                    block_counts[k] = block_counts.get(k, 0) + 1
                if pc < 0:
                    raise EmulationFault(
                        f"fell off the end of function {name}")
                continue
            ne = nxt[pc]
            if ne is None:
                pc += 1
                continue
            keys, pc = ne
            for k in keys:
                block_counts[k] = block_counts.get(k, 0) + 1
            if pc < 0:
                raise EmulationFault(
                    f"fell off the end of function {name}")
            continue

        if kind == K_JUMP:
            if tracing:
                ap_s(sidx); ap_f(3); ap_a(-1); ap_v(-1)
            target, label = aux
            if target is None:
                raise EmulationFault(
                    f"{name}: jump to unknown label {label!r}")
            keys, pc = target
            for k in keys:
                block_counts[k] = block_counts.get(k, 0) + 1
            if pc < 0:
                raise EmulationFault(
                    f"fell off the end of function {name}")
            continue

        if kind == K_CALL:
            if tracing:
                ap_s(sidx); ap_f(3); ap_a(-1); ap_v(-1)
            callee_name, argspec = aux
            callee = functions[callee_name]
            args = [regs[i] if m == 0 else (
                consts[i] if m == 1 else plist[i]) for m, i in argspec]
            stack.append((code, nxt, consts, regs, plist, name, pc,
                          dest))
            code = callee.code
            nxt = callee.nxt
            consts = consts_of(callee)
            regs = [0] * callee.nregs
            plist = [0] * callee.npregs
            name = callee.name
            for ridx, v in zip(callee.params, args):
                regs[ridx] = v
            keys, pc = callee.entry
            for k in keys:
                block_counts[k] = block_counts.get(k, 0) + 1
            if pc < 0:
                raise EmulationFault(
                    f"fell off the end of function {name}")
            continue

        # --- K_RET ----------------------------------------------------
        if tracing:
            ap_s(sidx); ap_f(3); ap_a(-1); ap_v(-1)
        if aux:
            value = regs[i0] if m0 == 0 else (
                consts[i0] if m0 == 1 else plist[i0])
        else:
            value = 0
        if not stack:
            trace = None
            if sink is not None:
                if len(sidx_arr):
                    sink(cols)
            elif collect_trace:
                trace = cols
            return (value, steps, suppressed, trace, branch_outcomes,
                    block_counts, signature, out_count)
        code, nxt, consts, regs, plist, name, rpc, rdest = stack.pop()
        if rdest >= 0:
            regs[rdest] = value
        ne = nxt[rpc]
        if ne is None:
            pc = rpc + 1
            continue
        keys, pc = ne
        for k in keys:
            block_counts[k] = block_counts.get(k, 0) + 1
        if pc < 0:
            raise EmulationFault(
                f"fell off the end of function {name}")
        continue
