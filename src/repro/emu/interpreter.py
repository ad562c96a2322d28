"""Functional IR interpreter — the emulation half of emulation-driven
simulation.

The interpreter executes any ISA level (baseline, cmov, full predication)
with exact semantics: guarded instructions are fetched and nullified when
their predicate is false, speculative (silent) instructions never fault,
predicate defines follow the Table 1 truth table, and conditional
moves/selects behave per Section 2.2.  It produces the dynamic trace the
cycle simulator consumes, plus profile data for region formation.
"""

from __future__ import annotations

import hashlib
import time

from repro.emu.memory import (GLOBAL_BASE, SAFE_ADDR, EmulationFault,
                              Memory, layout_globals)
from repro.emu.trace import ExecutionResult, TraceEvent
from repro.ir.function import Function, Program
from repro.ir.instruction import Instruction
from repro.ir.opcodes import OpCategory, Opcode
from repro.ir.operands import GlobalAddr, Imm, PReg, VReg
from repro.machine.predicates import apply_pred_define

_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF
#: FNV-1a 64-bit prime — folds the store stream into an order-sensitive
#: signature without hashing the full trace.
_SIG_PRIME = 1099511628211
#: signature stand-in for NaN store values (quiet-NaN bit pattern);
#: int hashes are deterministic where hash(nan) is id-based on 3.10+
_NAN_KEY = 0x7FF8000000000000


def _w32(x: int) -> int:
    """Wrap to signed 32-bit."""
    return ((x + 0x80000000) & _U32) - 0x80000000


def _cdiv(a: int, b: int) -> int:
    """C-style truncating division."""
    if b == 0:
        raise EmulationFault("integer divide by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _crem(a: int, b: int) -> int:
    return a - _cdiv(a, b) * b


_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


class StepLimitExceeded(EmulationFault):
    """The program ran longer than the configured step budget."""


class Interpreter:
    """Executes a :class:`Program` and gathers trace/profile data."""

    def __init__(self, program: Program, memory: Memory | None = None,
                 inputs: dict[str, list[int | float] | bytes] | None = None,
                 collect_trace: bool = False,
                 max_steps: int = 50_000_000):
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.layout = layout_globals(program, self.memory, inputs)
        self.collect_trace = collect_trace
        self.max_steps = max_steps
        self.steps = 0
        self.suppressed = 0
        self.output_signature = 0
        self.output_count = 0
        self.trace: list[TraceEvent] | None = [] if collect_trace else None
        self.branch_outcomes: dict[int, list[int]] = {}
        self.block_counts: dict[tuple[str, str], int] = {}
        self._code: dict[str, tuple[list[list[Instruction]],
                                    dict[str, int]]] = {}
        self._global_end = max(
            (self.layout[g.name] + g.byte_size
             for g in program.globals.values()), default=GLOBAL_BASE)

    # ----- program preprocessing -----------------------------------------

    def _function_code(self, fn: Function):
        cached = self._code.get(fn.name)
        if cached is None:
            blocks = [list(b.instructions) for b in fn.blocks]
            label2idx = {b.name: i for i, b in enumerate(fn.blocks)}
            cached = (blocks, label2idx)
            self._code[fn.name] = cached
        return cached

    # ----- entry point -----------------------------------------------------

    def run(self) -> ExecutionResult:
        main = self.program.main
        started = time.monotonic()
        value = self._run_function(main, [])
        wall_time = time.monotonic() - started
        digest = hashlib.sha256(
            bytes(self.memory.data[GLOBAL_BASE:self._global_end])
        ).hexdigest()
        return ExecutionResult(
            return_value=value,
            dynamic_count=self.steps,
            suppressed_count=self.suppressed,
            trace=self.trace,
            branch_outcomes=self.branch_outcomes,
            block_counts=self.block_counts,
            output_signature=self.output_signature,
            output_count=self.output_count,
            memory_digest=digest,
            wall_time_seconds=wall_time,
        )

    # ----- core loop --------------------------------------------------------

    def _run_function(self, fn: Function, args: list[int | float]):
        blocks, label2idx = self._function_code(fn)
        regs: dict[VReg | PReg, int | float] = {}
        preg_default = 0
        pregs: dict[PReg, int] = {}
        for param, arg in zip(fn.params, args):
            regs[param] = arg
        memory = self.memory
        layout = self.layout
        trace = self.trace
        fn_name = fn.name
        block_counts = self.block_counts
        branch_outcomes = self.branch_outcomes

        def val(op):
            t = type(op)
            if t is VReg:
                return regs.get(op, 0)
            if t is Imm:
                return op.value
            if t is PReg:
                return pregs.get(op, preg_default)
            if t is GlobalAddr:
                return layout[op.name] + op.offset
            raise EmulationFault(f"bad operand {op!r}")

        bi = 0
        ii = 0
        nblocks = len(blocks)
        while True:
            if ii == 0:
                key = (fn_name, fn.blocks[bi].name)
                block_counts[key] = block_counts.get(key, 0) + 1
            block = blocks[bi]
            if ii >= len(block):
                # Fall through to the next block in layout order.
                bi += 1
                ii = 0
                if bi >= nblocks:
                    raise EmulationFault(
                        f"fell off the end of function {fn_name}")
                continue
            inst = block[ii]
            self.steps += 1
            if self.steps > self.max_steps:
                raise StepLimitExceeded(
                    f"exceeded {self.max_steps} steps in {fn_name}")
            op = inst.op
            cat = inst.cat

            # Guard check: fetched but nullified when the predicate is 0.
            # Predicate defines are exempt: their input predicate is a
            # truth-table operand, not a nullifying guard — a U-type
            # destination must still be written 0 when P_in is false
            # (paper Table 1), so stale values cannot leak across loop
            # iterations.
            if inst.pred is not None and cat is not OpCategory.PREDDEF \
                    and not pregs.get(inst.pred, preg_default):
                self.suppressed += 1
                if trace is not None:
                    trace.append(TraceEvent(inst, False, False, -1))
                ii += 1
                continue

            taken = False
            addr = -1
            sval = None

            if cat is OpCategory.ALU:
                a = val(inst.srcs[0])
                if op is Opcode.MOV:
                    regs[inst.dest] = a
                elif op is Opcode.NEG:
                    regs[inst.dest] = _w32(-a)
                elif op is Opcode.NOT:
                    regs[inst.dest] = _w32(~a)
                else:
                    b = val(inst.srcs[1])
                    if op is Opcode.ADD:
                        regs[inst.dest] = _w32(a + b)
                    elif op is Opcode.SUB:
                        regs[inst.dest] = _w32(a - b)
                    elif op is Opcode.MUL:
                        regs[inst.dest] = _w32(a * b)
                    elif op is Opcode.DIV:
                        if inst.speculative and b == 0:
                            regs[inst.dest] = 0
                        else:
                            regs[inst.dest] = _w32(_cdiv(a, b))
                    elif op is Opcode.REM:
                        if inst.speculative and b == 0:
                            regs[inst.dest] = 0
                        else:
                            regs[inst.dest] = _w32(_crem(a, b))
                    elif op is Opcode.AND:
                        regs[inst.dest] = a & b
                    elif op is Opcode.OR:
                        regs[inst.dest] = a | b
                    elif op is Opcode.XOR:
                        regs[inst.dest] = a ^ b
                    elif op is Opcode.SHL:
                        regs[inst.dest] = _w32(a << (b & 31))
                    elif op is Opcode.SHR:
                        regs[inst.dest] = a >> (b & 31)
                    elif op is Opcode.AND_NOT:
                        # Logical: dest = src1 & !src2 (0/1 result domain).
                        regs[inst.dest] = 1 if (a != 0 and b == 0) else 0
                    elif op is Opcode.OR_NOT:
                        regs[inst.dest] = 1 if (a != 0 or b == 0) else 0
                    else:
                        raise EmulationFault(f"unhandled ALU op {op}")

            elif cat is OpCategory.CMP or cat is OpCategory.FCMP:
                a = val(inst.srcs[0])
                b = val(inst.srcs[1])
                regs[inst.dest] = 1 if _CMP[inst.condition](a, b) else 0

            elif cat is OpCategory.FALU:
                a = val(inst.srcs[0])
                if op is Opcode.FMOV:
                    regs[inst.dest] = float(a)
                elif op is Opcode.FNEG:
                    regs[inst.dest] = -a
                elif op is Opcode.CVT_IF:
                    regs[inst.dest] = float(a)
                elif op is Opcode.CVT_FI:
                    regs[inst.dest] = _w32(int(a))
                else:
                    b = val(inst.srcs[1])
                    if op is Opcode.FADD:
                        regs[inst.dest] = a + b
                    elif op is Opcode.FSUB:
                        regs[inst.dest] = a - b
                    elif op is Opcode.FMUL:
                        regs[inst.dest] = a * b
                    elif op is Opcode.FDIV:
                        if b == 0.0:
                            if inst.speculative:
                                regs[inst.dest] = 0.0
                            else:
                                raise EmulationFault("float divide by zero")
                        else:
                            regs[inst.dest] = a / b
                    else:
                        raise EmulationFault(f"unhandled FALU op {op}")

            elif cat is OpCategory.LOAD:
                addr = val(inst.srcs[0]) + val(inst.srcs[1])
                if op is Opcode.LOAD:
                    regs[inst.dest] = memory.load_word(addr,
                                                       inst.speculative)
                elif op is Opcode.LOAD_B:
                    regs[inst.dest] = memory.load_byte(addr,
                                                       inst.speculative)
                else:
                    regs[inst.dest] = memory.load_float(addr,
                                                        inst.speculative)

            elif cat is OpCategory.STORE:
                addr = val(inst.srcs[0]) + val(inst.srcs[1])
                value = val(inst.srcs[2])
                if op is Opcode.STORE:
                    memory.store_word(addr, value)
                    sval = value & _U32
                elif op is Opcode.STORE_B:
                    memory.store_byte(addr, value)
                    sval = value & 0xFF
                else:
                    memory.store_float(addr, value)
                    sval = float(value)
                # Stores redirected to $safe_addr are the partial
                # predication nullification trick, not program output.
                if addr != SAFE_ADDR:
                    self.output_count += 1
                    # hash(nan) is id-based on 3.10+, so NaN stores
                    # fold through a fixed int key to keep signatures
                    # identical across engines, runs and processes.
                    key = sval if sval == sval else _NAN_KEY
                    self.output_signature = (
                        (self.output_signature ^ hash((addr, key)))
                        * _SIG_PRIME) & _U64

            elif cat is OpCategory.BRANCH:
                a = val(inst.srcs[0])
                b = val(inst.srcs[1])
                taken = _CMP[inst.condition](a, b)
                counts = branch_outcomes.get(inst.uid)
                if counts is None:
                    counts = [0, 0]
                    branch_outcomes[inst.uid] = counts
                counts[1 if taken else 0] += 1
                if trace is not None:
                    trace.append(TraceEvent(inst, True, taken, -1))
                if taken:
                    bi = label2idx.get(inst.target, -1)
                    if bi < 0:
                        raise EmulationFault(
                            f"{fn.name}: branch to unknown label "
                            f"{inst.target!r}")
                    ii = 0
                else:
                    ii += 1
                continue

            elif cat is OpCategory.JUMP:
                if trace is not None:
                    trace.append(TraceEvent(inst, True, True, -1))
                bi = label2idx.get(inst.target, -1)
                if bi < 0:
                    raise EmulationFault(
                        f"{fn.name}: jump to unknown label "
                        f"{inst.target!r}")
                ii = 0
                continue

            elif cat is OpCategory.CALL:
                if trace is not None:
                    trace.append(TraceEvent(inst, True, True, -1))
                callee = self.program.functions[inst.target]
                call_args = [val(s) for s in inst.srcs]
                result = self._run_function(callee, call_args)
                if inst.dest is not None:
                    regs[inst.dest] = result if result is not None else 0
                ii += 1
                continue

            elif cat is OpCategory.RET:
                if trace is not None:
                    trace.append(TraceEvent(inst, True, True, -1))
                if inst.srcs:
                    return val(inst.srcs[0])
                return 0

            elif cat is OpCategory.PREDDEF:
                a = val(inst.srcs[0])
                b = val(inst.srcs[1])
                cmp_result = 1 if _CMP[inst.condition](a, b) else 0
                p_in = 1 if inst.pred is None else \
                    (1 if pregs.get(inst.pred, preg_default) else 0)
                for pd in inst.pdests:
                    old = pregs.get(pd.reg, preg_default)
                    pregs[pd.reg] = apply_pred_define(pd.ptype, old, p_in,
                                                      cmp_result)

            elif cat is OpCategory.PREDSET:
                pregs.clear()
                preg_default = 1 if op is Opcode.PRED_SET else 0

            elif cat is OpCategory.CMOV:
                cond = val(inst.srcs[1])
                want = (cond != 0) if op in (Opcode.CMOV, Opcode.FCMOV) \
                    else (cond == 0)
                if want:
                    regs[inst.dest] = val(inst.srcs[0])

            elif cat is OpCategory.SELECT:
                cond = val(inst.srcs[2])
                regs[inst.dest] = val(inst.srcs[0]) if cond != 0 \
                    else val(inst.srcs[1])

            elif cat is OpCategory.NOP:
                pass

            else:
                raise EmulationFault(f"unhandled opcode {op}")

            if trace is not None:
                trace.append(TraceEvent(inst, True, taken, addr, sval))
            ii += 1


def run_program(program: Program,
                inputs: dict[str, list[int | float] | bytes] | None = None,
                collect_trace: bool = False,
                max_steps: int = 50_000_000) -> ExecutionResult:
    """Execute ``program`` from its entry function and return the result."""
    interp = Interpreter(program, inputs=inputs, collect_trace=collect_trace,
                         max_steps=max_steps)
    return interp.run()
