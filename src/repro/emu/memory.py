"""Sparse flat memory for the functional emulator.

Layout (byte addresses):

* ``[0, 32)``   — trap page: any access faults (speculative loads return 0).
* ``32``        — ``$safe_addr``: the reserved scratch word used by the
  partial-predication store conversion (paper Figure 3).
* ``[64, ...)`` — global data objects, 8-byte aligned.
* top of memory — downward-growing stack for local arrays.

Integers are 32-bit two's-complement words; floats occupy 8 bytes.
"""

from __future__ import annotations

import struct

from repro.ir.function import GlobalVar, Program

SAFE_ADDR = 32
GLOBAL_BASE = 64
DEFAULT_SIZE = 1 << 21


class EmulationFault(Exception):
    """A program-terminating exception (illegal address, divide by zero)."""


class Memory:
    """Byte-addressed memory with typed word accessors."""

    def __init__(self, size: int = DEFAULT_SIZE):
        self.size = size
        self.data = bytearray(size)
        self.stack_pointer = size

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < SAFE_ADDR or addr + nbytes > self.size:
            raise EmulationFault(f"illegal memory access at {addr:#x}")

    # ----- integer words --------------------------------------------------

    def load_word(self, addr: int, speculative: bool = False) -> int:
        if addr < SAFE_ADDR or addr + 4 > self.size:
            if speculative:
                return 0
            raise EmulationFault(f"illegal load at {addr:#x}")
        return int.from_bytes(self.data[addr:addr + 4], "little",
                              signed=True)

    def store_word(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        self.data[addr:addr + 4] = (value & 0xFFFFFFFF).to_bytes(
            4, "little")

    # ----- bytes ------------------------------------------------------------

    def load_byte(self, addr: int, speculative: bool = False) -> int:
        if addr < SAFE_ADDR or addr + 1 > self.size:
            if speculative:
                return 0
            raise EmulationFault(f"illegal byte load at {addr:#x}")
        return self.data[addr]

    def store_byte(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self.data[addr] = value & 0xFF

    # ----- floats -----------------------------------------------------------

    def load_float(self, addr: int, speculative: bool = False) -> float:
        if addr < SAFE_ADDR or addr + 8 > self.size:
            if speculative:
                return 0.0
            raise EmulationFault(f"illegal float load at {addr:#x}")
        return struct.unpack_from("<d", self.data, addr)[0]

    def store_float(self, addr: int, value: float) -> None:
        self._check(addr, 8)
        struct.pack_into("<d", self.data, addr, value)

    # ----- stack ------------------------------------------------------------

    def alloc_stack(self, nbytes: int) -> int:
        """Allocate a stack region; returns its base address."""
        aligned = (nbytes + 7) & ~7
        self.stack_pointer -= aligned
        if self.stack_pointer <= GLOBAL_BASE:
            raise EmulationFault("stack overflow")
        return self.stack_pointer

    def free_stack(self, nbytes: int) -> None:
        aligned = (nbytes + 7) & ~7
        self.stack_pointer += aligned


def layout_globals(program: Program, memory: Memory,
                   inputs: dict[str, list[int | float] | bytes] | None = None
                   ) -> dict[str, int]:
    """Assign addresses to globals, write initial/injected values.

    ``inputs`` maps global names to initial contents, overriding any
    initializer in the program; this is how workload input data is
    injected deterministically.
    """
    inputs = inputs or {}
    layout: dict[str, int] = {}
    addr = GLOBAL_BASE
    for g in program.globals.values():
        addr = (addr + 7) & ~7
        layout[g.name] = addr
        values = inputs.get(g.name, g.init)
        if values is not None:
            _write_values(memory, addr, g, values)
        addr += g.byte_size
    if addr >= memory.size // 2:
        raise EmulationFault("global data does not fit in memory")
    return layout


def _write_values(memory: Memory, base: int, g: GlobalVar,
                  values: list[int | float] | bytes) -> None:
    """Write a global's initial contents with one slice assignment.

    Words and bytes are masked to their width exactly as
    :meth:`Memory.store_word`/:meth:`Memory.store_byte` mask them, and
    an element past the end of memory faults at that element's address,
    as storing element by element would.
    """
    count = len(values)
    if count > g.count:
        raise EmulationFault(
            f"initializer for {g.name} has {count} elements, "
            f"declared {g.count}")
    if g.is_float:
        width = 8
        blob = struct.pack(f"<{count}d", *map(float, values))
    elif g.elem_size == 1:
        width = 1
        blob = values if isinstance(values, bytes) \
            else bytes(int(v) & 0xFF for v in values)
    else:
        width = 4
        blob = struct.pack(f"<{count}I",
                           *[int(v) & 0xFFFFFFFF for v in values])
    if count and (base < SAFE_ADDR or base + len(blob) > memory.size):
        first_bad = 0 if base < SAFE_ADDR \
            else max(0, (memory.size - base) // width)
        raise EmulationFault(
            f"illegal memory access at {base + width * first_bad:#x}")
    memory.data[base:base + len(blob)] = blob
