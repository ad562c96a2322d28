"""Columnar dynamic-trace storage.

A :class:`TraceColumns` holds one dynamic trace as four parallel arrays
plus a store-value side table, replacing ``list[TraceEvent]`` in the hot
paths:

* ``sidx``  — static-instruction index into the owning program's
  :attr:`~repro.fastpath.decode.DecodedProgram.instructions` list (the
  program-order position ``assign_addresses`` walks), ``array('i')``;
* ``flags`` — bitfield per event (:data:`FLAG_EXECUTED`,
  :data:`FLAG_TAKEN`), ``array('B')``;
* ``addr``  — effective memory address for loads/stores, else ``-1``,
  ``array('q')``;
* ``vidx``  — index into :attr:`values` for stores, else ``-1``,
  ``array('i')``;
* ``values`` — the exact store values the legacy trace would carry in
  ``TraceEvent.value`` (masked words/bytes, floats).

Appending an event is a few C-level ``array.append`` calls — no object
allocation.  ``to_events`` reconstructs the legacy ``TraceEvent`` view
for the integrity checker, the fault-injection campaign, and old tests.

A trace never leaves the process that emulated it, so nothing pickles
one.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.emu.trace import TraceEvent
    from repro.ir.function import Program
    from repro.ir.instruction import Instruction

#: Event executed (guard true); clear means fetched-but-nullified.
FLAG_EXECUTED = 1
#: Control transfer taken (branches; jumps/calls/rets always set it).
FLAG_TAKEN = 2

_SIDX_TYPECODE = "i"
_FLAG_TYPECODE = "B"
_ADDR_TYPECODE = "q"
_VIDX_TYPECODE = "i"


class TraceColumns:
    """Parallel-array dynamic trace (see module docstring)."""

    __slots__ = ("sidx", "flags", "addr", "vidx", "values")

    def __init__(self) -> None:
        self.sidx = array(_SIDX_TYPECODE)
        self.flags = array(_FLAG_TYPECODE)
        self.addr = array(_ADDR_TYPECODE)
        self.vidx = array(_VIDX_TYPECODE)
        self.values: list = []

    # ----- construction --------------------------------------------------

    def append(self, sidx: int, flags: int, addr: int = -1,
               value=None) -> None:
        """Append one event (convenience path; the interpreter appends to
        the arrays directly)."""
        self.sidx.append(sidx)
        self.flags.append(flags)
        self.addr.append(addr)
        if value is None:
            self.vidx.append(-1)
        else:
            self.vidx.append(len(self.values))
            self.values.append(value)

    def extend(self, other: "TraceColumns") -> None:
        base = len(self.values)
        self.sidx.extend(other.sidx)
        self.flags.extend(other.flags)
        self.addr.extend(other.addr)
        self.vidx.extend(v if v < 0 else v + base for v in other.vidx)
        self.values.extend(other.values)

    # ----- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.sidx)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return (self.sidx == other.sidx and self.flags == other.flags
                and self.addr == other.addr and self.vidx == other.vidx
                and self.values == other.values)

    def __repr__(self) -> str:
        return (f"TraceColumns(events={len(self.sidx)}, "
                f"stores={len(self.values)})")

    @property
    def nullified_count(self) -> int:
        return sum(1 for f in self.flags if not f & FLAG_EXECUTED)

    @property
    def byte_size(self) -> int:
        """Approximate in-memory payload size of the arrays."""
        return (self.sidx.itemsize * len(self.sidx)
                + self.flags.itemsize * len(self.flags)
                + self.addr.itemsize * len(self.addr)
                + self.vidx.itemsize * len(self.vidx))

    # ----- legacy TraceEvent view ---------------------------------------

    def event(self, i: int,
              instructions: Sequence["Instruction"]) -> "TraceEvent":
        from repro.emu.trace import TraceEvent
        flags = self.flags[i]
        v = self.vidx[i]
        return TraceEvent(instructions[self.sidx[i]],
                          bool(flags & FLAG_EXECUTED),
                          bool(flags & FLAG_TAKEN),
                          self.addr[i],
                          None if v < 0 else self.values[v])

    def iter_events(self, program: "Program | Sequence[Instruction]"
                    ) -> Iterator["TraceEvent"]:
        """Lazily yield legacy ``TraceEvent`` objects.

        ``program`` may be the owning :class:`Program`, an already
        decoded :class:`~repro.fastpath.decode.DecodedProgram`, or the
        static-instruction sequence itself.
        """
        from repro.emu.trace import TraceEvent
        instructions = _instruction_table(program)
        values = self.values
        for s, f, a, v in zip(self.sidx, self.flags, self.addr, self.vidx):
            yield TraceEvent(instructions[s], bool(f & FLAG_EXECUTED),
                             bool(f & FLAG_TAKEN), a,
                             None if v < 0 else values[v])

    def to_events(self, program: "Program | Sequence[Instruction]"
                  ) -> "list[TraceEvent]":
        """Materialize the legacy ``list[TraceEvent]`` view."""
        return list(self.iter_events(program))

    # ----- chunking (streaming support) ---------------------------------

    def slice(self, start: int, stop: int) -> "TraceColumns":
        """Events ``start:stop`` as a trace of their own: the stores'
        values are copied out, in event order, and ``vidx`` renumbered
        to match."""
        import numpy as np  # the Python rung runs without NumPy
        out = TraceColumns()
        out.sidx = self.sidx[start:stop]
        out.flags = self.flags[start:stop]
        out.addr = self.addr[start:stop]
        vidx = np.frombuffer(self.vidx[start:stop], dtype=np.int32)
        stores = vidx >= 0
        values = self.values
        out.values = [values[v] for v in vidx[stores].tolist()]
        remap = np.cumsum(stores, dtype=np.int32) - 1
        remap[~stores] = -1
        out.vidx.frombytes(remap.tobytes())
        return out

    def chunks(self, size: int) -> Iterator["TraceColumns"]:
        """Yield successive fixed-size chunks (the last may be short)."""
        if size <= 0:
            raise ValueError("chunk size must be positive")
        for start in range(0, len(self.sidx), size):
            yield self.slice(start, start + size)


def _instruction_table(program) -> Sequence["Instruction"]:
    """Resolve any accepted ``program`` argument to the sidx-indexed
    static instruction sequence."""
    from repro.fastpath.decode import DecodedProgram, decode_program
    if isinstance(program, DecodedProgram):
        return program.instructions
    from repro.ir.function import Program
    if isinstance(program, Program):
        return decode_program(program).instructions
    return program
