"""Dynamic trace structures produced by emulation (paper Section 4.1).

The paper's *emulation-driven simulation* executes the compiled code
functionally and records an instruction trace containing memory address
information, predicate register contents, and branch directions; the
trace is then fed to the cycle-level simulator.  A :class:`TraceEvent`
carries exactly that information for one dynamic instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.ir.instruction import Instruction

if TYPE_CHECKING:  # fastpath imports emu.trace; keep runtime acyclic
    from repro.fastpath.columns import TraceColumns


class TraceEvent(NamedTuple):
    """One dynamic instruction.

    ``executed`` is False when the instruction's guard predicate was
    false (the instruction was fetched but nullified).  ``taken`` is
    meaningful for control instructions; ``addr`` is the effective
    memory address for executed memory instructions, else -1.
    ``value`` is the normalized value written by an executed store
    (None otherwise) — the differential oracle and trace-integrity
    checker read it.
    """

    inst: Instruction
    executed: bool
    taken: bool
    addr: int
    value: int | float | None = None


@dataclass
class ExecutionResult:
    """Everything produced by one emulation run."""

    return_value: int | float
    dynamic_count: int
    #: fetched-but-nullified dynamic instructions (subset of dynamic_count)
    suppressed_count: int
    #: the dynamic trace: a ``list[TraceEvent]`` from the legacy
    #: interpreter, a columnar ``TraceColumns`` from the fastpath, or
    #: None when tracing was off (or the trace was streamed to a sink)
    trace: list[TraceEvent] | TraceColumns | None
    #: uid -> [not_taken_count, taken_count] for conditional branches
    branch_outcomes: dict[int, list[int]] = field(default_factory=dict)
    #: (function, block) -> entry count
    block_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    #: order-sensitive signature of the dynamic output (store) stream,
    #: excluding $safe_addr redirects; identical across correct models
    output_signature: int = 0
    #: number of observable stores folded into ``output_signature``
    output_count: int = 0
    #: hex digest of the final global-data memory region, or None
    memory_digest: str | None = None
    #: wall-clock emulation time in seconds
    wall_time_seconds: float = 0.0

    @property
    def executed_count(self) -> int:
        return self.dynamic_count - self.suppressed_count

    def trace_events(self, program) -> list[TraceEvent] | None:
        """The trace as ``TraceEvent`` objects whatever its storage.

        Columnar traces need ``program`` (or a ``DecodedProgram``) to
        resolve static-instruction indices; legacy traces are returned
        as-is.
        """
        trace = self.trace
        if trace is None or isinstance(trace, list):
            return trace
        return trace.to_events(program)

    def verify_integrity(self, program) -> None:
        """Check this result's trace invariants against ``program``.

        Delegates to :func:`repro.robustness.integrity.check_trace_integrity`
        (imported lazily to keep ``emu`` free of ``robustness`` imports);
        raises :class:`repro.robustness.errors.TraceIntegrityError`.
        """
        from repro.robustness.integrity import check_trace_integrity
        check_trace_integrity(self, program)
