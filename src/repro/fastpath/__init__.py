"""Fastpath: the ``vector`` engine — pre-decoded micro-ops, columnar
traces, native kernels and one pure-Python rung.

The legacy object-graph interpreter (``repro.emu.interpreter``) and trace
simulator (``repro.sim.pipeline``) pay per-dynamic-instruction Python
overhead: attribute chasing on ``Instruction`` dataclasses, a
``TraceEvent`` NamedTuple allocated per fetch, and a fully materialized
``list[TraceEvent]`` handed between stages.  This package lowers a
compiled :class:`~repro.ir.function.Program` into flat, integer-indexed
structures once (:mod:`repro.fastpath.decode`) and runs it two ways,
byte-identically:

* **native** — C kernels (:mod:`repro.fastpath.native`, trusted through
  :mod:`repro.fastpath.supervisor`) emulate to columnar trace chunks
  (:mod:`repro.fastpath.columns`) and scan them through the cycle
  model (:mod:`repro.fastpath.vector`);
* **Python rung** — the int-dispatched interpreter
  (:mod:`repro.fastpath.interp`) and the incremental column simulator
  (:mod:`repro.fastpath.simulate`), used when no C compiler is present,
  under ``REPRO_NATIVE=0`` and when the kernels fail their checks at
  load.

The legacy path stays untouched as the differential oracle; see
``repro.robustness.differential.assert_fastpath_equivalent``.
"""

from repro.fastpath.columns import (FLAG_EXECUTED, FLAG_TAKEN,
                                    TraceColumns)
from repro.fastpath.decode import DecodedFunction, DecodedProgram, \
    decode_program
from repro.fastpath.interp import run_program_fast
from repro.fastpath.simulate import (SimPrep, StreamSimulator,
                                     emulate_and_simulate_stream,
                                     prepare_sim, simulate_columns)

__all__ = [
    "FLAG_EXECUTED", "FLAG_TAKEN", "TraceColumns",
    "DecodedFunction", "DecodedProgram", "decode_program",
    "run_program_fast",
    "SimPrep", "StreamSimulator", "prepare_sim", "simulate_columns",
    "emulate_and_simulate_stream",
]
