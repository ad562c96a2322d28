"""Hardened experiment pipeline: typed errors, pass gates,
trace integrity, differential validation and fault injection.

The subsystem exists because the paper's result rests on a fragile
invariant — three independently transformed programs must stay
observably equivalent — and a single silent compiler or emulator bug
invalidates every figure.  See EXPERIMENTS.md ("Validity checks behind
the numbers").

``repro.robustness.faults`` (the fault-injection harness) is imported
explicitly by its users; it depends on the toolchain and would widen
this package's import footprint.
"""

from repro.robustness.differential import assert_equivalent, values_differ
from repro.robustness.errors import (CompileError, ModelDivergenceError,
                                     PassVerificationError, ReproError,
                                     TraceIntegrityError)
from repro.robustness.integrity import check_trace_integrity
from repro.robustness.passgate import PassGate

__all__ = [
    "CompileError", "ModelDivergenceError", "PassGate",
    "PassVerificationError", "ReproError", "TraceIntegrityError",
    "assert_equivalent", "check_trace_integrity", "values_differ",
]
