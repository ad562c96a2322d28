"""The execution engines, by name, and the default.

Two engines emulate and simulate a compiled program, and every figure
is byte-identical on both:

* ``legacy`` — the object-graph interpreter (:mod:`repro.emu.interpreter`)
  and trace simulator (:mod:`repro.sim.pipeline`): the readable
  reference, and the differential oracle the other engine is held to;
* ``vector`` — the default: pre-decoded programs and columnar traces
  (:mod:`repro.fastpath`) run by native C kernels whenever the process
  loaded them, fuzzing and differential runs included; the pure-Python
  rung (:func:`~repro.fastpath.interp.run_program_fast` and
  :class:`~repro.fastpath.simulate.StreamSimulator`) runs only in a
  process that did not (no C compiler, ``REPRO_NATIVE=0``, a failed
  load check).  Either way ``max_steps`` is the one emulation bound.

The CLI, :class:`~repro.experiments.runner.ExperimentSuite`, the pool
workers' job specs and sweeps all take their engine names and default
from here.
"""

from __future__ import annotations

from repro.robustness.errors import SpecError

#: every engine name the pipeline accepts
ENGINES = ("legacy", "vector")

#: the engine used when none is named
DEFAULT_ENGINE = "vector"


def check_engine(name: object) -> str:
    """Return ``name`` if it names an engine; raise :class:`SpecError`
    (exit 11) naming the allowed set otherwise."""
    if name not in ENGINES:
        raise SpecError(f"unknown engine {name!r} (expected one of "
                        f"{', '.join(ENGINES)})")
    return name
