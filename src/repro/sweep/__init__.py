"""Design-space exploration: declarative machine grids over one
shared pipeline.

A :class:`~repro.sweep.spec.SweepSpec` names a parameter grid (issue
width, branch issue limit, cache geometry, BTB, latency tables, model
set); :func:`~repro.sweep.runner.run_sweep` expands it into a
deduplicated lattice of frozen :class:`MachineDescription` digests,
measures every (workload, model) at every point through the
experiment suite, and aggregates the stats into a
:class:`~repro.sweep.result.SweepResult` with speedup-vs-config
surface tables and per-workload Pareto frontiers.
"""

from repro.sweep.result import SweepResult
from repro.sweep.runner import SweepOutcome, run_sweep
from repro.sweep.spec import SweepPoint, SweepSpec

__all__ = ["SweepSpec", "SweepPoint", "SweepResult", "SweepOutcome",
           "run_sweep"]
