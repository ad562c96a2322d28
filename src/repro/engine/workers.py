"""Module-level job functions executed inside pool workers.

Each worker builds a short-lived :class:`PipelineContext` over the
shared on-disk store, runs its stages, and returns only its metrics
counters.  What it computed reaches the parent as stored artifacts —
``stats`` for the figures, plus the ``profile`` and ``optimized``
program later jobs reuse.  Compiled programs and traces never leave
the worker: a job compiles for one model, emulates once and simulates
every machine that shares the program.  Specs are plain frozen
dataclasses of picklable values (workload *names*, not objects: input builders are closures and
the registry is re-imported in the worker).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.stages import PipelineContext
from repro.engine.store import ArtifactStore
from repro.engines import DEFAULT_ENGINE
from repro.machine.descriptor import MachineDescription
from repro.toolchain import Model, ToolchainOptions
from repro.workloads.base import get_workload


@dataclass(frozen=True)
class JobSpec:
    """Everything a worker needs to rebuild the pipeline context."""

    cache_dir: str
    workload: str
    model_name: str
    #: the machines to measure; all share one compiled program
    machines: tuple[MachineDescription, ...]
    scale: float
    options: ToolchainOptions
    max_steps: int
    #: execution engine (see :mod:`repro.engines`)
    engine: str = DEFAULT_ENGINE

    def context(self) -> PipelineContext:
        return PipelineContext(
            scale=self.scale, options=self.options,
            max_steps=self.max_steps,
            store=ArtifactStore(self.cache_dir),
            engine=self.engine)


def _finish(ctx: PipelineContext) -> dict:
    """Serialize a worker context's counters for the parent's merge.

    Notes this worker's native load decision first, so it rides the
    same ``to_dict`` → ``merge_dict`` round-trip as every counter.
    """
    ctx.record_native_rung()
    return ctx.metrics.to_dict()


def prepare_workload(spec: JobSpec) -> dict:
    """Frontend + profile for one workload (model-agnostic)."""
    ctx = spec.context()
    ctx.profile(get_workload(spec.workload))
    return _finish(ctx)


def measure(spec: JobSpec) -> dict:
    """Compile for one model, emulate once, and simulate every machine
    in the spec; stores each machine's ``stats``."""
    ctx = spec.context()
    workload = get_workload(spec.workload)
    model = Model[spec.model_name]
    for machine in spec.machines:
        ctx.run_summary(workload, model, machine)
    return _finish(ctx)
