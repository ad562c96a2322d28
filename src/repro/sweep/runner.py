"""Sweep execution: a figure query over a machine lattice.

``run_sweep`` expands a :class:`SweepSpec` into its machine lattice and
runs it through the same :class:`ExperimentSuite` the figures use:

* **planning** — ``suite.prefetch`` over the scalar baseline plus every
  lattice point's machine with the spec's models.  At ``jobs > 1`` it
  fans prepare jobs and one measure job per distinct schedule digest
  (points differing only in caches/BTB share it: one compile, one
  emulation, a simulation per point) across the process pool;
  serially it is a no-op;
* **aggregation** — ``suite.run`` per (workload, model, point), in
  workload -> model -> point order, then the workload's baseline.
  After a parallel prefetch this is store reads; serially it is the
  compute itself, the paper's emulation-driven simulation: each
  compiled program is emulated once and its in-memory trace simulated
  at every point.  After each (workload, model) the context drops its
  memoized traces (nothing stores them), so memory holds one pair's
  traces at a time.

Both paths journal the same per-triple ``simulate:`` tasks figure runs
record, so a SIGKILLed sweep resumes with zero recompute of completed
triples and a warm store serves the whole sweep without compute.  The
result is assembled in lattice order, so :class:`SweepResult` bytes
never depend on execution order or ``--jobs``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine.metrics import PipelineMetrics
from repro.engine.recovery.retry import RetryPolicy
from repro.engines import DEFAULT_ENGINE
from repro.experiments.runner import ExperimentSuite
from repro.machine.descriptor import MachineDescription, scalar_machine
from repro.sim.pipeline import SimulationStats
from repro.sweep.result import SweepResult, build_point_entry
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.toolchain import Model
from repro.workloads.base import all_workloads, get_workload


def simulate_point(suite: ExperimentSuite, workload: str, model: Model,
                   machine: MachineDescription) -> SimulationStats:
    """One (workload, model) measured at one lattice point, in process."""
    return suite.run(workload, model, machine).stats


@dataclass
class SweepOutcome:
    """What ``run_sweep`` hands back to the CLI."""

    result: SweepResult
    metrics: PipelineMetrics
    run_id: str | None
    points_total: int
    #: points whose stats were all stored before the run (zero compute)
    points_cached: int
    #: journal-verified tasks skipped on resume
    resumed_tasks: int


def run_sweep(spec: SweepSpec, cache_dir: str | None = None,
              jobs: int = 1, run_id: str | None = None,
              resume: bool = False, retry: RetryPolicy | None = None,
              metrics: PipelineMetrics | None = None,
              engine: str = DEFAULT_ENGINE) -> SweepOutcome:
    """Run one sweep campaign to a :class:`SweepResult`.

    ``cache_dir``/``jobs``/``run_id``/``resume``/``retry`` have the
    same semantics as every other suite entry point: store-backed runs
    are journaled and resumable, ``jobs > 1`` fans the work across the
    process pool, and a warm rerun performs zero compiles, emulations
    or simulations.
    """
    start = time.monotonic()
    points = spec.expand()
    digest = spec.sweep_digest()
    workloads = [get_workload(name) for name in spec.workloads] \
        if spec.workloads else all_workloads()
    models = tuple(Model[name.upper()] for name in spec.models)
    suite = ExperimentSuite(
        workloads=workloads, scale=spec.scale, max_steps=spec.max_steps,
        cache_dir=cache_dir, jobs=jobs, engine=engine, run_id=run_id,
        resume=resume, retry=retry,
        journal_meta={"kind": "sweep", "sweep": spec.name,
                      "sweep_digest": digest})
    if metrics is not None:
        suite.ctx.metrics = metrics
        if suite.ctx.store is not None:
            suite.ctx.store.metrics = metrics
    try:
        cached = _warm_points(suite, points, models)
        suite.prefetch([(scalar_machine(), (Model.SUPERBLOCK,))]
                       + [(point.machine, models) for point in points])
        result = _aggregate(suite, spec, points, digest)
    except BaseException:
        suite.close_journal(ok=False)
        raise
    suite.close_journal(ok=True)
    suite.metrics.record_sweep(len(points), cached,
                               time.monotonic() - start)
    return SweepOutcome(result=result, metrics=suite.metrics,
                        run_id=suite.run_id, points_total=len(points),
                        points_cached=cached,
                        resumed_tasks=len(suite.resumed_verified))


def _warm_points(suite: ExperimentSuite, points: list[SweepPoint],
                 models: tuple[Model, ...]) -> int:
    """Points whose every (workload, model) stats are already stored."""
    store = suite.ctx.store
    if store is None:
        return 0
    return sum(all(store.contains("stats", suite.ctx.stats_key(
                       workload, model, point.machine))
                   for workload in suite.workloads for model in models)
               for point in points)


def _aggregate(suite: ExperimentSuite, spec: SweepSpec,
               points: list[SweepPoint], digest: str) -> SweepResult:
    """Measure every (workload, model) at every point, then assemble
    the result in lattice order.

    Each workload's baseline comes last, after its pairs' traces are
    released, so its trace is never held beside theirs.  When the
    scalar machine is a lattice point (the 1-issue perfect-cache one)
    and superblock a model, its stats are already memoized.
    """
    baseline: dict[str, int] = {}
    stats: dict[tuple[int, str, str], SimulationStats] = {}
    for workload in suite.workloads:
        name = workload.name
        for model_name in spec.models:
            model = Model[model_name.upper()]
            for point in points:
                stats[point.index, name, model_name] = simulate_point(
                    suite, name, model, point.machine)
            suite.ctx.release_traces()
        baseline[name] = suite.baseline_cycles(name)
        suite.ctx.release_traces()

    def cell(point: SweepPoint, name: str, model_name: str) -> dict:
        measured = stats[point.index, name, model_name]
        return {"cycles": measured.cycles,
                "speedup": round(baseline[name] / measured.cycles, 6),
                "instructions": measured.executed_instructions}

    entries = [build_point_entry(point, {
        workload.name: {model_name: cell(point, workload.name, model_name)
                        for model_name in spec.models}
        for workload in suite.workloads}) for point in points]
    return SweepResult(spec=spec.to_dict(), sweep_digest=digest,
                       baseline_cycles=baseline, points=entries)
