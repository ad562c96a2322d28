"""Sweep execution: deterministic point fan-out over the DAG scheduler.

``run_sweep`` expands a :class:`SweepSpec` into its machine lattice and
builds a three-layer job DAG over the existing engine:

* ``prepare:{workload}`` — frontend + profile, once per workload;
* ``compile:{workload}:{model}:{key}`` — compile + emulate, once per
  distinct *schedule digest*: every lattice point differing only in
  caches/BTB shares these jobs (the paper's amortization of one
  emulation across machine configurations).  Every such job of a
  (workload, model) after the first depends on the first and reuses
  its stored optimized program, so the passes run once per pair;
* ``sweep:{sweep_digest}:{index}`` — one job per lattice point,
  simulating every (workload, model) trace under that point's full
  machine description.

Point task ids are derived from ``(sweep_digest, index)`` — the fuzz
runner's deterministic work-partitioning template — so the same spec
produces the same task set in every process at any ``--jobs`` level,
the run journal makes a SIGKILLed sweep resumable with zero recompute
of completed points, and a warm store turns the whole plan into a
no-op (every artifact present, nothing scheduled).  Aggregation reads
artifacts back in lattice order, so the resulting
:class:`SweepResult` bytes never depend on execution interleaving.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.engine.metrics import PipelineMetrics
from repro.engine.recovery.retry import RetryPolicy
from repro.engine.scheduler import Job
from repro.engine.stages import PipelineContext
from repro.engine.store import ArtifactStore
from repro.engine.workers import compile_emulate, prepare_workload
from repro.engines import DEFAULT_ENGINE
from repro.experiments.runner import ExperimentSuite
from repro.machine.descriptor import MachineDescription, scalar_machine
from repro.sweep.result import SweepResult, build_point_entry
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.toolchain import Model, ToolchainOptions
from repro.workloads.base import all_workloads, get_workload


def point_task_id(sweep_digest: str, index: int) -> str:
    """Journal/task identity of lattice point ``index``."""
    return f"sweep:{sweep_digest[:12]}:{index:05d}"


def baseline_task_id(sweep_digest: str) -> str:
    return f"sweep:{sweep_digest[:12]}:baseline"


@dataclass(frozen=True)
class PointJobSpec:
    """Everything a pool worker needs to simulate one lattice point."""

    cache_dir: str
    workloads: tuple[str, ...]
    model_names: tuple[str, ...]
    machine: MachineDescription
    scale: float
    max_steps: int
    options: ToolchainOptions = field(default_factory=ToolchainOptions)
    wall_clock_budget: float | None = None
    engine: str = DEFAULT_ENGINE


def simulate_point(spec: PointJobSpec) -> dict:
    """Pool worker: every (workload, model) summary for one machine.

    Compiled programs and traces are read from the shared store (the
    compile layer of the DAG produced them); only the cycle simulation
    under this point's full machine description is new work.
    """
    ctx = PipelineContext(
        scale=spec.scale, options=spec.options,
        max_steps=spec.max_steps,
        wall_clock_budget=spec.wall_clock_budget,
        store=ArtifactStore(spec.cache_dir),
        engine=spec.engine)
    for name in spec.workloads:
        workload = get_workload(name)
        for model_name in spec.model_names:
            ctx.run_summary(workload, Model[model_name.upper()],
                            spec.machine)
    return ctx.metrics.to_dict()


@dataclass
class SweepOutcome:
    """What ``run_sweep`` hands back to the CLI."""

    result: SweepResult
    metrics: PipelineMetrics
    run_id: str | None
    points_total: int
    #: points whose artifacts were all warm before the run (zero jobs)
    points_cached: int
    #: journal-verified tasks skipped on resume
    resumed_tasks: int


def run_sweep(spec: SweepSpec, cache_dir: str | None = None,
              jobs: int = 1, run_id: str | None = None,
              resume: bool = False, retry: RetryPolicy | None = None,
              wall_clock_budget: float | None = None,
              metrics: PipelineMetrics | None = None,
              engine: str = DEFAULT_ENGINE) -> SweepOutcome:
    """Run one sweep campaign to a :class:`SweepResult`.

    ``cache_dir``/``jobs``/``run_id``/``resume``/``retry`` have the
    same semantics as every other suite entry point: store-backed runs
    are journaled and resumable, ``jobs > 1`` fans points across the
    process pool, and a warm rerun performs zero compiles, emulations
    or simulations.
    """
    start = time.monotonic()
    points = spec.expand()
    digest = spec.sweep_digest()
    workloads = [get_workload(name) for name in spec.workloads] \
        if spec.workloads else all_workloads()
    suite = ExperimentSuite(
        workloads=workloads, scale=spec.scale, max_steps=spec.max_steps,
        cache_dir=cache_dir, jobs=jobs, engine=engine, run_id=run_id,
        resume=resume, retry=retry, wall_clock_budget=wall_clock_budget,
        journal_meta={"kind": "sweep", "sweep": spec.name,
                      "sweep_digest": digest,
                      "tasks_total": len(points) + 1})
    if metrics is not None:
        suite.ctx.metrics = metrics
        if suite.ctx.store is not None:
            suite.ctx.store.metrics = metrics
    try:
        cached = _execute(suite, spec, points, digest)
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


# ----- plan construction ----------------------------------------------------

def _execute(suite: ExperimentSuite, spec: SweepSpec,
             points: list[SweepPoint], digest: str) -> int:
    """Build and run the sweep's job DAG; returns warm point count.

    Without a store (no cache dir, serial) there is nothing to fan out
    or journal — aggregation computes in-process.
    """
    store = suite.ctx.store
    if store is None:
        return 0
    plan: list[Job] = []
    job_ids: set[str] = set()
    prep_needed: set[str] = set()
    prep_warm: dict[str, bool] = {}
    #: (workload, model) -> its first compile job, which the others of
    #: the pair wait for
    first_compile: dict[tuple[str, Model], str] = {}

    def prepare_is_warm(workload) -> bool:
        """Frontend + profile already stored (e.g. before a resume)?"""
        warm = prep_warm.get(workload.name)
        if warm is None:
            from repro.engine import keys
            warm = store.contains(
                "frontend", keys.frontend_key(workload.source)) \
                and store.contains("profile", keys.profile_key(
                    workload.name, workload.source, spec.scale,
                    spec.max_steps))
            prep_warm[workload.name] = warm
        return warm

    def ensure_compile(workload, model, machine) -> str | None:
        """Schedule compile+emulate once per distinct schedule digest."""
        ce_key = suite.ctx.compile_key(workload, model, machine)
        ce_id = f"compile:{workload.name}:{model.name}:{ce_key[:12]}"
        if ce_id in job_ids:
            return ce_id
        exec_key = suite.ctx.execution_key(workload, model, machine)
        if store.contains("compiled", ce_key) \
                and store.contains("execution", exec_key):
            return None
        first = first_compile.setdefault((workload.name, model), ce_id)
        if first != ce_id:
            deps = (first,)
        elif prepare_is_warm(workload):
            deps = ()
        else:
            prep_needed.add(workload.name)
            deps = (f"prepare:{workload.name}",)
        plan.append(Job(
            job_id=ce_id, fn=compile_emulate,
            args=(suite._job_spec(workload.name, model, machine),),
            deps=deps, workload=workload.name,
            stage="compile+emulate",
            artifacts=(("compiled", ce_key), ("execution", exec_key))))
        job_ids.add(ce_id)
        return ce_id

    def point_job(task_id: str, machine,
                  model_names: tuple[str, ...]) -> bool:
        """Schedule one lattice point; True when served warm."""
        artifacts: list[tuple[str, str]] = []
        deps: list[str] = []
        missing = False
        for workload in suite.workloads:
            for name in model_names:
                model = Model[name.upper()]
                skey = suite.ctx.stats_key(workload, model, machine)
                artifacts.append(("stats", skey))
                if store.contains("stats", skey):
                    continue
                missing = True
                ce_id = ensure_compile(workload, model, machine)
                if ce_id is not None and ce_id not in deps:
                    deps.append(ce_id)
        if not missing:
            return True
        plan.append(Job(
            job_id=task_id, fn=simulate_point,
            args=(PointJobSpec(
                cache_dir=suite.cache_dir,
                workloads=tuple(w.name for w in suite.workloads),
                model_names=model_names, machine=machine,
                scale=spec.scale, max_steps=spec.max_steps,
                options=suite.options,
                wall_clock_budget=suite.wall_clock_budget,
                engine=suite.engine),),
            deps=tuple(deps), workload=None, stage="sweep-point",
            artifacts=tuple(artifacts)))
        job_ids.add(task_id)
        return False

    cached = 0
    baseline_warm = point_job(baseline_task_id(digest),
                              scalar_machine(), ("superblock",))
    for point in points:
        if point_job(point_task_id(digest, point.index),
                     point.machine, tuple(spec.models)):
            cached += 1
    if baseline_warm and cached == len(points):
        return cached
    for name in sorted(prep_needed):
        plan.append(Job(
            job_id=f"prepare:{name}", fn=prepare_workload,
            args=(suite._job_spec(name, Model.SUPERBLOCK,
                                  scalar_machine()),),
            workload=name, stage="prepare"))
    suite.execute_plan(plan)
    return cached


def _aggregate(suite: ExperimentSuite, spec: SweepSpec,
               points: list[SweepPoint], digest: str) -> SweepResult:
    """Read every point's stats back in lattice order.

    After ``_execute`` the store holds every artifact, so this is pure
    cache reads; without a store it is where the (serial) compute
    actually happens.
    """
    baseline: dict[str, int] = {}
    for workload in suite.workloads:
        baseline[workload.name] = suite.ctx.run_summary(
            workload, Model.SUPERBLOCK, scalar_machine()).stats.cycles
    entries: list[dict] = []
    for point in points:
        measurements: dict[str, dict] = {}
        for workload in suite.workloads:
            row: dict[str, dict] = {}
            for name in spec.models:
                summary = suite.ctx.run_summary(
                    workload, Model[name.upper()], point.machine)
                cycles = summary.stats.cycles
                row[name] = {
                    "cycles": cycles,
                    "speedup": round(
                        baseline[workload.name] / cycles, 6),
                    "instructions":
                        summary.stats.executed_instructions,
                }
            measurements[workload.name] = row
        entries.append(build_point_entry(point, measurements))
    return SweepResult(spec=spec.to_dict(), sweep_digest=digest,
                       baseline_cycles=baseline, points=entries)
