"""Synchronous job execution: one service job -> one journaled run.

``execute_job`` is the bridge between a :class:`ServiceJobSpec` and
the existing pipeline.  It builds an :class:`ExperimentSuite` over the
server's shared artifact store, which buys the service everything the
CLI already has for free:

* **warm-cache sharing** — N distinct jobs over the same sources share
  compile/emulate/simulate artifacts through the CAS store;
* **journaled resume** — the run id is *derived from the request
  digest*, so a job interrupted by a crash or drain leaves a journal
  that the next execution of the same digest resumes (journal-verified
  tasks are never recomputed);
* **deadline -> watchdog** — the job's remaining deadline becomes the
  suite's per-emulation wall-clock budget; an expiry surfaces as the
  typed :class:`DeadlineExceededError`;
* **pool degradation** — ``jobs`` comes from the circuit breaker: a
  healthy pool fans work out, a tripped breaker passes 1 (serial).

The returned result dict is converted to a *canonical JSON string*
(sorted keys, fixed separators, floats rounded) by ``result_to_json``
— the byte-identical artifact every observer of a deduped job reads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro.engine.recovery.journal import journal_path
from repro.experiments.runner import ExperimentSuite
from repro.machine.descriptor import scalar_machine
from repro.robustness.errors import (DeadlineExceededError,
                                     EmulationTimeout)
from repro.service.spec import ServiceJobSpec
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec
from repro.toolchain import Model


@dataclass
class ExecutionOutcome:
    """What the server learns from one completed execution."""

    result_json: str
    #: worker counters to merge into the service's PipelineMetrics
    counters: dict
    #: pool-sickness signal for the circuit breaker
    crash_evidence: bool
    #: journal-verified tasks skipped on resume (zero recompute)
    resumed_tasks: int
    wall_seconds: float


def result_to_json(result: dict) -> str:
    """Canonical, timestamp-free encoding — byte-identical across
    executions of the same digest."""
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def _crash_evidence(counters: dict) -> bool:
    """Pool-sickness signal for the circuit breaker.

    Worker crashes and pool rebuilds are the classic evidence; native
    kernel crashes count too, so a crash-storming kernel trips the
    breaker pool→serial exactly like a sick worker pool does.
    """
    return bool(counters.get("pool_rebuilds", 0)
                or counters.get("worker_crashes", 0)
                or counters.get("native_kernel_crashes", 0)
                or counters.get("workers_lost", 0))


def _models(spec: ServiceJobSpec) -> list[Model]:
    # Canonical order regardless of submission order: the result JSON
    # must not depend on how the client spelled the list.
    requested = set(spec.models)
    return [m for m in Model if m.name.lower() in requested]


def _measure(suite: ExperimentSuite, spec: ServiceJobSpec) -> dict:
    machine = spec.machine()
    if spec.kind == "figures":
        table = suite.speedups(machine)
        return {"kind": "figures", "machine": machine.name,
                "scale": spec.scale,
                "speedups": {name: {model.name.lower(): round(value, 6)
                                    for model, value in row.items()}
                             for name, row in sorted(table.items())}}
    rows: dict[str, dict] = {}
    for w in spec.workloads():
        base = suite.run(w.name, Model.SUPERBLOCK,
                         scalar_machine()).cycles
        per_model: dict[str, dict] = {}
        for model in _models(spec):
            run = suite.run(w.name, model, machine)
            stats = run.stats
            per_model[model.name.lower()] = {
                "cycles": stats.cycles,
                "speedup": round(base / stats.cycles, 6),
                "instructions": stats.executed_instructions,
                "branches": stats.branches,
                "mispredictions": stats.mispredictions,
                "return_value": run.return_value,
                "static_size": run.static_size,
            }
        rows[w.name] = {"baseline_cycles": base, "models": per_model}
    return {"kind": spec.kind, "machine": machine.name,
            "scale": spec.scale, "workloads": rows}


def _tasks_total(spec: ServiceJobSpec) -> int:
    """Expected progress-bearing task count for ``repro watch``.

    Counts the simulate-granularity tasks the run journals: the
    figures suite simulates all three models plus the scalar baseline
    per workload; bench/source runs simulate the requested models plus
    the baseline per workload.
    """
    n_workloads = len(spec.workloads())
    if spec.kind == "figures":
        return (len(Model) + 1) * n_workloads
    return (len(_models(spec)) + 1) * n_workloads


def execute_job(spec: ServiceJobSpec, cache_dir: str, run_id: str,
                jobs: int = 1,
                deadline_remaining: float | None = None
                ) -> ExecutionOutcome:
    """Run one job to completion against the shared store.

    Raises typed taxonomy errors only (the suite's handlers classify);
    an emulation-watchdog expiry under a job deadline is re-raised as
    :class:`DeadlineExceededError`.
    """
    if deadline_remaining is not None and deadline_remaining <= 0:
        raise DeadlineExceededError(
            f"deadline of {spec.deadline:g}s expired before execution "
            f"started", deadline=spec.deadline or 0.0,
            elapsed=(spec.deadline or 0.0) - deadline_remaining)
    resume = journal_path(f"{cache_dir}/runs", run_id).exists()
    start = time.monotonic()
    if spec.kind == "sweep":
        return _execute_sweep(spec, cache_dir, run_id, jobs,
                              deadline_remaining, resume, start)
    suite = ExperimentSuite(
        workloads=spec.workloads(), scale=spec.scale,
        max_steps=spec.max_steps, cache_dir=cache_dir, jobs=jobs,
        run_id=run_id, resume=resume,
        wall_clock_budget=deadline_remaining,
        journal_meta={"kind": spec.kind,
                      "tasks_total": _tasks_total(spec)})
    try:
        result = _measure(suite, spec)
    except BaseException as exc:
        suite.close_journal(ok=False)
        mapped = _map_deadline(exc, spec, deadline_remaining)
        if mapped is exc:
            raise
        raise mapped from exc
    suite.close_journal(ok=True)
    counters = suite.metrics.to_dict()
    return ExecutionOutcome(
        result_json=result_to_json(result),
        counters=counters,
        crash_evidence=_crash_evidence(counters),
        resumed_tasks=len(suite.resumed_verified),
        wall_seconds=time.monotonic() - start)


def _map_deadline(exc: BaseException, spec: ServiceJobSpec,
                  deadline_remaining: float | None) -> BaseException:
    """An emulation-watchdog expiry under a job deadline is the job's
    deadline expiring."""
    if isinstance(exc, EmulationTimeout) \
            and deadline_remaining is not None:
        return DeadlineExceededError(
            f"deadline of {spec.deadline:g}s expired during "
            f"emulation: {exc}", deadline=spec.deadline or 0.0,
            elapsed=exc.elapsed)
    return exc


def _execute_sweep(spec: ServiceJobSpec, cache_dir: str, run_id: str,
                   jobs: int, deadline_remaining: float | None,
                   resume: bool, start: float) -> ExecutionOutcome:
    """Sweep jobs delegate to the sweep runner (which owns its own
    suite, journal and plan) and return the canonical SweepResult.

    When registered cluster workers are alive on this store, the sweep
    routes through the cluster coordinator instead — the workers
    execute the shards, and the final aggregation pass over the warm
    store keeps the result byte-identical to the in-process path.
    """
    from repro.service.cluster import (ClusterConfig, live_worker_ids,
                                       run_cluster_sweep)
    sweep_spec = SweepSpec.from_dict(spec.sweep)
    try:
        if live_worker_ids(cache_dir):
            outcome = run_cluster_sweep(
                sweep_spec, cache_dir,
                ClusterConfig(expect_workers=0, worker_grace=0.0),
                jobs=jobs, run_id=run_id, resume=resume,
                wall_clock_budget=deadline_remaining)
        else:
            outcome = run_sweep(
                sweep_spec, cache_dir=cache_dir, jobs=jobs,
                run_id=run_id, resume=resume,
                wall_clock_budget=deadline_remaining)
    except BaseException as exc:
        mapped = _map_deadline(exc, spec, deadline_remaining)
        if mapped is exc:
            raise
        raise mapped from exc
    counters = outcome.metrics.to_dict()
    return ExecutionOutcome(
        result_json=outcome.result.to_json(),
        counters=counters,
        crash_evidence=_crash_evidence(counters),
        resumed_tasks=outcome.resumed_tasks,
        wall_seconds=time.monotonic() - start)
