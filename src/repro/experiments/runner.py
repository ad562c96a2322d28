"""Experiment harness: regenerates every table and figure of the paper.

The :class:`ExperimentSuite` compiles each workload once per (model,
issue configuration), emulates it once per compiled binary, and then
simulates the recorded trace under as many machine configurations as
needed — exactly the paper's emulation-driven-simulation methodology,
with the emulation cost amortized across processor models.

The pipeline itself lives in :class:`repro.engine.stages.PipelineContext`:
stages are memoized under stable content digests and, when ``cache_dir``
is set, persisted to a content-addressed artifact store so a repeated
figure run performs zero compilations and emulations.  Only results
are stored; a trace lives in the process that emulated it.  ``jobs > 1``
fans one compile+emulate+simulate job per compiled program across a
process pool via the DAG scheduler; a failed job raises its typed
error like a failure in process.

Speedups divide the 1-issue baseline (superblock) cycle count by the
evaluated configuration's cycle count, as in Section 4.1.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.emu.trace import ExecutionResult
from repro.engine.metrics import PipelineMetrics
from repro.engine.recovery.journal import RunJournal, verify_completed
from repro.engine.recovery.retry import RetryPolicy, is_transient
from repro.engine.scheduler import (Job, JobFailure, SchedulerOutcome,
                                   execute_jobs)
from repro.engine.stages import PipelineContext, RunSummary
from repro.engine.store import ArtifactStore
from repro.engine.workers import JobSpec, measure, prepare_workload
from repro.engines import DEFAULT_ENGINE
from repro.machine.descriptor import (CacheConfig, MachineDescription,
                                      fig8_machine, fig9_machine,
                                      fig10_machine, scalar_machine)
from repro.robustness.differential import assert_equivalent
from repro.robustness.errors import ReproError, classify_exception
from repro.sim.pipeline import SimulationStats
from repro.toolchain import Model, ToolchainOptions
from repro.workloads.base import Workload, all_workloads


def scaled_fig11_machine() -> MachineDescription:
    """Figure 11 machine with caches scaled to the kernel workloads.

    The paper uses 64K caches against full SPEC footprints; our scaled
    kernels (KBs of code and data) fit entirely in 64K, so the real-cache
    experiment uses proportionally scaled caches (1K instruction / 2K
    data, same 64-byte lines and 12-cycle miss penalty).  EXPERIMENTS.md
    records this substitution.
    """
    m = MachineDescription(name="8-issue,1-branch,scaled-caches",
                           issue_width=8, branch_issue_limit=1)
    return m.with_real_caches(CacheConfig(size_bytes=1024),
                              CacheConfig(size_bytes=2048))


@dataclass
class WorkloadRun:
    """Everything measured for one (workload, model, machine) triple."""

    workload: str
    model: Model
    machine: MachineDescription
    stats: SimulationStats
    return_value: int | float
    static_size: int

    @property
    def cycles(self) -> int:
        return self.stats.cycles


@dataclass
class ExperimentSuite:
    """Caches compilations/emulations across experiment queries.

    The first failure of any workload raises its typed error.
    ``options.paranoid`` additionally verifies the IR after every pass
    and every recorded trace's integrity; ``max_steps`` bounds each
    emulation.

    ``cache_dir`` attaches the content-addressed artifact store (None
    keeps everything in-memory, as hermetic tests expect); ``jobs``
    selects the process-pool width for the prefetch DAG (1 = serial,
    in-process).  Pool workers hand their ``stats`` back through the
    store (traces stay in the worker), so ``jobs > 1`` without a
    ``cache_dir`` gets a throwaway temp store, which
    :meth:`close_journal` deletes.

    Every store-backed run is journaled: a ``run_id`` (generated unless
    given) names an fsync'd JSONL journal under ``<cache_dir>/runs/``
    recording each task's start/finish/failure and artifact digests.
    ``resume=True`` replays an earlier run's journal, re-verifies every
    recorded artifact against the store (quarantining digest
    mismatches), and re-executes only the unfinished frontier — a
    SIGKILLed figure run resumes to byte-identical output with zero
    recompute of completed tasks.  ``retry`` bounds transient-failure
    retries in the scheduler (None: the default policy).
    """

    workloads: list[Workload] = field(default_factory=all_workloads)
    scale: float = 1.0
    options: ToolchainOptions | None = None
    max_steps: int = 20_000_000
    cache_dir: str | None = None
    jobs: int = 1
    #: execution engine for emulate/simulate (see :mod:`repro.engines`);
    #: artifacts are engine-free, so mixing engines over one store is
    #: safe and byte-identical
    engine: str = DEFAULT_ENGINE
    run_id: str | None = None
    resume: bool = False
    retry: RetryPolicy | None = None
    #: extra keys merged into the journal's run-start meta (e.g. a
    #: sweep's kind, name and digest)
    journal_meta: dict | None = None

    def __post_init__(self):
        if self.options is None:
            self.options = ToolchainOptions()
        #: True when the suite made ``cache_dir`` itself: nothing can
        #: resume from it, and :meth:`close_journal` deletes it
        self.owns_cache_dir = self.jobs > 1 and self.cache_dir is None
        if self.owns_cache_dir:
            self.cache_dir = tempfile.mkdtemp(prefix="repro-cache-")
        store = ArtifactStore(self.cache_dir) \
            if self.cache_dir is not None else None
        self.ctx = PipelineContext(
            scale=self.scale, options=self.options,
            max_steps=self.max_steps, store=store, engine=self.engine)
        self._by_name = {w.name: w for w in self.workloads}
        self.journal: RunJournal | None = None
        #: tasks the resumed journal proved complete (artifacts verified)
        self.resumed_verified: set[str] = set()
        #: task -> reason a journal completion claim failed verification
        self.resumed_invalid: dict[str, str] = {}
        self._journaled: set[str] = set()
        if store is not None:
            self._open_journal(store)

    # ----- run journal ----------------------------------------------------

    def _open_journal(self, store: ArtifactStore) -> None:
        runs_dir = Path(self.cache_dir) / "runs"
        if self.resume:
            if self.run_id is None:
                raise ValueError("resume=True requires a run_id")
            self.journal, state = RunJournal.resume(runs_dir, self.run_id)
            self.resumed_verified, self.resumed_invalid = \
                verify_completed(state, store)
            self._journaled |= self.resumed_verified
        else:
            meta = {"scale": self.scale, "jobs": self.jobs,
                    "max_steps": self.max_steps,
                    "workloads": [w.name for w in self.workloads]}
            if self.journal_meta:
                meta.update(self.journal_meta)
            self.journal = RunJournal.create(runs_dir, self.run_id,
                                             meta=meta)
            self.run_id = self.journal.run_id

    def close_journal(self, ok: bool = True) -> None:
        """Append the run-finish record and release the file handle;
        delete the store too when the suite made it."""
        if self.journal is not None:
            self.journal.run_finish(ok)
            self.journal.close()
            self.journal = None
        if self.owns_cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def journal_summary(self) -> str:
        """One-line resume/progress description for the CLI."""
        if self.run_id is None:
            return "journaling disabled (no cache dir)"
        done = len(self._journaled - self.resumed_verified)
        parts = [f"run {self.run_id}: {done} tasks completed"]
        if self.resume:
            parts.append(f"{len(self.resumed_verified)} resumed "
                         f"(journal-verified, zero recompute)")
            if self.resumed_invalid:
                parts.append(f"{len(self.resumed_invalid)} failed "
                             f"verification (recomputed)")
        return ", ".join(parts)

    def _journal_artifacts(self, pairs) -> list[tuple[str, str, str]]:
        store = self.ctx.store
        return [(kind, key, store.digest_of(kind, key) or "")
                for kind, key in pairs]

    def _journal_finish(self, task: str, pairs) -> None:
        if self.journal is not None:
            self.journal.task_finish(task, self._journal_artifacts(pairs))

    def _on_job_complete(self, job: Job, _result) -> None:
        """Scheduler callback: make each pool job's completion durable."""
        self._journaled.add(job.job_id)
        self._journal_finish(job.job_id, job.artifacts)

    @property
    def metrics(self) -> PipelineMetrics:
        """Per-stage wall time and cache hit/miss counters."""
        return self.ctx.metrics

    # ----- pipeline stages (delegated to the engine) ----------------------

    def _workload(self, name: str) -> Workload:
        return self._by_name[name]

    def _frontend(self, name: str):
        return self.ctx.frontend_program(self._workload(name))

    def _compile(self, name: str, model: Model,
                 machine: MachineDescription):
        return self.ctx.compiled(self._workload(name), model, machine)

    def _emulate(self, name: str, model: Model,
                 machine: MachineDescription) -> ExecutionResult:
        return self.ctx.execution(self._workload(name), model, machine)

    # ----- parallel prefetch ----------------------------------------------

    def _job_spec(self, name: str, model: Model,
                  machines: tuple[MachineDescription, ...]) -> JobSpec:
        return JobSpec(cache_dir=self.cache_dir, workload=name,
                       model_name=model.name, machines=machines,
                       scale=self.scale, options=self.options,
                       max_steps=self.max_steps, engine=self.engine)

    def prefetch(self, targets: list[
            tuple[MachineDescription, tuple[Model, ...]]]) -> None:
        """Populate the artifact store with the ``stats`` of the exact
        (machine, models) pairs a figure query will consume.

        Builds a two-stage job DAG (prepare -> measure), skips every
        triple whose stats are already stored, and fans the rest across
        ``jobs`` pool workers.  One measure job covers a (workload,
        model, compile key): it compiles, emulates once and simulates
        every target machine sharing that compiled program, so neither
        the program nor its trace leaves the worker.  Every measure job
        of a (workload, model) after the first depends on the first, so
        it reads the stored optimized program instead of running the
        passes again.  The plan is per-machine precise — the speedup
        figures need all three models on the evaluated machine but
        only SUPERBLOCK on the scalar baseline, and prefetching more
        would make a warm serial cache look cold to the parallel path.
        No-op when running serially or without a store.
        """
        store = self.ctx.store
        if self.jobs <= 1 or store is None:
            return
        jobs: list[Job] = []
        for w in self.workloads:
            # (model, compile key) -> stats key -> machine
            groups: dict[tuple[Model, str],
                         dict[str, MachineDescription]] = {}
            for machine, models in targets:
                for model in models:
                    skey = self.ctx.stats_key(w, model, machine)
                    if not store.contains("stats", skey):
                        ce_key = self.ctx.compile_key(w, model, machine)
                        groups.setdefault((model, ce_key), {})[skey] = \
                            machine
            if not groups:
                continue
            prep_id = f"prepare:{w.name}"
            first_model = next(iter(groups))[0]
            jobs.append(Job(
                job_id=prep_id, fn=prepare_workload,
                args=(self._job_spec(w.name, first_model, ()),),
                workload=w.name, stage="prepare"))
            first_compile: dict[Model, str] = {}
            for (model, ce_key), machines in groups.items():
                job_id = f"measure:{w.name}:{model.name}:{ce_key[:12]}"
                jobs.append(Job(
                    job_id=job_id, fn=measure,
                    args=(self._job_spec(w.name, model,
                                         tuple(machines.values())),),
                    deps=(first_compile.get(model, prep_id),),
                    workload=w.name, stage="measure",
                    artifacts=tuple(("stats", skey) for skey in machines)))
                first_compile.setdefault(model, job_id)
        self.execute_plan(jobs)

    def execute_plan(self, jobs: list[Job]) -> SchedulerOutcome | None:
        """Journal and execute a job DAG.

        Every job's start/finish lands in the run journal, pool-worker
        counters merge into :attr:`metrics`, and the first failure
        raises its typed error.  Returns the scheduler's outcome (None
        for an empty plan).
        """
        if not jobs:
            return None
        self.metrics.jobs_dispatched += len(jobs)
        if self.journal is not None:
            for job in jobs:
                self.journal.task_start(job.job_id)
        outcome = execute_jobs(jobs, max_workers=self.jobs,
                               retry=self.retry, metrics=self.metrics,
                               on_complete=self._on_job_complete)
        for counters in outcome.results.values():
            self.metrics.merge_dict(counters)
        self._absorb_job_failures(outcome.failures)
        return outcome

    def _absorb_job_failures(self, failures: list[JobFailure]) -> None:
        """Journal the first scheduler failure and raise its typed
        error."""
        if not failures:
            return
        failure = failures[0]
        if failure.crashed:
            self.metrics.worker_crashes += 1
        if self.journal is not None:
            self.journal.task_fail(
                failure.job_id, failure.error_type, failure.message,
                transient=failure.transient, attempt=failure.attempts)
        if failure.exception is not None:
            raise failure.exception
        raise ReproError(f"worker crashed during {failure.stage} of "
                         f"{failure.workload}: {failure.message}")

    # ----- public queries ----------------------------------------------------

    def run(self, name: str, model: Model,
            machine: MachineDescription) -> WorkloadRun:
        """Simulate one (workload, model, machine) triple (memoized).

        Against a warm artifact store this performs no compilation,
        emulation or simulation — the :class:`RunSummary` is served
        straight from the store.
        """
        w = self._workload(name)
        task = None
        if self.journal is not None:
            skey = self.ctx.stats_key(w, model, machine)
            task = f"simulate:{name}:{model.name}:{skey[:12]}"
        if task is not None and task not in self._journaled:
            self.journal.task_start(task)
            try:
                summary: RunSummary = self.ctx.run_summary(
                    w, model, machine)
            except Exception as raw:
                # Journal and re-raise the *classified* failure, so
                # both the journal record and whoever catches it (the
                # CLI's exit-code mapping) see a typed taxonomy member.
                exc = classify_exception(raw)
                self.journal.task_fail(
                    task, type(exc).__name__, str(exc),
                    transient=is_transient(exc))
                if exc is raw:
                    raise
                raise exc from raw
            self._journaled.add(task)
            self._journal_finish(task, (("stats", skey),))
        else:
            summary = self.ctx.run_summary(w, model, machine)
        return WorkloadRun(workload=name, model=model, machine=machine,
                           stats=summary.stats,
                           return_value=summary.return_value,
                           static_size=summary.static_size)

    def baseline_cycles(self, name: str) -> int:
        """1-issue superblock cycles — the speedup denominator."""
        return self.run(name, Model.SUPERBLOCK, scalar_machine()).cycles

    def check_model_agreement(self, name: str,
                              machine: MachineDescription) -> None:
        """All three models must compute observably identical programs.

        Beyond the scalar return value, the differential oracle compares
        the dynamic output (store) stream and the final global memory
        state; raises :class:`ModelDivergenceError` naming the divergent
        model and observable.
        """
        reference = self._emulate(name, Model.SUPERBLOCK, machine)
        for model in (Model.CMOV, Model.FULLPRED):
            candidate = self._emulate(name, model, machine)
            assert_equivalent(candidate, reference, workload=name,
                              model=model.value,
                              reference_model=Model.SUPERBLOCK.value)

    def validate_models(self, machine: MachineDescription
                        ) -> dict[str, bool]:
        """Run the differential oracle over every workload.  The first
        divergence raises :class:`ModelDivergenceError`, so every
        workload in the returned map is True."""
        for w in self.workloads:
            self.check_model_agreement(w.name, machine)
        return {w.name: True for w in self.workloads}

    # ----- figure/table data ----------------------------------------------------

    def speedups(self, machine: MachineDescription
                 ) -> dict[str, dict[Model, float]]:
        """Per-benchmark speedups vs the 1-issue baseline (Figs 8-11)."""
        self.prefetch([(machine, tuple(Model)),
                       (scalar_machine(), (Model.SUPERBLOCK,))])
        return {w.name: {model: self.baseline_cycles(w.name)
                         / self.run(w.name, model, machine).cycles
                         for model in Model}
                for w in self.workloads}

    def dynamic_counts(self) -> dict[str, dict[Model, int]]:
        """Executed dynamic instruction counts (Table 2 data)."""
        machine = fig8_machine()
        self.prefetch([(machine, tuple(Model))])
        return {w.name: {model: self.run(w.name, model, machine)
                         .stats.executed_instructions for model in Model}
                for w in self.workloads}

    def branch_stats(self, machine: MachineDescription | None = None
                     ) -> dict[str, dict[Model, tuple[int, int, float]]]:
        """(branches, mispredictions, rate) per model (Table 3 data)."""
        if machine is None:
            machine = fig8_machine()
        self.prefetch([(machine, tuple(Model))])

        def row_for(w: Workload) -> dict[Model, tuple[int, int, float]]:
            row = {}
            for model in Model:
                stats = self.run(w.name, model, machine).stats
                row[model] = (stats.branches, stats.mispredictions,
                              stats.misprediction_rate)
            return row

        return {w.name: row_for(w) for w in self.workloads}

    # ----- the paper's experiments by number ------------------------------------

    def figure8(self):
        return self.speedups(fig8_machine())

    def figure9(self):
        return self.speedups(fig9_machine())

    def figure10(self):
        return self.speedups(fig10_machine())

    def figure11(self):
        return self.speedups(scaled_fig11_machine())


def mean_speedups(table: dict[str, dict[Model, float]]
                  ) -> dict[Model, float]:
    """Arithmetic mean across benchmarks (the paper's averages)."""
    out: dict[Model, float] = {}
    for model in Model:
        values = [row[model] for row in table.values()]
        out[model] = sum(values) / len(values) if values else 0.0
    return out
