"""Optimize once per (workload, model), schedule per machine.

The passes never read the machine, so ``PipelineContext.compiled``
memoizes their output per (workload, model) and stores it as an
``optimized`` artifact; each machine only clones and schedules it.
These tests pin that the memo changes no compiled program, that the
memoized program survives its schedules untouched, and that the store
and the parallel plan both reuse one optimization per model.
"""

import dataclasses

import pytest

from repro.engine.scheduler import execute_jobs
from repro.engine.serialize import pack, unpack
from repro.engine.stages import PipelineContext
from repro.engine.store import ArtifactStore
from repro.experiments.runner import ExperimentSuite, scaled_fig11_machine
from repro.ir.printer import format_function
from repro.machine.descriptor import (fig8_machine, fig9_machine,
                                      fig10_machine, scalar_machine)
from repro.robustness.passgate import PassGate
from repro.toolchain import Model, compile_for_model, optimize_for_model
from repro.workloads.base import get_workload
from tests.engine import jobhelpers

SCALE = 0.05
MACHINES = (fig8_machine(), fig9_machine(), fig10_machine(),
            scaled_fig11_machine(), scalar_machine())


def _printed(compiled):
    text = [format_function(fn, compiled.schedule.cycles)
            for fn in compiled.program.functions.values()]
    return text + [f"speculated {compiled.schedule.speculated}"]


def _printed_unscheduled(program):
    return [format_function(fn) for fn in program.functions.values()]


@pytest.mark.parametrize("name", ["wc", "grep"])
def test_memo_path_prints_like_one_shot_compiles(name):
    workload = get_workload(name)
    ctx = PipelineContext(scale=SCALE)
    base = ctx.frontend_program(workload)
    profile = ctx.profile(workload)
    for machine in MACHINES:
        for model in Model:
            fresh = compile_for_model(base, model, profile, machine)
            assert _printed(ctx.compiled(workload, model, machine)) \
                == _printed(fresh), (machine.name, model)
    memo = ctx._optimized[ctx.profile_key(workload)]
    assert set(memo) == set(Model)
    for model, optimized in memo.items():
        # Every schedule worked on a clone: the memoized program still
        # prints as the passes left it.
        again = optimize_for_model(base, model, profile)
        assert _printed_unscheduled(optimized.program) \
            == _printed_unscheduled(again.program), model


def test_second_context_reuses_stored_optimizations(tmp_path, monkeypatch):
    workload = get_workload("wc")
    cold = PipelineContext(scale=SCALE, store=ArtifactStore(tmp_path))
    for model in Model:
        cold.compiled(workload, model, fig8_machine())
    assert cold.metrics.cache["optimized"].misses == len(Model)

    runs = []
    original = PassGate.run

    def counting(self, *args, **kwargs):
        runs.append(args[1])
        return original(self, *args, **kwargs)
    monkeypatch.setattr(PassGate, "run", counting)

    two_issue = scalar_machine().with_issue(2, 1)
    warm = PipelineContext(scale=SCALE, store=ArtifactStore(tmp_path))
    for model in Model:
        compiled = warm.compiled(workload, model, two_issue)
        assert compiled.machine is two_issue
    assert runs == []
    assert warm.metrics.cache["optimized"].hits == len(Model)
    assert warm.metrics.cache["optimized"].misses == 0
    assert warm.metrics.stages["compile"].invocations == len(Model)


def test_dag_memo_stays_out_of_the_optimized_artifact():
    """The first schedule fills the liveness and edge-list memos; the
    stored artifact carries the liveness but never the edge lists, so
    it packs to the same bytes after one machine and after four."""
    workload = get_workload("grep")
    ctx = PipelineContext(scale=SCALE)
    ctx.compiled(workload, Model.FULLPRED, MACHINES[0])
    optimized = ctx._optimized[ctx.profile_key(workload)][Model.FULLPRED]
    assert optimized.dags and optimized.live
    after_one = pack("optimized", optimized)
    for machine in MACHINES[1:4]:
        ctx.compiled(workload, Model.FULLPRED, machine)
    assert pack("optimized", optimized) == after_one
    assert pack("optimized", dataclasses.replace(optimized, dags={})) \
        == after_one
    loaded = unpack(after_one, "optimized")
    assert loaded.dags == {} and loaded.live.keys() == optimized.live.keys()


def test_parallel_suite_optimizes_once_per_model(tmp_path):
    wc = get_workload("wc")
    serial = ExperimentSuite(workloads=[wc], scale=0.2)
    parallel = ExperimentSuite(workloads=[wc], scale=0.2,
                               cache_dir=str(tmp_path), jobs=2)
    try:
        assert parallel.figure8() == serial.figure8()
        assert parallel.figure9() == serial.figure9()
    finally:
        parallel.close_journal()
    # Fig. 8, Fig. 9 and the scalar baseline: seven compiles, three
    # optimizations.
    assert parallel.metrics.cache["optimized"].misses == len(Model)
    assert parallel.metrics.stages["compile"].invocations == 7


def _plan(suite, monkeypatch):
    """The jobs ``suite.prefetch`` would run for Fig. 8 and Fig. 9."""
    captured = []
    monkeypatch.setattr(suite, "execute_plan", captured.extend)
    suite.prefetch([(fig8_machine(), tuple(Model)),
                    (fig9_machine(), tuple(Model)),
                    (scalar_machine(), (Model.SUPERBLOCK,))])
    monkeypatch.undo()
    return captured


def test_later_compiles_of_a_model_wait_for_the_first(tmp_path,
                                                      monkeypatch):
    suite = ExperimentSuite(workloads=[get_workload("wc")], scale=SCALE,
                            cache_dir=str(tmp_path), jobs=2)
    compiles = [job for job in _plan(suite, monkeypatch)
                if job.stage == "measure"]
    suite.close_journal()
    for model in Model:
        ids = [job for job in compiles
               if job.job_id.startswith(f"measure:wc:{model.name}:")]
        assert ids[0].deps == ("prepare:wc",)
        assert all(job.deps == (ids[0].job_id,) for job in ids[1:])
    assert len(compiles) == 7


def test_failed_first_compile_skips_its_dependents(tmp_path, monkeypatch):
    suite = ExperimentSuite(workloads=[get_workload("wc")], scale=SCALE,
                            cache_dir=str(tmp_path), jobs=2)
    try:
        jobs = _plan(suite, monkeypatch)
    finally:
        suite.close_journal()
    first = next(job for job in jobs
                 if job.job_id.startswith("measure:wc:SUPERBLOCK:"))
    jobs = [dataclasses.replace(job, fn=jobhelpers.fail)
            if job is first else job for job in jobs]
    outcome = execute_jobs(jobs, max_workers=2)
    assert [(f.job_id, f.workload) for f in outcome.failures] \
        == [(first.job_id, "wc")]
    later = [job.job_id for job in jobs
             if job.job_id.startswith("measure:wc:SUPERBLOCK:")
             and job.job_id != first.job_id]
    assert len(later) == 2
    for job_id in later:
        assert outcome.skipped[job_id] == first.job_id
    # Nothing downstream of the failure ran, and nothing was dropped:
    # every job either finished, failed or was skipped.
    assert len(outcome.results) + len(outcome.failures) \
        + len(outcome.skipped) == len(jobs)
    assert all(not job_id.startswith("measure:wc:SUPERBLOCK:")
               for job_id in outcome.results)
