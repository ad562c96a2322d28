"""Sweep execution: determinism, schedule-digest sharing, resume."""

import json

import pytest

from repro.engine.recovery.journal import journal_path, replay_journal
from repro.engine.stages import PipelineContext
from repro.robustness.errors import ReproError
from repro.sweep import SweepSpec, run_sweep

SPEC = dict(name="t", workloads=("wc",), models=("superblock", "cmov"),
            issue_widths=(1, 2), caches=("perfect", "real"), scale=0.2,
            max_steps=2_000_000)


def _spec(**over):
    return SweepSpec(**{**SPEC, **over})


def test_serial_and_parallel_results_are_byte_identical(tmp_path):
    serial = run_sweep(_spec(), cache_dir=str(tmp_path / "a"), jobs=1)
    parallel = run_sweep(_spec(), cache_dir=str(tmp_path / "b"), jobs=4)
    assert serial.result.to_json() == parallel.result.to_json()


def test_no_store_serial_matches_store_backed(tmp_path):
    bare = run_sweep(_spec())
    stored = run_sweep(_spec(), cache_dir=str(tmp_path), jobs=2)
    assert bare.result.to_json() == stored.result.to_json()


def test_warm_rerun_is_zero_compute(tmp_path):
    run_sweep(_spec(), cache_dir=str(tmp_path), jobs=1)
    warm = run_sweep(_spec(), cache_dir=str(tmp_path), jobs=1)
    assert warm.points_cached == warm.points_total == 4
    for stage in ("compile", "emulate", "simulate"):
        assert warm.metrics.stages[stage].invocations == 0
    assert warm.metrics.sweep_points_cached == 4


def test_compiles_shared_across_cache_configs(tmp_path):
    outcome = run_sweep(_spec(), cache_dir=str(tmp_path), jobs=1)
    # 2 widths x 2 models compile jobs; perfect vs real caches share a
    # schedule digest so they never compile twice.  (The lattice holds
    # 4 points = 2 widths x 2 cache modes.)
    assert outcome.points_total == 4
    assert outcome.metrics.stages["compile"].invocations == 4
    # The passes run once per model; the second width only schedules,
    # from the in-memory optimization (the serial path never reads it
    # back from the store).
    assert outcome.metrics.cache["optimized"].misses == 2
    assert outcome.metrics.cache["optimized"].hits == 0


def test_serial_sweep_emulates_once_and_reads_no_trace_back(tmp_path):
    outcome = run_sweep(_spec(), cache_dir=str(tmp_path), jobs=1)
    metrics = outcome.metrics
    # 2 models x 2 widths: the cache modes of a width share its trace,
    # and the 1-issue baseline is point 0's superblock stats.
    assert metrics.stages["emulate"].invocations == 4
    assert "execution" not in metrics.cache
    assert not list(tmp_path.glob("v*/execution"))
    assert metrics.jobs_dispatched == 0


def test_serial_sweep_holds_one_workload_model_of_traces(monkeypatch):
    real = PipelineContext.execution
    held: list[int] = []

    def spy(ctx, *args):
        held.append(len(ctx._execution))
        execution = real(ctx, *args)
        held.append(len(ctx._execution))
        return execution

    monkeypatch.setattr(PipelineContext, "execution", spy)
    run_sweep(_spec(workloads=("wc", "qsort")))
    assert held
    # the two widths of one (workload, model); the baseline is measured
    # after their release and is point 0's memoized superblock stats
    assert max(held) <= 2


def test_speedups_match_experiment_suite(tmp_path):
    from repro.experiments.runner import ExperimentSuite
    from repro.machine.descriptor import scalar_machine
    from repro.toolchain import Model
    from repro.workloads import get_workload
    outcome = run_sweep(_spec(), cache_dir=str(tmp_path), jobs=1)
    suite = ExperimentSuite(workloads=[get_workload("wc")], scale=0.2,
                            max_steps=2_000_000)
    base = suite.run("wc", Model.SUPERBLOCK, scalar_machine()).cycles
    assert outcome.result.baseline_cycles["wc"] == base
    point = outcome.result.points[0]
    assert point["axes"]["issue_width"] == 1
    machine = _spec().expand()[0].machine
    cycles = suite.run("wc", Model.SUPERBLOCK, machine).cycles
    assert point["workloads"]["wc"]["superblock"]["cycles"] == cycles


def test_journal_records_sweep_tasks(tmp_path):
    outcome = run_sweep(_spec(), cache_dir=str(tmp_path), jobs=1)
    state = replay_journal(journal_path(tmp_path / "runs",
                                        outcome.run_id))
    simulated = {t for t in state.completed if t.startswith("simulate:")}
    # 4 points x 2 models; the 1-issue baseline is point 0's
    # superblock triple (same machine digest), so it adds no task
    assert len(simulated) == 8
    assert state.finished
    assert state.meta["kind"] == "sweep"


def test_crash_then_resume_recomputes_zero_completed_points(
        tmp_path, monkeypatch):
    """A run that dies mid-sweep resumes to byte-identical output and
    starts no task its journal proved complete."""
    import repro.sweep.runner as runner_mod
    real = runner_mod.simulate_point
    calls = {"n": 0}

    def dying(suite, workload, model, machine):
        calls["n"] += 1
        if calls["n"] == 3:
            raise ReproError("injected crash")  # non-transient: no retry
        return real(suite, workload, model, machine)

    monkeypatch.setattr(runner_mod, "simulate_point", dying)
    with pytest.raises(ReproError, match="injected crash"):
        run_sweep(_spec(), cache_dir=str(tmp_path), jobs=1,
                  run_id="RCRASH")
    monkeypatch.setattr(runner_mod, "simulate_point", real)
    jpath = journal_path(tmp_path / "runs", "RCRASH")
    done_before = set(replay_journal(jpath).completed)
    assert done_before  # the crash landed mid-sweep

    resumed = run_sweep(_spec(), cache_dir=str(tmp_path), jobs=1,
                        run_id="RCRASH", resume=True)
    reference = run_sweep(_spec(), cache_dir=str(tmp_path / "ref"))
    assert resumed.result.to_json() == reference.result.to_json()
    entries = [json.loads(line) for line in
               jpath.read_bytes().splitlines() if line.strip()]
    resume_at = next(i for i, r in enumerate(entries)
                     if r.get("type") == "run-resume")
    restarted = [r["task"] for r in entries[resume_at:]
                 if r.get("type") == "task-start"
                 and r.get("task") in done_before]
    assert restarted == []
    assert replay_journal(jpath).finished


def test_sweep_counters_recorded(tmp_path):
    outcome = run_sweep(_spec(), cache_dir=str(tmp_path), jobs=1)
    metrics = outcome.metrics.to_dict()
    assert metrics["sweep_points_total"] == 4
    assert metrics["sweep_points_cached"] == 0
    assert metrics["sweep_points_per_second"] > 0
    assert "sweep" in outcome.metrics.render()


def test_latency_axis_changes_measured_cycles(tmp_path):
    spec = _spec(issue_widths=(8,), caches=("perfect",),
                 models=("superblock",),
                 latency_sets=(("pa7100", ()),
                               ("slowload", (("load", 6),))))
    outcome = run_sweep(spec, cache_dir=str(tmp_path), jobs=1)
    by_set = {p["axes"]["latencies"]:
              p["workloads"]["wc"]["superblock"]["cycles"]
              for p in outcome.result.points}
    assert by_set["slowload"] > by_set["pa7100"]
