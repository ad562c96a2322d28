"""Performance observability: byte accounting, regression comparison,
timing trajectories, per-stage profiling."""

import json

from repro.engine.keys import stable_digest
from repro.engine.metrics import (PipelineMetrics, compare_stage_walltimes)
from repro.engine.profiling import StageProfiler
from repro.engine.store import ArtifactStore

KEY = stable_digest("perf", "inputs")


# ----- byte accounting -----------------------------------------------------

def test_store_counts_bytes_written_and_read(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("stats", KEY, {"cycles": 42})
    written = store.metrics.cache["stats"].bytes_written
    assert written > 0
    store.get("stats", KEY)
    assert store.metrics.cache["stats"].bytes_read == written


def test_store_stats_reports_bytes_per_kind(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("stats", KEY, {"cycles": 42})
    store.put("compiled", KEY, list(range(500)))
    stats = store.stats()
    assert stats.bytes_by_kind["stats"] > 0
    assert stats.bytes_by_kind["compiled"] > stats.bytes_by_kind["stats"]
    assert stats.total_bytes == sum(stats.bytes_by_kind.values())
    assert "KiB" in stats.render()


def test_metrics_merge_and_json_carry_byte_counters(tmp_path):
    parent = PipelineMetrics()
    worker = PipelineMetrics()
    worker.record_hit("stats", 100)
    worker.record_write("stats", 250)
    parent.merge_dict(worker.to_dict())
    assert parent.cache["stats"].bytes_read == 100
    assert parent.cache["stats"].bytes_written == 250
    assert parent.to_dict()["cache"]["stats"]["bytes_written"] == 250


# ----- regression comparison ----------------------------------------------

def _bench(walls: dict[str, float], invocations: int = 10) -> dict:
    return {"stages": {name: {"wall_seconds": wall,
                              "invocations": invocations}
                       for name, wall in walls.items()}}


def test_compare_flags_only_regressed_stages():
    baseline = _bench({"emulate": 1.0, "simulate": 1.0})
    current = _bench({"emulate": 1.5, "simulate": 1.1})
    regressions = compare_stage_walltimes(current, baseline)
    assert len(regressions) == 1
    assert regressions[0].startswith("emulate:")


def test_compare_normalizes_per_invocation():
    # Twice the wall time for twice the work is not a regression.
    baseline = _bench({"emulate": 1.0}, invocations=10)
    current = _bench({"emulate": 2.0}, invocations=20)
    assert compare_stage_walltimes(current, baseline) == []


def test_compare_ignores_noise_floor_stages():
    baseline = _bench({"frontend": 0.001})
    current = _bench({"frontend": 0.010})
    assert compare_stage_walltimes(current, baseline) == []


def test_compare_tolerates_missing_stages():
    baseline = _bench({"emulate": 1.0, "bespoke": 1.0})
    assert compare_stage_walltimes(_bench({"emulate": 1.0}),
                                   baseline) == []


# ----- timing trajectory ---------------------------------------------------

def test_write_json_appends_dated_history(tmp_path):
    path = tmp_path / "bench.json"
    metrics = PipelineMetrics()
    with metrics.timer("emulate"):
        pass
    metrics.write_json(str(path))
    metrics.write_json(str(path))
    data = json.loads(path.read_text())
    assert len(data["history"]) == 2
    for entry in data["history"]:
        assert "date" in entry
        assert "emulate" in entry["stages"]


def test_write_json_survives_pre_history_baseline(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"stages": {}}))
    metrics = PipelineMetrics()
    metrics.write_json(str(path))
    assert len(json.loads(path.read_text())["history"]) == 1


# ----- per-stage profiling -------------------------------------------------

def test_stage_profiler_writes_pstats_and_summary(tmp_path):
    metrics = PipelineMetrics()
    metrics.profiler = StageProfiler(top=5)
    with metrics.timer("emulate"):
        stable_digest("some", "work")
    with metrics.timer("simulate"):
        stable_digest("other", "work")
    written = metrics.profiler.write(tmp_path)
    names = {p.rsplit("/", 1)[-1] for p in written}
    assert names == {"profile_emulate.pstats", "profile_simulate.pstats",
                     "profile_summary.txt"}
    summary = (tmp_path / "profile_summary.txt").read_text()
    assert "stage: emulate" in summary and "stage: simulate" in summary
    assert "stable_digest" in summary


def test_profiler_accumulates_across_invocations(tmp_path):
    metrics = PipelineMetrics()
    metrics.profiler = StageProfiler()
    for _ in range(3):
        with metrics.timer("emulate"):
            stable_digest("x")
    assert metrics.profiler.stages == ["emulate"]
    assert metrics.stages["emulate"].invocations == 3


def test_cli_compare_of_a_vector_bench_json_with_itself_exits_zero(
        tmp_path, capsys):
    """``--engine vector --compare`` applies only the 25% stage gate: a
    vector-engine bench JSON compared with itself is clean."""
    from argparse import Namespace

    from repro.cli import _print_metrics
    metrics = PipelineMetrics()
    metrics.record_stage("emulate", 0.4, invocations=4)
    metrics.record_stage("simulate", 0.2, invocations=4)
    path = tmp_path / "bench.json"
    metrics.write_json(str(path))
    args = Namespace(engine="vector", compare=str(path))
    assert _print_metrics(metrics, args) == 0
    assert "no stage regressions" in capsys.readouterr().err


def test_analyses_microbenchmark_times_liveness_and_build_dag():
    from repro.fastpath import micro
    results = micro.bench_analyses(repeat=1)
    assert [r.name for r in results] == ["liveness", "build-dag"]
    assert all(r.legacy_ns is None and r.fast_ns > 0 for r in results)
    table = micro.render(results)
    assert "liveness" in table and "build-dag" in table
