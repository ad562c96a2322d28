"""Performance observability: byte accounting and the ``--bench-json``
snapshot."""

import json

from repro.engine.keys import stable_digest
from repro.engine.metrics import PipelineMetrics
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
    store.put("optimized", KEY, list(range(500)))
    stats = store.stats()
    assert stats.bytes_by_kind["stats"] > 0
    assert stats.bytes_by_kind["optimized"] > stats.bytes_by_kind["stats"]
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

    # A bench JSON is a snapshot of one run: writing it again replaces
    # the earlier run's counters instead of adding to them.
    path = tmp_path / "bench.json"
    parent.write_json(str(path))
    second = PipelineMetrics()
    second.record_write("stats", 7)
    second.write_json(str(path))
    data = json.loads(path.read_text())
    assert data == second.to_dict()
    assert data["cache"]["stats"]["bytes_written"] == 7
    assert data["cache"]["stats"]["bytes_read"] == 0
    assert "history" not in data
