"""Fault-tolerant campaign execution: coordinator + real workers.

The byte-identity contract under test: a sharded campaign — at any
worker count, through SIGKILLs and reassignments — produces the exact
``SweepResult`` bytes of a cold single-node ``run_sweep``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.engine.metrics import PipelineMetrics
from repro.robustness.errors import ReproError, SpecError
from repro.service.cluster import (ClusterConfig, ClusterOps,
                                   campaign_dir, execute_shard,
                                   live_worker_ids, open_campaign,
                                   run_cluster_sweep, workers_dir)
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec

SPEC = SweepSpec(name="cluster-t", scale=0.05, max_steps=2_000_000,
                 workloads=("wc",), models=("superblock",),
                 issue_widths=(2, 4))

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


def single_node_reference(tmp_path) -> str:
    out = run_sweep(SPEC, cache_dir=str(tmp_path / "ref-cache"), jobs=2)
    return out.result.to_json()


def test_zero_workers_degrades_to_local_byte_identical(tmp_path):
    metrics = PipelineMetrics()
    out = run_cluster_sweep(
        SPEC, str(tmp_path / "cache"),
        ClusterConfig(worker_grace=0.1), metrics=metrics)
    assert out.result.to_json() == single_node_reference(tmp_path)
    cdir = campaign_dir(str(tmp_path / "cache"), SPEC.sweep_digest())
    assert json.loads(
        (cdir / "campaign.json").read_text())["state"] == "done"
    # A re-run adopts the done campaign: pure warm aggregation.
    again = run_cluster_sweep(SPEC, str(tmp_path / "cache"),
                              ClusterConfig(worker_grace=0.1))
    assert again.result.to_json() == out.result.to_json()
    assert again.points_cached == again.points_total


def test_unknown_engine_in_a_manifest_is_rejected_typed(tmp_path):
    """Engine names outside {legacy, vector} — including the removed
    fastpath/stream engines in a manifest stored by an older version
    — fail with SpecError before any point runs."""
    cache = str(tmp_path / "cache")
    with pytest.raises(SpecError, match="legacy, vector"):
        open_campaign(cache, SPEC, ClusterConfig(), "stream")
    manifest = open_campaign(cache, SPEC, ClusterConfig(), "vector")
    stale = dict(manifest, engine="fastpath")
    with pytest.raises(SpecError, match="legacy, vector"):
        execute_shard(cache, {"manifest": stale, "shard": 0},
                      ops=None, worker_id="stale-reader")


def test_require_workers_fails_typed(tmp_path):
    with pytest.raises(ReproError, match="no campaign worker"):
        run_cluster_sweep(SPEC, str(tmp_path / "cache"),
                          ClusterConfig(worker_grace=0.1,
                                        require_workers=True))


_VICTIM = """
import sys, time
sys.path.insert(0, {src!r})
from repro.service.cluster import ClusterOps
ops = ClusterOps({cache!r})
worker_id = ops.register()
work = None
deadline = time.monotonic() + 30
while work is None and time.monotonic() < deadline:
    work = ops.claim(worker_id)
    time.sleep(0.05)
assert work is not None, "never saw the campaign"
print("CLAIMED", work["shard"], flush=True)
time.sleep(300)  # hang mid-shard, never heartbeating, until SIGKILL
"""


def test_sigkill_mid_shard_reassigns_and_stays_byte_identical(tmp_path):
    """The orphan-recovery satellite: a worker claims a shard and is
    SIGKILLed mid-execution.  The coordinator breaks the lease, records
    a typed WorkerLostError event, bumps ``shards_reassigned``, and the
    campaign still completes every shard exactly once with the
    single-node result bytes."""
    cache = str(tmp_path / "cache")
    config = ClusterConfig(worker_grace=5.0, lease_timeout=2.0)
    open_campaign(cache, SPEC, config, "vector")

    victim = subprocess.Popen(
        [sys.executable, "-c", _VICTIM.format(src=_SRC, cache=cache)],
        stdout=subprocess.PIPE, text=True)
    assert victim.stdout.readline().startswith("CLAIMED")
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)  # reaped: the pid probe now sees it dead

    # A stand-in registration keeps the coordinator in monitor mode
    # (the victim's entry dies with its pid) long enough to observe the
    # lease break; it retires once the loss is on record, at which
    # point the coordinator executes the remaining shards itself.
    ops = ClusterOps(cache)
    stand_in = ops.register(worker_id="stand-in", pid=os.getpid())
    cdir = campaign_dir(cache, SPEC.sweep_digest())

    def retire_after_loss():
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if list((cdir / "events").glob("lost-*.json")):
                ops.unregister(stand_in)
                return
            time.sleep(0.05)

    retirer = threading.Thread(target=retire_after_loss, daemon=True)
    retirer.start()
    metrics = PipelineMetrics()
    out = run_cluster_sweep(SPEC, cache, config, metrics=metrics)
    retirer.join(timeout=30)

    assert out.result.to_json() == single_node_reference(tmp_path)
    assert metrics.shards_reassigned >= 1
    assert metrics.workers_lost >= 1
    (lost,) = [json.loads(p.read_text())
               for p in (cdir / "events").glob("lost-*.json")]
    assert lost["error"] == "WorkerLostError"
    assert lost["shard"] == 0
    # Every shard committed exactly once.
    done = sorted((cdir / "done").glob("shard-*.json"))
    assert len(done) == json.loads(
        (cdir / "campaign.json").read_text())["shards"]


def test_real_worker_process_executes_the_campaign(tmp_path):
    """One `repro worker` subprocess does the work; the coordinator
    only monitors and aggregates."""
    cache = str(tmp_path / "cache")
    env = dict(os.environ, PYTHONPATH=_SRC)
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--cache-dir", cache,
         "--idle-timeout", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    try:
        deadline = time.monotonic() + 15
        while not live_worker_ids(cache):
            assert time.monotonic() < deadline, "worker never registered"
            time.sleep(0.05)
        metrics = PipelineMetrics()
        out = run_cluster_sweep(
            SPEC, cache, ClusterConfig(worker_grace=10.0),
            metrics=metrics)
        _, stderr = worker.communicate(timeout=60)
    finally:
        if worker.poll() is None:
            worker.kill()
    assert worker.returncode == 0, stderr
    assert "shard(s) completed" in stderr
    assert out.result.to_json() == single_node_reference(tmp_path)
    # The registry is clean: the worker unregistered on exit.
    assert live_worker_ids(cache) == []
    assert not list(workers_dir(cache).glob("*.json"))
