"""Cluster worker ops over the service wire, and watch reconnection.

The lease state always lives on the server's store; these tests prove
the RPC transport preserves the same semantics the direct-store path
has — including typed fencing rejections crossing the socket — and
that a `repro watch` stream survives a server restart without losing
or replaying events.
"""

import threading
import time

import pytest

from repro.engine.recovery.leases import ShardLeaseStore
from repro.robustness.errors import LeaseFencedError, ReproError
from repro.service.client import ServiceClient
from repro.service.cluster import ClusterConfig, campaign_dir, open_campaign
from repro.service.server import ServiceConfig, ServiceRunner
from repro.sweep.spec import SweepSpec

from tests.service.test_server import (config_for, spec_for,
                                       stub_executor)

SPEC = SweepSpec(name="rpc-t", scale=0.05, workloads=("wc",),
                 models=("superblock",), issue_widths=(2, 4))


def open_test_campaign(tmp_path):
    cache = str(tmp_path)
    open_campaign(cache, SPEC, ClusterConfig(shard_size=1), "vector")
    return ShardLeaseStore(campaign_dir(cache, SPEC.sweep_digest()))


def test_worker_ops_round_trip_over_the_wire(tmp_path):
    store = open_test_campaign(tmp_path)
    with ServiceRunner(config_for(tmp_path)) as runner:
        client = ServiceClient("127.0.0.1", runner.port)
        worker_id = client.register_worker()
        assert worker_id in client.stats()["service"]["cluster_workers"]

        work = client.claim_shard(worker_id)
        assert work is not None and work["shard"] == 0
        assert work["manifest"]["name"] == "rpc-t"
        lease = client.shard_heartbeat(work["campaign"], work["lease"])
        assert lease["beats"] == 1
        assert client.shard_complete(work["campaign"], lease,
                                     {"points": [0]}) is True
        assert store.done(0)["points"] == [0]

        # Remaining shard claimed, then failed: the lease is released
        # and a typed failure record lands on the store.
        work = client.claim_shard(worker_id)
        assert work["shard"] == 1
        client.shard_fail(work["campaign"], work["lease"],
                          error="EmulationTimeout", message="slow",
                          transient=True)
        assert store.read(1) is None
        (fail,) = store.events("fail")
        assert (fail["error"], fail["transient"]) \
            == ("EmulationTimeout", True)

        client.unregister_worker(worker_id)
        assert worker_id not in \
            client.stats()["service"]["cluster_workers"]


def test_fencing_rejection_travels_typed(tmp_path):
    store = open_test_campaign(tmp_path)
    with ServiceRunner(config_for(tmp_path)) as runner:
        client = ServiceClient("127.0.0.1", runner.port)
        worker_id = client.register_worker()
        work = client.claim_shard(worker_id)
        # The coordinator (here: the test) fences the worker's lease.
        store.break_lease(work["shard"], work["lease"]["epoch"])
        store.claim(work["shard"], owner="successor")
        with pytest.raises(LeaseFencedError) as exc:
            client.shard_complete(work["campaign"], work["lease"],
                                  {"points": [0]})
        assert exc.value.exit_code == 27
        assert store.done(work["shard"]) is None


def test_watch_survives_a_server_restart(tmp_path):
    """The reconnect satellite: the stream drops mid-job when the
    server dies; the client backs off, re-reads the endpoint file, and
    resumes from the last journal index — no event lost, none replayed.
    """
    slow = config_for(tmp_path, workers=1, drain_grace=0.05)
    runner = ServiceRunner(slow, executor=stub_executor(delay=0.6))
    runner.start()
    client = ServiceClient(cache_dir=str(tmp_path))
    job_id = client.submit(spec_for(0))["job"]["job_id"]

    events = []
    done = threading.Event()
    failure = []

    def consume():
        try:
            # A generous retry budget: the only assertion is that the
            # stream *survives*, not how fast the restart happens.
            for event in client.watch(job_id, max_attempts=60,
                                      backoff_base=0.05,
                                      backoff_cap=1.0):
                events.append(event)
        except Exception as exc:  # noqa: BLE001 — asserted below
            failure.append(exc)
        finally:
            done.set()

    watcher = threading.Thread(target=consume, daemon=True)
    watcher.start()
    time.sleep(0.2)  # the stream is established and the job running
    runner.stop(timeout=30)  # grace expires: job interrupted, port gone

    with ServiceRunner(config_for(tmp_path, workers=1),
                       executor=stub_executor()):
        assert done.wait(timeout=60), "watch never reached the end"
    watcher.join(timeout=10)
    assert not failure, failure

    assert events[-1]["event"] == "end"
    assert events[-1]["job"]["state"] == "done"
    # Journal indexes are strictly increasing across the reconnect:
    # from_index suppressed the replay of everything already seen.
    indexes = [e["index"] for e in events if e.get("event") == "journal"]
    assert indexes == sorted(set(indexes))
    # More than one "job" header proves a reconnect actually happened.
    assert sum(1 for e in events if e.get("event") == "job") >= 2


def test_watch_gives_up_typed_when_the_server_stays_dead(tmp_path):
    # The job must outlive the drain grace, or a slow-machine stop()
    # lets it finish and the stream ends cleanly with nothing to retry.
    runner = ServiceRunner(config_for(tmp_path, workers=1,
                                      drain_grace=0.05),
                           executor=stub_executor(delay=5.0))
    runner.start()
    client = ServiceClient(cache_dir=str(tmp_path))
    job_id = client.submit(spec_for(0))["job"]["job_id"]
    stream = client.watch(job_id, max_attempts=2, backoff_base=0.05)
    assert next(stream)["event"] == "job"
    # A short join is enough: the drain closes the port (killing the
    # stream) long before the server thread finishes winding down.
    runner.stop(timeout=2)
    with pytest.raises(ReproError, match="could not be re-established"):
        for _ in stream:
            pass
    runner.stop(timeout=30)  # now reap the thread for real
