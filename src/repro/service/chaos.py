"""Service chaos campaign: prove the server degrades, never dies.

Extends the engine campaign (:mod:`repro.robustness.chaos`) one layer
up — the injections attack the *service* (admission, quotas, breaker,
drain/restart) and demand the same two clean endings: **recover** or a
**typed-failure**.  Run via ``python -m repro selftest --chaos``.

===========================  ==============================  ==============
injection                    mechanism                       expected
===========================  ==============================  ==============
``service-queue-             submissions past the bounded    typed-failure
saturation``                 queue are shed
``service-quota-             tenant exceeds the concurrency  typed-failure
exhaustion``                 cap and the token bucket
``service-breaker-trip``     crash-evidence storm trips the  recover
                             breaker; serial mode; half-open
                             trial closes it again
``service-kill-resume``      SIGKILL mid-job; re-execution   recover
                             resumes the journal to
                             byte-identical output with
                             zero recompute
``service-dedup-storm``      N concurrent identical          recover
                             submissions -> one execution,
                             identical bytes for all
===========================  ==============================  ==============

A second campaign, :func:`run_cluster_chaos_campaign`, attacks the
distributed sweep layer (:mod:`repro.service.cluster`) with the same
contract:

===========================  ==============================  ==============
injection                    mechanism                       expected
===========================  ==============================  ==============
``cluster-worker-loss``      SIGKILL a worker mid-shard;     recover
                             coordinator breaks the lease,
                             reassigns, result stays
                             byte-identical to single-node
``cluster-zombie-fencing``   a fenced zombie tries to        typed-failure
                             commit a stale lease; rejected
                             typed, successor untouched
``cluster-hedge-dedup``      hedge and primary race to       recover
                             commit one shard; exactly one
                             done marker survives
===========================  ==============================  ==============
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.engine.recovery.journal import journal_path, replay_journal
from repro.engines import DEFAULT_ENGINE
from repro.robustness.chaos import _DEADLINE_SECONDS, ChaosReport
from repro.robustness.errors import (QuotaExceededError,
                                     ServiceOverloadedError)
from repro.service.breaker import CLOSED, OPEN, BreakerConfig
from repro.service.client import ServiceClient
from repro.service.executor import (ExecutionOutcome, execute_job,
                                    result_to_json)
from repro.service.quota import QuotaConfig, QuotaManager
from repro.service.server import ServiceConfig, ServiceRunner
from repro.service.singleflight import run_id_for
from repro.service.spec import ServiceJobSpec


def _report(injection: str, description: str, expected: str,
            ok: bool, outcome: str, message: str = "") -> ChaosReport:
    return ChaosReport(injection=injection, description=description,
                       expected=expected, outcome=outcome, ok=ok,
                       message=message)


class _ManualClock:
    """Injectable monotonic clock the breaker/quota injections drive."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _spec(i: int = 0) -> ServiceJobSpec:
    """Distinct digests per ``i`` (max_steps is digest-relevant)."""
    return ServiceJobSpec(kind="bench", workload="wc", scale=0.25,
                          max_steps=1_000_000 + i)


def _stub_executor(delay: float = 0.0, sick=None, calls=None):
    """A fake ``execute_job``: no pipeline, deterministic output.

    ``sick`` (a mutable ``{"value": bool}``) makes pooled executions
    report crash evidence while set — the breaker injections' storm.
    """
    def run(spec, cache_dir, run_id, jobs=1, deadline_remaining=None):
        if calls is not None:
            calls.append(run_id)
        if delay:
            time.sleep(delay)
        crash = bool(sick and sick["value"] and jobs > 1)
        return ExecutionOutcome(
            result_json=result_to_json(
                {"digest": spec.request_digest()}),
            counters={}, crash_evidence=crash, resumed_tasks=0,
            wall_seconds=delay)
    return run


def _open_quota() -> QuotaConfig:
    """Quotas wide enough to never interfere with an injection."""
    return QuotaConfig(rate=10_000.0, burst=10_000,
                       max_concurrent=10_000)


# ----- injections -----------------------------------------------------------

def _inject_queue_saturation() -> ChaosReport:
    description = "submissions past the bounded admission queue must " \
                  "be shed with the typed overload error and a " \
                  "Retry-After hint"
    with tempfile.TemporaryDirectory(prefix="repro-svc-chaos-") as tmp:
        config = ServiceConfig(cache_dir=tmp, queue_depth=2, workers=1,
                               quota=_open_quota(), drain_grace=30.0)
        shed_errors: list[ServiceOverloadedError] = []
        admitted = 0
        with ServiceRunner(config,
                           executor=_stub_executor(delay=0.5)) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            for i in range(8):
                try:
                    client.submit(_spec(i))
                    admitted += 1
                except ServiceOverloadedError as exc:
                    shed_errors.append(exc)
            stats = client.stats()
        shed = stats["metrics"]["jobs_shed"]
        hints_ok = all(getattr(e, "retry_after", 0) > 0
                       for e in shed_errors)
        ok = bool(shed_errors) and shed == len(shed_errors) \
            and hints_ok and ServiceOverloadedError.exit_code == 19
    return _report(
        "service-queue-saturation", description, "typed-failure", ok,
        "typed-failure" if ok else "NOT shed cleanly",
        f"{admitted} admitted, {len(shed_errors)} shed typed "
        f"(ServiceOverloadedError, exit 19), retry_after hints "
        f"{'present' if hints_ok else 'MISSING'}")


def _inject_quota_exhaustion() -> ChaosReport:
    description = "a tenant exceeding its concurrency cap or token " \
                  "bucket must be rejected with the typed quota error"
    clock = _ManualClock()
    with tempfile.TemporaryDirectory(prefix="repro-svc-chaos-") as tmp:
        config = ServiceConfig(
            cache_dir=tmp, queue_depth=100, workers=1,
            quota=QuotaConfig(rate=0.5, burst=100, max_concurrent=2),
            drain_grace=30.0)
        concurrency_hits: list[QuotaExceededError] = []
        with ServiceRunner(config, executor=_stub_executor(delay=0.5),
                           clock=clock) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            for i in range(4):
                try:
                    client.submit(_spec(i), tenant="greedy")
                except QuotaExceededError as exc:
                    concurrency_hits.append(exc)
        concurrency_ok = len(concurrency_hits) == 2 and all(
            e.kind == "concurrency" for e in concurrency_hits)
        # Token-bucket exhaustion, driven deterministically.
        quotas = QuotaManager(
            config=QuotaConfig(rate=0.5, burst=2, max_concurrent=100),
            clock=clock)
        quotas.admit("bursty")
        quotas.admit("bursty")
        rate_hit = None
        try:
            quotas.admit("bursty")
        except QuotaExceededError as exc:
            rate_hit = exc
        refilled = False
        if rate_hit is not None:
            clock.advance(rate_hit.retry_after + 0.01)
            quotas.admit("bursty")  # refilled bucket must admit again
            refilled = True
        rate_ok = rate_hit is not None and rate_hit.kind == "rate" \
            and rate_hit.retry_after > 0 and refilled
        ok = concurrency_ok and rate_ok \
            and QuotaExceededError.exit_code == 20
    return _report(
        "service-quota-exhaustion", description, "typed-failure", ok,
        "typed-failure" if ok else "NOT rejected cleanly",
        f"concurrency cap: {len(concurrency_hits)}/2 typed rejections; "
        f"token bucket: {'rejected then refilled after retry_after' if rate_ok else 'FAILED'}"
        f" (QuotaExceededError, exit 20)")


def _inject_breaker_trip() -> ChaosReport:
    description = "a crash-evidence storm must trip the breaker to " \
                  "serial execution, then recover via a clean " \
                  "half-open trial"
    clock = _ManualClock()
    sick = {"value": True}
    with tempfile.TemporaryDirectory(prefix="repro-svc-chaos-") as tmp:
        config = ServiceConfig(
            cache_dir=tmp, jobs=2, workers=1, queue_depth=100,
            quota=_open_quota(),
            breaker=BreakerConfig(threshold=3, window=60.0,
                                  cooldown=5.0),
            drain_grace=30.0)
        with ServiceRunner(config, executor=_stub_executor(sick=sick),
                           clock=clock) as runner:
            client = ServiceClient("127.0.0.1", runner.port)

            def run_one(i: int) -> dict:
                job = client.submit(_spec(i))["job"]
                return client.wait(job["job_id"], timeout=30.0)

            storm = [run_one(i) for i in range(3)]
            after_trip = client.stats()["service"]
            serial_job = run_one(10)      # open -> serial mode
            sick["value"] = False         # the pool "heals"
            clock.advance(config.breaker.cooldown + 0.1)
            trial_job = run_one(11)       # half-open pooled trial
            after_trial = client.stats()["service"]
            closed_job = run_one(12)      # breaker closed again
        ok = (all(j["mode"] == "pool" for j in storm)
              and after_trip["breaker"] == OPEN
              and after_trip["breaker_trips"] == 1
              and serial_job["mode"] == "serial"
              and trial_job["mode"] == "pool"
              and after_trial["breaker"] == CLOSED
              and closed_job["mode"] == "pool")
    return _report(
        "service-breaker-trip", description, "recover", ok,
        "recovered" if ok else "NOT recovered",
        f"3 pooled crash-evidence jobs tripped the breaker "
        f"(state {after_trip['breaker']}, trips "
        f"{after_trip['breaker_trips']}), degraded job ran "
        f"{serial_job['mode']}, half-open trial ran "
        f"{trial_job['mode']} and {'closed' if ok else 'did NOT close'} "
        f"the breaker")


def _kill_child(cache_dir: str, run_id: str, spec_dict: dict) -> None:
    spec = ServiceJobSpec.from_dict(spec_dict)
    execute_job(spec, cache_dir, run_id, jobs=1)


def _inject_kill_resume() -> ChaosReport:
    description = "a job SIGKILLed mid-execution must resume from its " \
                  "journal to byte-identical output with zero " \
                  "recompute of completed tasks"
    spec = _spec(0)
    run_id = run_id_for(spec.request_digest())
    with tempfile.TemporaryDirectory(prefix="repro-svc-chaos-") as tmp:
        cache_dir = os.path.join(tmp, "killed-cache")
        ref_dir = os.path.join(tmp, "reference-cache")
        child = multiprocessing.Process(
            target=_kill_child,
            args=(cache_dir, run_id, spec.to_dict()), daemon=True)
        child.start()
        jpath = journal_path(os.path.join(cache_dir, "runs"), run_id)
        deadline = time.monotonic() + _DEADLINE_SECONDS
        while time.monotonic() < deadline and child.is_alive():
            try:
                if jpath.read_bytes().count(b'"type":"task-finish"'):
                    break
            except OSError:
                pass
            time.sleep(0.005)
        killed_midway = child.is_alive()
        if killed_midway:
            os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=_DEADLINE_SECONDS)

        completed = len(replay_journal(jpath).completed)
        outcome = execute_job(spec, cache_dir, run_id, jobs=1)
        reference = execute_job(spec, ref_dir, "REF", jobs=1)
        # 3 models + the 1-issue baseline = 4 simulate tasks total.
        recomputed = outcome.counters["stages"] \
            .get("simulate", {}).get("invocations", 0)
        identical = outcome.result_json == reference.result_json
        ok = identical and outcome.resumed_tasks == completed \
            and recomputed == 4 - outcome.resumed_tasks
    return _report(
        "service-kill-resume", description, "recover", ok,
        "recovered" if ok else "NOT recovered",
        f"{'killed mid-job' if killed_midway else 'finished early'}, "
        f"{outcome.resumed_tasks} tasks journal-verified (zero "
        f"recompute), {recomputed} recomputed, output "
        f"{'byte-identical' if identical else 'DIVERGED'} vs cold "
        f"reference")


def _inject_dedup_storm() -> ChaosReport:
    description = "N concurrent identical submissions must coalesce " \
                  "into exactly one execution with byte-identical " \
                  "results for every observer"
    n = 6
    calls: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-svc-chaos-") as tmp:
        config = ServiceConfig(cache_dir=tmp, workers=2,
                               queue_depth=100, quota=_open_quota(),
                               drain_grace=30.0)
        executor = _stub_executor(delay=0.3, calls=calls)
        with ServiceRunner(config, executor=executor) as runner:
            client = ServiceClient("127.0.0.1", runner.port)
            barrier = threading.Barrier(n)
            responses: list[dict] = [None] * n

            def storm(i: int) -> None:
                barrier.wait()
                responses[i] = client.submit(_spec(0), tenant=f"t{i}")

            threads = [threading.Thread(target=storm, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=_DEADLINE_SECONDS)
            job_ids = {r["job"]["job_id"] for r in responses if r}
            final = client.wait(job_ids.pop(), timeout=30.0) \
                if len(job_ids) == 1 else None
            stats = client.stats()["metrics"]
        deduped = sum(1 for r in responses if r and r["deduped"])
        results = {json.dumps(r["job"]["spec"], sort_keys=True)
                   for r in responses if r}
        ok = (all(responses) and not job_ids and final is not None
              and len(calls) == 1 and deduped == n - 1
              and stats["jobs_admitted"] == 1
              and stats["jobs_deduped"] == n - 1
              and len(results) == 1
              and final["state"] == "done"
              and final["observers"] == n)
    return _report(
        "service-dedup-storm", description, "recover", ok,
        "recovered" if ok else "NOT coalesced",
        f"{n} concurrent submissions -> {len(calls)} execution(s), "
        f"{deduped} deduped, {stats['jobs_admitted']} admitted, "
        f"observers={final['observers'] if final else '?'}; all "
        f"observers share one record and its result bytes")


# ----- cluster injections ---------------------------------------------------

_CLUSTER_SPEC_KWARGS = dict(name="chaos-cluster", scale=0.05,
                            max_steps=2_000_000, workloads=("wc",),
                            models=("superblock",), issue_widths=(2, 4))

_VICTIM_WORKER = """
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


def _repro_src_dir() -> str:
    import repro
    return os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))


def _inject_cluster_worker_loss() -> ChaosReport:
    description = "a worker SIGKILLed mid-shard must have its lease " \
                  "broken and the shard reassigned; the campaign " \
                  "result stays byte-identical to single-node"
    from repro.engine.metrics import PipelineMetrics
    from repro.service.cluster import (ClusterConfig, ClusterOps,
                                       campaign_dir, open_campaign,
                                       run_cluster_sweep)
    from repro.sweep.runner import run_sweep
    from repro.sweep.spec import SweepSpec

    spec = SweepSpec(**_CLUSTER_SPEC_KWARGS)
    with tempfile.TemporaryDirectory(prefix="repro-clu-chaos-") as tmp:
        cache = os.path.join(tmp, "cache")
        config = ClusterConfig(worker_grace=5.0, lease_timeout=2.0)
        open_campaign(cache, spec, config, DEFAULT_ENGINE)
        victim = subprocess.Popen(
            [sys.executable, "-c",
             _VICTIM_WORKER.format(src=_repro_src_dir(), cache=cache)],
            stdout=subprocess.PIPE, text=True)
        claimed = victim.stdout.readline().startswith("CLAIMED")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=_DEADLINE_SECONDS)

        # A stand-in registration keeps the coordinator monitoring
        # until the loss is on record; then it retires and the
        # coordinator finishes the remaining shards itself.
        ops = ClusterOps(cache)
        stand_in = ops.register(worker_id="stand-in", pid=os.getpid())
        cdir = campaign_dir(cache, spec.sweep_digest())

        def retire_after_loss() -> None:
            deadline = time.monotonic() + _DEADLINE_SECONDS
            while time.monotonic() < deadline:
                if list((cdir / "events").glob("lost-*.json")):
                    ops.unregister(stand_in)
                    return
                time.sleep(0.05)

        retirer = threading.Thread(target=retire_after_loss,
                                   daemon=True)
        retirer.start()
        metrics = PipelineMetrics()
        out = run_cluster_sweep(spec, cache, config, metrics=metrics)
        retirer.join(timeout=_DEADLINE_SECONDS)
        reference = run_sweep(spec, cache_dir=os.path.join(tmp, "ref"),
                              jobs=2)
        identical = out.result.to_json() == reference.result.to_json()
        ok = claimed and identical and metrics.shards_reassigned >= 1 \
            and metrics.workers_lost >= 1
    return _report(
        "cluster-worker-loss", description, "recover", ok,
        "recovered" if ok else "NOT recovered",
        f"victim {'claimed then SIGKILLed' if claimed else 'NEVER claimed'}, "
        f"{metrics.shards_reassigned} shard(s) reassigned, "
        f"{metrics.workers_lost} worker(s) lost, result "
        f"{'byte-identical' if identical else 'DIVERGED'} vs "
        f"single-node")


def _inject_cluster_zombie_fencing() -> ChaosReport:
    description = "a fenced zombie committing a stale lease must be " \
                  "rejected with the typed fencing error and must not " \
                  "disturb the successor's commit"
    from repro.engine.recovery.leases import ShardLeaseStore
    from repro.robustness.errors import LeaseFencedError

    with tempfile.TemporaryDirectory(prefix="repro-clu-chaos-") as tmp:
        store = ShardLeaseStore(os.path.join(tmp, "campaign"))
        zombie = store.claim(0, owner="zombie")
        broken = store.break_lease(0, zombie.epoch)
        successor = store.claim(0, owner="successor")
        fenced = None
        try:
            store.complete(zombie, {"points": [0], "by": "zombie"})
        except LeaseFencedError as exc:
            fenced = exc
        untouched = store.done(0) is None
        committed = store.complete(successor,
                                   {"points": [0], "by": "successor"})
        marker = store.done(0)
        ok = (broken and fenced is not None
              and fenced.exit_code == 27
              and fenced.holder_epoch == successor.epoch
              and untouched and committed
              and marker["by"] == "successor"
              and store.count_events("fenced") == 1)
    return _report(
        "cluster-zombie-fencing", description, "typed-failure", ok,
        "typed-failure" if ok else "NOT fenced cleanly",
        f"zombie commit {'rejected typed' if fenced else 'NOT rejected'} "
        f"(LeaseFencedError, exit 27), done marker held by "
        f"{marker['by'] if marker else 'NOBODY'}")


def _inject_cluster_hedge_dedup() -> ChaosReport:
    description = "a hedge and its primary racing to commit one shard " \
                  "must produce exactly one done marker " \
                  "(first commit wins, loser loses cleanly)"
    from repro.engine.recovery.leases import ShardLeaseStore

    with tempfile.TemporaryDirectory(prefix="repro-clu-chaos-") as tmp:
        store = ShardLeaseStore(os.path.join(tmp, "campaign"))
        primary = store.claim(0, owner="slow")
        hedge = store.claim(0, owner="fast", hedge=True)
        no_second_hedge = store.claim(0, owner="late", hedge=True) is None
        hedge_won = store.complete(hedge, {"points": [0], "by": "fast"})
        primary_lost = store.complete(
            primary, {"points": [0], "by": "slow"}) is False
        marker = store.done(0)
        slots_clear = store.read(0) is None \
            and store.read(0, hedge=True) is None
        ok = (hedge is not None and no_second_hedge and hedge_won
              and primary_lost and marker["by"] == "fast"
              and slots_clear)
    return _report(
        "cluster-hedge-dedup", description, "recover", ok,
        "recovered" if ok else "NOT deduped",
        f"hedge committed first, primary "
        f"{'lost cleanly' if primary_lost else 'DOUBLE-committed'}, "
        f"one done marker by {marker['by'] if marker else 'NOBODY'}, "
        f"lease slots {'cleared' if slots_clear else 'LEAKED'}")


# ----- the campaign ---------------------------------------------------------

def run_cluster_chaos_campaign() -> list[ChaosReport]:
    """Run every cluster injection; parent never crashes."""
    injections = [
        ("cluster-worker-loss", _inject_cluster_worker_loss),
        ("cluster-zombie-fencing", _inject_cluster_zombie_fencing),
        ("cluster-hedge-dedup", _inject_cluster_hedge_dedup),
    ]
    reports: list[ChaosReport] = []
    for name, injector in injections:
        start = time.monotonic()
        try:
            report = injector()
        except Exception as exc:  # noqa: BLE001 — campaign must finish
            report = _report(name, "injection harness", "recover",
                             False, f"unhandled {type(exc).__name__}",
                             str(exc)[:300])
        elapsed = time.monotonic() - start
        if elapsed > _DEADLINE_SECONDS:
            report.ok = False
            report.message += f" [exceeded {_DEADLINE_SECONDS:g}s " \
                              f"deadline]"
        reports.append(report)
    return reports


def run_service_chaos_campaign() -> list[ChaosReport]:
    """Run every service injection; parent never crashes."""
    injections = [
        ("service-queue-saturation", _inject_queue_saturation),
        ("service-quota-exhaustion", _inject_quota_exhaustion),
        ("service-breaker-trip", _inject_breaker_trip),
        ("service-kill-resume", _inject_kill_resume),
        ("service-dedup-storm", _inject_dedup_storm),
    ]
    reports: list[ChaosReport] = []
    for name, injector in injections:
        start = time.monotonic()
        try:
            report = injector()
        except Exception as exc:  # noqa: BLE001 — campaign must finish
            report = _report(name, "injection harness", "recover",
                             False, f"unhandled {type(exc).__name__}",
                             str(exc)[:300])
        elapsed = time.monotonic() - start
        if elapsed > _DEADLINE_SECONDS:
            report.ok = False
            report.message += f" [exceeded {_DEADLINE_SECONDS:g}s " \
                              f"deadline]"
        reports.append(report)
    return reports
