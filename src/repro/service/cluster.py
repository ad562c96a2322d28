"""Fault-tolerant multi-worker campaign execution.

One coordinator, N interchangeable workers, one shared artifact store.
The coordinator partitions a sweep campaign into deterministic shards
keyed ``(campaign_digest, shard_index)`` — the fuzz runner's
``(seed, index)`` work-partitioning template
(:func:`repro.fuzz.runner.shard_ranges`) — and publishes a campaign
manifest under ``<cache>/cluster/campaigns/<digest>/``.  Workers
(``repro worker``) claim shards via fencing-token leases
(:mod:`repro.engine.recovery.leases`), heartbeat while executing, and
publish every simulation artifact straight into the shared CAS.  The
coordinator's final reduce is the ordinary ``run_sweep`` over the
now-warm store, so the ``SweepResult`` bytes are identical to a
single-node run at any worker count, with any interleaving, through
any number of failures.

Robustness properties, each backed by a durable on-store record:

* **orphan recovery** — a worker that dies mid-shard (SIGKILL included)
  stops heartbeating; the coordinator breaks the lease after the lease
  window on its *own monotonic clock* (no cross-host wall-clock
  comparison) and the shard is re-claimed by any worker.  Every break
  leaves a typed ``WorkerLostError`` event and bumps the
  ``shards_reassigned`` / ``workers_lost`` counters.
* **zombie fencing** — a paused-then-resumed worker holds a lease with
  a superseded fencing epoch; its heartbeat and commit both raise
  :class:`LeaseFencedError` and write nothing (``leases_fenced``).
* **straggler hedging** — near the end of the campaign an idle worker
  duplicates the slowest in-flight shard under a hedge lease; the first
  commit wins, the loser's marker is never written (``hedged_shards``).
* **crash quarantine** — a shard that keeps failing is retried up to
  ``max_attempts`` times (transient errors only); the failure records
  feed the service circuit breaker through the merged counters.
* **graceful degradation** — zero registered workers means the
  coordinator simply runs the campaign through the existing in-process
  pool; mid-campaign worker extinction makes the coordinator execute
  the remaining shards itself through the same claim path.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.metrics import PipelineMetrics
from repro.engine.recovery.leases import (ShardLease, ShardLeaseStore,
                                          atomic_write_json, read_json)
from repro.engine.recovery.locks import (FileLock, LeaseObserver,
                                         _pid_alive, new_owner_token)
from repro.engine.recovery.retry import RetryPolicy, is_transient
from repro.engines import DEFAULT_ENGINE, check_engine
from repro.fuzz.runner import shard_ranges
from repro.machine.descriptor import scalar_machine
from repro.robustness import errors as _errors
from repro.robustness.errors import (DeadlineExceededError,
                                     LeaseFencedError, ReproError,
                                     classify_exception)
from repro.sweep.runner import (SweepOutcome, make_point_spec, run_sweep,
                                simulate_point)
from repro.sweep.spec import SweepSpec

logger = logging.getLogger("repro.service.cluster")

DEFAULT_SHARD_SIZE = 2
DEFAULT_LEASE_TIMEOUT = 6.0
DEFAULT_HEARTBEAT_INTERVAL = 0.5


@dataclass(frozen=True)
class ClusterConfig:
    """Coordinator-side knobs for one distributed campaign."""

    #: lattice points per shard (shard 0 also carries the baseline)
    shard_size: int = DEFAULT_SHARD_SIZE
    #: workers to wait for before starting; 0 means "take what's there"
    expect_workers: int = 0
    #: seconds to wait for workers to register before degrading
    worker_grace: float = 5.0
    #: seconds without an observed heartbeat before a lease is broken
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT
    #: holder-side heartbeat cadence (well inside ``lease_timeout``)
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
    #: duplicate the slowest in-flight shard near the end of the run
    hedge: bool = True
    #: hedging arms only when this few shards remain
    hedge_window: int = 2
    #: transient attempts per shard before the campaign fails typed
    max_attempts: int = 3
    #: coordinator monitor cadence
    poll: float = 0.1
    #: fail instead of degrading when no worker registers in the grace
    require_workers: bool = False


# ----- store layout ---------------------------------------------------------

def cluster_root(cache_dir: str | os.PathLike) -> Path:
    return Path(cache_dir) / "cluster"


def campaign_dir(cache_dir: str | os.PathLike, digest: str) -> Path:
    return cluster_root(cache_dir) / "campaigns" / digest[:12]


def workers_dir(cache_dir: str | os.PathLike) -> Path:
    return cluster_root(cache_dir) / "workers"


def manifest_path(cdir: Path) -> Path:
    return cdir / "campaign.json"


def _campaign_lock(cdir: Path) -> FileLock:
    return FileLock(cdir / "campaign.lock", lease_seconds=5.0)


def read_manifest(cdir: Path) -> dict | None:
    return read_json(manifest_path(cdir))


def set_campaign_state(cdir: Path, state: str) -> None:
    with _campaign_lock(cdir):
        manifest = read_manifest(cdir)
        if manifest is not None:
            manifest["state"] = state
            atomic_write_json(manifest_path(cdir), manifest)


def open_campaign(cache_dir: str, spec: SweepSpec,
                  config: ClusterConfig, engine: str) -> dict:
    """Create — or adopt — the campaign manifest for ``spec``.

    Adoption is what makes the coordinator SIGKILL-safe: a restarted
    coordinator finds the manifest, the done markers and the leases
    exactly where its predecessor left them and resumes monitoring.
    """
    check_engine(engine)
    digest = spec.sweep_digest()
    cdir = campaign_dir(cache_dir, digest)
    cdir.mkdir(parents=True, exist_ok=True)
    points = len(spec.expand())
    with _campaign_lock(cdir):
        manifest = read_manifest(cdir)
        if manifest is not None and manifest.get("digest") == digest \
                and manifest.get("state") in ("open", "done"):
            return manifest
        # A manifest stuck in "local"/"failed" (coordinator died
        # mid-transition) is re-opened fresh: workers only claim from
        # "open" campaigns, so adopting it verbatim would deadlock.
        manifest = {
            "kind": "sweep", "name": spec.name, "digest": digest,
            "campaign": cdir.name, "spec": spec.to_dict(),
            "points": points, "shard_size": max(1, config.shard_size),
            "shards": len(shard_ranges(points, config.shard_size)),
            "engine": engine, "state": "open",
            "lease_timeout": config.lease_timeout,
            "heartbeat_interval": config.heartbeat_interval,
            "hedge": config.hedge, "hedge_window": config.hedge_window,
            "max_attempts": config.max_attempts,
        }
        atomic_write_json(manifest_path(cdir), manifest)
    return manifest


def shard_points(manifest: dict, shard: int) -> list[int]:
    """The lattice point indices shard ``shard`` executes."""
    ranges = shard_ranges(manifest["points"], manifest["shard_size"])
    if not 0 <= shard < len(ranges):
        raise ReproError(f"campaign {manifest['campaign']} has no "
                         f"shard {shard}")
    start, count = ranges[shard]
    return list(range(start, start + count))


# ----- worker registry ------------------------------------------------------

def live_worker_ids(cache_dir: str) -> list[str]:
    """Registered workers whose recorded pid is alive on this host."""
    out = []
    wdir = workers_dir(cache_dir)
    if wdir.is_dir():
        for path in sorted(wdir.glob("*.json")):
            entry = read_json(path)
            if entry is None:
                continue
            pid = entry.get("pid")
            if isinstance(pid, int) and _pid_alive(pid):
                out.append(str(entry.get("worker_id", path.stem)))
            else:
                path.unlink(missing_ok=True)
    return out


class ClusterOps:
    """register/claim/heartbeat/complete against one shared store.

    The server exposes these verbatim as protocol ops for
    ``repro worker --endpoint``; a store-local worker calls them
    directly.  Either way the authority is the on-store lease state,
    never process memory.
    """

    def __init__(self, cache_dir: str):
        self.cache_dir = str(cache_dir)

    # -- registration --

    def register(self, worker_id: str | None = None,
                 pid: int | None = None) -> str:
        worker_id = worker_id or f"w{new_owner_token()}"
        atomic_write_json(workers_dir(self.cache_dir)
                          / f"{worker_id}.json",
                          {"worker_id": worker_id,
                           "pid": pid or os.getpid(), "beats": 0})
        return worker_id

    def beat_worker(self, worker_id: str) -> None:
        path = workers_dir(self.cache_dir) / f"{worker_id}.json"
        entry = read_json(path)
        if entry is not None:
            entry["beats"] = int(entry.get("beats", 0)) + 1
            atomic_write_json(path, entry)

    def unregister(self, worker_id: str) -> None:
        (workers_dir(self.cache_dir)
         / f"{worker_id}.json").unlink(missing_ok=True)

    # -- shard lifecycle --

    def _campaigns(self) -> list[Path]:
        root = cluster_root(self.cache_dir) / "campaigns"
        return sorted(p for p in root.glob("*")
                      if p.is_dir()) if root.is_dir() else []

    def _store(self, campaign: str) -> ShardLeaseStore:
        return ShardLeaseStore(cluster_root(self.cache_dir)
                               / "campaigns" / campaign)

    @staticmethod
    def _shard_blocked(store: ShardLeaseStore, shard: int,
                       max_attempts: int) -> bool:
        """Retries exhausted or a permanent failure recorded?"""
        fails = [e for e in store.events("fail")
                 if e.get("shard") == shard]
        if any(not e.get("transient", True) for e in fails):
            return True
        return len(fails) >= max_attempts

    def claim(self, worker_id: str) -> dict | None:
        """Lease one shard for ``worker_id``; None when nothing claimable.

        Scans open campaigns in name order; within one campaign, free
        shards are claimed lowest-index first.  When every remaining
        shard is already leased and few enough remain, the slowest
        in-flight shard is duplicated under a hedge lease.
        """
        for cdir in self._campaigns():
            manifest = read_manifest(cdir)
            if manifest is None or manifest.get("state") != "open":
                continue
            store = self._store(cdir.name)
            done = store.done_shards()
            max_attempts = int(manifest.get("max_attempts", 3))
            remaining = [i for i in range(manifest["shards"])
                         if i not in done
                         and not self._shard_blocked(store, i,
                                                     max_attempts)]
            in_flight = []
            for shard in remaining:
                lease = store.read(shard)
                if lease is None:
                    lease = store.claim(shard, owner=worker_id)
                    if lease is not None:
                        return {"campaign": cdir.name,
                                "manifest": manifest,
                                "shard": shard,
                                "lease": lease.to_dict()}
                    lease = store.read(shard)  # observe the winner
                if lease is not None:
                    in_flight.append(lease)
            if manifest.get("hedge") and in_flight and not any(
                    store.read(l.shard) is None for l in in_flight) \
                    and len(remaining) <= int(
                        manifest.get("hedge_window", 2)):
                # Straggler hedging: duplicate the longest-running
                # shard someone *else* holds, once.
                for primary in sorted(in_flight,
                                      key=lambda l: (-l.beats, l.shard)):
                    if primary.owner == worker_id \
                            or store.read(primary.shard,
                                          hedge=True) is not None:
                        continue
                    hedge = store.claim(primary.shard, owner=worker_id,
                                        hedge=True)
                    if hedge is not None:
                        store.record_event("hedge", hedge.shard,
                                           hedge.epoch,
                                           worker=worker_id,
                                           primary_epoch=primary.epoch)
                        return {"campaign": cdir.name,
                                "manifest": manifest,
                                "shard": hedge.shard,
                                "lease": hedge.to_dict()}
        return None

    def heartbeat(self, campaign: str, lease: dict) -> dict:
        parsed = ShardLease.from_dict(lease)
        if parsed is None:
            raise ReproError(f"malformed lease for campaign {campaign}")
        return self._store(campaign).heartbeat(parsed).to_dict()

    def complete(self, campaign: str, lease: dict,
                 payload: dict) -> bool:
        parsed = ShardLease.from_dict(lease)
        if parsed is None:
            raise ReproError(f"malformed lease for campaign {campaign}")
        return self._store(campaign).complete(parsed, dict(payload or {}))

    def fail(self, campaign: str, lease: dict, error: str,
             message: str, transient: bool) -> None:
        parsed = ShardLease.from_dict(lease)
        if parsed is None:
            return
        store = self._store(campaign)
        store.record_failure(parsed.shard, parsed.epoch, error, message,
                             transient)
        store.release(parsed)


class _RemoteOps:
    """The same operations spoken over a service endpoint.

    Leases still live on the shared store (the server mutates them on
    the worker's behalf); only the coordination hops cross the socket.
    """

    def __init__(self, cache_dir: str, endpoint: str):
        from repro.service.client import ServiceClient
        host, _, port = endpoint.rpartition(":")
        try:
            self.client = ServiceClient(host=host or "127.0.0.1",
                                        port=int(port))
        except ValueError:
            raise ReproError(
                f"bad --endpoint {endpoint!r}: expected HOST:PORT") \
                from None
        self.cache_dir = cache_dir

    def register(self, worker_id=None, pid=None) -> str:
        return self.client.register_worker(worker_id=worker_id,
                                           pid=pid or os.getpid())

    def beat_worker(self, worker_id: str) -> None:
        self.client.worker_beat(worker_id)

    def unregister(self, worker_id: str) -> None:
        try:
            self.client.unregister_worker(worker_id)
        except ReproError:
            pass  # server already gone: the pid probe reaps the entry

    def claim(self, worker_id: str) -> dict | None:
        return self.client.claim_shard(worker_id)

    def heartbeat(self, campaign: str, lease: dict) -> dict:
        return self.client.shard_heartbeat(campaign, lease)

    def complete(self, campaign: str, lease: dict,
                 payload: dict) -> bool:
        return self.client.shard_complete(campaign, lease, payload)

    def fail(self, campaign: str, lease: dict, error: str,
             message: str, transient: bool) -> None:
        self.client.shard_fail(campaign, lease, error=error,
                               message=message, transient=transient)


# ----- worker ---------------------------------------------------------------

class _HeartbeatPump(threading.Thread):
    """Renews one shard lease (and the worker registration) on a timer.

    A fencing rejection is latched, never raised here — the executing
    thread observes :attr:`fence` between points and aborts the shard.
    """

    def __init__(self, ops, campaign: str, lease: dict, worker_id: str,
                 interval: float):
        super().__init__(daemon=True)
        self.ops, self.campaign, self.worker_id = ops, campaign, worker_id
        self.lease = dict(lease)
        self.interval = max(0.05, interval)
        self.fence: LeaseFencedError | None = None
        # not `_stop`: that name is a Thread-internal method join() uses
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                self.lease = self.ops.heartbeat(self.campaign, self.lease)
                self.ops.beat_worker(self.worker_id)
            except LeaseFencedError as exc:
                self.fence = exc
                return
            except Exception:  # noqa: BLE001 — lease expiry is the net
                continue  # transient (lock contention, dropped RPC)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


@dataclass
class WorkerOutcome:
    """What one ``repro worker`` process did before exiting."""

    worker_id: str
    shards_completed: int = 0
    hedges_lost: int = 0
    shards_failed: int = 0
    campaigns: set[str] = field(default_factory=set)


def execute_shard(cache_dir: str, work: dict, ops,
                  worker_id: str) -> dict:
    """Run every point of one claimed shard; returns the done payload.

    Raises :class:`LeaseFencedError` as soon as the pump observes the
    lease was superseded — the shard's remaining points are the
    successor's problem, and nothing gets committed.
    """
    manifest = work["manifest"]
    spec = SweepSpec.from_dict(manifest["spec"])
    by_index = {p.index: p for p in spec.expand()}
    indices = shard_points(manifest, work["shard"])
    engine = check_engine(manifest.get("engine", DEFAULT_ENGINE))
    pump = _HeartbeatPump(ops, work["campaign"], work["lease"],
                          worker_id,
                          float(manifest.get("heartbeat_interval",
                                             DEFAULT_HEARTBEAT_INTERVAL)))
    pump.start()
    merged = PipelineMetrics()
    try:
        if work["shard"] == 0:
            # Shard 0 carries the campaign's scalar baseline.
            merged.merge_dict(simulate_point(make_point_spec(
                spec, cache_dir, scalar_machine(), ("superblock",),
                engine=engine)))
        for index in indices:
            if pump.fence is not None:
                raise pump.fence
            merged.merge_dict(simulate_point(make_point_spec(
                spec, cache_dir, by_index[index].machine,
                engine=engine)))
        if pump.fence is not None:
            raise pump.fence
    finally:
        pump.stop()
    work["lease"] = pump.lease
    return {"points": indices, "baseline": work["shard"] == 0,
            "worker": worker_id, "counters": merged.to_dict()}


def run_worker(cache_dir: str, *, endpoint: str | None = None,
               once: bool = False, idle_timeout: float = 60.0,
               drain_idle: float = 6.0, poll: float = 0.25,
               max_shards: int = 0) -> WorkerOutcome:
    """The worker loop: register, claim, execute, commit, repeat.

    Exits cleanly when idle past ``idle_timeout`` before ever seeing
    work (``drain_idle`` once it has participated — after its campaign
    finishes there is nothing left to claim), after the first shard
    with ``once``, or after ``max_shards`` shards.  A fencing rejection
    propagates as :class:`LeaseFencedError` (CLI exit 27): a fenced
    worker is a zombie by definition and must not keep executing.
    """
    ops = _RemoteOps(cache_dir, endpoint) if endpoint \
        else ClusterOps(cache_dir)
    worker_id = ops.register(pid=os.getpid())
    outcome = WorkerOutcome(worker_id=worker_id)
    idle_deadline = time.monotonic() + idle_timeout
    try:
        while True:
            work = ops.claim(worker_id)
            if work is None:
                if time.monotonic() >= idle_deadline:
                    return outcome
                ops.beat_worker(worker_id)
                time.sleep(poll)
                continue
            outcome.campaigns.add(work["campaign"])
            try:
                payload = execute_shard(cache_dir, work, ops, worker_id)
            except LeaseFencedError:
                outcome.shards_failed += 1
                raise
            except Exception as raw:  # noqa: BLE001 — recorded typed
                exc = classify_exception(raw)
                outcome.shards_failed += 1
                ops.fail(work["campaign"], work["lease"],
                         error=type(exc).__name__,
                         message=str(exc), transient=is_transient(exc))
                logger.warning("shard %d of %s failed (%s): %s",
                               work["shard"], work["campaign"],
                               type(exc).__name__, exc)
            else:
                if ops.complete(work["campaign"], work["lease"],
                                payload):
                    outcome.shards_completed += 1
                else:
                    outcome.hedges_lost += 1
            if once or (max_shards and
                        outcome.shards_completed >= max_shards):
                return outcome
            idle_deadline = time.monotonic() + drain_idle
    finally:
        ops.unregister(worker_id)


# ----- coordinator ----------------------------------------------------------

def _raise_campaign_failure(cdir: Path, store: ShardLeaseStore,
                            shard: int) -> None:
    set_campaign_state(cdir, "failed")
    fails = [e for e in store.events("fail") if e.get("shard") == shard]
    worst = next((e for e in fails if not e.get("transient", True)),
                 fails[-1] if fails else None)
    name = (worst or {}).get("error", "ReproError")
    message = (worst or {}).get("message", "shard failed")
    cls = getattr(_errors, str(name), None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ReproError
    try:
        exc = cls(f"campaign shard {shard} failed after "
                  f"{len(fails)} attempt(s): {message}")
    except TypeError:
        exc = ReproError(f"campaign shard {shard} failed: {message}")
    raise exc


def _break_stale_leases(store: ShardLeaseStore, observer: LeaseObserver,
                        lease_timeout: float) -> None:
    """Coordinator-side orphan recovery, one sweep of the lease dir."""
    leases_dir = store.root / "leases"
    if not leases_dir.is_dir():
        return
    for path in sorted(leases_dir.glob("shard-*.json")):
        hedge = path.name.endswith(".hedge.json")
        lease = ShardLease.from_dict(read_json(path) or {})
        if lease is None:
            continue
        key = (lease.shard, hedge)
        pid_dead = lease.pid and not _pid_alive(lease.pid)
        if not pid_dead and not observer.stale(
                key, (lease.epoch, lease.beats), lease_timeout):
            continue
        if store.break_lease(lease.shard, lease.epoch, hedge=hedge):
            observer.forget(key)
            store.record_event(
                "lost", lease.shard, lease.epoch,
                worker=lease.owner, hedge=hedge,
                error="WorkerLostError",
                message=(f"worker {lease.owner} lost shard "
                         f"{lease.shard} (epoch {lease.epoch}): "
                         + ("pid dead" if pid_dead
                            else "heartbeats stopped")))
            logger.warning(
                "WorkerLostError: reassigning shard %d (epoch %d) "
                "held by %s", lease.shard, lease.epoch, lease.owner)


def _wait_for_workers(cache_dir: str, config: ClusterConfig) -> int:
    deadline = time.monotonic() + max(0.0, config.worker_grace)
    while True:
        live = len(live_worker_ids(cache_dir))
        if live >= max(1, config.expect_workers):
            return live
        if time.monotonic() >= deadline:
            return live
        time.sleep(min(0.1, config.poll))


def run_cluster_sweep(spec: SweepSpec, cache_dir: str,
                      config: ClusterConfig | None = None, *,
                      jobs: int = 1, run_id: str | None = None,
                      resume: bool = False,
                      retry: RetryPolicy | None = None,
                      wall_clock_budget: float | None = None,
                      metrics: PipelineMetrics | None = None,
                      engine: str = DEFAULT_ENGINE) -> SweepOutcome:
    """Coordinate one sweep campaign across registered workers.

    Publishes the manifest, waits up to ``worker_grace`` for workers,
    then monitors: breaking stale leases, arming hedges (worker-side),
    failing typed on exhausted shards, and executing shards itself if
    every worker vanishes.  With zero workers it degrades to the plain
    in-process ``run_sweep``.  Either way the returned
    :class:`SweepOutcome` comes from the same lattice-order aggregation
    over the same store — byte-identical bytes, any topology.
    """
    config = config or ClusterConfig()
    metrics = metrics or PipelineMetrics()
    digest = spec.sweep_digest()
    cdir = campaign_dir(cache_dir, digest)
    manifest = open_campaign(cache_dir, spec, config, engine)

    def finish() -> SweepOutcome:
        set_campaign_state(cdir, "done")
        return run_sweep(spec, cache_dir=cache_dir, jobs=jobs,
                         run_id=run_id, resume=resume, retry=retry,
                         wall_clock_budget=wall_clock_budget,
                         metrics=metrics, engine=engine)

    if manifest.get("state") == "done":
        return finish()

    live = _wait_for_workers(cache_dir, config)
    if live == 0:
        if config.require_workers:
            set_campaign_state(cdir, "failed")
            raise ReproError(
                f"no campaign worker registered within "
                f"{config.worker_grace:g}s (start some with "
                f"`repro worker --cache-dir {cache_dir}`)")
        logger.info("no workers registered: degrading to the "
                    "in-process pool (jobs=%d)", jobs)
        set_campaign_state(cdir, "local")
        return finish()

    store = ShardLeaseStore(cdir)
    ops = ClusterOps(cache_dir)
    observer = LeaseObserver()
    coordinator_id = f"coord-{new_owner_token()}"
    shards = int(manifest["shards"])
    deadline = None if wall_clock_budget is None \
        else time.monotonic() + wall_clock_budget
    while True:
        done = store.done_shards()
        if len(done) >= shards:
            break
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceededError(
                f"campaign {cdir.name} exceeded its "
                f"{wall_clock_budget:g}s budget with "
                f"{shards - len(done)} shard(s) outstanding",
                deadline=wall_clock_budget)
        for shard in range(shards):
            if shard not in done and ClusterOps._shard_blocked(
                    store, shard, config.max_attempts):
                _raise_campaign_failure(cdir, store, shard)
        _break_stale_leases(store, observer, config.lease_timeout)
        if not live_worker_ids(cache_dir):
            # Every worker is gone: the coordinator takes the claim
            # path itself so the campaign still finishes exactly once.
            work = ops.claim(coordinator_id)
            if work is not None and work["campaign"] != cdir.name:
                # Another campaign's shard: give the lease straight
                # back (no failure record) — its own coordinator owns
                # that work.
                lease = ShardLease.from_dict(work["lease"])
                if lease is not None:
                    ops._store(work["campaign"]).release(lease)
                work = None
            if work is not None:
                try:
                    payload = execute_shard(cache_dir, work, ops,
                                            coordinator_id)
                    ops.complete(work["campaign"], work["lease"],
                                 payload)
                except LeaseFencedError:
                    pass  # a worker returned and out-fenced us: fine
                except Exception as raw:  # noqa: BLE001
                    exc = classify_exception(raw)
                    ops.fail(work["campaign"], work["lease"],
                             error=type(exc).__name__, message=str(exc),
                             transient=is_transient(exc))
                continue
        time.sleep(config.poll)

    # Fold the campaign's durable evidence into the metrics the caller
    # serializes to BENCH_pipeline.json.
    lost = store.events("lost")
    metrics.shards_reassigned += sum(1 for e in lost
                                     if not e.get("hedge"))
    metrics.workers_lost += len({e.get("worker") for e in lost})
    metrics.leases_fenced += store.count_events("fenced")
    metrics.hedged_shards += store.count_events("hedge")
    for shard in range(shards):
        marker = store.done(shard)
        if marker and isinstance(marker.get("counters"), dict):
            metrics.merge_dict(marker["counters"])
    return finish()
