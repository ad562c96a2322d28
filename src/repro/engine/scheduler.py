"""DAG job scheduler over a process pool.

Jobs carry dependency edges (a workload's prepare job precedes its
measure jobs, and the first compile of a model precedes the rest); the
scheduler dispatches every job whose
dependencies are satisfied to a :class:`~concurrent.futures.\
ProcessPoolExecutor`, collects results as they finish, and contains
three failure classes:

* **transient typed failures** — a worker raised something the
  recovery policy classifies as retryable (corrupt-artifact read,
  disk-full ``OSError``; see
  :mod:`repro.engine.recovery.retry`); the job is re-queued with capped
  exponential backoff and deterministic jitter, up to
  ``retry.max_attempts`` total tries, and only the *final* failure is
  recorded;
* **permanent typed failures** — a worker raised a deterministic error
  (``CompileError`` and friends pickle back across the pool); the job
  is recorded as failed immediately and its transitive dependents are
  *skipped*;
* **worker crashes** — a worker died (segfault, ``os._exit``, OOM
  kill), which poisons the whole pool.  The pool is rebuilt (counted in
  ``PipelineMetrics.pool_rebuilds``) and, after repeated breakages,
  *shrunk* one worker at a time (floor 1) with a structured warning —
  degraded throughput beats an aborted DAG.  A breakage with several
  jobs in flight is ambiguous, so it is counted against *nobody*: every
  in-flight job becomes a suspect and is retried one at a time, so the
  next breakage unambiguously identifies the culprit.  A job that
  breaks the pool ``_MAX_CRASHES`` times while running alone is
  recorded as crashed (``JobFailure.crashed``); its dependents are
  skipped and everything else completes.

``on_complete`` (when given) fires in the parent for every successful
job *as it finishes* — the hook the run journal uses to make progress
durable before the suite moves on, so a SIGKILL of the whole suite
loses at most the jobs completed after the last journal fsync.

``max_workers <= 1`` executes in-process in topological order with the
same failure and retry semantics — the serial path needs no pool, no
pickling and no subprocess startup cost.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import FIRST_COMPLETED, Future, \
    ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.metrics import PipelineMetrics
from repro.engine.recovery.retry import RetryPolicy, is_transient
from repro.robustness.errors import classify_exception

logger = logging.getLogger("repro.engine.scheduler")

#: a job breaking the pool this many times *while running alone* is
#: declared the culprit (the first solo crash earns one retry, so a
#: transient worker death does not condemn a healthy job)
_MAX_CRASHES = 2


@dataclass(frozen=True)
class Job:
    """One schedulable unit of work.

    ``fn`` must be a module-level callable (the pool pickles it by
    reference) and ``args`` must be picklable.  ``workload`` and
    ``stage`` annotate failures in the journal and error messages;
    ``artifacts`` lists the ``(kind, key)`` pairs the job persists, so
    the run journal can record verified completion.
    """

    job_id: str
    fn: Callable[..., Any]
    args: tuple = ()
    deps: tuple[str, ...] = ()
    workload: str | None = None
    stage: str = "job"
    artifacts: tuple[tuple[str, str], ...] = ()


@dataclass
class JobFailure:
    """Terminal outcome of a failed or crashed job."""

    job_id: str
    workload: str | None
    stage: str
    error_type: str
    message: str
    crashed: bool = False
    #: the original exception, for strict-mode re-raise (None on crash)
    exception: BaseException | None = None
    #: total attempts consumed (1 = failed on the first try)
    attempts: int = 1
    #: the recovery policy classified this failure as retryable (it
    #: still exhausted its attempts)
    transient: bool = False


@dataclass
class SchedulerOutcome:
    """Everything the caller learns from one DAG execution."""

    results: dict[str, Any] = field(default_factory=dict)
    failures: list[JobFailure] = field(default_factory=list)
    #: job_id -> failed job that (transitively) caused the skip
    skipped: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.skipped


def _validate(jobs: list[Job]) -> dict[str, Job]:
    by_id: dict[str, Job] = {}
    for job in jobs:
        if job.job_id in by_id:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        by_id[job.job_id] = job
    for job in jobs:
        for dep in job.deps:
            if dep not in by_id:
                raise ValueError(
                    f"job {job.job_id!r} depends on unknown job {dep!r}")
    # Kahn's algorithm for cycle detection (also yields the serial order).
    return by_id


def _topo_order(by_id: dict[str, Job]) -> list[Job]:
    pending = {jid: len(job.deps) for jid, job in by_id.items()}
    dependents: dict[str, list[str]] = {jid: [] for jid in by_id}
    for job in by_id.values():
        for dep in job.deps:
            dependents[dep].append(job.job_id)
    ready = [jid for jid, n in pending.items() if n == 0]
    order: list[Job] = []
    while ready:
        jid = ready.pop()
        order.append(by_id[jid])
        for succ in dependents[jid]:
            pending[succ] -= 1
            if pending[succ] == 0:
                ready.append(succ)
    if len(order) != len(by_id):
        cyclic = sorted(jid for jid, n in pending.items() if n > 0)
        raise ValueError(f"job graph has a cycle through {cyclic}")
    return order


def _skip_dependents(job_id: str, by_id: dict[str, Job],
                     outcome: SchedulerOutcome) -> None:
    """Transitively mark every dependent of ``job_id`` as skipped."""
    frontier = [job_id]
    while frontier:
        failed = frontier.pop()
        for job in by_id.values():
            if failed in job.deps and job.job_id not in outcome.skipped \
                    and job.job_id not in outcome.results:
                outcome.skipped[job.job_id] = job_id
                frontier.append(job.job_id)


def _record_failure(job: Job, exc: BaseException,
                    outcome: SchedulerOutcome, crashed: bool = False,
                    attempts: int = 1) -> None:
    outcome.failures.append(JobFailure(
        job_id=job.job_id, workload=job.workload, stage=job.stage,
        error_type=type(exc).__name__ if not crashed else "WorkerCrash",
        message=str(exc), crashed=crashed,
        exception=None if crashed else exc, attempts=attempts,
        transient=crashed or is_transient(exc)))


def execute_jobs(jobs: list[Job], max_workers: int = 1,
                 retry: RetryPolicy | None = None,
                 metrics: PipelineMetrics | None = None,
                 on_complete: Callable[[Job, Any], None] | None = None
                 ) -> SchedulerOutcome:
    """Run a job DAG; never raises for job failures, only misuse."""
    by_id = _validate(jobs)
    order = _topo_order(by_id)
    if retry is None:
        retry = RetryPolicy()
    if metrics is None:
        metrics = PipelineMetrics()
    if max_workers <= 1 or len(jobs) <= 1:
        return _execute_serial(order, by_id, retry, metrics, on_complete)
    return _execute_pool(order, by_id, max_workers, retry, metrics,
                         on_complete)


def _execute_serial(order: list[Job], by_id: dict[str, Job],
                    retry: RetryPolicy, metrics: PipelineMetrics,
                    on_complete: Callable[[Job, Any], None] | None
                    ) -> SchedulerOutcome:
    outcome = SchedulerOutcome()
    for job in order:
        # _skip_dependents marks the transitive closure of a failure,
        # so one membership test covers failed deps at any distance.
        if job.job_id in outcome.skipped:
            continue
        attempt = 0
        while True:
            attempt += 1
            try:
                result = job.fn(*job.args)
            except Exception as raw:
                # Classify, don't swallow: everything downstream (the
                # failure record, the journal, the CLI's exit-code
                # mapping) sees a typed taxonomy member, never a stray
                # KeyError out of a pass.
                exc = classify_exception(raw)
                if retry.should_retry(exc, attempt):
                    backoff = retry.backoff(job.job_id, attempt)
                    metrics.record_retry(backoff)
                    logger.warning(
                        "retrying job after transient failure: "
                        "job=%s attempt=%d error=%s backoff=%.3fs",
                        job.job_id, attempt, type(exc).__name__, backoff)
                    time.sleep(backoff)
                    continue
                _record_failure(job, exc, outcome, attempts=attempt)
                _skip_dependents(job.job_id, by_id, outcome)
                break
            outcome.results[job.job_id] = result
            if on_complete is not None:
                on_complete(job, result)
            break
    return outcome


def _execute_pool(order: list[Job], by_id: dict[str, Job],
                  max_workers: int, retry: RetryPolicy,
                  metrics: PipelineMetrics,
                  on_complete: Callable[[Job, Any], None] | None
                  ) -> SchedulerOutcome:
    outcome = SchedulerOutcome()
    remaining = set(by_id)
    #: pool breakages observed while the job ran *alone* in the pool
    crash_counts: dict[str, int] = {}
    #: jobs to retry one at a time after an ambiguous group breakage
    suspects: list[str] = []
    #: (ready_time, job_id) for transient failures in their backoff
    backoff_queue: list[tuple[float, str]] = []
    waiting_backoff: set[str] = set()
    attempts: dict[str, int] = {}
    pool_breakages = 0
    workers = max_workers
    executor = ProcessPoolExecutor(max_workers=workers)
    in_flight: dict[Future, Job] = {}

    def submit(job: Job) -> None:
        attempts[job.job_id] = attempts.get(job.job_id, 0) + 1
        in_flight[executor.submit(job.fn, *job.args)] = job

    def dispatch() -> None:
        now = time.monotonic()
        # Backed-off retries whose delay elapsed go first: they already
        # held a slot in a previous attempt and their dependents wait.
        for entry in sorted(backoff_queue):
            ready_at, jid = entry
            if ready_at > now:
                break
            backoff_queue.remove(entry)
            waiting_backoff.discard(jid)
            if jid in remaining and jid not in outcome.skipped:
                submit(by_id[jid])
        # Quarantine mode: retry suspects one at a time, so a breakage
        # is only ever attributed to a job that was running alone.
        while suspects:
            if in_flight:
                return
            jid = suspects.pop(0)
            if jid in remaining and jid not in outcome.skipped:
                submit(by_id[jid])
                return
        # Normal mode: dispatch every job whose dependencies succeeded.
        launched = {job.job_id for job in in_flight.values()}
        for job in order:
            if job.job_id not in remaining \
                    or job.job_id in launched \
                    or job.job_id in outcome.skipped \
                    or job.job_id in waiting_backoff:
                continue
            if all(dep in outcome.results for dep in job.deps):
                submit(job)

    def rebuild_pool() -> None:
        nonlocal executor, workers, pool_breakages
        pool_breakages += 1
        metrics.pool_rebuilds += 1
        executor.shutdown(wait=False, cancel_futures=True)
        if pool_breakages > 1 and workers > 1:
            workers -= 1
            logger.warning(
                "worker pool degraded after repeated crashes: "
                "breakages=%d workers=%d (was %d)",
                pool_breakages, workers, max_workers)
        else:
            logger.warning(
                "worker pool rebuilt after a crash: breakages=%d "
                "workers=%d", pool_breakages, workers)
        executor = ProcessPoolExecutor(max_workers=workers)

    def next_backoff_delta() -> float | None:
        if not backoff_queue:
            return None
        return max(0.0, min(t for t, _ in backoff_queue)
                   - time.monotonic())

    try:
        while True:
            dispatch()
            if not in_flight:
                delta = next_backoff_delta()
                if delta is None:
                    break
                time.sleep(delta)
                continue
            done, _ = wait(in_flight, timeout=next_backoff_delta(),
                           return_when=FIRST_COMPLETED)
            pool_broken = False
            requeue: list[Job] = []
            for future in done:
                job = in_flight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    requeue.append(job)
                except Exception as raw:
                    exc = classify_exception(raw)
                    attempt = attempts.get(job.job_id, 1)
                    if retry.should_retry(exc, attempt):
                        backoff = retry.backoff(job.job_id, attempt)
                        metrics.record_retry(backoff)
                        logger.warning(
                            "retrying job after transient failure: "
                            "job=%s attempt=%d error=%s backoff=%.3fs",
                            job.job_id, attempt, type(exc).__name__,
                            backoff)
                        backoff_queue.append(
                            (time.monotonic() + backoff, job.job_id))
                        waiting_backoff.add(job.job_id)
                    else:
                        remaining.discard(job.job_id)
                        _record_failure(job, exc, outcome,
                                        attempts=attempt)
                        _skip_dependents(job.job_id, by_id, outcome)
                else:
                    outcome.results[job.job_id] = result
                    remaining.discard(job.job_id)
                    if on_complete is not None:
                        on_complete(job, result)
            if pool_broken:
                # The pool is poisoned: every other in-flight future is
                # doomed too.  Gather them all, then triage.
                requeue.extend(in_flight.values())
                in_flight.clear()
                rebuild_pool()
                if len(requeue) == 1:
                    # Unambiguous: this job was alone when the pool died.
                    job = requeue[0]
                    crash_counts[job.job_id] = \
                        crash_counts.get(job.job_id, 0) + 1
                    if crash_counts[job.job_id] >= _MAX_CRASHES:
                        remaining.discard(job.job_id)
                        outcome.failures.append(JobFailure(
                            job_id=job.job_id, workload=job.workload,
                            stage=job.stage, error_type="WorkerCrash",
                            message=f"worker crashed while running "
                                    f"{job.job_id} ({crash_counts[job.job_id]}"
                                    f" solo pool breakages)", crashed=True,
                            attempts=attempts.get(job.job_id, 1),
                            transient=True))
                        _skip_dependents(job.job_id, by_id, outcome)
                    else:
                        suspects.append(job.job_id)
                else:
                    # Ambiguous: quarantine everyone, counting nothing —
                    # an innocent job co-resident with a killer must
                    # never be blamed for the killer's breakage.
                    suspects.extend(job.job_id for job in requeue)
        return outcome
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
