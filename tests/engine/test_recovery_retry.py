"""Retry policy: transient classification, deterministic backoff, and
the scheduler actually retrying."""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine.metrics import PipelineMetrics
from repro.engine.recovery.retry import RetryPolicy, is_transient
from repro.engine.scheduler import Job, execute_jobs
from repro.robustness.errors import (CompileError, ModelDivergenceError,
                                     NativeKernelCrash,
                                     NativeToolchainMissing,
                                     PassVerificationError,
                                     TraceIntegrityError)
from tests.engine import jobhelpers


@pytest.mark.parametrize("exc", [
    BrokenProcessPool("pool died"),
    TraceIntegrityError("corrupt artifact"),
    NativeToolchainMissing("no C compiler"),
    NativeKernelCrash("sandboxed segfault"),
    TimeoutError("slow"),
    OSError(28, "No space left on device"),
])
def test_transient_failures(exc):
    assert is_transient(exc)


@pytest.mark.parametrize("exc", [
    CompileError("bad program", pass_name="p"),
    PassVerificationError("verifier", pass_name="p"),
    ModelDivergenceError("models disagree"),
    ValueError("misuse"),
])
def test_permanent_failures(exc):
    assert not is_transient(exc)


def test_backoff_is_deterministic_and_capped():
    policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5, jitter=0.25)
    first = [policy.backoff("task-a", n) for n in range(1, 8)]
    second = [policy.backoff("task-a", n) for n in range(1, 8)]
    assert first == second                      # seeded jitter
    assert all(b <= 0.5 * 1.25 for b in first)  # capped (+jitter)
    assert first != [policy.backoff("task-b", n) for n in range(1, 8)]


def test_backoff_grows_exponentially_before_the_cap():
    policy = RetryPolicy(backoff_base=0.1, backoff_cap=100.0, jitter=0.0)
    assert policy.backoff("t", 1) == pytest.approx(0.1)
    assert policy.backoff("t", 2) == pytest.approx(0.2)
    assert policy.backoff("t", 3) == pytest.approx(0.4)


def test_should_retry_honors_attempt_budget():
    policy = RetryPolicy(max_attempts=3)
    exc = TraceIntegrityError("corrupt artifact")
    assert policy.should_retry(exc, 1) and policy.should_retry(exc, 2)
    assert not policy.should_retry(exc, 3)
    assert not policy.should_retry(CompileError("no", pass_name="p"), 1)


# ----- the scheduler actually retrying --------------------------------------

def test_serial_retry_recovers_from_transient_failure(tmp_path):
    counter = tmp_path / "attempts"
    jobs = [Job(job_id="flaky", fn=jobhelpers.flaky_transient,
                args=(str(counter), 2))]
    metrics = PipelineMetrics()
    policy = RetryPolicy(max_attempts=3, backoff_base=0.001,
                         backoff_cap=0.01)
    outcome = execute_jobs(jobs, max_workers=1, retry=policy,
                           metrics=metrics)
    assert outcome.ok
    assert outcome.results["flaky"] == 2
    assert metrics.task_retries == 1
    assert metrics.retry_backoff_seconds > 0.0


def test_serial_retry_exhaustion_records_final_failure(tmp_path):
    counter = tmp_path / "attempts"
    jobs = [Job(job_id="doomed", fn=jobhelpers.flaky_transient,
                args=(str(counter), 99))]
    policy = RetryPolicy(max_attempts=2, backoff_base=0.001,
                         backoff_cap=0.01)
    outcome = execute_jobs(jobs, max_workers=1, retry=policy)
    assert len(outcome.failures) == 1
    failure = outcome.failures[0]
    assert failure.transient and failure.attempts == 2
    assert failure.error_type == "TraceIntegrityError"


def test_serial_permanent_failure_is_not_retried(tmp_path):
    jobs = [Job(job_id="perm", fn=jobhelpers.fail)]
    metrics = PipelineMetrics()
    outcome = execute_jobs(jobs, max_workers=1, metrics=metrics)
    assert metrics.task_retries == 0
    assert outcome.failures[0].attempts == 1
    assert not outcome.failures[0].transient


def test_pool_retry_recovers_from_transient_failure(tmp_path):
    counter = tmp_path / "attempts"
    jobs = [Job(job_id="flaky", fn=jobhelpers.flaky_transient,
                args=(str(counter), 2)),
            Job(job_id="steady", fn=jobhelpers.ok, args=(7,))]
    metrics = PipelineMetrics()
    policy = RetryPolicy(max_attempts=3, backoff_base=0.001,
                         backoff_cap=0.01)
    outcome = execute_jobs(jobs, max_workers=2, retry=policy,
                           metrics=metrics)
    assert outcome.ok
    assert outcome.results == {"flaky": 2, "steady": 7}
    assert metrics.task_retries >= 1


def test_pool_crash_rebuilds_and_recovers(tmp_path):
    sentinel = tmp_path / "crashed.sentinel"
    jobs = [Job(job_id="crasher", fn=jobhelpers.crash_once,
                args=(str(sentinel),)),
            Job(job_id="steady", fn=jobhelpers.ok, args=(7,)),
            Job(job_id="dependent", fn=jobhelpers.double, args=(21,),
                deps=("crasher",))]
    metrics = PipelineMetrics()
    outcome = execute_jobs(jobs, max_workers=2, metrics=metrics)
    assert outcome.ok
    assert outcome.results == {"crasher": "survived", "steady": 7,
                               "dependent": 42}
    assert metrics.pool_rebuilds >= 1


def test_on_complete_fires_per_success():
    seen = []
    jobs = [Job(job_id="a", fn=jobhelpers.ok, args=(1,)),
            Job(job_id="b", fn=jobhelpers.fail, deps=("a",)),
            Job(job_id="c", fn=jobhelpers.ok, args=(3,), deps=("b",))]
    outcome = execute_jobs(
        jobs, max_workers=1,
        on_complete=lambda job, result: seen.append((job.job_id, result)))
    assert seen == [("a", 1)]
    assert "c" in outcome.skipped
