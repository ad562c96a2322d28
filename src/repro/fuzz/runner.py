"""Campaign orchestration: generate → execute → triage → reduce → save.

A campaign of ``budget`` cases is split into fixed-size chunks, each a
:class:`~repro.engine.scheduler.Job` executed by the engine's parallel
pool (``--jobs``), so fuzzing shares the scheduler's crash quarantine
and retry machinery with the rest of the pipeline.  Determinism is by
construction, not by scheduling: case ``i`` of master seed ``S`` is the
same program regardless of chunking or worker count, and reports are
re-sorted into case order before triage, so two campaigns with the same
``(seed, budget)`` are identical case-for-case at any ``--jobs``.

Findings are deduped by triage signature; the first witness of each
signature is delta-debug-reduced in the parent process and written to
the corpus as a ``fuzz:<case-id>`` entry carrying the signature.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.metrics import PipelineMetrics
from repro.engine.scheduler import Job, execute_jobs
from repro.fuzz.corpus import CorpusEntry, save_entry
from repro.fuzz.executor import CaseReport, ExecutorConfig, run_case
from repro.fuzz.generator import generate_case
from repro.fuzz.reduce import ReductionStats, reduce_source
from repro.fuzz.triage import CrashSignature, TriageBucket, dedupe

#: cases per scheduler job — large enough to amortize worker dispatch,
#: small enough that --jobs 4 balances even a 24-case smoke campaign
CHUNK_SIZE = 4


def shard_ranges(total: int, size: int) -> list[tuple[int, int]]:
    """Deterministic ``(start, count)`` partition of ``total`` items.

    The ``(seed, index)`` work-partitioning template: item ``i`` lands
    in the same chunk at any worker count, so every process derives
    identical fuzz work sets from ``(identity, index)`` alone.
    """
    size = max(1, int(size))
    return [(start, min(size, total - start))
            for start in range(0, max(0, total), size)]


@dataclass(frozen=True)
class FuzzChunkSpec:
    """Picklable description of one chunk of a campaign."""

    master_seed: int
    start_index: int
    count: int
    config: ExecutorConfig


def fuzz_chunk(spec: FuzzChunkSpec) -> list[dict]:
    """Scheduler worker: run cases ``start..start+count`` of a campaign.

    Module-level and dict-in/dict-out so the process pool can pickle
    it.  Each case is generated inside the worker from ``(master_seed,
    index)`` — chunks carry no program text across the pool boundary.
    """
    reports = []
    for index in range(spec.start_index, spec.start_index + spec.count):
        case = generate_case(spec.master_seed, index)
        reports.append(run_case(case, spec.config).to_dict())
    return reports


@dataclass
class CampaignResult:
    """Everything one ``repro fuzz run`` produced."""

    master_seed: int
    budget: int
    reports: list[CaseReport]
    buckets: dict[str, TriageBucket]
    #: signature key -> (reduced source, reduction stats)
    reductions: dict[str, tuple[str, ReductionStats]] = \
        field(default_factory=dict)
    saved_entries: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def case_count(self) -> int:
        return len(self.reports)

    @property
    def finding_count(self) -> int:
        return sum(1 for r in self.reports if r.is_finding)

    @property
    def unique_findings(self) -> int:
        return len(self.buckets)

    @property
    def cases_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.case_count / self.wall_seconds


def _reduce_finding(witness_case, signature: CrashSignature,
                    config: ExecutorConfig
                    ) -> tuple[str, ReductionStats]:
    """Shrink a witness while it keeps producing ``signature``."""

    def interesting(candidate: str) -> bool:
        from repro.fuzz.generator import FuzzCase
        probe = FuzzCase(case_id=witness_case.case_id,
                         seed=witness_case.seed,
                         profile=witness_case.profile,
                         source=candidate, inputs=witness_case.inputs)
        report = run_case(probe, config)
        return (report.is_finding
                and report.signature is not None
                and report.signature.get("key") == signature.key)

    return reduce_source(witness_case.source, interesting)


def run_campaign(master_seed: int, budget: int, *, jobs: int = 1,
                 config: ExecutorConfig | None = None,
                 corpus_dir: Path | str | None = None,
                 save_findings: bool = True,
                 reduce_findings: bool = True,
                 metrics: PipelineMetrics | None = None,
                 progress=None) -> CampaignResult:
    """Run ``budget`` differential cases under ``master_seed``.

    Findings are deduped by signature; the first witness per signature
    is reduced (in-process) and saved to the corpus with
    ``expect: "finding"`` provenance so the bug can be fixed against a
    minimal reproducer.  ``progress`` is an optional callable receiving
    one completed chunk's report count at a time.
    """
    if config is None:
        config = ExecutorConfig()
    start = time.perf_counter()

    scheduled = []
    for chunk_start, count in shard_ranges(budget, CHUNK_SIZE):
        spec = FuzzChunkSpec(master_seed=master_seed,
                             start_index=chunk_start, count=count,
                             config=config)
        scheduled.append(Job(
            job_id=f"fuzz-{master_seed:x}-{chunk_start:05d}",
            fn=fuzz_chunk, args=(spec,),
            workload=f"fuzz-chunk-{chunk_start:05d}", stage="fuzz"))

    def on_complete(job: Job, result) -> None:
        if progress is not None:
            progress(len(result))

    outcome = execute_jobs(scheduled, max_workers=jobs,
                           metrics=metrics, on_complete=on_complete)
    reports = [CaseReport.from_dict(d)
               for job in scheduled
               for d in outcome.results.get(job.job_id, [])]
    # A crashed chunk loses its cases; surface the gap as a synthetic
    # finding rather than silently under-reporting the budget.
    for failure in outcome.failures:
        reports.append(CaseReport(
            case_id=failure.job_id, seed=master_seed,
            profile="chunk", verdict="finding",
            signature=CrashSignature(
                "chunk-crash", failure.error_type).to_dict(),
            message=failure.message))
    reports.sort(key=lambda r: r.case_id)

    buckets = dedupe(r for r in reports if r.is_finding)
    result = CampaignResult(master_seed=master_seed, budget=budget,
                            reports=reports, buckets=buckets)

    for key, bucket in buckets.items():
        witness_id = bucket.case_ids[0]
        witness = _case_by_id(master_seed, budget, witness_id)
        if witness is None:
            continue  # synthetic chunk-crash entries have no source
        source, stats = (witness.source,
                         ReductionStats(witness.line_count,
                                        witness.line_count))
        if reduce_findings:
            try:
                source, stats = _reduce_finding(witness,
                                                bucket.signature,
                                                config)
            except ValueError:
                pass  # flaky witness: keep the unreduced source
        result.reductions[key] = (source, stats)
        if save_findings:
            entry = CorpusEntry(
                entry_id=f"finding-{key}",
                source=source, inputs=witness.inputs,
                expect="finding",
                provenance=f"fuzz:{witness.case_id}",
                signature=bucket.signature.to_dict(),
                notes=(f"{bucket.count} witness(es) in campaign "
                       f"seed={master_seed:#x} budget={budget}"))
            save_entry(entry, corpus_dir)
            result.saved_entries.append(entry.entry_id)

    result.wall_seconds = time.perf_counter() - start
    if metrics is not None:
        metrics.record_fuzz(cases=result.case_count,
                            findings=result.finding_count,
                            unique_findings=result.unique_findings,
                            seconds=result.wall_seconds)
    return result


def _case_by_id(master_seed: int, budget: int, case_id: str):
    """Regenerate the campaign case with ``case_id`` (None if absent)."""
    prefix = f"case-{master_seed:x}-"
    if not case_id.startswith(prefix):
        return None
    try:
        index = int(case_id[len(prefix):])
    except ValueError:
        return None
    if not 0 <= index < budget:
        return None
    return generate_case(master_seed, index)
