"""Per-stage observability for the experiment pipeline.

A :class:`PipelineMetrics` instance rides along the pipeline (suite,
store, pool workers) and accumulates wall time per stage, cache hit/miss
counters per artifact kind, and simulation volume.  Workers serialize
their counters with :meth:`PipelineMetrics.to_dict` and the parent folds
them back in with :meth:`PipelineMetrics.merge_dict`, so one object
always holds the whole run's totals — the source of both the report
summary block and the ``--bench-json`` snapshot.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.engine.keys import KINDS, SCHEMA_VERSION

#: pipeline stages with timed compute
STAGES = ("frontend", "profile", "compile", "emulate", "simulate")


@dataclass
class StageMetrics:
    """Compute work actually performed for one stage (misses only)."""

    invocations: int = 0
    wall_seconds: float = 0.0


@dataclass
class CacheMetrics:
    """Store traffic for one artifact kind."""

    hits: int = 0
    misses: int = 0
    #: artifact bytes served from the store (envelope included)
    bytes_read: int = 0
    #: artifact bytes persisted to the store (envelope included)
    bytes_written: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class PipelineMetrics:
    """Wall time, cache traffic and simulation volume for one run."""

    stages: dict[str, StageMetrics] = field(
        default_factory=lambda: {s: StageMetrics() for s in STAGES})
    cache: dict[str, CacheMetrics] = field(
        default_factory=lambda: {k: CacheMetrics() for k in KINDS})
    total_cycles_simulated: int = 0
    jobs_dispatched: int = 0
    worker_crashes: int = 0
    #: transient-failure retries performed by the scheduler
    task_retries: int = 0
    #: total seconds slept in retry backoff (recovery overhead)
    retry_backoff_seconds: float = 0.0
    #: corrupt artifacts moved to quarantine (reads, resume, fsck)
    quarantined_artifacts: int = 0
    #: process pools rebuilt after a worker crash poisoned one
    pool_rebuilds: int = 0
    #: differential fuzz cases executed (see :mod:`repro.fuzz`)
    fuzz_cases: int = 0
    #: fuzz cases that produced a finding (pre-dedupe)
    fuzz_findings: int = 0
    #: distinct triage signatures among the findings
    fuzz_unique_findings: int = 0
    #: campaign wall time (generate + execute + triage + reduce)
    fuzz_seconds: float = 0.0
    #: trace chunks consumed by the vector engine's simulator (see
    #: :mod:`repro.fastpath.vector`); stays 0 on the legacy engine and
    #: with the native kernels off
    vector_chunks_total: int = 0
    #: design-space sweep points evaluated (see :mod:`repro.sweep`)
    sweep_points_total: int = 0
    #: sweep points served entirely from the artifact store (no
    #: compile/emulate/simulate performed)
    sweep_points_cached: int = 0
    #: sweep campaign wall time (expand + fan-out + aggregate)
    sweep_seconds: float = 0.0
    #: the rung the process's native load decided (see
    #: :func:`repro.fastpath.supervisor.rung`): ``native``,
    #: ``interpreter``, or ``interpreter (<error class>)`` after a
    #: failed load; empty when the run never asked for the kernels
    native_rung: str = ""

    # ----- recording ----------------------------------------------------

    @contextmanager
    def timer(self, stage: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            m = self.stages[stage]
            m.invocations += 1
            m.wall_seconds += time.perf_counter() - start

    def record_hit(self, kind: str, nbytes: int = 0) -> None:
        c = self.cache[kind]
        c.hits += 1
        c.bytes_read += nbytes

    def record_miss(self, kind: str) -> None:
        self.cache[kind].misses += 1

    def record_write(self, kind: str, nbytes: int) -> None:
        self.cache[kind].bytes_written += nbytes

    def add_cycles(self, cycles: int) -> None:
        self.total_cycles_simulated += cycles

    def record_stage(self, stage: str, seconds: float,
                     invocations: int = 1) -> None:
        """Credit pre-measured wall time to a stage.

        A fused emulate→simulate run
        (:func:`~repro.fastpath.vector.emulate_and_simulate_vector`,
        or the Python rung's ``emulate_and_simulate_stream``)
        interleaves emulation and simulation inside one call, so it
        times the simulator feeds itself and reports the split here
        instead of via :meth:`timer`.
        """
        m = self.stages.setdefault(stage, StageMetrics())
        m.invocations += invocations
        m.wall_seconds += seconds

    def record_retry(self, backoff_seconds: float) -> None:
        self.task_retries += 1
        self.retry_backoff_seconds += backoff_seconds

    def record_quarantine(self, kind: str) -> None:  # noqa: ARG002
        self.quarantined_artifacts += 1

    def record_fuzz(self, cases: int, findings: int,
                    unique_findings: int, seconds: float) -> None:
        self.fuzz_cases += cases
        self.fuzz_findings += findings
        self.fuzz_unique_findings += unique_findings
        self.fuzz_seconds += seconds

    def record_sweep(self, points: int, cached: int,
                     seconds: float) -> None:
        self.sweep_points_total += points
        self.sweep_points_cached += cached
        self.sweep_seconds += seconds

    # ----- aggregation --------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return sum(c.hits for c in self.cache.values())

    @property
    def cache_misses(self) -> int:
        return sum(c.misses for c in self.cache.values())

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def compute_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.stages.values())

    @property
    def fuzz_cases_per_second(self) -> float:
        if self.fuzz_seconds <= 0:
            return 0.0
        return self.fuzz_cases / self.fuzz_seconds

    @property
    def fuzz_dedupe_ratio(self) -> float:
        """unique findings / raw findings (1.0 when nothing deduped)."""
        if not self.fuzz_findings:
            return 1.0
        return self.fuzz_unique_findings / self.fuzz_findings

    @property
    def vector_chunks_per_second(self) -> float:
        """Vector-backend chunk throughput over simulate wall time."""
        sim = self.stages.get("simulate")
        if sim is None or sim.wall_seconds <= 0:
            return 0.0
        return self.vector_chunks_total / sim.wall_seconds

    @property
    def sweep_points_per_second(self) -> float:
        """Sweep throughput over campaign wall time."""
        if self.sweep_seconds <= 0:
            return 0.0
        return self.sweep_points_total / self.sweep_seconds

    def merge_dict(self, data: dict) -> None:
        """Fold a worker's :meth:`to_dict` counters into this object."""
        for name, stage in data.get("stages", {}).items():
            m = self.stages.setdefault(name, StageMetrics())
            m.invocations += stage.get("invocations", 0)
            m.wall_seconds += stage.get("wall_seconds", 0.0)
        for kind, traffic in data.get("cache", {}).items():
            c = self.cache.setdefault(kind, CacheMetrics())
            c.hits += traffic.get("hits", 0)
            c.misses += traffic.get("misses", 0)
            c.bytes_read += traffic.get("bytes_read", 0)
            c.bytes_written += traffic.get("bytes_written", 0)
        self.total_cycles_simulated += data.get("total_cycles_simulated", 0)
        self.jobs_dispatched += data.get("jobs_dispatched", 0)
        self.worker_crashes += data.get("worker_crashes", 0)
        self.task_retries += data.get("task_retries", 0)
        self.retry_backoff_seconds += data.get("retry_backoff_seconds", 0.0)
        self.quarantined_artifacts += data.get("quarantined_artifacts", 0)
        self.pool_rebuilds += data.get("pool_rebuilds", 0)
        self.fuzz_cases += data.get("fuzz_cases", 0)
        self.fuzz_findings += data.get("fuzz_findings", 0)
        self.fuzz_unique_findings += data.get("fuzz_unique_findings", 0)
        self.fuzz_seconds += data.get("fuzz_seconds", 0.0)
        self.vector_chunks_total += data.get("vector_chunks_total", 0)
        self.sweep_points_total += data.get("sweep_points_total", 0)
        self.sweep_points_cached += data.get("sweep_points_cached", 0)
        self.sweep_seconds += data.get("sweep_seconds", 0.0)
        rung = data.get("native_rung", "")
        if rung and not self.native_rung.startswith("interpreter"):
            # One worker on the interpreter makes the run's rung.
            self.native_rung = rung

    # ----- output -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "stages": {name: {"invocations": m.invocations,
                              "wall_seconds": round(m.wall_seconds, 6)}
                       for name, m in self.stages.items()},
            "cache": {kind: {"hits": c.hits, "misses": c.misses,
                             "hit_rate": round(c.hit_rate, 4),
                             "bytes_read": c.bytes_read,
                             "bytes_written": c.bytes_written}
                      for kind, c in self.cache.items()},
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.hit_rate, 4),
            "total_cycles_simulated": self.total_cycles_simulated,
            "jobs_dispatched": self.jobs_dispatched,
            "worker_crashes": self.worker_crashes,
            "task_retries": self.task_retries,
            "retry_backoff_seconds": round(self.retry_backoff_seconds, 6),
            "quarantined_artifacts": self.quarantined_artifacts,
            "pool_rebuilds": self.pool_rebuilds,
            "fuzz_cases": self.fuzz_cases,
            "fuzz_findings": self.fuzz_findings,
            "fuzz_unique_findings": self.fuzz_unique_findings,
            "fuzz_seconds": round(self.fuzz_seconds, 6),
            "fuzz_cases_per_second": round(self.fuzz_cases_per_second, 3),
            "fuzz_dedupe_ratio": round(self.fuzz_dedupe_ratio, 4),
            "vector_chunks_total": self.vector_chunks_total,
            "vector_chunks_per_second": round(
                self.vector_chunks_per_second, 3),
            "sweep_points_total": self.sweep_points_total,
            "sweep_points_cached": self.sweep_points_cached,
            "sweep_seconds": round(self.sweep_seconds, 6),
            "sweep_points_per_second": round(
                self.sweep_points_per_second, 3),
            "native_rung": self.native_rung,
        }

    def write_json(self, path: str) -> None:
        """Dump this run's counters (:meth:`to_dict`) as JSON to
        ``path``, replacing whatever the file held."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        """Human-readable pipeline summary block."""
        lines = ["pipeline metrics", "----------------"]
        for name in STAGES:
            m = self.stages[name]
            lines.append(f"  {name:<9s} {m.invocations:>5d} computed "
                         f"in {m.wall_seconds:8.2f}s")
        total = self.cache_hits + self.cache_misses
        if total:
            lines.append(f"  cache     {self.cache_hits}/{total} hits "
                         f"({self.hit_rate * 100:.1f}%)")
            read = sum(c.bytes_read for c in self.cache.values())
            written = sum(c.bytes_written for c in self.cache.values())
            if read or written:
                lines.append(f"  bytes     {read / 1024:.1f} KiB read, "
                             f"{written / 1024:.1f} KiB written")
        else:
            lines.append("  cache     (disabled)")
        lines.append(f"  simulated {self.total_cycles_simulated} cycles")
        if self.jobs_dispatched:
            lines.append(f"  jobs      {self.jobs_dispatched} dispatched, "
                         f"{self.worker_crashes} worker crashes")
        if self.task_retries or self.quarantined_artifacts \
                or self.pool_rebuilds:
            lines.append(
                f"  recovery  {self.task_retries} retries "
                f"({self.retry_backoff_seconds:.2f}s backoff), "
                f"{self.quarantined_artifacts} quarantined, "
                f"{self.pool_rebuilds} pool rebuilds")
        if self.fuzz_cases:
            lines.append(
                f"  fuzz      {self.fuzz_cases} cases in "
                f"{self.fuzz_seconds:.2f}s "
                f"({self.fuzz_cases_per_second:.1f}/s), "
                f"{self.fuzz_findings} findings "
                f"({self.fuzz_unique_findings} unique, dedupe ratio "
                f"{self.fuzz_dedupe_ratio:.2f})")
        if self.vector_chunks_total:
            lines.append(
                f"  vector    {self.vector_chunks_total} chunks "
                f"({self.vector_chunks_per_second:.1f}/s over simulate "
                f"time)")
        if self.sweep_points_total:
            lines.append(
                f"  sweep     {self.sweep_points_total} points "
                f"({self.sweep_points_cached} warm) in "
                f"{self.sweep_seconds:.2f}s "
                f"({self.sweep_points_per_second:.2f}/s)")
        if self.native_rung:
            lines.append(f"  rung      {self.native_rung}")
        return "\n".join(lines)

