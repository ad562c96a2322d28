"""Execution engine: content-addressed artifact cache + job scheduler.

The experiment pipeline has three expensive stages per (workload, model,
machine) triple — compile, emulate, simulate — and the paper's own
methodology (Section 4.1) amortizes one emulation across many machine
configurations.  This package makes that amortization durable and
parallel:

* :mod:`repro.engine.keys` — stable content digests for every pipeline
  input, so artifacts are addressed by *what produced them*;
* :mod:`repro.engine.serialize` — a versioned, digest-verified envelope
  for programs, traces and statistics crossing process/disk boundaries;
* :mod:`repro.engine.store` — the content-addressed on-disk store with
  atomic writes and load-time corruption detection;
* :mod:`repro.engine.stages` — the memoized, store-backed pipeline the
  experiment suite and the pool workers share;
* :mod:`repro.engine.scheduler` — a DAG job scheduler over a process
  pool with worker-crash containment;
* :mod:`repro.engine.metrics` — per-stage wall time and cache hit/miss
  counters, dumped by ``--bench-json``.
"""

from repro.engine.keys import SCHEMA_VERSION, stable_digest
from repro.engine.metrics import PipelineMetrics
from repro.engine.scheduler import Job, JobFailure, SchedulerOutcome, \
    execute_jobs
from repro.engine.stages import PipelineContext, RunSummary
from repro.engine.store import ArtifactStore

__all__ = [
    "SCHEMA_VERSION", "stable_digest", "PipelineMetrics", "Job",
    "JobFailure", "SchedulerOutcome", "execute_jobs", "PipelineContext",
    "RunSummary", "ArtifactStore",
]
