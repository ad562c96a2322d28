"""Crash-safety substrate for the experiment engine.

Three cooperating pieces make a long figure sweep survive worker
crashes, SIGKILL and on-disk corruption:

* :mod:`repro.engine.recovery.journal` — per-run append-only JSONL
  journal (fsync'd) recording every task's start/finish/failure and the
  artifacts it produced, replayable for ``--resume``;
* :mod:`repro.engine.recovery.retry` — the transient/permanent failure
  classification over the robustness taxonomy plus capped exponential
  backoff with deterministic jitter;
* :mod:`repro.engine.recovery.fsck` — store integrity scan: verify
  every envelope, quarantine torn/corrupt files, reclaim stale temp
  files (``repro cache fsck [--repair]``).
"""

from repro.engine.recovery.fsck import FsckReport, fsck_store
from repro.engine.recovery.journal import (JournalState, RunJournal,
                                           new_run_id, replay_journal,
                                           verify_completed)
from repro.engine.recovery.retry import RetryPolicy, is_transient

__all__ = [
    "FsckReport",
    "JournalState",
    "RetryPolicy",
    "RunJournal",
    "fsck_store",
    "is_transient",
    "new_run_id",
    "replay_journal",
    "verify_completed",
]
