"""Append-only, fsync'd run journal for resumable experiment suites.

Every suite/figure run gets a run id and one JSONL file under
``<cache-dir>/runs/<RUN_ID>.jsonl``.  Each record is a single JSON
object flushed *and fsync'd* before the write that it describes is
considered durable, so a run killed with SIGKILL loses at most the
records of tasks that finished after the last fsync — and those tasks'
artifacts are still in the content-addressed store, where the resume
path rediscovers them.

Record types::

    {"type": "run-start",  "run_id": ..., "time": ..., "meta": {...}}
    {"type": "run-resume", "run_id": ..., "time": ...}
    {"type": "task-start", "task": ..., "spec": ..., "attempt": n}
    {"type": "task-finish","task": ..., "artifacts": [[kind, key, sha256], ...]}
    {"type": "task-fail",  "task": ..., "error": ..., "transient": bool, ...}
    {"type": "run-finish", "ok": bool, "time": ...}

``replay_journal`` tolerates a torn final line (the crash may land
mid-append) and ``verify_completed`` re-verifies each recorded
artifact's on-disk digest before a resumed run is allowed to skip the
task — a journal entry is a *claim*, the store bytes are the proof.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.robustness.errors import ReproError


def new_run_id() -> str:
    """Sortable-by-start-time, globally unique run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"R{stamp}-{uuid.uuid4().hex[:8]}"


def journal_path(runs_dir: str | os.PathLike, run_id: str) -> Path:
    return Path(runs_dir) / f"{run_id}.jsonl"


@dataclass
class JournalState:
    """Everything a resume needs, reconstructed from one journal file."""

    run_id: str
    meta: dict = field(default_factory=dict)
    #: task id -> [(kind, key, sha256), ...] of its recorded artifacts
    completed: dict[str, list[tuple[str, str, str]]] = \
        field(default_factory=dict)
    #: task id -> last task-fail record
    failed: dict[str, dict] = field(default_factory=dict)
    #: task id -> highest attempt seen in task-start records
    attempts: dict[str, int] = field(default_factory=dict)
    records: int = 0
    #: torn/unparsable lines skipped during replay (normally 0 or 1)
    torn_lines: int = 0
    finished: bool = False


def replay_journal(path: str | os.PathLike) -> JournalState:
    """Reconstruct run state; raises :class:`ReproError` if missing."""
    path = Path(path)
    try:
        lines = path.read_bytes().splitlines()
    except FileNotFoundError:
        raise ReproError(f"no journal at {path} — unknown run id?") \
            from None
    state = JournalState(run_id=path.stem)
    for raw in lines:
        try:
            record = json.loads(raw)
        except ValueError:
            # A SIGKILL mid-append leaves at most one torn line; count
            # it and move on — every *durable* record already parsed.
            state.torn_lines += 1
            continue
        state.records += 1
        rtype = record.get("type")
        if rtype == "run-start":
            state.run_id = record.get("run_id", state.run_id)
            state.meta = record.get("meta", {})
        elif rtype == "task-start":
            task = record["task"]
            state.attempts[task] = max(state.attempts.get(task, 0),
                                       int(record.get("attempt", 1)))
        elif rtype == "task-finish":
            task = record["task"]
            state.completed[task] = [
                (str(k), str(key), str(sha))
                for k, key, sha in record.get("artifacts", [])]
            state.failed.pop(task, None)
        elif rtype == "task-fail":
            task = record["task"]
            if task not in state.completed:
                state.failed[task] = record
        elif rtype == "run-finish":
            state.finished = bool(record.get("ok"))
    return state


def verify_completed(state: JournalState, store) -> \
        tuple[set[str], dict[str, str]]:
    """Check each completed task's artifacts against the store.

    Returns ``(verified_task_ids, invalid)`` where ``invalid`` maps a
    task id to the reason its journal claim failed verification.  An
    artifact whose on-disk digest differs from the recorded one is
    quarantined (via :meth:`ArtifactStore.quarantine`) so the resumed
    run recomputes it instead of trusting corrupt bytes.
    """
    verified: set[str] = set()
    invalid: dict[str, str] = {}
    for task, artifacts in state.completed.items():
        reason = None
        for kind, key, recorded_sha in artifacts:
            actual = store.digest_of(kind, key)
            if actual is None:
                reason = f"{kind}/{key[:12]} missing from the store"
                break
            if actual != recorded_sha:
                store.quarantine(kind, key, reason="resume-digest-mismatch")
                reason = (f"{kind}/{key[:12]} digest mismatch "
                          f"(quarantined)")
                break
        if reason is None:
            verified.add(task)
        else:
            invalid[task] = reason
    return verified, invalid


class RunJournal:
    """Writer half: append records durably to one run's journal file."""

    def __init__(self, path: Path, run_id: str):
        self.path = Path(path)
        self.run_id = run_id
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    # ----- constructors -------------------------------------------------

    @classmethod
    def create(cls, runs_dir: str | os.PathLike, run_id: str | None = None,
               meta: dict | None = None) -> "RunJournal":
        run_id = run_id or new_run_id()
        journal = cls(journal_path(runs_dir, run_id), run_id)
        journal.append({"type": "run-start", "run_id": run_id,
                        "time": time.time(), "meta": meta or {}})
        return journal

    @classmethod
    def resume(cls, runs_dir: str | os.PathLike, run_id: str
               ) -> "tuple[RunJournal, JournalState]":
        path = journal_path(runs_dir, run_id)
        state = replay_journal(path)
        journal = cls(path, run_id)
        journal.append({"type": "run-resume", "run_id": run_id,
                        "time": time.time()})
        return journal, state

    # ----- records ------------------------------------------------------

    def append(self, record: dict) -> None:
        """One JSON line; durable (flushed + fsync'd) before returning."""
        self._handle.write(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def task_start(self, task: str, spec: str | None = None,
                   attempt: int = 1) -> None:
        self.append({"type": "task-start", "task": task, "spec": spec,
                     "attempt": attempt})

    def task_finish(self, task: str,
                    artifacts: list[tuple[str, str, str]]) -> None:
        self.append({"type": "task-finish", "task": task,
                     "artifacts": [list(a) for a in artifacts]})

    def task_fail(self, task: str, error_type: str, message: str,
                  transient: bool, attempt: int = 1) -> None:
        self.append({"type": "task-fail", "task": task,
                     "error": error_type, "message": message[:500],
                     "transient": transient, "attempt": attempt})

    def run_finish(self, ok: bool) -> None:
        self.append({"type": "run-finish", "ok": ok, "time": time.time()})

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
