"""Run journal: durable append, torn-line replay, digest verification."""

import json

import pytest

from repro.engine.keys import stable_digest
from repro.engine.recovery.journal import (JournalState, RunJournal,
                                           journal_path, new_run_id,
                                           replay_journal,
                                           verify_completed)
from repro.engine.store import ArtifactStore
from repro.robustness.errors import ReproError


def test_run_id_format_is_sortable_and_unique():
    a, b = new_run_id(), new_run_id()
    assert a.startswith("R") and b.startswith("R")
    assert a != b
    # RYYYYmmdd-HHMMSS-xxxxxxxx
    stamp, suffix = a[1:].rsplit("-", 1)
    assert len(stamp) == 15 and len(suffix) == 8


def test_create_replay_round_trip(tmp_path):
    journal = RunJournal.create(tmp_path, meta={"scale": 0.5})
    journal.task_start("t1")
    journal.task_finish("t1", [("stats", "k" * 64, "s" * 64)])
    journal.task_start("t2", attempt=2)
    journal.task_fail("t2", "CompileError", "boom", transient=False,
                      attempt=2)
    journal.run_finish(ok=False)
    journal.close()

    state = replay_journal(journal_path(tmp_path, journal.run_id))
    assert state.run_id == journal.run_id
    assert state.meta == {"scale": 0.5}
    assert state.completed == {"t1": [("stats", "k" * 64, "s" * 64)]}
    assert state.failed["t2"]["error"] == "CompileError"
    assert state.attempts == {"t1": 1, "t2": 2}
    assert state.torn_lines == 0


def test_every_record_is_one_json_line(tmp_path):
    journal = RunJournal.create(tmp_path)
    journal.task_start("t1")
    journal.task_finish("t1", [])
    journal.close()
    lines = journal_path(tmp_path, journal.run_id).read_text() \
        .splitlines()
    assert len(lines) == 3  # run-start + task-start + task-finish
    assert all(json.loads(line)["type"] for line in lines)


def test_torn_final_line_is_tolerated(tmp_path):
    journal = RunJournal.create(tmp_path)
    journal.task_finish("t1", [("stats", "k" * 64, "s" * 64)])
    journal.close()
    path = journal_path(tmp_path, journal.run_id)
    with open(path, "a") as handle:
        handle.write('{"type":"task-finish","task":"t2","arti')
    state = replay_journal(path)
    assert state.torn_lines == 1
    assert "t1" in state.completed and "t2" not in state.completed
    # Resuming past the torn line keeps the completed task, and what
    # the resumed run appends stays readable.
    resumed, rstate = RunJournal.resume(tmp_path, journal.run_id)
    assert "t1" in rstate.completed and "t2" not in rstate.completed
    resumed.task_finish("t2", [])
    resumed.close()
    assert set(replay_journal(path).completed) == {"t1", "t2"}


def test_replay_unknown_run_id_raises_typed(tmp_path):
    with pytest.raises(ReproError, match="unknown run id"):
        replay_journal(journal_path(tmp_path, "R00000000-000000-dead"))


def test_task_fail_then_finish_counts_as_completed(tmp_path):
    journal = RunJournal.create(tmp_path)
    journal.task_fail("t1", "TraceIntegrityError", "corrupt artifact",
                      transient=True)
    journal.task_finish("t1", [])
    journal.close()
    state = replay_journal(journal_path(tmp_path, journal.run_id))
    assert "t1" in state.completed and "t1" not in state.failed


def test_fail_messages_are_truncated(tmp_path):
    journal = RunJournal.create(tmp_path)
    journal.task_fail("t1", "OSError", "x" * 5000, transient=True)
    journal.close()
    state = replay_journal(journal_path(tmp_path, journal.run_id))
    assert len(state.failed["t1"]["message"]) == 500


def test_resume_appends_resume_record(tmp_path):
    journal = RunJournal.create(tmp_path)
    run_id = journal.run_id
    journal.task_finish("t1", [])
    journal.close()
    resumed, state = RunJournal.resume(tmp_path, run_id)
    resumed.close()
    assert "t1" in state.completed
    raw = journal_path(tmp_path, run_id).read_text()
    assert '"type":"run-resume"' in raw.replace(" ", "")


def test_verify_completed_accepts_matching_digests(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = stable_digest("resume", "ok")
    store.put("stats", key, {"cycles": 7})
    sha = store.digest_of("stats", key)
    state = JournalState(run_id="R", completed={
        "t1": [("stats", key, sha)]})
    verified, invalid = verify_completed(state, store)
    assert verified == {"t1"} and not invalid


def test_verify_completed_quarantines_mismatches(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    key = stable_digest("resume", "tampered")
    store.put("stats", key, {"cycles": 7})
    state = JournalState(run_id="R", completed={
        "t1": [("stats", key, "0" * 64)],           # wrong digest
        "t2": [("stats", "f" * 64, "0" * 64)]})     # missing artifact
    verified, invalid = verify_completed(state, store)
    assert not verified
    assert "digest mismatch" in invalid["t1"]
    assert "missing" in invalid["t2"]
    # The mismatched bytes were moved aside, not trusted.
    assert not store.contains("stats", key)
    assert store.metrics.quarantined_artifacts == 1
