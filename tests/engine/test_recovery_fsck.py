"""Store fsck: verify, report, quarantine, reclaim debris."""

import json
import time

from repro.engine.keys import stable_digest
from repro.engine.recovery.fsck import fsck_store
from repro.engine.store import ArtifactStore

KEY = stable_digest("fsck", "subject")


def _store_with(tmp_path, n=3):
    store = ArtifactStore(tmp_path)
    for i in range(n):
        store.put("stats", stable_digest("fsck", str(i)), {"i": i})
    return store


def test_clean_store_scans_clean(tmp_path):
    store = _store_with(tmp_path)
    report = fsck_store(store)
    assert report.clean and report.scanned == 3
    assert report.ok_by_kind == {"stats": 3}
    assert "verdict        : clean" in report.render()


def test_empty_store_is_clean(tmp_path):
    report = fsck_store(ArtifactStore(tmp_path))
    assert report.clean and report.scanned == 0


def test_corrupt_artifact_reported_without_repair(tmp_path):
    store = _store_with(tmp_path, n=2)
    store.put("optimized", KEY, list(range(100)))
    path = store._path("optimized", KEY)
    blob = bytearray(path.read_bytes())
    blob[-2] ^= 0xFF
    path.write_bytes(bytes(blob))
    report = fsck_store(store, repair=False)
    assert report.corrupt == 1 and not report.clean
    assert report.issues[0].action == "reported"
    assert path.exists()  # report-only never moves bytes
    assert "CORRUPT" in report.render()


def test_repair_quarantines_corrupt_artifacts(tmp_path):
    store = _store_with(tmp_path, n=2)
    store.put("optimized", KEY, list(range(100)))
    path = store._path("optimized", KEY)
    path.write_bytes(path.read_bytes()[:10])  # truncated envelope
    report = fsck_store(store, repair=True)
    assert report.corrupt == 1
    assert report.issues[0].action == "quarantined"
    assert not path.exists()
    moved = list(store.quarantine_dir.rglob("*.art"))
    assert len(moved) == 1
    assert fsck_store(store).clean  # the store is healthy again


def test_stale_tmp_files_counted_and_removed(tmp_path):
    store = _store_with(tmp_path, n=1)
    stale = store.version_dir / "stats" / ".dead.art.1234.tmp"
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_bytes(b"half a write")
    assert fsck_store(store).stale_tmp == 1
    assert fsck_store(store, repair=True).stale_tmp == 1
    assert not stale.exists()


def test_expired_locks_removed_live_locks_kept(tmp_path):
    store = _store_with(tmp_path, n=1)
    lock_dir = store.version_dir / "stats"
    expired = lock_dir / "a.art.lock"
    expired.write_text(json.dumps({"pid": 1, "token": "x",
                                   "expires": time.time() - 60}))
    live = lock_dir / "b.art.lock"
    live.write_text(json.dumps({"pid": 1, "token": "y",
                                "expires": time.time() + 3600}))
    report = fsck_store(store, repair=True)
    assert report.stale_locks == 1
    assert not expired.exists() and live.exists()


def test_unexpected_file_is_flagged(tmp_path):
    store = _store_with(tmp_path, n=1)
    stray = store.version_dir / "stats" / "notes.txt"
    stray.write_text("what is this doing here")
    report = fsck_store(store)
    assert not report.clean
    assert any("unexpected" in i.problem for i in report.issues)


def test_quarantine_preserved_across_clear(tmp_path):
    """`cache clear` reclaims artifacts but keeps quarantined evidence."""
    store = _store_with(tmp_path, n=2)
    path = store._path("stats", stable_digest("fsck", "0"))
    path.write_bytes(b"RPRO garbage")
    fsck_store(store, repair=True)
    assert store.clear() == 1  # the surviving artifact
    assert list(store.quarantine_dir.rglob("*.art"))
