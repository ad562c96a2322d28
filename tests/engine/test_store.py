"""Artifact store: atomic persistence, verification, maintenance."""

import errno
import multiprocessing
import os

import pytest

from repro.engine import store as store_module
from repro.engine.keys import SCHEMA_VERSION, stable_digest
from repro.engine.recovery.retry import is_transient
from repro.engine.serialize import unpack
from repro.engine.store import ArtifactStore

KEY = stable_digest("some", "inputs")


def test_put_get_round_trip_counts_hit(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("stats", KEY, {"cycles": 42})
    assert store.get("stats", KEY) == {"cycles": 42}
    assert store.metrics.cache["stats"].hits == 1
    assert store.metrics.cache["stats"].misses == 0


def test_missing_artifact_is_a_counted_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.get("stats", KEY) is None
    assert store.metrics.cache["stats"].misses == 1


def test_contains_does_not_touch_counters(tmp_path):
    store = ArtifactStore(tmp_path)
    assert not store.contains("stats", KEY)
    store.put("stats", KEY, 1)
    assert store.contains("stats", KEY)
    assert store.metrics.cache_hits == store.metrics.cache_misses == 0


def test_unknown_kind_rejected(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ValueError):
        store.put("weights", KEY, 1)


def _flip_bit(blob: bytes) -> bytes:
    flipped = bytearray(blob)
    flipped[-3] ^= 0x40
    return bytes(flipped)


def _truncate(blob: bytes) -> bytes:
    """A torn post-crash file: only its first half reached the disk."""
    return blob[:len(blob) // 2]


def test_corrupted_artifact_is_quarantined_and_missed(tmp_path):
    """Corruption becomes quarantine + miss, never a served value."""
    for corrupt in (_flip_bit, _truncate):
        root = tmp_path / corrupt.__name__
        store = ArtifactStore(root)
        store.put("stats", KEY, list(range(1000)))
        path = store._path("stats", KEY)
        path.write_bytes(corrupt(path.read_bytes()))
        assert store.get("stats", KEY) is None, corrupt.__name__
        assert store.metrics.cache["stats"].misses == 1
        assert store.metrics.quarantined_artifacts == 1
        # The corrupt bytes moved aside (with a reason sidecar), the
        # lookup path is free for a recompute to rewrite.
        assert not path.exists()
        quarantined = list((root / "quarantine").rglob("*.art"))
        assert len(quarantined) == 1
        # A rewrite serves cleanly again.
        store.put("stats", KEY, list(range(1000)))
        assert store.get("stats", KEY) == list(range(1000))


def test_put_leaves_no_temp_files(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("stats", KEY, {"cycles": 42})
    leftovers = [p for p in tmp_path.rglob("*") if p.is_file()
                 and not p.name.endswith(".art")]
    assert leftovers == []


def test_disk_full_put_leaves_no_debris_and_is_transient(tmp_path,
                                                         monkeypatch):
    """A write that hits ENOSPC removes its ``.tmp`` file; the error is
    one the retry policy retries, and the retry stores the artifact."""
    real_open = open

    class FullDisk:
        def __init__(self, path, mode):
            self._handle = real_open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._handle.close()

        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    store = ArtifactStore(tmp_path)
    monkeypatch.setattr(store_module, "open", FullDisk, raising=False)
    with pytest.raises(OSError) as excinfo:
        store.put("stats", KEY, {"cycles": 42})
    assert excinfo.value.errno == errno.ENOSPC
    assert is_transient(excinfo.value)
    debris = [p.name for p in tmp_path.rglob("*") if p.is_file()]
    assert debris == []
    monkeypatch.undo()
    store.put("stats", KEY, {"cycles": 42})
    assert store.get("stats", KEY) == {"cycles": 42}


def test_stats_inventory_and_stale_versions(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("stats", KEY, 1)
    store.put("optimized", stable_digest("other"), 2)
    (tmp_path / "v0" / "stats").mkdir(parents=True)
    inventory = store.stats()
    assert inventory.entries == 2
    assert inventory.by_kind == {"optimized": 1, "stats": 1}
    assert inventory.total_bytes > 0
    assert inventory.stale_versions == ["v0"]
    rendered = inventory.render()
    assert f"v{SCHEMA_VERSION}" in rendered and "v0" in rendered


def test_clear_removes_all_versions(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("stats", KEY, 1)
    assert store.clear() == 1
    assert store.stats().entries == 0
    assert store.get("stats", KEY) is None


def test_put_after_clear_recreates_the_directories(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("stats", KEY, 1)
    store.clear()
    store.put("stats", KEY, {"cycles": 7})
    assert store.get("stats", KEY) == {"cycles": 7}
    assert store.stats().entries == 1


def test_schema_bump_orphans_old_artifacts(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("stats", KEY, 1)
    # Relocate the version dir, as a schema bump would.
    bumped = ArtifactStore(tmp_path)
    bumped.version_dir = tmp_path / f"v{SCHEMA_VERSION + 1}"
    assert bumped.get("stats", KEY) is None
    assert bumped.stats().stale_versions == [f"v{SCHEMA_VERSION}"]


def test_temp_names_carry_pid_and_a_random_token(tmp_path, monkeypatch):
    """Writers on two hosts sharing a store may have the same pid; the
    random token keeps their temp files apart."""
    renamed = []
    real_replace = os.replace

    def spy(src, dst):
        renamed.append(os.path.basename(src))
        real_replace(src, dst)

    store = ArtifactStore(tmp_path)
    monkeypatch.setattr(store_module.os, "replace", spy)
    store.put("stats", KEY, 1)
    store.put("stats", KEY, 1)
    assert len(set(renamed)) == 2
    assert all(f".{os.getpid()}." in name and name.endswith(".tmp")
               for name in renamed)


# ----- two processes, one artifact key ---------------------------------------

def _hammer_store(root: str, key: str, tag: int, rounds: int) -> None:
    store = ArtifactStore(root)
    for n in range(rounds):
        store.put("stats", key, {"writer": tag, "round": n,
                                 "payload": list(range(200))})


def test_concurrent_writers_one_valid_envelope(tmp_path):
    """Two processes racing on one key, with no lock, must leave
    exactly one valid, fully-verified envelope: the atomic rename
    means no torn file, and no stray tmp debris."""
    key = stable_digest("concurrent", "writers")
    procs = [multiprocessing.Process(
        target=_hammer_store, args=(str(tmp_path), key, tag, 25))
        for tag in (1, 2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    store = ArtifactStore(tmp_path)
    art_files = [p for p in tmp_path.rglob("*.art")
                 if "quarantine" not in p.parts]
    assert len(art_files) == 1
    # The surviving envelope verifies end-to-end (digest included).
    payload = unpack(art_files[0].read_bytes(), expect_kind="stats")
    assert payload["writer"] in (1, 2) and payload["round"] == 24
    assert store.get("stats", key) == payload
    debris = [p for p in tmp_path.rglob("*")
              if p.is_file() and not p.name.endswith(".art")]
    assert debris == []
