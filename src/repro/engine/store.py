"""Content-addressed on-disk artifact store.

Layout::

    <root>/v<SCHEMA_VERSION>/<kind>/<key>.art
    <root>/quarantine/<kind>/...        (corrupt files moved aside)
    <root>/runs/<RUN_ID>.jsonl          (run journals; see recovery)

``kind`` is one of :data:`repro.engine.keys.KINDS`: the frontend IR,
the training profile, the optimized program and the simulation stats.
Traces and scheduled programs are not stored.  ``key`` is a
:func:`repro.engine.keys.stable_digest` of the artifact's inputs, so
the path *is* the cache lookup.  Each kind is one flat directory: a
cold run makes four directories, not one per key prefix, and a store
holds thousands of artifacts, not the millions a fan-out would serve.

Each write is one atomic step and takes no lock: the envelope goes to a
temporary file in the same directory (named by pid plus a random
token, so no two writers on any host share one), is fsync'd, and
:func:`os.replace` moves it into place.  A reader sees either no file
or a whole one.  Artifacts are content-addressed, so two writers of
one key write equivalent bytes and either may win the rename.

Reads verify the envelope digest (:func:`repro.engine.serialize.unpack`).
A corrupt envelope is *quarantined* (moved under ``quarantine/``) and
reported as a cache miss, so the pipeline recomputes and rewrites the
artifact instead of crashing the suite; the quarantined bytes stay on
disk for post-mortem.  ``repro cache fsck`` scans the whole store the
same way (:func:`repro.engine.recovery.fsck.fsck_store`).

Version invalidation is structural: artifacts live under a
``v<SCHEMA_VERSION>`` directory, so bumping the schema version orphans
every old artifact without any migration logic.  ``stats()`` reports
stale versions and ``clear()`` removes everything.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.keys import KINDS, SCHEMA_VERSION
from repro.engine.metrics import PipelineMetrics
from repro.engine.serialize import pack, unpack
from repro.robustness.errors import TraceIntegrityError

_SUFFIX = ".art"
_QUARANTINE_DIR = "quarantine"
#: store-internal directories that are not artifact version dirs
RESERVED_DIRS = (_QUARANTINE_DIR, "runs")


@dataclass
class StoreStats:
    """Inventory of one store root."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    #: other vN directories present (orphaned by schema bumps)
    stale_versions: list[str] = field(default_factory=list)
    #: files moved aside by corruption recovery / fsck
    quarantined: int = 0

    def render(self) -> str:
        lines = [f"artifact store at {self.root}",
                 f"  schema version : v{SCHEMA_VERSION}",
                 f"  artifacts      : {self.entries} "
                 f"({self.total_bytes / 1024:.1f} KiB)"]
        # Kinds no longer written (``compiled``, ``execution``) still
        # show up in a store an older version filled.
        retired = sorted(set(self.by_kind) - set(KINDS))
        for kind in KINDS + tuple(retired):
            if self.by_kind.get(kind):
                lines.append(
                    f"    {kind:<9s}: {self.by_kind[kind]:>5d}  "
                    f"{self.bytes_by_kind.get(kind, 0) / 1024:>9.1f} KiB"
                    + ("" if kind in KINDS else "  (retired)"))
        if self.stale_versions:
            lines.append(f"  stale versions : "
                         f"{', '.join(self.stale_versions)} "
                         f"(run `repro cache clear` to reclaim)")
        if self.quarantined:
            lines.append(f"  quarantined    : {self.quarantined} "
                         f"(run `repro cache fsck` for details)")
        return "\n".join(lines)


class ArtifactStore:
    """Digest-addressed artifact cache rooted at one directory."""

    def __init__(self, root: str | os.PathLike,
                 metrics: PipelineMetrics | None = None):
        self.root = Path(root)
        self.version_dir = self.root / f"v{SCHEMA_VERSION}"
        self.metrics = metrics if metrics is not None else PipelineMetrics()

    def _path(self, kind: str, key: str) -> Path:
        if kind not in KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        return self.version_dir / kind / f"{key}{_SUFFIX}"

    # ----- access -------------------------------------------------------

    def get(self, kind: str, key: str) -> Any | None:
        """Load an artifact; None on a miss *or* quarantined corruption.

        A present-but-corrupt artifact (torn write, flipped bit, schema
        skew inside the envelope) raises
        :class:`~repro.robustness.errors.TraceIntegrityError` internally,
        is moved to ``quarantine/`` and counted as a miss — the caller
        recomputes and rewrites a valid artifact.  Corruption is never
        silently *served*; it is also never allowed to crash a suite
        that could simply recompute.
        """
        path = self._path(kind, key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.metrics.record_miss(kind)
            return None
        try:
            payload = unpack(blob, expect_kind=kind)
        except TraceIntegrityError as exc:
            self.quarantine(kind, key, reason=str(exc))
            self.metrics.record_miss(kind)
            return None
        self.metrics.record_hit(kind, len(blob))
        return payload

    def put(self, kind: str, key: str, payload: Any) -> None:
        """Durably persist an artifact (fsync'd, atomic rename)."""
        path = self._path(kind, key)
        blob = pack(kind, payload)
        self.metrics.record_write(kind, len(blob))
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        try:
            try:
                handle = open(tmp, "wb")
            except FileNotFoundError:
                # First write of this kind (or after clear).
                path.parent.mkdir(parents=True, exist_ok=True)
                handle = open(tmp, "wb")
            with handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def contains(self, kind: str, key: str) -> bool:
        """Presence probe; does not touch hit/miss counters."""
        return self._path(kind, key).exists()

    def digest_of(self, kind: str, key: str) -> str | None:
        """SHA-256 of the artifact file's bytes (None when absent).

        This is the digest the run journal records at task-finish and
        re-verifies on ``--resume`` — over the *whole envelope*, so a
        torn header is caught as readily as a flipped body bit.
        """
        try:
            return hashlib.sha256(
                self._path(kind, key).read_bytes()).hexdigest()
        except FileNotFoundError:
            return None

    # ----- quarantine ---------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        return self.root / _QUARANTINE_DIR

    def quarantine(self, kind: str, key: str,
                   reason: str = "") -> Path | None:
        """Move a (presumed corrupt) artifact out of the lookup path."""
        return self.quarantine_file(self._path(kind, key), kind, reason)

    def quarantine_file(self, path: Path, kind: str,
                        reason: str = "") -> Path | None:
        """Move ``path`` under ``quarantine/<kind>/``; returns the new
        location, or None when the file vanished first (a concurrent
        reader already quarantined it — not an error)."""
        dest_dir = self.quarantine_dir / kind
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / path.name
        if dest.exists():  # repeat offender: keep each copy
            dest = dest_dir / f"{path.name}.{os.getpid()}" \
                              f".{os.urandom(3).hex()}"
        try:
            os.replace(path, dest)
        except FileNotFoundError:
            return None
        if reason:
            dest.with_name(dest.name + ".reason").write_text(
                reason + "\n")
        self.metrics.record_quarantine(kind)
        return dest

    # ----- maintenance --------------------------------------------------

    def stats(self) -> StoreStats:
        stats = StoreStats(root=str(self.root))
        if self.root.is_dir():
            for entry in sorted(self.root.iterdir()):
                if entry.is_dir() and entry.name.startswith("v") \
                        and entry != self.version_dir \
                        and entry.name not in RESERVED_DIRS:
                    stats.stale_versions.append(entry.name)
        if self.quarantine_dir.is_dir():
            stats.quarantined = sum(
                1 for p in self.quarantine_dir.rglob(f"*{_SUFFIX}*")
                if p.is_file() and not p.name.endswith(".reason"))
        if not self.version_dir.is_dir():
            return stats
        for kind_dir in sorted(self.version_dir.iterdir()):
            if not kind_dir.is_dir():
                continue
            count = 0
            kind_bytes = 0
            for path in kind_dir.rglob(f"*{_SUFFIX}"):
                count += 1
                kind_bytes += path.stat().st_size
            if count:
                stats.by_kind[kind_dir.name] = count
                stats.bytes_by_kind[kind_dir.name] = kind_bytes
                stats.entries += count
                stats.total_bytes += kind_bytes
        return stats

    def clear(self) -> int:
        """Remove every artifact (all schema versions); returns count."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for entry in list(self.root.iterdir()):
            if entry.is_dir() and entry.name.startswith("v") \
                    and entry.name not in RESERVED_DIRS:
                removed += sum(1 for _ in entry.rglob(f"*{_SUFFIX}"))
                shutil.rmtree(entry)
        return removed
