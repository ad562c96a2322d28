"""Store integrity scan: verify, report, quarantine, reclaim.

``repro cache fsck`` walks every ``.art`` file under the store's
current schema version and re-verifies its envelope exactly as a read
would (:func:`repro.engine.serialize.unpack`): magic, header JSON,
schema version, kind, body length and body SHA-256.  Torn, truncated or
bit-flipped artifacts are reported — and with ``--repair`` moved into
``quarantine/`` so the next run recomputes them — alongside stale
temporary files (a writer died mid-write) and expired lock sidecars
(left by older versions, which locked each write).

Artifacts of a retired kind (``compiled`` and ``execution``: scheduled
programs and traces, no longer stored) are checked down to the body
digest but not deserialized; nothing reads them, and ``repro cache
clear`` reclaims them.

The scan never deletes artifact bytes: repair *moves* corrupt files
aside for post-mortem; only disposable debris (tmp files, expired
locks) is unlinked.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.engine.keys import KINDS
from repro.engine.serialize import check_envelope, unpack
from repro.robustness.errors import TraceIntegrityError

if TYPE_CHECKING:  # fsck is imported by the store's own module chain
    from repro.engine.store import ArtifactStore

_SUFFIX = ".art"
_LOCK_SUFFIX = ".lock"


@dataclass
class FsckIssue:
    """One file that failed verification (or is debris)."""

    path: str
    kind: str
    problem: str
    #: "reported" | "quarantined" | "removed"
    action: str = "reported"


@dataclass
class FsckReport:
    """Outcome of one store scan."""

    root: str
    repair: bool = False
    scanned: int = 0
    ok_by_kind: dict[str, int] = field(default_factory=dict)
    issues: list[FsckIssue] = field(default_factory=list)
    stale_tmp: int = 0
    stale_locks: int = 0

    @property
    def corrupt(self) -> int:
        return sum(1 for i in self.issues
                   if i.action in ("reported", "quarantined"))

    @property
    def clean(self) -> bool:
        return not self.issues and not self.stale_tmp \
            and not self.stale_locks

    def render(self) -> str:
        lines = [f"fsck of artifact store at {self.root}",
                 f"  scanned        : {self.scanned} artifacts"]
        for kind in sorted(self.ok_by_kind):
            lines.append(f"    {kind:<9s}: {self.ok_by_kind[kind]:>5d} ok")
        if self.issues:
            lines.append(f"  corrupt        : {self.corrupt}")
            for issue in self.issues:
                lines.append(f"    [{issue.action}] {issue.path}: "
                             f"{issue.problem}")
        if self.stale_tmp:
            lines.append(f"  stale tmp files: {self.stale_tmp}"
                         + (" (removed)" if self.repair else ""))
        if self.stale_locks:
            lines.append(f"  expired locks  : {self.stale_locks}"
                         + (" (removed)" if self.repair else ""))
        verdict = "clean" if self.clean else (
            "repaired" if self.repair else
            "CORRUPT (rerun with --repair to quarantine)")
        lines.append(f"  verdict        : {verdict}")
        return "\n".join(lines)


def _lock_expired(path: Path) -> bool:
    try:
        holder = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return True  # unreadable sidecar is as good as stale
    return holder.get("expires", 0) <= time.time()


def fsck_store(store: "ArtifactStore", repair: bool = False) -> FsckReport:
    """Verify every artifact envelope under the current schema version."""
    report = FsckReport(root=str(store.root), repair=repair)
    version_dir = store.version_dir
    if not version_dir.is_dir():
        return report
    for path in sorted(version_dir.rglob("*")):
        if not path.is_file():
            continue
        kind = _kind_of(path, version_dir)
        name = path.name
        if name.endswith(_SUFFIX):
            report.scanned += 1
            problem = _verify(path, kind)
            if problem is None:
                report.ok_by_kind[kind] = \
                    report.ok_by_kind.get(kind, 0) + 1
                continue
            action = "reported"
            if repair:
                store.quarantine_file(path, kind, reason=problem)
                action = "quarantined"
            report.issues.append(FsckIssue(
                path=str(path.relative_to(store.root)), kind=kind,
                problem=problem, action=action))
        elif ".tmp" in name and name.startswith("."):
            report.stale_tmp += 1
            if repair:
                path.unlink(missing_ok=True)
        elif name.endswith(_LOCK_SUFFIX) or f"{_LOCK_SUFFIX}." in name:
            if _lock_expired(path):
                report.stale_locks += 1
                if repair:
                    path.unlink(missing_ok=True)
        else:
            action = "reported"
            if repair:
                store.quarantine_file(path, kind, reason="unexpected file")
                action = "quarantined"
            report.issues.append(FsckIssue(
                path=str(path.relative_to(store.root)), kind=kind,
                problem="unexpected file in the store tree",
                action=action))
    return report


def _kind_of(path: Path, version_dir: Path) -> str:
    try:
        return path.relative_to(version_dir).parts[0]
    except (ValueError, IndexError):
        return "?"


def _verify(path: Path, kind: str) -> str | None:
    """None when the envelope verifies; otherwise the problem text."""
    try:
        blob = path.read_bytes()
    except OSError as exc:
        return f"unreadable: {exc}"
    try:
        if kind in KINDS:
            unpack(blob, expect_kind=kind)
        else:
            check_envelope(blob, expect_kind=kind if kind != "?" else None)
    except TraceIntegrityError as exc:
        return str(exc)
    return None
