"""Crash triage: normalized signatures and finding deduplication.

A fuzzing campaign is only useful if ten thousand witnesses of the same
bug collapse to one finding.  Every failure is normalized to a
:class:`CrashSignature`:

* **crashes** — the exception type plus a *stable frame fingerprint*:
  the deepest traceback frames inside the ``repro`` package, named as
  ``module:function`` (line numbers are deliberately excluded so the
  signature survives unrelated edits);
* **divergences** — the divergent observable kind
  (``return-value`` / ``output-stream`` / ``memory-state`` / the
  fastpath kinds), the model that diverged, and — for store-stream
  divergences — the first divergent store event, which the executor
  attaches after replaying both traces;
* **emulation faults** — step-limit overruns included: the raise site
  (in the fingerprint) identifies them, not the budget-dependent
  message text.

``signature.key`` is a short stable digest used for corpus entry names
and cross-run dedupe.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field

from repro.emu.memory import SAFE_ADDR, EmulationFault
from repro.ir.function import IRError
from repro.ir.opcodes import OpCategory
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError
from repro.lang.sema import SemaError
from repro.robustness.errors import (CompileError, ModelDivergenceError,
                                     PassVerificationError,
                                     TraceIntegrityError)

#: number of in-package frames folded into a crash fingerprint
_FINGERPRINT_FRAMES = 3


@dataclass(frozen=True)
class CrashSignature:
    """Normalized identity of one finding."""

    kind: str
    error_type: str
    detail: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """Short stable digest (corpus entry names, dedupe maps)."""
        text = "\x1f".join((self.kind, self.error_type) + self.detail)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def describe(self) -> str:
        parts = [self.kind, self.error_type]
        parts.extend(self.detail)
        return " | ".join(parts)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "error_type": self.error_type,
                "detail": list(self.detail), "key": self.key}

    @classmethod
    def from_dict(cls, data: dict) -> "CrashSignature":
        return cls(kind=data["kind"], error_type=data["error_type"],
                   detail=tuple(data.get("detail", ())))


def frame_fingerprint(exc: BaseException,
                      limit: int = _FINGERPRINT_FRAMES) -> tuple[str, ...]:
    """The deepest ``repro``-package frames of ``exc``'s traceback.

    Formatted as ``module:function`` — no filenames, no line numbers —
    so the fingerprint is stable across checkouts and unrelated edits.
    """
    frames: list[str] = []
    for fs in traceback.extract_tb(exc.__traceback__):
        path = fs.filename.replace("\\", "/")
        if "/repro/" not in path:
            continue
        module = path.rsplit("/", 1)[-1].removesuffix(".py")
        frames.append(f"{module}:{fs.name}")
    return tuple(frames[-limit:])


def signature_of(exc: BaseException) -> CrashSignature:
    """Normalize any toolchain failure into a :class:`CrashSignature`."""
    name = type(exc).__name__
    if isinstance(exc, ModelDivergenceError):
        detail = [exc.kind or "?", exc.model or "?"]
        first = getattr(exc, "first_event", None)
        if first:
            detail.append(str(first))
        return CrashSignature("divergence", name, tuple(detail))
    if isinstance(exc, PassVerificationError):
        return CrashSignature("pass-verify", name,
                              (exc.pass_name or "?",)
                              + frame_fingerprint(exc))
    if isinstance(exc, CompileError):
        return CrashSignature("compile-crash", name,
                              (exc.pass_name or "?",)
                              + frame_fingerprint(exc))
    if isinstance(exc, TraceIntegrityError):
        return CrashSignature("trace-integrity", name,
                              frame_fingerprint(exc))
    if isinstance(exc, EmulationFault):
        # Step-limit overruns carry a budget-dependent message; the
        # raise site (in the fingerprint) identifies them stably.
        return CrashSignature("emulation-fault", name,
                              frame_fingerprint(exc))
    if isinstance(exc, (LexError, ParseError, SemaError, IRError)):
        return CrashSignature("frontend-reject", name,
                              frame_fingerprint(exc))
    return CrashSignature("crash", name, frame_fingerprint(exc))


# ----- store-stream divergence localization ---------------------------


def store_stream(events) -> list[tuple[int, int | float]]:
    """The observable store stream of a trace-event list.

    Mirrors the interpreter's output-signature fold: executed stores
    only, ``$safe_addr`` redirects excluded.
    """
    stream: list[tuple[int, int | float]] = []
    for ev in events:
        if ev.executed and ev.inst.cat is OpCategory.STORE \
                and ev.addr != SAFE_ADDR:
            stream.append((ev.addr, ev.value))
    return stream


def first_store_divergence(candidate_events, reference_events
                           ) -> str | None:
    """Locate the first divergent store between two traces.

    Returns e.g. ``"store#3 @0x1a0 7 vs 9"`` or ``"store-count 12 vs
    14"``, or None when the streams agree (the divergence was
    elsewhere: return value or memory digest).
    """
    cand = store_stream(candidate_events)
    ref = store_stream(reference_events)
    for i, (a, b) in enumerate(zip(cand, ref)):
        if a != b:
            return (f"store#{i} @{a[0]:#x} {a[1]!r} vs "
                    f"@{b[0]:#x} {b[1]!r}")
    if len(cand) != len(ref):
        return f"store-count {len(cand)} vs {len(ref)}"
    return None


# ----- dedupe ---------------------------------------------------------


@dataclass
class TriageBucket:
    """All case reports that share one signature."""

    signature: CrashSignature
    case_ids: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.case_ids)


def dedupe(reports) -> dict[str, TriageBucket]:
    """Group finding reports by signature key (insertion-ordered)."""
    buckets: dict[str, TriageBucket] = {}
    for report in reports:
        if report.signature is None:
            continue
        sig = CrashSignature.from_dict(report.signature) \
            if isinstance(report.signature, dict) else report.signature
        bucket = buckets.get(sig.key)
        if bucket is None:
            bucket = buckets[sig.key] = TriageBucket(signature=sig)
        bucket.case_ids.append(report.case_id)
    return buckets
