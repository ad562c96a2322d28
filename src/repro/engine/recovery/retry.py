"""Transient/permanent failure classification and retry backoff.

The scheduler must distinguish *the machine hiccuped* (worker crash,
``BrokenProcessPool``, a corrupt artifact read, a full disk) from *the
program is wrong* (compile failures, verifier rejections, model
divergence).  The first class
earns capped exponential backoff and a bounded number of retries; the
second fails the task immediately — retrying a deterministic compiler
bug only burns the budget the retries exist to protect.

Jitter is deterministic (seeded from the task id and attempt number),
so a test that injects a fault observes the exact same backoff schedule
on every run.
"""

from __future__ import annotations

import hashlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.robustness.errors import (NativeKernelCrash,
                                     NativeToolchainMissing,
                                     TraceIntegrityError)

#: exception classes whose failures are worth retrying.  Order matters
#: for nothing here — ``is_transient`` checks this tuple before the
#: permanent default.  ``OSError`` covers disk-full/EIO during store
#: writes; ``TraceIntegrityError`` is a corrupt-artifact read (the store
#: quarantined it, a retry recomputes).
#: ``NativeKernelCrash``/``NativeToolchainMissing`` are transient
#: because a failed native load leaves the process on a pure-Python
#: engine — the retry runs there and succeeds byte-identically.
TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    BrokenProcessPool,
    TraceIntegrityError,
    NativeKernelCrash,
    NativeToolchainMissing,
    TimeoutError,
    ConnectionError,
    OSError,
)


def is_transient(exc: BaseException) -> bool:
    """True when retrying ``exc``'s failure could plausibly succeed."""
    return isinstance(exc, TRANSIENT_TYPES)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``max_attempts`` counts the first try: 3 means one try plus up to
    two retries.  Backoff for attempt ``n`` (1-based, i.e. the delay
    *before* attempt ``n+1``) is ``base * 2**(n-1)`` capped at ``cap``,
    multiplied by a jitter factor in ``[1-jitter, 1+jitter]`` derived
    from ``sha256(seed:task:attempt)`` — fully reproducible.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        return attempt < self.max_attempts and is_transient(exc)

    def backoff(self, task_id: str, attempt: int) -> float:
        """Seconds to sleep after failed attempt ``attempt`` (1-based)."""
        base = min(self.backoff_cap,
                   self.backoff_base * (2.0 ** max(0, attempt - 1)))
        digest = hashlib.sha256(
            f"{self.seed}:{task_id}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))
