"""Advisory file locks with leases for artifact-store writers.

A lock is a sidecar file created with ``O_CREAT | O_EXCL`` (atomic on
every filesystem the store targets) holding the owner's pid, a random
ownership token and the owner's declared lease duration.  Two writers
racing on one artifact key serialize on the sidecar; a writer that dies
with the lock held is recovered by lease expiry (and, on the same host,
by a liveness probe of the recorded pid), so a SIGKILLed worker never
wedges the suite.

Staleness is judged **monotonic-safe**: the lock file carries the
holder's lease *duration*, never an absolute wall-clock deadline, and a
waiter measures that duration on its **own monotonic clock** from the
moment it first observed the holder's token (:class:`LeaseObserver`).
Two hosts sharing a store therefore never compare wall clocks — clock
skew cannot make a live lock look expired, so skew cannot cause a
double-claim.

Breaking a stale lock is itself racy — two waiters may both decide the
lock expired — so the breaker *renames* the stale sidecar to a unique
name before unlinking it: exactly one rename wins, the loser just
retries.  ``release`` verifies the ownership token first, so an owner
whose lock was broken (absurdly slow write) cannot unlink a successor's
lock.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable

from repro.robustness.errors import ArtifactLockTimeout

#: lock owners renew nothing — a healthy write finishes in milliseconds,
#: so a generous lease only delays recovery from a *crashed* holder
DEFAULT_LEASE_SECONDS = 30.0
DEFAULT_TIMEOUT = 10.0
_POLL_INTERVAL = 0.02


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but not ours; assume alive
    return True


class LeaseObserver:
    """Monotonic-safe staleness judge for locks held by *other* hosts.

    ``stale(key, identity, window)`` is True only after the observer
    has seen the **same identity** (token, heartbeat count, …) under
    ``key`` for more than ``window`` seconds of its *own* monotonic
    clock.  Any identity change resets the observation epoch, so a
    holder that renews (or a fresh holder reusing the path) is never
    broken, and no wall-clock value ever crosses a process boundary.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._seen: dict[Hashable, tuple[Hashable, float]] = {}

    def stale(self, key: Hashable, identity: Hashable,
              window: float) -> bool:
        now = self._clock()
        observed = self._seen.get(key)
        if observed is None or observed[0] != identity:
            self._seen[key] = (identity, now)
            return False
        return (now - observed[1]) > window

    def forget(self, key: Hashable) -> None:
        self._seen.pop(key, None)


@dataclass
class FileLock:
    """One advisory lock file; reentrant use is a bug, not supported."""

    path: Path
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    timeout: float = DEFAULT_TIMEOUT
    poll_interval: float = _POLL_INTERVAL
    _token: str | None = field(default=None, repr=False)
    _observer: LeaseObserver = field(default_factory=LeaseObserver,
                                     repr=False, compare=False)

    def __post_init__(self):
        self.path = Path(self.path)

    # ----- acquisition --------------------------------------------------

    def acquire(self) -> None:
        deadline = time.monotonic() + self.timeout
        while True:
            if self._try_acquire():
                return
            self._break_if_stale()
            if time.monotonic() >= deadline:
                raise ArtifactLockTimeout(
                    f"could not acquire {self.path} within "
                    f"{self.timeout:g}s (held by a live writer?)",
                    lock_path=str(self.path), waited=self.timeout)
            time.sleep(self.poll_interval)

    def _try_acquire(self) -> bool:
        token = f"{os.getpid()}-{os.urandom(8).hex()}"
        payload = json.dumps({
            "pid": os.getpid(),
            "token": token,
            "lease": self.lease_seconds,
        }).encode()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        self._token = token
        self._observer.forget(self.path)
        return True

    def _read_holder(self) -> dict | None:
        try:
            return json.loads(self.path.read_bytes())
        except (OSError, ValueError):
            return None  # gone, or torn mid-write: let the poll retry

    def _break_if_stale(self) -> None:
        holder = self._read_holder()
        if holder is None:
            return
        pid = holder.get("pid")
        dead = isinstance(pid, int) and not _pid_alive(pid)
        if not dead:
            # Cross-host (or unprobeable) holder: trust only our own
            # monotonic clock.  The holder's declared lease duration is
            # measured from the moment *we* first saw its token.
            try:
                window = float(holder.get("lease", DEFAULT_LEASE_SECONDS))
            except (TypeError, ValueError):
                window = DEFAULT_LEASE_SECONDS
            if not self._observer.stale(self.path, holder.get("token"),
                                        window):
                return
        # Rename-then-unlink so concurrent breakers cannot unlink a
        # *fresh* lock that re-used the path after the stale one left.
        casualty = self.path.with_name(
            f"{self.path.name}.stale.{os.getpid()}.{os.urandom(4).hex()}")
        try:
            os.replace(self.path, casualty)
        except OSError:
            return  # someone else broke it first
        casualty.unlink(missing_ok=True)
        self._observer.forget(self.path)

    # ----- release ------------------------------------------------------

    def release(self) -> None:
        if self._token is None:
            return
        holder = self._read_holder()
        if holder is not None and holder.get("token") == self._token:
            try:
                self.path.unlink()
            except OSError:
                pass
        self._token = None

    @property
    def held(self) -> bool:
        return self._token is not None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *_exc) -> None:
        self.release()
