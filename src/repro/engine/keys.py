"""Stable content digests for cache keys.

An artifact is addressed by a SHA-256 digest of everything that went
into producing it: the workload source, the toolchain options, the
model, the schedule-relevant machine parameters, and the repro schema
version.  Two runs with identical inputs therefore share artifacts;
changing any input (or bumping :data:`SCHEMA_VERSION`) produces a new
address and implicitly invalidates every stale artifact.

Digests are computed over a canonical JSON encoding so they are stable
across processes, Python versions and dict insertion orders — ``hash()``
is salted per process and must never leak into a key.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

#: bump to invalidate every artifact ever written (schema evolution of
#: Program / stats serialization, simulator semantics changes).
#: v2: execution artifacts stored columnar ``TraceColumns`` traces.
#: Traces and compiled programs are no longer stored; bumping for that
#: would orphan every warm ``optimized`` and ``stats`` artifact.
#: v3: the scalar passes run to their fixpoint instead of stopping
#: after four rounds, which changes optimized programs (and so stats)
#: under unchanged sources; no key holds a compiler version, so only
#: this bump keeps a v2 store from serving the old results.
#: v4: the store layout is flat, ``<kind>/<key>.art`` instead of
#: ``<kind>/<key[:2]>/<key>.art``; the artifacts are unchanged, but a v3
#: store's files are not where v4 looks for them, and the bump retires
#: the v3 directory as a whole.
SCHEMA_VERSION = 4

#: artifact kinds the store writes, in pipeline order
KINDS = ("frontend", "profile", "optimized", "stats")


def _canonical(obj: Any) -> Any:
    """Lower ``obj`` to a JSON-encodable canonical form."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() round-trips floats exactly; JSON float encoding would too,
        # but being explicit keeps the canonical form obvious.
        return ["float", repr(obj)]
    if isinstance(obj, bytes):
        return ["bytes", obj.hex()]
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, obj.name]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return ["dc", type(obj).__name__,
                {f.name: _canonical(getattr(obj, f.name))
                 for f in dataclasses.fields(obj)}]
    if isinstance(obj, dict):
        return ["dict", sorted((str(k), _canonical(v))
                               for k, v in obj.items())]
    if isinstance(obj, (list, tuple)):
        return ["list", [_canonical(v) for v in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(json.dumps(_canonical(v), sort_keys=True)
                              for v in obj)]
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a "
                    f"cache key: {obj!r}")


def stable_digest(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``."""
    payload = json.dumps([_canonical(p) for p in parts], sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ----- pipeline-stage keys -------------------------------------------------
#
# Each key covers exactly the inputs that can change the artifact's
# content.  Observability knobs (paranoid, verify, artifact_dir) are
# deliberately excluded — see ToolchainOptions.digest().

def frontend_key(source: str) -> str:
    """Key of the optimized baseline IR for one MiniC source."""
    return stable_digest(SCHEMA_VERSION, "frontend", source)


def profile_key(name: str, source: str, scale: float,
                max_steps: int) -> str:
    """Key of a training-run profile.

    ``name`` participates because input generation is workload-specific
    code, not derivable from the source text alone.
    """
    return stable_digest(SCHEMA_VERSION, "profile", name, source, scale,
                         max_steps)


def optimize_key(name: str, source: str, scale: float, max_steps: int,
                 model_name: str, options_digest: str) -> str:
    """Key of an optimized, unscheduled program: :func:`compile_key`
    without the schedule digest, since no pass reads the machine."""
    return stable_digest(SCHEMA_VERSION, "optimized", name, source, scale,
                         max_steps, model_name, options_digest)


def compile_key(name: str, source: str, scale: float, max_steps: int,
                model_name: str, options_digest: str,
                schedule_digest: str) -> str:
    """Key of a compiled program (depends on the profile's inputs too);
    it keys the in-process memo and :func:`execution_key`, not a file."""
    return stable_digest(SCHEMA_VERSION, "compiled", name, source, scale,
                         max_steps, model_name, options_digest,
                         schedule_digest)


def execution_key(compiled_key: str, scale: float, max_steps: int) -> str:
    """Key of an emulation trace for one compiled program.

    Traces are not stored; the key names the in-process memo entry and
    is one step in deriving :func:`stats_key`, which must stay stable
    for warm stores to keep serving."""
    return stable_digest(SCHEMA_VERSION, "execution", compiled_key, scale,
                         max_steps)


def stats_key(execution_key_: str, machine_digest: str) -> str:
    """Key of the cycle-simulation result (trace x full machine)."""
    return stable_digest(SCHEMA_VERSION, "stats", execution_key_,
                         machine_digest)
