"""Versioned, digest-verified serialization of pipeline artifacts.

Programs, profiles and statistics cross disk boundaries (the artifact
store, which is also how pool workers hand results back).  Every
payload travels inside the same envelope::

    RPRO <header-length:4 BE> <header JSON> <pickle body>

The header records the repro schema version, the artifact kind and the
SHA-256 of the body; :func:`unpack` re-hashes the body on every load and
raises :class:`~repro.robustness.errors.TraceIntegrityError` on any
mismatch — a flipped bit in a cached program or stats record must never
silently become a published cycle count.

Pickle is safe here because the store is a local, trusted cache keyed by
our own digests; the envelope exists to catch *corruption and version
skew*, not adversaries.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from typing import Any

from repro.engine.keys import KINDS, SCHEMA_VERSION
from repro.ir.function import Program
from repro.ir.printer import format_program
from repro.robustness.errors import TraceIntegrityError

MAGIC = b"RPRO"
#: protocol 4 is supported by every Python this repo targets (3.10+)
_PICKLE_PROTOCOL = 4


def pack(kind: str, payload: Any) -> bytes:
    """Wrap ``payload`` in the versioned, digest-carrying envelope."""
    if kind not in KINDS:
        raise ValueError(f"unknown artifact kind {kind!r} "
                         f"(expected one of {KINDS})")
    body = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
    header = json.dumps({
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "sha256": hashlib.sha256(body).hexdigest(),
        "length": len(body),
    }, sort_keys=True).encode()
    return b"".join([MAGIC, len(header).to_bytes(4, "big"), header, body])


def unpack(blob: bytes, expect_kind: str | None = None) -> Any:
    """Verify the envelope and return the payload.

    Raises :class:`TraceIntegrityError` on a bad magic, an unparsable or
    truncated envelope, a schema-version mismatch, a kind mismatch, a
    body whose SHA-256 differs from the recorded one, or a body that
    does not deserialize.
    """
    body = check_envelope(blob, expect_kind)
    try:
        return _restricted_loads(body)
    except Exception as exc:
        raise TraceIntegrityError(
            f"artifact body failed to deserialize: {exc}") from exc


def check_envelope(blob: bytes, expect_kind: str | None = None) -> bytes:
    """Verify the envelope down to the body digest; return the body."""
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise TraceIntegrityError(
            "artifact is not in the repro envelope format (bad magic)")
    header_len = int.from_bytes(blob[4:8], "big")
    header_end = 8 + header_len
    if header_end > len(blob):
        raise TraceIntegrityError("artifact header is truncated")
    try:
        header = json.loads(blob[8:header_end])
    except ValueError as exc:
        raise TraceIntegrityError(
            f"artifact header is not valid JSON: {exc}") from exc
    if header.get("schema") != SCHEMA_VERSION:
        raise TraceIntegrityError(
            f"artifact was written by schema version "
            f"{header.get('schema')!r}, this build expects "
            f"{SCHEMA_VERSION}")
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise TraceIntegrityError(
            f"artifact kind mismatch: stored {header.get('kind')!r}, "
            f"expected {expect_kind!r}")
    body = blob[header_end:]
    if len(body) != header.get("length"):
        raise TraceIntegrityError(
            f"artifact body is {len(body)} bytes but the envelope "
            f"recorded {header.get('length')}")
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("sha256"):
        raise TraceIntegrityError(
            f"artifact body digest {digest[:16]}... does not match the "
            f"envelope's {str(header.get('sha256'))[:16]}... (corrupted "
            f"artifact)")
    return body


class _ReproUnpickler(pickle.Unpickler):
    """Only resolve classes from this package (and stdlib builtins).

    The cache is trusted, but restricting the import surface makes a
    corrupted-yet-digest-valid artifact (i.e. a bug on our side) fail
    loudly instead of importing arbitrary modules.
    """

    _ALLOWED_PREFIXES = ("repro.", "builtins", "collections")

    def find_class(self, module: str, name: str):
        if module.startswith(self._ALLOWED_PREFIXES) or module in (
                "builtins", "collections"):
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"artifact references disallowed global {module}.{name}")


def _restricted_loads(body: bytes) -> Any:
    return _ReproUnpickler(io.BytesIO(body)).load()


def program_fingerprint(program: Program) -> str:
    """Digest of a program's full printable form plus instruction uids.

    Two programs with equal fingerprints are the same code with the same
    trace-correlation identities — the round-trip property the artifact
    cache relies on (``Program`` itself has identity equality only).
    """
    hasher = hashlib.sha256()
    hasher.update(format_program(program).encode())
    for fn in program.functions.values():
        for inst in fn.all_instructions():
            hasher.update(inst.uid.to_bytes(8, "big", signed=False))
    for g in program.globals.values():
        hasher.update(repr((g.name, g.elem_size, g.count, g.init,
                            g.is_float)).encode())
    return hasher.hexdigest()
