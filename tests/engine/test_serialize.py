"""Round-trip serialization: program, stats."""

import dataclasses
import pathlib
import pickle

import pytest

from repro.analysis.profile import Profile
from repro.emu.interpreter import run_program
from repro.engine.keys import SCHEMA_VERSION
from repro.engine.serialize import (MAGIC, pack, program_fingerprint,
                                    unpack)
from repro.machine.descriptor import fig8_machine
from repro.robustness.errors import TraceIntegrityError
from repro.sim.pipeline import simulate_trace
from repro.toolchain import (Model, frontend, optimize_for_model,
                             schedule_for_machine)
from repro.workloads import get_workload

SCALE = 0.2


@pytest.fixture(scope="module")
def optimized():
    wc = get_workload("wc")
    base = frontend(wc.source)
    profile = Profile.collect(base, inputs=wc.inputs(SCALE))
    return optimize_for_model(base, Model.CMOV, profile)


@pytest.fixture(scope="module")
def compiled(optimized):
    return schedule_for_machine(optimized, fig8_machine())


@pytest.fixture(scope="module")
def execution(compiled):
    wc = get_workload("wc")
    return run_program(compiled.program, inputs=wc.inputs(SCALE),
                       collect_trace=True)


def test_program_round_trip(optimized, compiled):
    blob = pack("optimized", optimized)
    loaded = unpack(blob, expect_kind="optimized")
    assert program_fingerprint(loaded.program) == \
        program_fingerprint(optimized.program)
    assert loaded.model is optimized.model
    # The loaded program schedules to the same code and addresses.
    rescheduled = schedule_for_machine(loaded, fig8_machine())
    assert program_fingerprint(rescheduled.program) == \
        program_fingerprint(compiled.program)
    assert rescheduled.addresses == compiled.addresses
    assert rescheduled.static_size == compiled.static_size


def test_packing_a_program_calls_no_dataclass_fields(monkeypatch):
    """Operands pickle through their own ``__reduce__``, not the
    ``dataclasses.fields()`` call per object that frozen slots
    dataclasses otherwise make."""
    program = frontend(get_workload("espresso").source)
    calls = []
    fields = dataclasses.fields

    def counting(obj):
        calls.append(type(obj).__name__)
        return fields(obj)
    monkeypatch.setattr(dataclasses, "fields", counting)
    blob = pack("frontend", program)
    monkeypatch.undo()
    assert calls == []
    loaded = unpack(blob, expect_kind="frontend")
    assert program_fingerprint(loaded) == program_fingerprint(program)


def test_stats_round_trip(compiled, execution):
    stats = simulate_trace(execution.trace, compiled.addresses,
                           fig8_machine())
    assert unpack(pack("stats", stats), "stats") == stats


def test_pack_rejects_unknown_kind():
    with pytest.raises(ValueError):
        pack("weights", {})


def test_unpack_rejects_bad_magic():
    with pytest.raises(TraceIntegrityError, match="magic"):
        unpack(b"ELF\x7f" + b"\x00" * 16)


def test_unpack_rejects_truncated_header():
    blob = pack("stats", {"cycles": 1})
    with pytest.raises(TraceIntegrityError, match="truncated"):
        unpack(blob[:10])


def test_unpack_rejects_kind_mismatch():
    blob = pack("stats", {"cycles": 1})
    with pytest.raises(TraceIntegrityError, match="kind mismatch"):
        unpack(blob, expect_kind="compiled")


def test_unpack_rejects_flipped_body_byte():
    blob = bytearray(pack("stats", {"cycles": 12345}))
    blob[-1] ^= 0xFF
    with pytest.raises(TraceIntegrityError, match="digest"):
        unpack(bytes(blob), expect_kind="stats")


def test_unpack_rejects_schema_skew():
    blob = pack("stats", {"cycles": 1})
    header_len = int.from_bytes(blob[4:8], "big")
    header = blob[8:8 + header_len].replace(
        f'"schema": {SCHEMA_VERSION}'.encode(), b'"schema": 999')
    assert header != blob[8:8 + header_len], "schema field not found"
    forged = MAGIC + len(header).to_bytes(4, "big") + header \
        + blob[8 + header_len:]
    with pytest.raises(TraceIntegrityError, match="schema version"):
        unpack(forged)


def test_unpickler_rejects_foreign_globals():
    # Hand-roll an envelope whose digest is valid but whose body
    # references a module outside the allow-list.
    body = pickle.dumps(pathlib.PurePosixPath("/etc"))
    import hashlib
    import json
    header = json.dumps({"schema": SCHEMA_VERSION, "kind": "stats",
                         "sha256": hashlib.sha256(body).hexdigest(),
                         "length": len(body)}).encode()
    blob = MAGIC + len(header).to_bytes(4, "big") + header + body
    with pytest.raises(TraceIntegrityError, match="deserialize"):
        unpack(blob, expect_kind="stats")
