"""Triage: signature normalization, fingerprints, deduplication."""

from __future__ import annotations

import pytest

from repro.emu.interpreter import StepLimitExceeded, run_program
from repro.fuzz.executor import CaseReport
from repro.fuzz.triage import (CrashSignature, dedupe, first_store_divergence,
                               frame_fingerprint, signature_of, store_stream)
from repro.robustness.errors import CompileError, ModelDivergenceError
from repro.toolchain import frontend


def test_divergence_signature_carries_kind_and_model():
    exc = ModelDivergenceError("boom", workload="w", model="Conditional "
                               "Move", kind="return-value")
    sig = signature_of(exc)
    assert sig.kind == "divergence"
    assert sig.detail[0] == "return-value"
    assert sig.detail[1] == "Conditional Move"


def test_divergence_signature_includes_first_event():
    exc = ModelDivergenceError("boom", model="m", kind="output-stream")
    exc.first_event = "store#3 @0x1a0 7 vs 9"
    assert "store#3 @0x1a0 7 vs 9" in signature_of(exc).detail


def test_step_limit_overruns_at_different_budgets_share_a_signature():
    program = frontend("int main() { int i; i = 0; "
                       "while (i < 10) { i = i * 1; } return i; }")
    overruns = []
    for budget in (100, 5000):
        with pytest.raises(StepLimitExceeded) as exc:
            run_program(program, max_steps=budget)
        overruns.append(exc.value)
    assert str(overruns[0]) != str(overruns[1])
    assert signature_of(overruns[0]) == signature_of(overruns[1])
    assert signature_of(overruns[0]).kind == "emulation-fault"


def test_crash_fingerprint_is_stable_across_line_edits():
    # Fingerprints are module:function pairs — no line numbers — so two
    # raises from the same function match even if the file shifted.
    def _raise():
        raise ValueError("x")

    fingerprints = []
    for _ in range(2):
        try:
            _raise()
        except ValueError as exc:
            fingerprints.append(frame_fingerprint(exc))
    assert fingerprints[0] == fingerprints[1]


def test_compile_crash_signature_names_pass():
    exc = CompileError("pass blew up", pass_name="if-conversion")
    sig = signature_of(exc)
    assert sig.kind == "compile-crash"
    assert "if-conversion" in sig.detail


def test_signature_key_stable_and_short():
    sig = CrashSignature("divergence", "ModelDivergenceError",
                         ("return-value", "m"))
    assert sig.key == CrashSignature.from_dict(sig.to_dict()).key
    assert len(sig.key) == 12


def test_dedupe_groups_by_key():
    sig_a = CrashSignature("divergence", "E", ("x",)).to_dict()
    sig_b = CrashSignature("divergence", "E", ("y",)).to_dict()
    reports = [
        CaseReport("c1", 1, "p", "finding", signature=sig_a),
        CaseReport("c2", 2, "p", "finding", signature=sig_a),
        CaseReport("c3", 3, "p", "finding", signature=sig_b),
    ]
    buckets = dedupe(reports)
    assert len(buckets) == 2
    counts = sorted(b.count for b in buckets.values())
    assert counts == [1, 2]
    assert buckets[CrashSignature.from_dict(sig_a).key].case_ids == \
        ["c1", "c2"]


class _Inst:
    def __init__(self, cat):
        self.cat = cat


class _Event:
    def __init__(self, executed, addr, value, cat):
        self.executed = executed
        self.addr = addr
        self.value = value
        self.inst = _Inst(cat)


def test_store_stream_excludes_safe_addr_and_nullified():
    from repro.emu.memory import SAFE_ADDR
    from repro.ir.opcodes import OpCategory
    events = [
        _Event(True, 0x100, 7, OpCategory.STORE),
        _Event(False, 0x104, 8, OpCategory.STORE),   # nullified
        _Event(True, SAFE_ADDR, 9, OpCategory.STORE),  # redirected
        _Event(True, 0x108, 10, OpCategory.ALU),     # not a store
    ]
    assert store_stream(events) == [(0x100, 7)]


def test_first_store_divergence_localizes():
    from repro.ir.opcodes import OpCategory
    ref = [_Event(True, 0x100, 1, OpCategory.STORE),
           _Event(True, 0x104, 2, OpCategory.STORE)]
    cand = [_Event(True, 0x100, 1, OpCategory.STORE),
            _Event(True, 0x104, 3, OpCategory.STORE)]
    detail = first_store_divergence(cand, ref)
    assert detail is not None and "store#1" in detail
    assert first_store_divergence(ref, ref) is None
    assert "store-count" in first_store_divergence(cand[:1], ref)
