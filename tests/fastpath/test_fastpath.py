"""The vector engine's Python rung: decode, columnar traces, streaming,
equivalence.

`src/repro/fastpath/` re-implements the emulator's and simulator's hot
loops over dense integer-indexed structures; every test here pins them
to the legacy object-graph implementations, which remain the
differential oracle.
"""

import pytest

from repro.emu.interpreter import run_program
from repro.fastpath.columns import FLAG_EXECUTED
from repro.fastpath.decode import decode_program
from repro.fastpath.interp import run_program_fast
from repro.fastpath.simulate import (emulate_and_simulate_stream,
                                     prepare_sim, simulate_columns)
from repro.robustness.differential import assert_fastpath_equivalent
from repro.robustness.errors import ModelDivergenceError
from repro.sim.pipeline import simulate_trace
from repro.toolchain import Model, compile_for_model
from tests.conftest import wc_expected, wc_inputs

_OBSERVABLES = ("return_value", "dynamic_count", "suppressed_count",
                "branch_outcomes", "block_counts", "output_signature",
                "output_count", "memory_digest")


@pytest.fixture(params=list(Model), ids=lambda m: m.name.lower())
def wc_compiled(request, wc_program, wc_profile, machine8):
    return compile_for_model(wc_program, request.param, wc_profile,
                             machine8)


# ----- decode --------------------------------------------------------------

def test_decode_covers_every_instruction(wc_program):
    decoded = decode_program(wc_program)
    total = sum(len(list(fn.all_instructions()))
                for fn in wc_program.functions.values())
    assert len(decoded.instructions) == total
    assert sum(len(fn.code) for fn in decoded.functions.values()) == total
    # static indices follow assign_addresses program order
    flat = [inst for fn in wc_program.functions.values()
            for inst in fn.all_instructions()]
    assert list(decoded.instructions) == flat


def test_decode_is_pure_metadata(wc_program):
    """Decoding must not mutate the program (same IR, same uids)."""
    from repro.ir.printer import format_program
    before = format_program(wc_program)
    decode_program(wc_program)
    assert format_program(wc_program) == before


# ----- emulation equivalence ----------------------------------------------

def test_fast_emulation_matches_legacy(wc_compiled):
    legacy = run_program(wc_compiled.program, inputs=wc_inputs(),
                         collect_trace=True)
    fast = run_program_fast(wc_compiled.program, inputs=wc_inputs(),
                            collect_trace=True)
    assert fast.return_value == wc_expected()
    for field in _OBSERVABLES:
        assert getattr(fast, field) == getattr(legacy, field), field
    assert fast.trace.to_events(wc_compiled.program) == legacy.trace


def test_trace_events_view_on_execution_result(wc_compiled):
    fast = run_program_fast(wc_compiled.program, inputs=wc_inputs(),
                            collect_trace=True)
    events = fast.trace_events(wc_compiled.program)
    assert len(events) == len(fast.trace) == fast.dynamic_count
    executed = sum(1 for e in events if e.executed)
    assert executed == fast.dynamic_count - fast.suppressed_count
    assert executed == sum(1 for f in fast.trace.flags
                           if f & FLAG_EXECUTED)


# ----- simulation equivalence ---------------------------------------------

def test_fast_simulation_matches_legacy(wc_compiled, machine8):
    legacy = run_program(wc_compiled.program, inputs=wc_inputs(),
                         collect_trace=True)
    fast = run_program_fast(wc_compiled.program, inputs=wc_inputs(),
                            collect_trace=True)
    want = simulate_trace(legacy.trace, wc_compiled.addresses, machine8)
    prep = prepare_sim(decode_program(wc_compiled.program),
                       wc_compiled.addresses)
    assert simulate_columns(fast.trace, prep, machine8) == want


def test_fast_simulation_matches_legacy_with_real_caches(wc_compiled,
                                                         machine8):
    machine = machine8.with_real_caches()
    legacy = run_program(wc_compiled.program, inputs=wc_inputs(),
                         collect_trace=True)
    fast = run_program_fast(wc_compiled.program, inputs=wc_inputs(),
                            collect_trace=True)
    want = simulate_trace(legacy.trace, wc_compiled.addresses, machine)
    prep = prepare_sim(decode_program(wc_compiled.program),
                       wc_compiled.addresses)
    assert simulate_columns(fast.trace, prep, machine) == want


# ----- streaming -----------------------------------------------------------

@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
def test_streaming_matches_batch_at_any_chunk_size(wc_compiled, machine8,
                                                   chunk):
    legacy = run_program(wc_compiled.program, inputs=wc_inputs(),
                         collect_trace=True)
    want = simulate_trace(legacy.trace, wc_compiled.addresses, machine8)
    streamed, stats = emulate_and_simulate_stream(
        wc_compiled.program, wc_compiled.addresses, machine8,
        inputs=wc_inputs(), chunk_events=chunk)
    assert stats == want
    assert streamed.trace is None  # never materialized
    for field in _OBSERVABLES:
        assert getattr(streamed, field) == getattr(legacy, field), field


# ----- columnar traces -----------------------------------------------------

def test_columns_slice_and_chunks_partition_the_trace(wc_compiled):
    fast = run_program_fast(wc_compiled.program, inputs=wc_inputs(),
                            collect_trace=True)
    cols = fast.trace
    events = cols.to_events(wc_compiled.program)
    rebuilt = []
    for chunk in cols.chunks(97):
        rebuilt.extend(chunk.to_events(wc_compiled.program))
    assert rebuilt == events


# ----- differential oracle -------------------------------------------------

def test_assert_fastpath_equivalent_passes(wc_compiled, machine8):
    assert_fastpath_equivalent(wc_compiled, inputs=wc_inputs(),
                               machine=machine8, workload="wc")


def test_assert_fastpath_equivalent_catches_semantic_drift(
        wc_compiled, machine8, monkeypatch):
    """Sanity: a deliberately broken vector emulator must be caught."""
    import repro.fastpath.native as native
    import repro.robustness.differential as differential

    real = native.run_program_native

    def broken(program, **kwargs):
        result = real(program, **kwargs)
        result.output_signature ^= 1
        return result

    monkeypatch.setattr(native, "run_program_native", broken)
    with pytest.raises(ModelDivergenceError, match="vector"):
        differential.assert_fastpath_equivalent(
            wc_compiled, inputs=wc_inputs(), machine=machine8,
            workload="wc")
