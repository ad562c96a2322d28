"""Vector engine: equivalence, chunk invariance, the Python rung, metrics.

The vector engine (native C kernels with one pure-Python rung below
them) must be byte-identical to the legacy reference on every
observable, at every chunk size, with the native kernels on or off.
The property test reuses the differential fuzz generator's stress
profiles, so the same program shapes that hunt miscompiles also hunt
engine drift.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.profile import Profile
from repro.emu import run_program
from repro.emu.memory import EmulationFault
from repro.engine.metrics import PipelineMetrics
from repro.engine.stages import PipelineContext
from repro.fastpath.decode import decode_program
from repro.fastpath.interp import run_program_fast
from repro.fastpath.simulate import (StreamSimulator, prepare_sim,
                                     simulate_columns)
from repro.fastpath.vector import (VectorSimPrep, VectorSimulator,
                                   emulate_and_simulate_vector,
                                   simulate_columns_vector)
from repro.fuzz.generator import PROFILE_ORDER, generate_case
from repro.machine.descriptor import MachineDescription, fig8_machine
from repro.robustness.errors import SpecError
from repro.sim.pipeline import simulate_trace
from repro.toolchain import (Model, compile_for_model, frontend,
                             run_compiled)
from repro.workloads import get_workload

#: ExecutionResult fields every engine must reproduce exactly
_EXACT = ("return_value", "dynamic_count", "suppressed_count",
          "branch_outcomes", "block_counts", "output_signature",
          "output_count", "memory_digest")

_KERNEL = """
int data[32];
int main() {
    int i; int j; int acc;
    acc = 0;
    for (i = 0; i < 40; i = i + 1) {
        for (j = 0; j < (i % 7) + 2; j = j + 1) {
            if (data[(i + j) % 32] > j) {
                acc = acc + data[j % 32];
            } else {
                acc = acc - j;
            }
            data[(i * 3 + j) % 32] = acc % 251;
        }
    }
    return acc % 100003;
}
"""


@pytest.fixture(scope="module")
def kernel():
    """Compiled kernel + reference trace/stats, shared by this module."""
    base = frontend(_KERNEL)
    profile = Profile.collect(base)
    machine = fig8_machine()
    compiled = compile_for_model(base, Model.FULLPRED, profile, machine)
    decoded = decode_program(compiled.program)
    execution = run_program_fast(compiled.program, collect_trace=True,
                                 decoded=decoded)
    prep = prepare_sim(decoded, compiled.addresses, machine)
    stats = simulate_columns(execution.trace, prep, machine)
    return compiled, decoded, execution, prep, machine, stats


def _assert_stats_equal(a, b, context=""):
    for field in dataclasses.fields(b):
        assert getattr(a, field.name) == getattr(b, field.name), \
            (field.name, context)


# ----- chunk-size invariance ------------------------------------------------

def _simulate_in_chunks(trace, prep, machine, chunk_events, native=True):
    """Stats of ``trace`` fed to one simulator ``chunk_events`` events
    at a time."""
    sim = VectorSimulator(prep, machine, native=native)
    for chunk in trace.chunks(chunk_events):
        sim.feed(chunk)
    return sim.finish()


@pytest.mark.parametrize("chunk_events", [1, 7, 4096])
def test_chunk_size_invariance_native(kernel, chunk_events):
    compiled, _, execution, prep, machine, ref = kernel
    stats = _simulate_in_chunks(execution.trace, VectorSimPrep(prep),
                                machine, chunk_events)
    _assert_stats_equal(stats, ref, f"chunk={chunk_events}")


@pytest.mark.parametrize("chunk_events", [1, 7, 4096])
def test_chunk_size_invariance_python_fallback(kernel, chunk_events):
    """The Python rung (no native kernel) is also chunk-invariant."""
    _, _, execution, prep, machine, ref = kernel
    stats = _simulate_in_chunks(execution.trace, VectorSimPrep(prep),
                                machine, chunk_events, native=False)
    _assert_stats_equal(stats, ref, f"fallback chunk={chunk_events}")


@pytest.mark.parametrize("native", [True, False])
def test_stored_trace_is_scanned_in_one_feed(kernel, native):
    _, _, execution, prep, machine, ref = kernel
    metrics = PipelineMetrics()
    stats = simulate_columns_vector(execution.trace, VectorSimPrep(prep),
                                    machine, metrics=metrics,
                                    native=native)
    _assert_stats_equal(stats, ref, f"native={native}")
    assert metrics.vector_chunks_total == 1


def test_boundary_digest_chunk_invariant(kernel):
    """Carried simulator state — ready times, BTB, cache tags and
    counters — is identical however the trace is cut, on either rung."""
    _, _, execution, prep, _, _ = kernel
    machine = fig8_machine().with_real_caches()
    prefix = execution.trace.slice(0, len(execution.trace) // 2)
    digests = set()
    for native in (True, False):
        for size in (len(prefix), 97, 13):
            sim = VectorSimulator(VectorSimPrep(prep), machine,
                                  native=native)
            for chunk in prefix.chunks(size):
                sim.feed(chunk)
            digests.add(sim.boundary_digest())
    assert len(digests) == 1


# ----- engine selection end-to-end ------------------------------------------

def test_run_compiled_engine_matrix(kernel):
    compiled, _, _, _, machine, _ = kernel
    results = {engine: run_compiled(compiled, machine=machine,
                                    engine=engine)
               for engine in ("legacy", "vector")}
    ref = results["legacy"]
    for engine, result in results.items():
        assert result.return_value == ref.return_value, engine
        _assert_stats_equal(result.stats, ref.stats, engine)
    # the fused vector run never materializes the trace
    assert results["vector"].execution.trace is None
    for name in ("warp", "stream", "fastpath"):
        with pytest.raises(SpecError, match="legacy, vector"):
            run_compiled(compiled, machine=machine, engine=name)


def test_pipeline_context_engines_agree():
    workload = get_workload("wc")
    machine = MachineDescription(issue_width=4)
    summaries = {}
    contexts = {}
    for engine in ("legacy", "vector"):
        ctx = PipelineContext(engine=engine, scale=0.3)
        summaries[engine] = ctx.run_summary(workload, Model.FULLPRED,
                                            machine)
        contexts[engine] = ctx
    ref = summaries["legacy"]
    for engine, summary in summaries.items():
        assert summary.return_value == ref.return_value, engine
        _assert_stats_equal(summary.stats, ref.stats, engine)
    metrics = contexts["vector"].metrics
    assert metrics.stages["emulate"].invocations == 1
    assert metrics.stages["simulate"].invocations == 1
    assert metrics.vector_chunks_total >= 1
    data = metrics.to_dict()
    assert data["vector_chunks_total"] >= 1
    assert "vector_chunks_per_second" in data


def test_pipeline_context_rejects_unknown_engine():
    for name in ("warp", "stream", "fastpath"):
        with pytest.raises(SpecError, match="legacy, vector"):
            PipelineContext(engine=name)


# ----- fused emulate→simulate ----------------------------------------------

def test_fused_vector_matches_stream_sim(kernel):
    compiled, decoded, execution, prep, machine, ref = kernel
    vec, vstats = emulate_and_simulate_vector(
        compiled.program, compiled.addresses, machine, decoded=decoded)
    _assert_stats_equal(vstats, ref, "fused")
    for field in _EXACT:
        assert getattr(vec, field) == getattr(execution, field), field
    assert vec.trace is None


def test_python_fallback_simulator_matches_stream(kernel):
    _, _, execution, prep, machine, _ = kernel
    stream = StreamSimulator(prep, machine)
    vector = VectorSimulator(VectorSimPrep(prep), machine, native=False)
    for chunk in execution.trace.chunks(999):
        stream.feed(chunk)
        vector.feed(chunk)
    _assert_stats_equal(vector.finish(), stream.finish(), "fallback")


def test_native_emulator_fault_parity():
    source = "int main() { int a; a = 0; return 5 / a; }"
    base = frontend(source)
    empty = Profile(block_counts={}, branch_outcomes={})
    compiled = compile_for_model(base, Model.SUPERBLOCK, empty,
                                 fig8_machine())
    with pytest.raises(EmulationFault) as fast_exc:
        run_program_fast(compiled.program, collect_trace=True)
    from repro.fastpath.native import run_program_native
    with pytest.raises(EmulationFault) as native_exc:
        run_program_native(compiled.program, collect_trace=True)
    assert str(native_exc.value) == str(fast_exc.value)


# ----- property test over the fuzz generator's stress profiles --------------

@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
@given(seed=st.integers(0, 2**31 - 1),
       index=st.integers(0, len(PROFILE_ORDER) - 1))
def test_vector_matches_legacy_on_fuzz_profiles(seed, index):
    """Legacy and vector — on the native kernels and on the Python
    rung — agree on cycle counts, stall breakdowns and store streams
    for every fuzz-profile program.  Each program is compiled once and
    checked on both rungs."""
    case = generate_case(seed, index)
    machine = fig8_machine()
    try:
        base = frontend(case.source)
        profile = Profile.collect(base, inputs=case.inputs,
                                  max_steps=300_000)
    except EmulationFault:
        return  # a legitimately faulting case proves nothing here
    for model in (Model.SUPERBLOCK, Model.FULLPRED):
        compiled = compile_for_model(base, model, profile, machine)
        try:
            legacy = run_program(compiled.program, inputs=case.inputs,
                                 collect_trace=True, max_steps=600_000)
        except EmulationFault as exc:
            # fault parity: the vector engine must fault identically
            for native in (True, False):
                with pytest.raises(EmulationFault) as vexc:
                    emulate_and_simulate_vector(
                        compiled.program, compiled.addresses, machine,
                        inputs=case.inputs, max_steps=600_000,
                        native=native)
                assert str(vexc.value) == str(exc), \
                    (model, native, case.case_id)
            continue
        decoded = decode_program(compiled.program)
        legacy_stats = simulate_trace(legacy.trace, compiled.addresses,
                                      machine)
        prep = VectorSimPrep(prepare_sim(decoded, compiled.addresses,
                                         machine))
        for native in (True, False):
            vec, vstats = emulate_and_simulate_vector(
                compiled.program, compiled.addresses, machine,
                inputs=case.inputs, max_steps=600_000, decoded=decoded,
                native=native)
            for field in _EXACT:
                assert getattr(vec, field) == getattr(legacy, field), \
                    (field, model, native, case.case_id)
            _assert_stats_equal(vstats, legacy_stats,
                                (model, native, case.case_id))
        # chunk-size invariance on the recorded columnar trace
        fast = run_program_fast(compiled.program, inputs=case.inputs,
                                collect_trace=True, max_steps=600_000,
                                decoded=decoded)
        for field in _EXACT:
            assert getattr(fast, field) == getattr(legacy, field), \
                (field, model, case.case_id)
        for native in (True, False):
            for chunk_events in (7, 4096):
                chunked = _simulate_in_chunks(
                    fast.trace, prep, machine, chunk_events, native)
                _assert_stats_equal(
                    chunked, legacy_stats,
                    (model, native, chunk_events, case.case_id))
