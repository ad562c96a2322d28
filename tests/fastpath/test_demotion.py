"""Mid-run kernel faults: demote in place, rerun byte-identically.

A kernel fault injected after chunk *k* must leave the vector engine's
output byte-identical to the pure-Python run at every chunk size: a
simulator (scan) fault reruns the whole simulation on
``simulate_columns``, and an emulator fault reruns the stream on the
Python rung.  The degradation ladder is observable in the counters,
never in the figures.
"""

import pytest

from repro.analysis.profile import Profile
from repro.engine.serialize import pack
from repro.fastpath import native, supervisor
from repro.fastpath.decode import decode_program
from repro.fastpath.interp import run_program_fast
from repro.fastpath.vector import (emulate_and_simulate_vector,
                                   prepare_vector,
                                   simulate_columns_vector)
from repro.machine.descriptor import MachineDescription
from repro.robustness.faults import CAMPAIGN_INPUTS, CAMPAIGN_SOURCE
from repro.toolchain import Model, compile_for_model, frontend

HAVE_CC = any(__import__("shutil").which(c) for c in ("cc", "gcc"))
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")


@pytest.fixture(scope="module")
def program():
    base = frontend(CAMPAIGN_SOURCE)
    profile = Profile.collect(base, inputs=CAMPAIGN_INPUTS)
    machine = MachineDescription(issue_width=4, branch_issue_limit=2,
                                 name="demotion").with_real_caches()
    compiled = compile_for_model(base, Model.FULLPRED, profile, machine)
    decoded = decode_program(compiled.program)
    return compiled, decoded, machine


@pytest.fixture(scope="module")
def reference(program):
    """Pure-Python ground truth: execution observables + cycle stats."""
    compiled, decoded, machine = program
    execution, stats = emulate_and_simulate_vector(
        compiled.program, compiled.addresses, machine,
        inputs=CAMPAIGN_INPUTS, decoded=decoded, native=False)
    return _observables(execution), repr(stats)


def _observables(execution) -> str:
    return repr((execution.return_value, execution.dynamic_count,
                 execution.suppressed_count, execution.output_signature,
                 execution.output_count, execution.memory_digest))


@pytest.fixture
def healthy_native():
    """The process's real kernel cache (usually already validated)."""
    supervisor.reset_for_testing()
    if not native.available():
        pytest.skip("native kernels unavailable on this host")
    yield
    supervisor.set_injection(None)
    supervisor.reset_for_testing()


@needs_cc
@pytest.mark.parametrize("chunk_events,fault_at",
                         [(1, 3), (7, 2), (4096, 1)])
def test_scan_fault_after_chunk_k_is_byte_identical(
        program, reference, healthy_native, chunk_events, fault_at):
    compiled, decoded, machine = program
    supervisor.set_injection(("scan-fault", fault_at))
    execution, stats = emulate_and_simulate_vector(
        compiled.program, compiled.addresses, machine,
        inputs=CAMPAIGN_INPUTS, chunk_events=chunk_events,
        decoded=decoded)
    ref_obs, ref_stats = reference
    assert _observables(execution) == ref_obs
    assert repr(stats) == ref_stats
    counters = supervisor.counters_snapshot()
    assert counters["native_kernel_crashes"] >= 1
    assert counters["engine_demotions"] >= 1


@needs_cc
@pytest.mark.parametrize("chunk_events,fault_at",
                         [(1, 3), (7, 1), (7, 2)])
def test_emulator_fault_after_chunk_k_is_byte_identical(
        program, reference, healthy_native, chunk_events, fault_at):
    compiled, decoded, machine = program
    supervisor.set_injection(("emu-fault", fault_at))
    execution, stats = emulate_and_simulate_vector(
        compiled.program, compiled.addresses, machine,
        inputs=CAMPAIGN_INPUTS, chunk_events=chunk_events,
        decoded=decoded)
    ref_obs, ref_stats = reference
    assert _observables(execution) == ref_obs
    assert repr(stats) == ref_stats
    counters = supervisor.counters_snapshot()
    assert counters["native_kernel_crashes"] >= 1
    assert counters["engine_demotions"] >= 1


@needs_cc
@pytest.mark.parametrize("chunk_events", [7, 4096])
def test_scan_fault_in_unfused_simulation_is_byte_identical(
        program, healthy_native, chunk_events):
    """The pipeline's unfused path (emulate, then simulate the stored
    trace) reruns on the Python rung after a faulting chunk."""
    compiled, decoded, machine = program
    execution = run_program_fast(compiled.program,
                                 inputs=CAMPAIGN_INPUTS,
                                 collect_trace=True, decoded=decoded)
    prep = prepare_vector(decoded, compiled.addresses, machine)
    ref_stats = simulate_columns_vector(
        execution.trace, prep, machine, chunk_events=chunk_events,
        native=False)
    supervisor.set_injection(("scan-fault", 1))
    stats = simulate_columns_vector(
        execution.trace, prep, machine, chunk_events=chunk_events)
    assert repr(stats) == repr(ref_stats)
    counters = supervisor.counters_snapshot()
    assert counters["native_kernel_crashes"] >= 1
    assert counters["engine_demotions"] >= 1


@needs_cc
def test_emulator_fault_in_a_training_run_demotes_once(healthy_native):
    """A kernel fault in an untraced training run demotes the process
    once and reruns it on the interpreter: the same profile."""
    base = frontend(CAMPAIGN_SOURCE)
    expected = pack("profile", Profile.collect(base, inputs=CAMPAIGN_INPUTS))
    supervisor.set_injection(("emu-fault", 1))
    profile = Profile.collect(base, inputs=CAMPAIGN_INPUTS, native=True)
    assert pack("profile", profile) == expected
    counters = supervisor.counters_snapshot()
    assert counters["native_kernel_crashes"] == 1
    assert counters["engine_demotions"] == 1
    assert not supervisor.native_active()
