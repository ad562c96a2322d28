"""The native emulator against the reference interpreter, end to end.

Every paper kernel at scale 0.05 and every corpus entry, under all three
models: ``run_program_native`` without a watchdog (so on the kernel)
must give ``run_program``'s observables, with the same dict insertion
order, and its trace event for event.  The traced runs suspend every
few hundred events, so the chunk-merging code runs many times per
program; the streamed form (through a sink) and the untraced form must
agree too.  The fuzz oracle cannot see this: it arms a watchdog on
every run, which keeps its vector leg on the Python rung.
"""

import pytest

from repro.analysis.profile import Profile
from repro.emu.interpreter import run_program
from repro.fastpath import native, supervisor
from repro.fastpath.columns import TraceColumns
from repro.fuzz.corpus import list_entries
from repro.machine.descriptor import MachineDescription
from repro.toolchain import Model, compile_for_model, frontend
from repro.workloads.base import all_workloads, get_workload

HAVE_CC = any(__import__("shutil").which(c) for c in ("cc", "gcc"))
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")

_OBSERVABLES = ("return_value", "dynamic_count", "suppressed_count",
                "output_signature", "output_count", "memory_digest")
MAX_STEPS = 2_000_000
#: small enough that every program streams in many chunks
CHUNK_EVENTS = 509
MACHINE = MachineDescription(issue_width=8, branch_issue_limit=1)

_ENTRIES = {e.entry_id: e for e in list_entries()}
#: every paper workload at scale 0.05, then every corpus entry
PROGRAMS = [w.name for w in all_workloads()] + sorted(_ENTRIES)


def _source_and_inputs(name):
    if name in _ENTRIES:
        entry = _ENTRIES[name]
        return entry.source, entry.inputs
    workload = get_workload(name)
    return workload.source, workload.inputs(0.05)


@pytest.fixture(scope="module")
def kernel():
    supervisor.reset_for_testing()
    if not native.available():
        pytest.skip("native kernels unavailable on this host")
    yield
    supervisor.reset_for_testing()


def _summary(execution) -> tuple:
    return (tuple(getattr(execution, f) for f in _OBSERVABLES),
            list(execution.branch_outcomes.items()),
            list(execution.block_counts.items()))


def _run(emulate, program, inputs, **kwargs):
    try:
        return emulate(program, inputs=inputs, max_steps=MAX_STEPS,
                       **kwargs)
    except Exception as exc:  # the same failure on both engines
        return f"{type(exc).__name__}: {exc}"


@needs_cc
@pytest.mark.parametrize("name", PROGRAMS)
def test_native_emulation_matches_the_reference(name, kernel, monkeypatch):
    def no_fallback(*_args, **_kwargs):
        raise AssertionError("the run left the kernel")
    source, inputs = _source_and_inputs(name)
    base = frontend(source)
    profile = Profile.collect(base, inputs=inputs, max_steps=MAX_STEPS)
    monkeypatch.setattr(native, "run_program_fast", no_fallback)
    for model in Model:
        program = compile_for_model(base, model, profile, MACHINE).program
        expected = _run(run_program, program, inputs, collect_trace=True)
        traced = _run(native.run_program_native, program, inputs,
                      collect_trace=True, chunk_events=CHUNK_EVENTS)
        untraced = _run(native.run_program_native, program, inputs)
        chunks = []
        streamed = _run(native.run_program_native, program, inputs,
                        sink=chunks.append, chunk_events=CHUNK_EVENTS)
        if isinstance(expected, str):
            assert traced == untraced == streamed == expected, model
            continue
        for got in (traced, untraced, streamed):
            assert _summary(got) == _summary(expected), model
        assert traced.trace.to_events(program) == expected.trace, model
        assert untraced.trace is None and streamed.trace is None
        joined = TraceColumns()
        for chunk in chunks:
            assert len(chunk) <= CHUNK_EVENTS
            joined.extend(chunk)
        assert joined == traced.trace, model
