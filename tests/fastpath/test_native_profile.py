"""Training runs on the native emulator kernel.

``PipelineContext.profile`` runs the training run on the native kernel
when the process may use it.  The profile key names no engine, so the
kernel's profile must be the interpreter's bit for bit: the same block
counts and branch outcomes, in the same insertion order, packing to the
same artifact bytes.  The kernel's own canary and ``REPRO_NATIVE=0``
keep the interpreter, so the check of the kernel never runs on it.
"""

import time

import pytest

from repro.analysis.profile import Profile
from repro.engine.serialize import pack
from repro.engine.stages import PipelineContext
from repro.engine.store import ArtifactStore
from repro.fastpath import native, supervisor
from repro.fuzz.corpus import list_entries
from repro.machine.descriptor import MachineDescription
from repro.toolchain import Model, frontend
from repro.workloads.base import all_workloads, get_workload

HAVE_CC = any(__import__("shutil").which(c) for c in ("cc", "gcc"))
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")

#: every paper workload at scale 0.05, then every corpus entry
PROGRAMS = ([w.name for w in all_workloads()]
            + [e.entry_id for e in list_entries()])
_ENTRIES = {e.entry_id: e for e in list_entries()}


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


def _profile_or_error(program, inputs, **kwargs):
    try:
        return Profile.collect(program, inputs=inputs, max_steps=2_000_000,
                               **kwargs)
    except Exception as exc:  # the same failure on both engines
        return f"{type(exc).__name__}: {exc}"


@needs_cc
@pytest.mark.parametrize("name", PROGRAMS)
def test_native_training_run_gives_the_interpreter_profile(
        name, kernel, monkeypatch):
    source, inputs = _source_and_inputs(name)
    base = frontend(source)
    expected = _profile_or_error(base, inputs)

    def no_fallback(*_args, **_kwargs):
        raise AssertionError("the training run left the kernel")
    monkeypatch.setattr(native, "run_program_fast", no_fallback)
    got = _profile_or_error(base, inputs, native=True)
    if isinstance(expected, str):
        assert got == expected
        return
    assert list(got.block_counts.items()) \
        == list(expected.block_counts.items())
    assert list(got.branch_outcomes.items()) \
        == list(expected.branch_outcomes.items())
    assert pack("profile", got) == pack("profile", expected)


def test_repro_native_0_and_the_canary_profile_on_the_interpreter(
        monkeypatch, tmp_path):
    def no_kernel(*_args, **_kwargs):
        raise AssertionError("a training run asked for the kernel")
    monkeypatch.setattr(native, "run_program_native", no_kernel)
    workload = get_workload("wc")

    monkeypatch.setenv("REPRO_NATIVE", "0")
    supervisor.reset_for_testing(cache_dir=str(tmp_path))
    try:
        ctx = PipelineContext(scale=0.05)
        assert ctx.native_enabled is False
        ctx.profile(workload)
    finally:
        monkeypatch.delenv("REPRO_NATIVE")
        supervisor.reset_for_testing()

    # The legacy reference never runs a kernel, whatever the process may.
    PipelineContext(scale=0.05, engine="legacy",
                    native_enabled=True).profile(workload)
    # The canary compiles and profiles its golden program anew.
    monkeypatch.setattr(supervisor, "_GOLDEN", None)
    supervisor._golden_program()


@needs_cc
def test_native_load_is_charged_to_no_stage(kernel, monkeypatch, tmp_path):
    """A cold kernel cache's build and canary run before any stage
    timer starts; a run that only reads stored stats loads nothing."""
    real_load = supervisor.load
    loads = []

    def slow_load():
        loads.append(1)
        time.sleep(0.3)
        real_load()
    monkeypatch.setattr(supervisor, "load", slow_load)
    monkeypatch.setattr(native, "_lib_tried", False)
    workload = get_workload("wc")
    machine = MachineDescription(issue_width=8, branch_issue_limit=1)
    ctx = PipelineContext(scale=0.05, store=ArtifactStore(str(tmp_path)))
    cold = ctx.run_summary(workload, Model.FULLPRED, machine)
    assert loads == [1]
    for stage in ("profile", "emulate", "simulate"):
        assert 0 < ctx.metrics.stages[stage].wall_seconds < 0.3, stage

    def no_load():
        raise AssertionError("a warm run loaded the kernels")
    monkeypatch.setattr(supervisor, "load", no_load)
    monkeypatch.setattr(native, "_lib_tried", False)
    warm = PipelineContext(scale=0.05, store=ArtifactStore(str(tmp_path)))
    assert warm.run_summary(workload, Model.FULLPRED, machine) == cold
