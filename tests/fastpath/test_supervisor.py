"""Native-engine supervisor: build, cache integrity, canaries, ladder.

Every test runs against a throwaway kernel cache and restores the
process's supervisor state afterwards, so the rest of the suite keeps
its (possibly already validated) native engine.
"""

import os
import signal as _signal
from pathlib import Path

import pytest

from repro.analysis.profile import Profile
from repro.engine.metrics import PipelineMetrics
from repro.fastpath import native, supervisor
from repro.machine.descriptor import MachineDescription
from repro.robustness.errors import (NativeKernelCrash, NativeParityError,
                                     NativeToolchainMissing)
from repro.robustness.faults import CAMPAIGN_INPUTS, CAMPAIGN_SOURCE
from repro.toolchain import (Model, compile_for_model, frontend,
                             run_compiled)

HAVE_CC = any(__import__("shutil").which(c) for c in ("cc", "gcc"))
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")


@pytest.fixture
def fresh_cache(tmp_path):
    """A throwaway kernel cache; state restored on exit."""
    cache = str(tmp_path / "kernels")
    supervisor.reset_for_testing(cache_dir=cache)
    yield cache
    supervisor.set_injection(None)
    supervisor.reset_for_testing()


# ----- env snapshot ---------------------------------------------------------

def test_repro_native_env_is_resolved_once(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    supervisor.reset_for_testing(cache_dir=str(tmp_path))
    try:
        assert not supervisor.native_enabled()
        assert supervisor.current_engine() == "interpreter"
        # Disabled-by-config is a choice, not a failure: no event.
        assert supervisor.degradation_events() == []
        assert not native.available()
        # A mid-run env mutation must NOT re-enable the engine.
        monkeypatch.setenv("REPRO_NATIVE", "1")
        assert not supervisor.native_enabled()
        assert not supervisor.native_active()
    finally:
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        supervisor.reset_for_testing()


def test_native_cflags_env_reaches_the_build_flags(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE_CFLAGS", "-g -fno-omit-frame-pointer")
    supervisor.reset_for_testing(cache_dir=str(tmp_path))
    try:
        flags = supervisor._get_state().cflags
        assert flags[-2:] == ("-g", "-fno-omit-frame-pointer")
    finally:
        monkeypatch.delenv("REPRO_NATIVE_CFLAGS", raising=False)
        supervisor.reset_for_testing()


# ----- cache key + fingerprint ----------------------------------------------

@pytest.fixture(scope="module")
def vector_program():
    """A predicated kernel on a cached machine, with its legacy-engine
    observables as the reference."""
    base = frontend(CAMPAIGN_SOURCE)
    profile = Profile.collect(base, inputs=CAMPAIGN_INPUTS)
    machine = MachineDescription(issue_width=4, branch_issue_limit=2,
                                 name="supervisor").with_real_caches()
    compiled = compile_for_model(base, Model.FULLPRED, profile, machine)
    reference = _observables(run_compiled(
        compiled, inputs=CAMPAIGN_INPUTS, machine=machine,
        engine="legacy"))
    return compiled, machine, reference


def _observables(result) -> str:
    ex = result.execution
    return repr((ex.return_value, ex.dynamic_count, ex.suppressed_count,
                 ex.output_signature, ex.output_count, ex.memory_digest,
                 result.stats))


def test_cache_key_depends_on_compiler_fingerprint(fresh_cache,
                                                   vector_program):
    supervisor.reset_for_testing(cache_dir=fresh_cache,
                                 fingerprint="probe-cc 1.0")
    first = supervisor.so_path()
    supervisor.reset_for_testing(cache_dir=fresh_cache,
                                 fingerprint="probe-cc 1.0")
    assert supervisor.so_path() == first
    supervisor.reset_for_testing(cache_dir=fresh_cache,
                                 fingerprint="probe-cc 2.0")
    assert supervisor.so_path() != first
    if not HAVE_CC:
        pytest.skip("no C toolchain: the builds are not exercised")
    # A compiler upgrade between runs builds and validates a second
    # object beside the first instead of loading the stale one, and
    # both run the vector engine to the legacy engine's observables.
    compiled, machine, reference = vector_program
    for fingerprint in ("probe-cc 1.0", "probe-cc 2.0"):
        supervisor.reset_for_testing(cache_dir=fresh_cache,
                                     fingerprint=fingerprint)
        assert native.available()
        assert Path(supervisor.so_path() + ".ok").exists()
        result = run_compiled(compiled, inputs=CAMPAIGN_INPUTS,
                              machine=machine, engine="vector")
        assert _observables(result) == reference
        assert supervisor.current_engine() == "native"
    assert Path(first).exists()


def test_missing_toolchain_is_typed_and_demotes(fresh_cache):
    supervisor.reset_for_testing(cache_dir=fresh_cache,
                                 compilers=("no-such-cc-anywhere",))
    with pytest.raises(NativeToolchainMissing):
        supervisor.ensure_built()
    # The supervised acquire path records + demotes instead of raising.
    assert supervisor.acquire_so() is None
    assert isinstance(supervisor.last_error(), NativeToolchainMissing)
    assert supervisor.current_engine() == "interpreter"
    counters = supervisor.counters_snapshot()
    assert counters["engine_demotions"] == 1
    events = supervisor.degradation_events()
    assert [(e.from_engine, e.to_engine) for e in events] == \
        [("native", "interpreter")]
    assert events[0].error == "NativeToolchainMissing"
    assert set(events[0].to_dict()) == {"at", "from", "to", "reason",
                                        "error"}


# ----- build + digest sidecar -----------------------------------------------

@needs_cc
def test_build_publishes_digest_sidecar(fresh_cache):
    path = supervisor.ensure_built()
    sidecar = Path(path + ".sha256")
    assert sidecar.read_text().strip() == supervisor._digest_file(path)
    # Second call is a verified cache hit, not a rebuild.
    mtime = os.path.getmtime(path)
    assert supervisor.ensure_built() == path
    assert os.path.getmtime(path) == mtime


@needs_cc
def test_corrupt_cached_so_is_quarantined_and_rebuilt(fresh_cache):
    path = Path(supervisor.ensure_built())
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    rebuilt = supervisor.ensure_built()
    assert rebuilt == str(path)
    assert supervisor._digest_file(rebuilt) == \
        Path(rebuilt + ".sha256").read_text().strip()
    quarantine = Path(fresh_cache) / "quarantine"
    objects = [p for p in quarantine.iterdir()
               if not p.name.endswith(".reason")]
    reasons = [p for p in quarantine.iterdir()
               if p.name.endswith(".reason")]
    assert len(objects) == 1 and len(reasons) == 1
    assert supervisor.counters_snapshot()["kernel_cache_quarantined"] == 1


@needs_cc
def test_missing_sidecar_counts_as_corruption(fresh_cache):
    path = supervisor.ensure_built()
    os.unlink(path + ".sha256")
    supervisor.ensure_built()
    assert supervisor.counters_snapshot()["kernel_cache_quarantined"] == 1


# ----- sandbox + parity canaries --------------------------------------------

@needs_cc
def test_healthy_kernel_validates_and_stays_native(fresh_cache):
    assert native.available()
    assert supervisor.current_engine() == "native"
    assert supervisor.counters_snapshot() == {
        "engine_demotions": 0, "native_parity_failures": 0,
        "native_kernel_crashes": 0, "kernel_cache_quarantined": 0}
    # The sandbox canary left its validation sidecar: a fresh process
    # over the same object skips the sacrificial subprocess.
    assert Path(supervisor.so_path() + ".ok").exists()


@needs_cc
def test_sandbox_canary_contains_a_segfault(fresh_cache):
    supervisor.set_injection("segv-child")
    assert not native.available()
    error = supervisor.last_error()
    assert isinstance(error, NativeKernelCrash)
    assert error.signal == int(_signal.SIGSEGV)
    assert supervisor.current_engine() == "interpreter"
    counters = supervisor.counters_snapshot()
    assert counters["native_kernel_crashes"] == 1
    assert counters["engine_demotions"] == 1
    # The parent process survived (we are running in it) and the
    # unvalidated object carries no .ok sidecar.
    assert not Path(supervisor.so_path() + ".ok").exists()


@needs_cc
def test_sandbox_canary_parity_mismatch_quarantines(fresh_cache):
    supervisor.set_injection("parity-child")
    assert not native.available()
    assert isinstance(supervisor.last_error(), NativeParityError)
    counters = supervisor.counters_snapshot()
    assert counters["native_parity_failures"] == 1
    assert counters["kernel_cache_quarantined"] == 1
    assert not os.path.exists(supervisor.so_path())


@needs_cc
def test_in_process_parity_mismatch_quarantines(fresh_cache):
    supervisor.set_injection("parity-process")
    assert not native.available()
    assert isinstance(supervisor.last_error(), NativeParityError)
    counters = supervisor.counters_snapshot()
    assert counters["native_parity_failures"] == 1
    assert counters["kernel_cache_quarantined"] == 1
    assert supervisor.current_engine() == "interpreter"


@needs_cc
def test_golden_digest_native_matches_python(fresh_cache):
    assert native.available()
    assert supervisor.golden_digest(native=True) == \
        supervisor.golden_digest(native=False)


# ----- counters -------------------------------------------------------------

def test_drain_moves_deltas_instead_of_copying(fresh_cache):
    supervisor.demote("probe one")
    first = PipelineMetrics()
    supervisor.drain_into(first)
    assert first.engine_demotions == 1
    # Nothing new since the drain: a second sink gets nothing.
    second = PipelineMetrics()
    supervisor.drain_into(second)
    assert second.engine_demotions == 0
    # Only the delta since the last drain moves.
    supervisor.report_kernel_fault(NativeKernelCrash("probe two",
                                                     stage="emu"))
    assert supervisor.current_engine() == "interpreter"
    supervisor.drain_into(second)
    assert (second.engine_demotions, second.native_kernel_crashes) == \
        (0, 1)
    assert first.native_kernel_crashes == 0


def test_demotion_below_interpreter_is_a_noop(fresh_cache):
    assert supervisor.demote("one") == "interpreter"
    assert supervisor.demote("two") == "interpreter"
    assert supervisor.counters_snapshot()["engine_demotions"] == 1


# ----- kernel-cache scan (fsck integration) ---------------------------------

def test_scan_reports_and_repairs_orphan_sidecars(fresh_cache):
    cache = Path(fresh_cache)
    cache.mkdir(parents=True, exist_ok=True)
    (cache / "repro_kernel_deadbeef.so.sha256").write_text("0" * 64)
    (cache / "repro_kernel_deadbeef.so.ok").write_text("0" * 64)
    scan = supervisor.scan_kernel_cache(repair=False)
    assert scan.orphans == 2 and scan.scanned == 0
    scan = supervisor.scan_kernel_cache(repair=True)
    assert scan.orphans == 2
    assert supervisor.scan_kernel_cache().orphans == 0


@needs_cc
def test_fsck_store_folds_in_the_kernel_scan(fresh_cache, tmp_path):
    from repro.engine.recovery.fsck import fsck_store
    from repro.engine.store import ArtifactStore
    path = Path(supervisor.ensure_built())
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    store = ArtifactStore(str(tmp_path / "store"))
    report = fsck_store(store, repair=False, include_kernels=True)
    assert report.kernel_scanned == 1 and report.kernel_ok == 0
    assert any(i.kind == "kernel" and i.action == "reported"
               for i in report.issues)
    repaired = fsck_store(store, repair=True, include_kernels=True)
    assert any(i.kind == "kernel" and i.action == "quarantined"
               for i in repaired.issues)
    clean = fsck_store(store, repair=False, include_kernels=True)
    assert clean.kernel_scanned == 0
    assert not any(i.kind == "kernel" for i in clean.issues)
    # Without the flag the store scan never touches the kernel cache.
    plain = fsck_store(store, repair=False)
    assert plain.kernel_scanned == 0 and plain.kernel_cache == ""
