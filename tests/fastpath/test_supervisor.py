"""Native-engine supervisor: one trust decision per process, at load.

Every test runs against a throwaway kernel cache and restores the
process's supervisor state afterwards, so the rest of the suite keeps
its (possibly already validated) native engine.
"""

import json
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
    supervisor.reset_for_testing()


# ----- env snapshot ---------------------------------------------------------

def test_repro_native_env_is_resolved_once(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    supervisor.reset_for_testing(cache_dir=str(tmp_path))
    try:
        assert not supervisor.native_enabled()
        assert not native.available()
        # Disabled-by-config is a choice, not a failure.
        assert supervisor.rung() == "interpreter"
        assert supervisor.last_error() is None
        assert supervisor.counters_snapshot() == {"engine_demotions": 0}
        # A mid-run env mutation must NOT re-enable the engine.
        monkeypatch.setenv("REPRO_NATIVE", "1")
        assert not supervisor.native_enabled()
        assert not native.available()
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


def _runs_like_the_reference(vector_program) -> None:
    compiled, machine, reference = vector_program
    result = run_compiled(compiled, inputs=CAMPAIGN_INPUTS,
                          machine=machine, engine="vector")
    assert _observables(result) == reference


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
    for fingerprint in ("probe-cc 1.0", "probe-cc 2.0"):
        supervisor.reset_for_testing(cache_dir=fresh_cache,
                                     fingerprint=fingerprint)
        assert native.available()
        assert Path(supervisor.so_path() + ".ok").exists()
        _runs_like_the_reference(vector_program)
        assert supervisor.rung() == "native"
    assert Path(first).exists()


def test_missing_toolchain_is_typed_and_demotes(fresh_cache,
                                                vector_program):
    supervisor.reset_for_testing(cache_dir=fresh_cache,
                                 compilers=("no-such-cc-anywhere",))
    with pytest.raises(NativeToolchainMissing):
        supervisor.ensure_built()
    # The load records the typed failure instead of raising.
    assert not native.available()
    assert isinstance(supervisor.last_error(), NativeToolchainMissing)
    assert supervisor.rung() == "interpreter (NativeToolchainMissing)"
    assert supervisor.counters_snapshot() == {"engine_demotions": 1}
    _runs_like_the_reference(vector_program)


# ----- build + validation record --------------------------------------------

@needs_cc
def test_build_publishes_digest_sidecar(fresh_cache, monkeypatch):
    path = supervisor.ensure_built()
    ok = Path(path + ".ok")
    assert ok.read_text().strip() == supervisor._digest_file(path)
    assert sorted(p.name for p in Path(fresh_cache).iterdir()) == \
        sorted([Path(path).name, ok.name])
    # Second call is a validated cache hit: no rebuild, no canary.
    mtime = os.path.getmtime(path)
    monkeypatch.setattr(supervisor, "sandbox_canary", None)
    assert supervisor.ensure_built() == path
    assert os.path.getmtime(path) == mtime


@needs_cc
def test_missing_sidecar_counts_as_corruption(fresh_cache, monkeypatch):
    path = supervisor.ensure_built()
    os.unlink(path + ".ok")
    canaries = []
    real = supervisor.sandbox_canary
    monkeypatch.setattr(supervisor, "sandbox_canary",
                        lambda p: (canaries.append(p), real(p)))
    assert supervisor.ensure_built() == path
    assert canaries == [path]
    assert Path(path + ".ok").read_text().strip() == \
        supervisor._digest_file(path)


@needs_cc
def test_corrupt_cached_so_is_rebuilt_before_it_is_loaded(fresh_cache,
                                                          monkeypatch):
    # The canary runs in a child: this process has not loaded the
    # object when its bytes go bad.
    path = Path(supervisor.ensure_built())
    good = supervisor._digest_file(path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    corrupted = supervisor._digest_file(path)
    loaded = []
    bind = native._bind_library
    monkeypatch.setattr(native, "_bind_library", lambda p: (
        loaded.append(supervisor._digest_file(p)), bind(p))[1])
    supervisor.reset_for_testing(cache_dir=fresh_cache)
    assert native.available()
    assert supervisor.rung() == "native"
    # Rebuilt, revalidated, and only the validated bytes loaded.
    recorded = Path(f"{path}.ok").read_text().strip()
    assert loaded == [recorded] == [supervisor._digest_file(path)]
    assert corrupted not in loaded and recorded == good
    assert sorted(p.name for p in Path(fresh_cache).iterdir()) == \
        sorted([path.name, path.name + ".ok"])


# ----- sandbox + parity canaries --------------------------------------------

@needs_cc
def test_healthy_kernel_validates_and_stays_native(fresh_cache):
    assert native.available()
    assert supervisor.rung() == "native"
    assert supervisor.last_error() is None
    assert supervisor.counters_snapshot() == {"engine_demotions": 0}
    # The sandbox canary left its validation record: a fresh process
    # over the same object skips the sacrificial subprocess.
    assert Path(supervisor.so_path() + ".ok").exists()


@needs_cc
def test_sandbox_canary_contains_a_segfault(fresh_cache, vector_program):
    supervisor.set_injection("segv-child")
    assert not native.available()
    error = supervisor.last_error()
    assert isinstance(error, NativeKernelCrash)
    assert error.signal == int(_signal.SIGSEGV)
    assert supervisor.rung() == "interpreter (NativeKernelCrash)"
    assert supervisor.counters_snapshot() == {"engine_demotions": 1}
    # The parent process survived (we are running in it), the
    # unvalidated object carries no .ok sidecar, and the process runs
    # on the interpreter.
    assert not Path(supervisor.so_path() + ".ok").exists()
    _runs_like_the_reference(vector_program)


@needs_cc
def test_sandbox_canary_parity_mismatch_falls_back(fresh_cache):
    supervisor.set_injection("parity-child")
    assert not native.available()
    assert isinstance(supervisor.last_error(), NativeParityError)
    assert supervisor.rung() == "interpreter (NativeParityError)"
    assert not Path(supervisor.so_path() + ".ok").exists()


@needs_cc
def test_in_process_parity_mismatch_falls_back(fresh_cache,
                                               vector_program):
    supervisor.set_injection("parity-process")
    assert not native.available()
    assert isinstance(supervisor.last_error(), NativeParityError)
    assert supervisor.rung() == "interpreter (NativeParityError)"
    _runs_like_the_reference(vector_program)
    # The decision stands: nothing later brings the kernels back.
    supervisor.set_injection(None)
    assert not native.available()


@needs_cc
def test_golden_digest_native_matches_python(fresh_cache):
    assert native.available()
    assert supervisor.golden_digest(native=True) == \
        supervisor.golden_digest(native=False)


# ----- the run record --------------------------------------------------------

def test_merged_rung_is_interpreter_if_any_worker_fell_back():
    parent = PipelineMetrics()
    for rung in ("native", "interpreter (NativeParityError)", "native",
                 ""):
        worker = PipelineMetrics()
        worker.native_rung = rung
        parent.merge_dict(worker.to_dict())
    assert parent.native_rung == "interpreter (NativeParityError)"
    assert "rung      interpreter (NativeParityError)" in parent.render()


@needs_cc
def test_bench_json_carries_the_one_rung_field(fresh_cache, tmp_path):
    from repro.cli import main
    supervisor.set_injection("parity-process")
    bench = tmp_path / "bench.json"
    assert main(["bench", "wc", "--scale", "0.05", "--no-cache",
                 "--bench-json", str(bench)]) == 0
    data = json.loads(bench.read_text())
    assert data["native_rung"] == "interpreter (NativeParityError)"
    for old in ("engine_demotions", "native_parity_failures",
                "native_kernel_crashes", "kernel_cache_quarantined"):
        assert old not in data
