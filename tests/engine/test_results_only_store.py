"""The store holds results, not traces or scheduled programs.

A program is scheduled for a machine from the stored ``optimized``
program, and a trace is emulated, simulated under every machine that
shares its compiled program, and dropped; only ``frontend``,
``profile``, ``optimized`` and ``stats`` artifacts reach the disk, on
the serial path and through the process pool alike.  A store written
before traces and compiled programs stopped being stored keeps
serving: its ``optimized`` and ``stats`` keys are unchanged, and its
leftover ``execution`` and ``compiled`` files neither break a warm run
nor make ``cache fsck`` complain.
"""

import hashlib
import json
import pickle
import shutil

import pytest

from repro.engine.keys import KINDS, SCHEMA_VERSION, stable_digest
from repro.engine.metrics import STAGES
from repro.engine.recovery.fsck import fsck_store
from repro.engine.serialize import MAGIC
from repro.engine.stages import PipelineContext
from repro.engine.store import ArtifactStore
from repro.experiments.render import render_all
from repro.experiments.runner import ExperimentSuite
from repro.machine.descriptor import CacheConfig, fig8_machine
from repro.robustness.passgate import PassGate
from repro.toolchain import Model
from repro.workloads import get_workload

SCALE = 0.2


def _report(cache_dir, jobs=1):
    suite = ExperimentSuite(workloads=[get_workload("wc")], scale=SCALE,
                            cache_dir=str(cache_dir), jobs=jobs)
    try:
        text = render_all(suite)
    finally:
        suite.close_journal()
    return suite, text


def _stored_kinds(cache_dir) -> set[str]:
    version_dir = cache_dir / f"v{SCHEMA_VERSION}"
    return {path.name for path in version_dir.iterdir() if path.is_dir()}


def _assert_compute_free(suite):
    assert suite.metrics.cache_misses == 0
    for stage in STAGES:
        assert suite.metrics.stages[stage].invocations == 0, stage


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("cold-store")
    suite, text = _report(cache_dir)
    return cache_dir, suite, text


def test_cold_serial_report_stores_no_traces(cold):
    cache_dir, suite, _text = cold
    assert suite.metrics.stages["emulate"].invocations > 0
    assert _stored_kinds(cache_dir) == set(KINDS)
    assert not list(cache_dir.glob("v*/execution"))
    assert not list(cache_dir.glob("v*/compiled"))


def test_cold_parallel_report_stores_no_traces(cold, tmp_path):
    _cache_dir, _suite, text = cold
    parallel, parallel_text = _report(tmp_path, jobs=2)
    assert parallel_text == text
    assert parallel.metrics.jobs_dispatched > 0
    assert _stored_kinds(tmp_path) == set(KINDS)
    assert not list(tmp_path.glob("v*/execution"))
    assert not list(tmp_path.glob("v*/compiled"))


def test_warm_report_is_compute_free_and_byte_identical(cold):
    cache_dir, _suite, text = cold
    warm, warm_text = _report(cache_dir)
    assert warm_text == text
    _assert_compute_free(warm)


def _old_envelope(kind: str, body: bytes) -> bytes:
    """An artifact of a retired kind as older versions wrote it."""
    header = json.dumps({"schema": SCHEMA_VERSION, "kind": kind,
                         "sha256": hashlib.sha256(body).hexdigest(),
                         "length": len(body)}, sort_keys=True).encode()
    return MAGIC + len(header).to_bytes(4, "big") + header + body


def _seed_old(store_dir, kind: str, key: str, blob: bytes) -> None:
    path = store_dir / f"v{SCHEMA_VERSION}" / kind / f"{key}.art"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)


def test_store_with_old_traces_serves_warm_and_fscks_clean(cold, tmp_path):
    cache_dir, suite, text = cold
    old = tmp_path / "old-store"
    shutil.copytree(cache_dir, old)
    # A trace body that rebuilds through a function that no longer
    # exists, and every compiled program of the cold run under its
    # compile key, pickled as older versions stored them.
    trace_body = b"\x80\x04crepro.fastpath.columns\n_rebuild_columns\n)R."
    for n in range(3):
        _seed_old(old, "execution", stable_digest("old", "trace", n),
                  _old_envelope("execution", trace_body))
    compiled = suite.ctx._compiled
    assert compiled
    for key, program in compiled.items():
        _seed_old(old, "compiled", key, _old_envelope(
            "compiled", pickle.dumps(program, protocol=4)))
    warm, warm_text = _report(old)
    assert warm_text == text
    _assert_compute_free(warm)
    report = fsck_store(ArtifactStore(old), repair=True)
    assert report.clean and not report.issues, report.render()
    assert not (old / "quarantine").exists()
    assert report.ok_by_kind["execution"] == 3
    assert report.ok_by_kind["compiled"] == len(compiled)
    rendered = ArtifactStore(old).stats().render()
    for kind in ("execution", "compiled"):
        line = next(line for line in rendered.splitlines()
                    if line.strip().startswith(kind))
        assert line.endswith("(retired)"), line
    stats = ArtifactStore(old).stats()
    assert ArtifactStore(old).clear() == stats.entries


def test_memoized_inputs_survive_a_full_figure_run(cold):
    _cache_dir, suite, _text = cold
    wc = get_workload("wc")
    memoized = suite.ctx.inputs(wc)
    assert memoized is suite.ctx.inputs(wc)
    assert memoized == wc.inputs(SCALE)


def test_a_later_context_schedules_the_stored_optimized_program(
        tmp_path, monkeypatch):
    """A stats miss in a later process runs no pass: it loads each
    model's ``optimized`` program once and schedules it."""
    wc = get_workload("wc")
    suite = ExperimentSuite(workloads=[wc], scale=SCALE,
                            cache_dir=str(tmp_path))
    try:
        suite.figure8()
    finally:
        suite.close_journal()
    machine = fig8_machine().with_real_caches(CacheConfig(size_bytes=512),
                                              CacheConfig(size_bytes=1024))
    assert machine.schedule_digest() == fig8_machine().schedule_digest()
    assert machine.digest() != fig8_machine().digest()

    runs = []
    original = PassGate.run

    def counting(self, *args, **kwargs):
        runs.append(args[1])
        return original(self, *args, **kwargs)
    monkeypatch.setattr(PassGate, "run", counting)
    later = PipelineContext(scale=SCALE, store=ArtifactStore(tmp_path))
    summaries = {model: later.run_summary(wc, model, machine)
                 for model in Model}
    monkeypatch.undo()

    assert runs == []
    assert later.metrics.cache["optimized"].hits == len(Model)
    assert later.metrics.cache["optimized"].misses == 0
    assert later.metrics.stages["compile"].invocations == len(Model)
    assert not list(tmp_path.glob("v*/compiled"))
    storeless = PipelineContext(scale=SCALE)
    for model, summary in summaries.items():
        assert summary == storeless.run_summary(wc, model, machine), model


def test_a_stored_optimized_program_needs_no_frontend_or_profile(
        tmp_path):
    """Scheduling the stored ``optimized`` program reads neither of the
    artifacts only optimizing needs."""
    wc = get_workload("wc")
    suite = ExperimentSuite(workloads=[wc], scale=SCALE,
                            cache_dir=str(tmp_path))
    try:
        suite.figure8()
    finally:
        suite.close_journal()
    machine = fig8_machine().with_real_caches(CacheConfig(size_bytes=512),
                                              CacheConfig(size_bytes=1024))
    later = PipelineContext(scale=SCALE, store=ArtifactStore(tmp_path))
    summaries = {model: later.run_summary(wc, model, machine)
                 for model in Model}

    cache = later.metrics.cache
    assert cache["optimized"].hits == len(Model)
    assert [cache[kind].hits + cache[kind].misses
            for kind in ("frontend", "profile")] == [0, 0]
    storeless = PipelineContext(scale=SCALE)
    for model, summary in summaries.items():
        assert summary == storeless.run_summary(wc, model, machine), model
