"""The store holds results, not traces.

A trace is emulated, simulated under every machine that shares its
compiled program, and dropped; only ``frontend``, ``profile``,
``optimized``, ``compiled`` and ``stats`` artifacts reach the disk, on
the serial path and through the process pool alike.  A store written
before traces stopped being stored keeps serving: its ``compiled`` and
``stats`` keys are unchanged, and its leftover ``execution`` files
neither break a warm run nor make ``cache fsck`` complain.
"""

import hashlib
import json
import shutil

import pytest

from repro.engine.keys import KINDS, SCHEMA_VERSION, stable_digest
from repro.engine.metrics import STAGES
from repro.engine.recovery.fsck import fsck_store
from repro.engine.serialize import MAGIC
from repro.engine.store import ArtifactStore
from repro.experiments.render import render_all
from repro.experiments.runner import ExperimentSuite
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


def test_cold_parallel_report_stores_no_traces(cold, tmp_path):
    _cache_dir, _suite, text = cold
    parallel, parallel_text = _report(tmp_path, jobs=2)
    assert parallel_text == text
    assert parallel.metrics.jobs_dispatched > 0
    assert _stored_kinds(tmp_path) == set(KINDS)
    assert not list(tmp_path.glob("v*/execution"))


def test_warm_report_is_compute_free_and_byte_identical(cold):
    cache_dir, _suite, text = cold
    warm, warm_text = _report(cache_dir)
    assert warm_text == text
    _assert_compute_free(warm)


def _old_trace_envelope() -> bytes:
    """An ``execution`` artifact as older versions wrote it: a valid
    envelope whose body rebuilds a trace through a function that no
    longer exists."""
    body = b"\x80\x04crepro.fastpath.columns\n_rebuild_columns\n)R."
    header = json.dumps({"schema": SCHEMA_VERSION, "kind": "execution",
                         "sha256": hashlib.sha256(body).hexdigest(),
                         "length": len(body)}, sort_keys=True).encode()
    return MAGIC + len(header).to_bytes(4, "big") + header + body


def test_store_with_old_traces_serves_warm_and_fscks_clean(cold, tmp_path):
    cache_dir, _suite, text = cold
    old = tmp_path / "old-store"
    shutil.copytree(cache_dir, old)
    for n in range(3):
        key = stable_digest("old", "trace", n)
        path = old / f"v{SCHEMA_VERSION}" / "execution" / key[:2] \
            / f"{key}.art"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(_old_trace_envelope())
    warm, warm_text = _report(old)
    assert warm_text == text
    _assert_compute_free(warm)
    report = fsck_store(ArtifactStore(old))
    assert report.clean, report.render()
    assert report.ok_by_kind["execution"] == 3
    assert "execution" in ArtifactStore(old).stats().render()


def test_memoized_inputs_survive_a_full_figure_run(cold):
    _cache_dir, suite, _text = cold
    wc = get_workload("wc")
    memoized = suite.ctx.inputs(wc)
    assert memoized is suite.ctx.inputs(wc)
    assert memoized == wc.inputs(SCALE)
