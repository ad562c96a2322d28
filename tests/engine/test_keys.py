"""Stable digests: determinism, sensitivity, frozen option objects."""

import pytest

from repro.engine import keys
from repro.machine.descriptor import (CacheConfig, MachineDescription,
                                      fig8_machine, fig9_machine,
                                      fig11_machine)
from repro.regions.hyperblock import HyperblockParams
from repro.toolchain import Model, ToolchainOptions
from repro.workloads import get_workload


def test_stable_digest_is_deterministic_and_order_sensitive():
    assert keys.stable_digest(1, "a", 2.5) == keys.stable_digest(1, "a", 2.5)
    assert keys.stable_digest(1, "a") != keys.stable_digest("a", 1)
    # dict insertion order must NOT matter
    assert keys.stable_digest({"x": 1, "y": 2}) == \
        keys.stable_digest({"y": 2, "x": 1})


def test_stable_digest_rejects_unhashable_junk():
    with pytest.raises(TypeError):
        keys.stable_digest(object())


def test_toolchain_options_frozen_and_hashable():
    options = ToolchainOptions()
    with pytest.raises(Exception):
        options.enable_or_tree = False
    assert hash(options) == hash(ToolchainOptions())


def test_options_digest_tracks_semantic_fields_only():
    base = ToolchainOptions()
    assert base.digest() == ToolchainOptions().digest()
    assert base.digest() != ToolchainOptions(enable_or_tree=False).digest()
    assert base.digest() != ToolchainOptions(
        hyperblock=HyperblockParams(max_instructions=100)).digest()
    # Observability knobs must not cold-start the cache.
    assert base.digest() == ToolchainOptions(paranoid=True).digest()
    assert base.digest() == ToolchainOptions(verify=False).digest()
    assert base.digest() == ToolchainOptions(artifact_dir="/tmp/x").digest()


def test_machine_digest_ignores_name_only():
    a = MachineDescription(name="one", issue_width=8, branch_issue_limit=1)
    b = MachineDescription(name="two", issue_width=8, branch_issue_limit=1)
    assert a.digest() == b.digest()
    assert fig8_machine().digest() != fig9_machine().digest()
    assert fig8_machine().digest() != fig11_machine().digest()
    assert fig8_machine().digest() != \
        fig11_machine(icache_bytes=1024).digest()


def test_schedule_digest_ignores_memory_hierarchy():
    # Same issue parameters, different caches: compiled code is shared.
    assert fig8_machine().schedule_digest() == \
        fig11_machine().schedule_digest()
    assert fig8_machine().schedule_digest() != \
        fig9_machine().schedule_digest()
    perfect = MachineDescription(issue_width=8, branch_issue_limit=1)
    real = perfect.with_real_caches(CacheConfig(size_bytes=1024))
    assert perfect.schedule_digest() == real.schedule_digest()


def test_stage_keys_cover_their_inputs():
    ka = keys.compile_key("wc", "src", 0.5, 1000, "CMOV", "od", "sd")
    assert ka == keys.compile_key("wc", "src", 0.5, 1000, "CMOV", "od",
                                  "sd")
    assert ka != keys.compile_key("wc", "src", 0.4, 1000, "CMOV", "od",
                                  "sd")
    assert ka != keys.compile_key("wc", "src", 0.5, 1000, "FULLPRED",
                                  "od", "sd")
    assert ka != keys.compile_key("wc", "src2", 0.5, 1000, "CMOV", "od",
                                  "sd")
    ea = keys.execution_key(ka, 0.5, 1000)
    assert ea != keys.execution_key(ka, 0.5, 999)
    assert keys.stats_key(ea, "m1") != keys.stats_key(ea, "m2")


def test_stored_keys_are_pinned():
    """A warm store serves only while ``compiled`` and ``stats`` keys
    keep their addresses; these are one triple's, as schema v4 computes
    them.  Only a deliberate ``SCHEMA_VERSION`` bump or option-digest
    change may move them."""
    from repro.engine.stages import PipelineContext
    ctx = PipelineContext(scale=1.0, native_enabled=False)
    wc = get_workload("wc")
    assert ctx.compile_key(wc, Model.CMOV, fig8_machine()) == \
        "9323ca5e3633f3b186bce32e36af3dfc766ac7fa894c439cf908bd31bb480bad"
    assert ctx.stats_key(wc, Model.CMOV, fig8_machine()) == \
        "c23f148f8ba14e913c3a8837f879328b2e5f38653a8cdc7edfd1cccb4ff58a5d"
