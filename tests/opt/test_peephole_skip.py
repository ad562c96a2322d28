"""The peephole's DCE skip and the precondition it rests on.

``run_function_passes`` skips a ``fixpoint`` pass (DCE) while no pass
has changed the function since it last ran.  That is sound only if a
pass returning False has changed nothing.  These tests replay the
peephole of every model on real pre-peephole IR without the skip,
check every False return against the printed function, check that a
skipped DCE would have found nothing, and check that the skipping run
leaves the same function.
"""

import pytest

from repro.analysis.profile import Profile
from repro.fuzz.corpus import list_entries
from repro.ir.printer import format_function
from repro.opt.dce import eliminate_dead_code
from repro.opt.pipeline import CLASSIC_PASSES, run_function_passes
from repro.toolchain import Model, frontend, optimize_for_model
from repro.workloads.base import get_workload
import repro.toolchain as toolchain

_ENTRIES = {e.entry_id: e for e in list_entries()}
#: three paper kernels at scale 0.05, then every corpus entry
PROGRAMS = ["wc", "grep", "compress"] + sorted(_ENTRIES)


def _checked_passes(fn, passes, max_rounds=4):
    """``run_function_passes`` without the skip, checking as it goes.
    Returns the number of fixpoint-pass runs the skip saves."""
    settled: set[str] = set()
    saved = 0
    for _ in range(max_rounds):
        round_change = False
        for name, run, fixpoint in passes:
            before = format_function(fn)
            changed = run(fn)
            if not changed:
                assert format_function(fn) == before, name
            if name in settled:
                assert not changed, f"skipped {name} had work to do"
                saved += 1
            if changed:
                round_change = True
                settled.clear()
            if fixpoint:
                settled.add(name)
        if not round_change:
            break
    return saved


def test_dce_is_the_fixpoint_pass():
    assert [p.name for p in CLASSIC_PASSES if p.fixpoint] == ["dce"]
    assert next(p for p in CLASSIC_PASSES if p.fixpoint).run \
        is eliminate_dead_code


@pytest.mark.parametrize("name", PROGRAMS)
def test_false_returns_change_nothing_and_skips_lose_nothing(
        name, monkeypatch):
    if name in _ENTRIES:
        source, inputs = _ENTRIES[name].source, _ENTRIES[name].inputs
    else:
        workload = get_workload(name)
        source, inputs = workload.source, workload.inputs(0.05)
    base = frontend(source)
    profile = Profile.collect(base, inputs=inputs, max_steps=2_000_000)

    saved = []

    def peephole(fn, passes, max_rounds=4):
        # The same function through the skipping pass manager...
        twin = fn.clone()
        skipping = run_function_passes(twin, passes, max_rounds)
        # ...and through the checking replay, which must agree.
        saved.append(_checked_passes(fn, passes, max_rounds))
        assert format_function(fn) == format_function(twin)
        return skipping
    monkeypatch.setattr(toolchain, "run_function_passes", peephole)
    for model in Model:
        optimize_for_model(base, model, profile)
    assert sum(saved) > 0  # the replay met at least one skipped DCE
