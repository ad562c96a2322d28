"""The peephole's round cap binds, and on one paper-kernel call only.

``run_function_passes`` stops after ``max_rounds=4`` rounds even when
the last round still changed something.  On the paper kernels at scale
1.0 one peephole call stops unconverged, so ``RESULTS.txt`` depends on
the cap: a driver change that lets that call converge moves the figures.
"""

from repro.analysis.profile import Profile
from repro.opt.pipeline import run_function_passes
from repro.toolchain import Model, frontend, optimize_for_model
from repro.workloads.base import all_workloads
import repro.toolchain as toolchain


def test_only_cccp_main_stops_at_the_cap(monkeypatch):
    unconverged = []
    tag = None

    def peephole(fn, passes, max_rounds=4):
        changed = run_function_passes(fn, passes, max_rounds)
        # A fifth round that still changes the function means the cap
        # stopped this call, not a fixpoint.
        if run_function_passes(fn.clone(), passes, 1):
            unconverged.append(tag + (fn.name,))
        return changed
    monkeypatch.setattr(toolchain, "run_function_passes", peephole)
    for workload in all_workloads():
        base = frontend(workload.source)
        profile = Profile.collect(base, inputs=workload.inputs(1.0))
        for model in Model:
            tag = (workload.name, model)
            optimize_for_model(base, model, profile)
    assert unconverged == [("cccp", Model.CMOV, "main")]
