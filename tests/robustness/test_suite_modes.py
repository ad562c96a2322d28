"""Suite failure policy: the first typed error ends the run."""

import pytest

from repro.emu.memory import EmulationFault
from repro.experiments.runner import ExperimentSuite
from repro.ir.function import IRError
from repro.machine.descriptor import fig8_machine
from repro.robustness.errors import ReproError
from repro.robustness.faults import inject_bad_branch_target
from repro.workloads import get_workload


def _suite() -> ExperimentSuite:
    return ExperimentSuite(workloads=[get_workload("wc"),
                                      get_workload("cmp")],
                           scale=0.3)


def _force_failure(suite: ExperimentSuite, name: str) -> None:
    """Corrupt one workload's base IR so its pipeline must fail."""
    inject_bad_branch_target(suite._frontend(name))


def test_unknown_mode_rejected():
    # The suite has no failure modes left to choose from: a caller that
    # still asks to degrade fails at once instead of running strict.
    with pytest.raises(TypeError):
        ExperimentSuite(mode="degrade")


def test_strict_mode_propagates_typed_errors():
    suite = _suite()
    _force_failure(suite, "wc")
    with pytest.raises((ReproError, EmulationFault, IRError)):
        suite.speedups(fig8_machine())


def test_validate_models_maps_agreeing_workloads_to_true():
    suite = _suite()
    outcome = suite.validate_models(fig8_machine())
    assert outcome == {"wc": True, "cmp": True}
