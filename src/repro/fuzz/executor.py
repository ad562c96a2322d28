"""Differential executor: one fuzz case through all models and engines.

Each case is compiled under SUPERBLOCK, CMOV and FULLPRED.  Every model
is first self-checked across the two execution engines (the legacy
reference and vector) by
:func:`~repro.robustness.differential.assert_fastpath_equivalent`, then
cross-checked against the SUPERBLOCK reference over return value, store
stream and memory digest by
:func:`~repro.robustness.differential.assert_equivalent` — six
executions per case, every one bounded by ``max_steps`` so a looping
miscompile becomes a classified ``emulation-fault`` finding (the
``StepLimitExceeded`` raise site) instead of a stuck campaign.  The
vector leg runs on the native kernel whenever the process loaded one.

Store-stream divergences are localized before they are reported: the
executor replays both legacy traces and attaches the first divergent
store event to the exception, which makes the triage signature
meaningfully finer than "output-stream differs".
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analysis.profile import Profile
from repro.fuzz.generator import FuzzCase
from repro.fuzz.triage import first_store_divergence, signature_of
from repro.machine.descriptor import MachineDescription
from repro.robustness.differential import (assert_equivalent,
                                           assert_fastpath_equivalent)
from repro.robustness.errors import ModelDivergenceError
from repro.toolchain import Model, compile_for_model, frontend


@dataclass(frozen=True)
class ExecutorConfig:
    """Per-case budgets and the machine cases are simulated on.

    Generated programs are small (loop trips are bounded by the
    generator), so the step budget is far below the toolchain default —
    a case that exceeds it is itself a finding.  Frozen and
    field-picklable so a config can ride inside a scheduler job spec.
    """

    max_steps: int = 400_000
    issue_width: int = 8
    branch_issue_limit: int = 1

    def machine(self) -> MachineDescription:
        return MachineDescription(
            name=f"fuzz-{self.issue_width}-issue",
            issue_width=self.issue_width,
            branch_issue_limit=self.branch_issue_limit)


@dataclass
class CaseReport:
    """Outcome of one differential case — picklable, dict-friendly."""

    case_id: str
    seed: int
    profile: str
    verdict: str  # "ok" | "finding"
    signature: dict | None = None
    message: str = ""
    wall_seconds: float = 0.0

    @property
    def is_finding(self) -> bool:
        return self.verdict == "finding"

    def to_dict(self) -> dict:
        return {"case_id": self.case_id, "seed": self.seed,
                "profile": self.profile, "verdict": self.verdict,
                "signature": self.signature, "message": self.message,
                "wall_seconds": round(self.wall_seconds, 4)}

    @classmethod
    def from_dict(cls, data: dict) -> "CaseReport":
        return cls(case_id=data["case_id"], seed=data["seed"],
                   profile=data["profile"], verdict=data["verdict"],
                   signature=data.get("signature"),
                   message=data.get("message", ""),
                   wall_seconds=data.get("wall_seconds", 0.0))


def execute_source(source: str, inputs: dict | None = None,
                   config: ExecutorConfig | None = None,
                   *, case_id: str = "?") -> None:
    """Run the full differential check on one program; raise on any
    divergence, crash or step-limit overrun.

    Raises whatever the toolchain raises — callers wanting a classified
    verdict use :func:`run_case`, which folds exceptions into a
    :class:`CaseReport`.
    """
    if config is None:
        config = ExecutorConfig()
    machine = config.machine()
    base = frontend(source)
    profile = Profile.collect(base, inputs=inputs,
                              max_steps=config.max_steps)

    executions: dict[Model, object] = {}
    for model in Model:
        compiled = compile_for_model(base, model, profile, machine)
        executions[model] = assert_fastpath_equivalent(
            compiled, inputs=inputs, machine=machine,
            max_steps=config.max_steps, workload=case_id)

    reference = executions[Model.SUPERBLOCK]
    for model in tuple(Model)[1:]:  # the predicated models
        candidate = executions[model]
        try:
            assert_equivalent(candidate, reference,
                              workload=case_id, model=model.value,
                              reference_model=Model.SUPERBLOCK.value)
        except ModelDivergenceError as exc:
            if exc.kind == "output-stream" and candidate.trace \
                    and reference.trace:
                exc.first_event = first_store_divergence(
                    candidate.trace, reference.trace)
            raise


def run_case(case: FuzzCase, config: ExecutorConfig | None = None
             ) -> CaseReport:
    """Execute one case and classify the outcome.

    Never raises: every toolchain failure becomes a ``finding`` report
    carrying a normalized triage signature, so a campaign survives any
    single bad case.
    """
    start = time.perf_counter()
    try:
        execute_source(case.source, inputs=case.inputs, config=config,
                       case_id=case.case_id)
    except Exception as exc:  # noqa: BLE001 - classified, not swallowed
        return CaseReport(
            case_id=case.case_id, seed=case.seed, profile=case.profile,
            verdict="finding", signature=signature_of(exc).to_dict(),
            message=f"{type(exc).__name__}: {exc}",
            wall_seconds=time.perf_counter() - start)
    return CaseReport(case_id=case.case_id, seed=case.seed,
                      profile=case.profile, verdict="ok",
                      wall_seconds=time.perf_counter() - start)
