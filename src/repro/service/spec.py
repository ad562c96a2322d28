"""Service job specifications and the CAS request digest.

A submission is a plain JSON object naming *what to compute*: a MiniC
source (``kind="source"``), a registered workload (``kind="bench"``)
or the whole figure suite (``kind="figures"``), plus the machine and
scale knobs the pipeline already keys its artifacts on.

``request_digest`` hashes exactly the compute-relevant fields through
the same canonical encoding the artifact store uses
(:func:`repro.engine.keys.stable_digest`), so two submissions that
would produce byte-identical artifacts share one digest — the key
single-flight dedup coalesces on.  Delivery knobs (tenant, deadline)
are deliberately excluded: a million users asking for the same figure
with different deadlines still cost one execution.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.engine.keys import stable_digest
from repro.machine.descriptor import MachineDescription
from repro.robustness.errors import ReproError
from repro.toolchain import MODEL_NAMES
from repro.workloads.base import Workload, get_workload

#: job kinds the service executes
KINDS = ("source", "bench", "figures", "sweep")


@dataclass(frozen=True)
class ServiceJobSpec:
    """One request's compute-relevant parameters.

    ``deadline`` (seconds of wall clock from admission) and ``tenant``
    ride along for scheduling but never enter the request digest.
    """

    kind: str = "bench"
    #: MiniC source text (kind="source")
    source: str | None = None
    #: registered workload name (kind="bench")
    workload: str | None = None
    #: sweep grid as a :class:`repro.sweep.spec.SweepSpec` dict
    #: (kind="sweep"); normalized to canonical form at validation
    sweep: dict | None = None
    models: tuple[str, ...] = MODEL_NAMES
    width: int = 8
    branches: int = 1
    real_caches: bool = False
    scale: float = 0.5
    max_steps: int = 20_000_000
    #: wall-clock budget in seconds, measured from admission
    deadline: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ReproError(f"unknown job kind {self.kind!r} "
                             f"(expected one of {', '.join(KINDS)})")
        if self.kind == "source" and not (self.source or "").strip():
            raise ReproError("kind='source' requires MiniC source text")
        if self.kind == "sweep":
            if not isinstance(self.sweep, dict):
                raise ReproError("kind='sweep' requires a sweep spec "
                                 "object (see EXPERIMENTS.md)")
            from repro.sweep.spec import SweepSpec
            # Normalize through the sweep validator so two submissions
            # spelling the same grid differently share one digest.
            object.__setattr__(
                self, "sweep", SweepSpec.from_dict(self.sweep).to_dict())
        elif self.sweep is not None:
            raise ReproError("'sweep' is only valid with kind='sweep'")
        if self.kind == "bench":
            if not self.workload:
                raise ReproError("kind='bench' requires a workload name")
            try:
                get_workload(self.workload)
            except KeyError:
                raise ReproError(
                    f"unknown workload {self.workload!r} "
                    f"(see `repro list`)") from None
        unknown = [m for m in self.models if m not in MODEL_NAMES]
        if unknown or not self.models:
            raise ReproError(
                f"invalid models {list(self.models)!r} (expected a "
                f"non-empty subset of {list(MODEL_NAMES)})")
        if not 1 <= self.width <= 16:
            raise ReproError(f"issue width {self.width} out of range "
                             f"[1, 16]")
        if self.scale <= 0:
            raise ReproError(f"scale must be positive, got {self.scale}")
        if self.max_steps <= 0:
            raise ReproError("max_steps must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ReproError("deadline must be positive seconds")

    # ----- identity -----------------------------------------------------

    def request_digest(self) -> str:
        """Content address of the computation this spec names.

        Covers every field that changes the produced artifacts and
        nothing else — notably *not* ``deadline``: identical
        computations with different delivery constraints coalesce.
        """
        return stable_digest(
            "service-request", self.kind, self.source, self.workload,
            tuple(sorted(set(self.models))), self.width, self.branches,
            self.real_caches, self.scale, self.max_steps,
            *((self.sweep,) if self.sweep is not None else ()))

    # ----- wire format --------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "kind": self.kind, "models": list(self.models),
            "width": self.width, "branches": self.branches,
            "real_caches": self.real_caches, "scale": self.scale,
            "max_steps": self.max_steps,
        }
        if self.source is not None:
            data["source"] = self.source
        if self.workload is not None:
            data["workload"] = self.workload
        if self.sweep is not None:
            data["sweep"] = self.sweep
        if self.deadline is not None:
            data["deadline"] = self.deadline
        return data

    @classmethod
    def from_dict(cls, data: object) -> "ServiceJobSpec":
        if not isinstance(data, dict):
            raise ReproError(f"job spec must be a JSON object, got "
                             f"{type(data).__name__}")
        known = {"kind", "source", "workload", "sweep", "models",
                 "width", "branches", "real_caches", "scale",
                 "max_steps", "deadline"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ReproError(f"unknown job spec fields: "
                             f"{', '.join(unknown)}")
        kwargs = dict(data)
        if "models" in kwargs:
            models = kwargs["models"]
            if not isinstance(models, (list, tuple)):
                raise ReproError("models must be a list of model names")
            kwargs["models"] = tuple(str(m) for m in models)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ReproError(f"malformed job spec: {exc}") from exc

    # ----- execution inputs ---------------------------------------------

    def machine(self) -> MachineDescription:
        machine = MachineDescription(
            issue_width=self.width, branch_issue_limit=self.branches,
            name=f"{self.width}-issue,{self.branches}-branch")
        if self.real_caches:
            machine = machine.with_real_caches()
        return machine

    def workloads(self) -> list[Workload]:
        """The workload objects this spec's execution runs over."""
        if self.kind == "bench":
            return [get_workload(self.workload)]
        if self.kind == "source":
            name = "svc-" + hashlib.sha256(
                self.source.encode()).hexdigest()[:12]
            return [Workload(name=name,
                             description="service source submission",
                             source=self.source,
                             build_inputs=lambda _scale: {})]
        from repro.workloads.base import all_workloads
        return all_workloads()
