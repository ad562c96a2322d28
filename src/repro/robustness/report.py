"""Structured per-workload failure reports for ``degrade`` suite mode.

When the experiment suite runs in ``degrade`` mode, a workload that
fails any pipeline stage is excluded from further tables and its failure
recorded as a :class:`WorkloadFailure` instead of aborting the run; the
report renderer turns the collected failures into the block appended to
experiment output.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class WorkloadFailure:
    """One workload's terminal failure inside the suite."""

    workload: str
    stage: str        # compile | emulate | simulate | differential
    error_type: str
    message: str
    model: str | None = None
    artifact_path: str | None = None


def format_failures(failures: list[WorkloadFailure]) -> str:
    """Human-readable failure block (empty string when clean)."""
    if not failures:
        return ""
    lines = [f"FAILED WORKLOADS ({len(failures)})",
             "=" * 30]
    for f in failures:
        where = f.stage if f.model is None else f"{f.stage}/{f.model}"
        lines.append(f"{f.workload:<10s} {where:<22s} "
                     f"[{f.error_type}] {f.message}")
        if f.artifact_path:
            lines.append(f"{'':<10s} artifact: {f.artifact_path}")
    return "\n".join(lines)
