"""Differential oracle: observable-equivalence of two executions.

The paper's methodology rests on all three processor models computing
the same program; comparing only scalar return values (the seed's
check) misses silent data corruption that never reaches the return
expression.  The oracle therefore compares three observables:

* the **return value** (tolerant float comparison);
* the **dynamic output stream** — the ordered sequence of executed
  stores, excluding ``$safe_addr`` redirects, folded into an
  order-sensitive signature by the interpreter;
* the **final memory state** — a digest of the global data region.

Any mismatch raises :class:`~repro.robustness.errors.ModelDivergenceError`
naming the workload, model and divergent observable.
"""

from __future__ import annotations

from repro.emu.trace import ExecutionResult
from repro.robustness.errors import ModelDivergenceError


def values_differ(a, b) -> bool:
    """Tolerant scalar comparison (floats compare to 1e-6 relative)."""
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) > 1e-6 * max(1.0, abs(float(b)))
    return a != b


def assert_equivalent(candidate: ExecutionResult,
                      reference: ExecutionResult,
                      *, workload: str = "?", model: str = "?",
                      reference_model: str = "reference") -> None:
    """Raise :class:`ModelDivergenceError` unless the two executions are
    observably equivalent."""
    if values_differ(candidate.return_value, reference.return_value):
        raise ModelDivergenceError(
            f"{workload}: {model} returned {candidate.return_value!r}, "
            f"{reference_model} returned {reference.return_value!r}",
            workload=workload, model=model, kind="return-value")
    if candidate.output_count != reference.output_count:
        raise ModelDivergenceError(
            f"{workload}: {model} performed {candidate.output_count} "
            f"observable stores, {reference_model} performed "
            f"{reference.output_count}",
            workload=workload, model=model, kind="output-stream")
    if candidate.output_signature != reference.output_signature:
        raise ModelDivergenceError(
            f"{workload}: {model}'s dynamic store stream diverges from "
            f"{reference_model}'s (signatures "
            f"{candidate.output_signature:#018x} vs "
            f"{reference.output_signature:#018x} over "
            f"{reference.output_count} stores)",
            workload=workload, model=model, kind="output-stream")
    if (candidate.memory_digest is not None
            and reference.memory_digest is not None
            and candidate.memory_digest != reference.memory_digest):
        raise ModelDivergenceError(
            f"{workload}: {model}'s final global memory differs from "
            f"{reference_model}'s (digests {candidate.memory_digest[:16]} "
            f"vs {reference.memory_digest[:16]})",
            workload=workload, model=model, kind="memory-state")


#: ExecutionResult fields the vector engine must reproduce *exactly*
#: (no float tolerance: the engines share arithmetic, so the only
#: acceptable difference is wall time).
_EXACT_FIELDS = ("return_value", "dynamic_count", "suppressed_count",
                 "branch_outcomes", "block_counts", "output_signature",
                 "output_count", "memory_digest")


def assert_fastpath_equivalent(compiled, inputs=None, machine=None,
                               max_steps: int = 50_000_000,
                               *, workload: str = "?"
                               ) -> ExecutionResult:
    """Differential mode for the vector engine: legacy vs vector.

    Runs the legacy object-graph emulate+simulate and the fused vector
    emulate→simulate on ``compiled`` and raises
    :class:`ModelDivergenceError` unless every execution observable and
    every ``SimulationStats`` field is identical.  This is the oracle
    behind the ``--differential`` CLI flag.

    Returns the legacy :class:`ExecutionResult` so callers
    layering a cross-model comparison on top — the fuzz executor — can
    reuse it as that model's canonical execution.
    """
    from repro.emu.interpreter import run_program
    from repro.fastpath.vector import emulate_and_simulate_vector
    from repro.sim.pipeline import simulate_trace

    if machine is None:
        machine = compiled.machine
    model = getattr(compiled.model, "value", str(compiled.model))

    legacy = run_program(compiled.program, inputs=inputs,
                         collect_trace=True, max_steps=max_steps)
    legacy_stats = simulate_trace(legacy.trace, compiled.addresses,
                                  machine)
    vectored, vector_stats = emulate_and_simulate_vector(
        compiled.program, compiled.addresses, machine, inputs=inputs,
        max_steps=max_steps)
    for fname in _EXACT_FIELDS:
        a, b = getattr(vectored, fname), getattr(legacy, fname)
        if a != b:
            raise ModelDivergenceError(
                f"{workload}: vector emulation of {model} diverges "
                f"on {fname}: {a!r} vs legacy {b!r}",
                workload=workload, model=model,
                kind=f"fastpath-vector-{fname}")
    if vector_stats != legacy_stats:
        raise ModelDivergenceError(
            f"{workload}: vector simulation of {model} diverges: "
            f"{vector_stats} vs legacy {legacy_stats}",
            workload=workload, model=model, kind="fastpath-vector")
    return legacy
