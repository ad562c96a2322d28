"""End-to-end toolchain: the paper's three processor models.

``SUPERBLOCK`` (baseline), ``CMOV`` (partial predication) and
``FULLPRED`` (full predication) share the frontend, classic optimizer,
profiler, scheduler, emulator and cycle simulator; they differ in region
formation and predication lowering exactly as Section 4.1 describes:

* SUPERBLOCK — superblock formation + speculative scheduling;
* FULLPRED — hyperblock formation (if-conversion), predicate promotion,
  branch combining;
* CMOV — the FULLPRED pipeline followed by the full→partial lowering
  (basic conversions, comparison inversion, post-conversion peephole,
  OR-tree height reduction).

:data:`PASS_TABLE` spells those differences out as data — each model's
ordered passes.  :func:`optimize_for_model` runs them once per program
and model; :func:`schedule_for_machine` schedules the result for one
machine, the only step that reads the issue width, branch limit and
latencies; :func:`compile_for_model` does both.

Speedups are reported against the 1-issue SUPERBLOCK configuration, as
in the paper.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.analysis.liveness import Liveness
from repro.analysis.profile import Profile
from repro.emu.interpreter import run_program
from repro.emu.trace import ExecutionResult
from repro.engines import DEFAULT_ENGINE, check_engine
from repro.ir.function import Function, IRError, Program
from repro.ir.verifier import ISALevel, VerificationError, verify_program
from repro.lang.lower import compile_minic
from repro.machine.descriptor import MachineDescription, scalar_machine
from repro.opt.cfg_cleanup import normalize_basic_blocks
from repro.opt.licm import hoist_loop_invariants
from repro.opt.pipeline import (CLASSIC_PASSES, optimize_program,
                                run_function_passes)
from repro.partial.conversion import ConversionParams, convert_to_partial
from repro.partial.ortree import reduce_function_or_trees
from repro.regions.branch_combine import (BranchCombineParams,
                                          combine_branches)
from repro.regions.hyperblock import HyperblockParams, form_hyperblocks
from repro.regions.predopt import optimize_hyperblock_predicates
from repro.regions.promotion import promote_all
from repro.regions.superblock import SuperblockParams, form_superblocks
from repro.regions.unroll import UnrollParams, unroll_function_loops
from repro.robustness.errors import (CompileError, PassVerificationError,
                                     ReproError, TraceIntegrityError)
from repro.robustness.passgate import PassGate
from repro.schedule.dag import DagEdges
from repro.schedule.list_scheduler import ScheduleResult, schedule_program
from repro.sim.pipeline import (SimulationStats, assign_addresses,
                                simulate_trace)


class Model(enum.Enum):
    """The paper's three architectural/compilation models.

    ``model.name.lower()`` is the CLI and spec spelling of a model;
    ``Model[name.upper()]`` reads it back.
    """

    SUPERBLOCK = "Superblock"
    CMOV = "Conditional Move"
    FULLPRED = "Full Predication"

    @property
    def isa_level(self) -> ISALevel:
        """The ISA subset of the model's code: its last pass's level."""
        return PASS_TABLE[self][-1][1]


#: every model's lowercase name, in canonical (enum) order
MODEL_NAMES = tuple(m.name.lower() for m in Model)


@dataclass(frozen=True)
class ToolchainOptions:
    """Knobs for ablation experiments; defaults match the paper.

    Frozen and hashable so option sets can serve directly as cache-key
    components (every nested params object is a frozen dataclass too);
    :meth:`digest` is the stable form the artifact cache uses.
    """

    superblock: SuperblockParams = field(default_factory=SuperblockParams)
    hyperblock: HyperblockParams = field(default_factory=HyperblockParams)
    conversion: ConversionParams = field(default_factory=ConversionParams)
    branch_combine: BranchCombineParams | None = \
        field(default_factory=BranchCombineParams)
    unroll: UnrollParams | None = field(default_factory=UnrollParams)
    enable_promotion: bool = True
    enable_or_tree: bool = True
    verify: bool = True
    #: re-verify the IR after every compilation stage (failures name the
    #: offending pass and dump an IR snapshot to ``artifact_dir``) and
    #: check every emulation trace's integrity
    paranoid: bool = False
    #: where pass-failure IR snapshots go (None = system temp dir)
    artifact_dir: str | None = None

    def digest(self) -> str:
        """Stable digest of every field that can change compiled code.

        ``verify``/``paranoid``/``artifact_dir`` are observability knobs
        that never alter a *successful* compilation's output, so they
        are excluded — toggling them must not cold-start the artifact
        cache.
        """
        from repro.engine.keys import stable_digest
        return stable_digest(
            self.superblock, self.hyperblock, self.conversion,
            self.branch_combine, self.unroll, self.enable_promotion,
            self.enable_or_tree)


@dataclass
class OptimizedProgram:
    """A program optimized for one model, before scheduling: what the
    compiles of one (program, model) for different machines share."""

    program: Program
    model: Model
    #: each function's liveness by name, filled by the first schedule
    #: and read by the later ones
    live: dict[str, Liveness] = field(default_factory=dict)
    #: each block's dependence edges by (function, block) name, with
    #: its graph resolved per latency table, filled and read the same
    #: way.  In process only: pickling leaves it out
    #: (it would grow the stored artifact by half), and a loaded
    #: program refills it on its first schedule.
    dags: dict[tuple[str, str], DagEdges] = field(default_factory=dict,
                                                  repr=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["dags"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.dags = {}


@dataclass
class CompiledProgram:
    """A program compiled for one model/machine pair."""

    program: Program
    model: Model
    machine: MachineDescription
    schedule: ScheduleResult
    addresses: dict[int, int]

    @property
    def static_size(self) -> int:
        return self.program.static_size()


def frontend(source: str) -> Program:
    """MiniC source → optimized, normalized baseline IR."""
    program = compile_minic(source)
    optimize_program(program)
    for fn in program.functions.values():
        hoist_loop_invariants(fn)
    optimize_program(program)
    for fn in program.functions.values():
        normalize_basic_blocks(fn)
    return program


@dataclass
class _FunctionState:
    """What a pass sees: one function, the compile's shared inputs and
    each earlier pass's result by pass name."""

    fn: Function
    profile: Profile
    options: ToolchainOptions
    results: dict[str, object] = field(default_factory=dict)

    @property
    def formed(self) -> list:
        return self.results.get("hyperblock-formation") or []


def _combine_all(state: _FunctionState) -> None:
    """Branch-combine every formed hyperblock that still exists.

    Later formation stages may have merged a hyperblock away; only a
    *missing block* is expected here — any other error is a real pass
    bug and must surface.
    """
    for label, _info in state.formed:
        try:
            block = state.fn.block(label)
        except IRError:
            continue
        combine_branches(state.fn, block, state.profile,
                         state.options.branch_combine)


#: a pass: runs on one function, returns a result later passes may read
Pass = tuple[str, ISALevel, Callable[[_FunctionState], object]]

#: the superblock techniques every model applies; on the predicated
#: models traces may flow through formed hyperblocks (normalization
#: keeps predicated blocks whole)
_SUPERBLOCK_PASSES = [
    ("superblock-formation",
     lambda s: form_superblocks(s.fn, s.profile, s.options.superblock)),
    ("loop-unroll", lambda s: unroll_function_loops(s.fn, s.options.unroll)),
]
#: if-conversion and the full-predication optimizations on its output
_HYPERBLOCK_PASSES = [
    ("hyperblock-formation",
     lambda s: form_hyperblocks(s.fn, s.profile, s.options.hyperblock)),
    ("predicate-optimization",
     lambda s: [optimize_hyperblock_predicates(s.fn, s.fn.block(label))
                for label, _info in s.formed]),
    ("predicate-promotion", lambda s: promote_all(s.fn, s.formed)),
    ("branch-combine", _combine_all),
]
#: the full->partial lowering
_PARTIAL_PASSES = [
    ("partial-conversion",
     lambda s: convert_to_partial(s.fn, s.options.conversion)),
    ("or-tree-reduction", lambda s: reduce_function_or_trees(s.fn)),
]
#: classic passes minus CFG restructuring, for post-formation cleanup
#: (hyperblocks must not be re-split or re-laid-out once formed).
PEEPHOLE_PASSES = [p for p in CLASSIC_PASSES if p[0] != "cfg"]
_PEEPHOLE = ("peephole",
             lambda s: run_function_passes(s.fn, PEEPHOLE_PASSES))


def _at(level: ISALevel, *passes) -> list[Pass]:
    """Tag passes with the ISA level of the IR they leave behind."""
    return [(name, level, run) for name, run in passes]


#: The only place the three models differ (Section 4.1): each model's
#: passes, in order, run on every function.  Until the full->partial
#: lowering runs, both predicated models carry full-predication IR.
PASS_TABLE: dict[Model, list[Pass]] = {
    Model.SUPERBLOCK: _at(ISALevel.BASELINE, *_SUPERBLOCK_PASSES,
                          _PEEPHOLE),
    Model.CMOV: _at(ISALevel.FULL, *_HYPERBLOCK_PASSES,
                    *_SUPERBLOCK_PASSES)
    + _at(ISALevel.PARTIAL, *_PARTIAL_PASSES, _PEEPHOLE),
    Model.FULLPRED: _at(ISALevel.FULL, *_HYPERBLOCK_PASSES,
                        *_SUPERBLOCK_PASSES, _PEEPHOLE),
}

def model_passes(model: Model, options: ToolchainOptions) -> list[Pass]:
    """``model``'s passes minus those ``options`` switch off."""
    off = {"loop-unroll": options.unroll is None,
           "predicate-promotion": not options.enable_promotion,
           "branch-combine": options.branch_combine is None,
           "or-tree-reduction": not options.enable_or_tree}
    return [p for p in PASS_TABLE[model] if not off.get(p[0])]


def optimize_for_model(base: Program, model: Model, profile: Profile,
                       options: ToolchainOptions | None = None
                       ) -> OptimizedProgram:
    """Clone ``base`` and run ``model``'s passes on it.

    ``base`` must come from :func:`frontend` and ``profile`` must have
    been collected on it (training run).  Nothing here reads the
    machine.
    """
    if options is None:
        options = ToolchainOptions()
    program = base.clone()
    gate = PassGate(program, paranoid=options.paranoid,
                    artifact_dir=options.artifact_dir, model=model.value)
    passes = model_passes(model, options)
    # Function-outer, pass-inner: uid allocation order (and so every
    # compiled digest) depends on it.
    for fn in program.functions.values():
        state = _FunctionState(fn, profile, options)
        for name, level, run in passes:
            state.results[name] = gate.run(fn, name, partial(run, state),
                                           level)

    if options.verify:
        try:
            verify_program(program, model.isa_level)
        except VerificationError as exc:
            raise PassVerificationError(
                f"compiled {model.value} program failed final "
                f"verification: {exc}", pass_name="final-verify") from exc
    return OptimizedProgram(program=program, model=model)


def schedule_for_machine(optimized: OptimizedProgram,
                         machine: MachineDescription) -> CompiledProgram:
    """Clone ``optimized``'s program, schedule it for ``machine`` and
    assign its addresses.  ``optimized.program`` is left as it was; the
    first call fills ``optimized.live`` and ``optimized.dags``."""
    program = optimized.program.clone()
    try:
        schedule = schedule_program(program, machine, live=optimized.live,
                                    dags=optimized.dags)
        addresses = assign_addresses(program, machine.instruction_bytes)
    except ReproError:
        # Already classified (e.g. a CompileError out of the
        # scheduler's own invariants) — never double-wrap.
        raise
    except Exception as exc:
        raise CompileError(
            f"scheduling {optimized.model.value} program failed: {exc}",
            pass_name="schedule") from exc
    return CompiledProgram(program=program, model=optimized.model,
                           machine=machine, schedule=schedule,
                           addresses=addresses)


def compile_for_model(base: Program, model: Model, profile: Profile,
                      machine: MachineDescription,
                      options: ToolchainOptions | None = None, *,
                      optimized: dict[Model, OptimizedProgram] | None = None
                      ) -> CompiledProgram:
    """Compile ``base`` for ``model`` on ``machine``: optimize, then
    schedule.

    ``optimized``, when given, memoizes the first step by model: an
    entry is scheduled as it is, a missing one is optimized and added.
    One memo must only ever see one (``base``, ``profile``,
    ``options``).  ``base`` and ``profile`` are read only on a miss, so
    a caller that knows the memo holds ``model`` may pass None.
    """
    result = optimized.get(model) if optimized is not None else None
    if result is None:
        result = optimize_for_model(base, model, profile, options)
        if optimized is not None:
            optimized[model] = result
    return schedule_for_machine(result, machine)


@dataclass
class RunResult:
    """Emulation + simulation of one compiled program on one machine."""

    compiled: CompiledProgram
    execution: ExecutionResult
    stats: SimulationStats

    @property
    def return_value(self):
        return self.execution.return_value

    @property
    def cycles(self) -> int:
        return self.stats.cycles


def run_compiled(compiled: CompiledProgram,
                 inputs: dict | None = None,
                 machine: MachineDescription | None = None,
                 max_steps: int = 50_000_000,
                 engine: str = DEFAULT_ENGINE) -> RunResult:
    """Emulate the compiled program and simulate its trace.

    ``machine`` may differ from the compile-time machine in memory
    hierarchy (the schedule is unaffected by caches), enabling
    perfect-vs-real-cache comparisons without recompiling.

    ``engine`` names the execution engine (see :mod:`repro.engines`).
    Both produce bit-identical observables; ``vector`` streams the
    trace into the simulator and leaves ``RunResult.execution.trace``
    as None, ``legacy`` keeps the full event list.
    """
    if machine is None:
        machine = compiled.machine
    if check_engine(engine) == "vector":
        from repro.fastpath.vector import emulate_and_simulate_vector
        execution, stats = emulate_and_simulate_vector(
            compiled.program, compiled.addresses, machine, inputs=inputs,
            max_steps=max_steps)
        return RunResult(compiled=compiled, execution=execution,
                         stats=stats)
    execution = run_program(compiled.program, inputs=inputs,
                            collect_trace=True, max_steps=max_steps)
    if execution.trace is None:
        raise TraceIntegrityError(
            f"emulation of {compiled.model.value} produced no trace")
    stats = simulate_trace(execution.trace, compiled.addresses, machine)
    return RunResult(compiled=compiled, execution=execution, stats=stats)


def compile_and_simulate(source: str, model: Model,
                         machine: MachineDescription,
                         inputs: dict | None = None,
                         train_inputs: dict | None = None,
                         options: ToolchainOptions | None = None
                         ) -> RunResult:
    """One-call pipeline: MiniC source → simulated run for ``model``.

    ``train_inputs`` drive profiling (defaults to the evaluation
    ``inputs``, matching the paper's measured-run methodology).
    """
    base = frontend(source)
    profile = Profile.collect(base, inputs=train_inputs or inputs)
    compiled = compile_for_model(base, model, profile, machine, options)
    return run_compiled(compiled, inputs=inputs)


def baseline_cycles(source: str, inputs: dict | None = None,
                    train_inputs: dict | None = None,
                    options: ToolchainOptions | None = None) -> int:
    """Cycle count of the 1-issue SUPERBLOCK processor (the paper's
    speedup denominator)."""
    result = compile_and_simulate(source, Model.SUPERBLOCK,
                                  scalar_machine(), inputs=inputs,
                                  train_inputs=train_inputs,
                                  options=options)
    return result.cycles
