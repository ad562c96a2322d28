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

Speedups are reported against the 1-issue SUPERBLOCK configuration, as
in the paper.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field

from repro.analysis.profile import Profile
from repro.emu.interpreter import run_program
from repro.emu.trace import ExecutionResult
from repro.engines import DEFAULT_ENGINE, check_engine
from repro.ir.function import IRError, Program
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
from repro.robustness.passgate import Degradation, PassGate
from repro.robustness.watchdog import EmulationWatchdog
from repro.schedule.list_scheduler import ScheduleResult, schedule_program
from repro.sim.pipeline import (SimulationStats, assign_addresses,
                                simulate_trace)

#: classic passes minus CFG restructuring, for post-formation cleanup
#: (hyperblocks must not be re-split or re-laid-out once formed).
PEEPHOLE_PASSES = [p for p in CLASSIC_PASSES if p[0] != "cfg"]


class Model(enum.Enum):
    """The paper's three architectural/compilation models."""

    SUPERBLOCK = "Superblock"
    CMOV = "Conditional Move"
    FULLPRED = "Full Predication"

    @property
    def isa_level(self) -> ISALevel:
        return {Model.SUPERBLOCK: ISALevel.BASELINE,
                Model.CMOV: ISALevel.PARTIAL,
                Model.FULLPRED: ISALevel.FULL}[self]


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
    #: re-verify the IR after every compilation stage; failures name the
    #: offending pass and dump an IR snapshot to ``artifact_dir``
    paranoid: bool = False
    #: on a pass failure, restore the pre-pass IR and keep compiling
    #: (graceful degradation, recorded in CompiledProgram.degradations)
    rollback: bool = False
    #: where pass-failure IR snapshots go (None = system temp dir)
    artifact_dir: str | None = None

    def digest(self) -> str:
        """Stable digest of every field that can change compiled code.

        ``verify``/``paranoid``/``artifact_dir`` are observability knobs
        that never alter a *successful* compilation's output, so they
        are excluded — toggling them must not cold-start the artifact
        cache.  ``rollback`` *can* change the output (it skips failing
        passes) and is included.
        """
        from repro.engine.keys import stable_digest
        return stable_digest(
            self.superblock, self.hyperblock, self.conversion,
            self.branch_combine, self.unroll, self.enable_promotion,
            self.enable_or_tree, self.rollback)


@dataclass
class CompiledProgram:
    """A program compiled for one model/machine pair."""

    program: Program
    model: Model
    machine: MachineDescription
    schedule: ScheduleResult
    addresses: dict[int, int]
    #: passes skipped by rollback-and-continue (empty on clean compiles)
    degradations: list[Degradation] = field(default_factory=list)

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


def compile_for_model(base: Program, model: Model, profile: Profile,
                      machine: MachineDescription,
                      options: ToolchainOptions | None = None
                      ) -> CompiledProgram:
    """Clone ``base`` and compile it for ``model`` on ``machine``.

    ``base`` must come from :func:`frontend` and ``profile`` must have
    been collected on it (training run).
    """
    if options is None:
        options = ToolchainOptions()
    program = copy.deepcopy(base)
    gate = PassGate(program, paranoid=options.paranoid,
                    rollback=options.rollback,
                    artifact_dir=options.artifact_dir, model=model.value)

    for fn in program.functions.values():
        if model is Model.SUPERBLOCK:
            level = ISALevel.BASELINE
            gate.run(fn, "superblock-formation",
                     lambda fn=fn: form_superblocks(fn, profile,
                                                    options.superblock),
                     level)
            if options.unroll is not None:
                gate.run(fn, "loop-unroll",
                         lambda fn=fn: unroll_function_loops(
                             fn, options.unroll), level)
            gate.run(fn, "peephole",
                     lambda fn=fn: run_function_passes(fn, PEEPHOLE_PASSES),
                     level)
        else:
            # Until the full->partial lowering runs, both predicated
            # models carry full-predication IR.
            level = ISALevel.FULL
            formed = gate.run(fn, "hyperblock-formation",
                              lambda fn=fn: form_hyperblocks(
                                  fn, profile, options.hyperblock),
                              level) or []
            gate.run(fn, "predicate-optimization",
                     lambda fn=fn, formed=formed: [
                         optimize_hyperblock_predicates(fn, fn.block(label))
                         for label, _info in formed], level)
            if options.enable_promotion:
                gate.run(fn, "predicate-promotion",
                         lambda fn=fn, formed=formed: promote_all(fn, formed),
                         level)
            if options.branch_combine is not None:
                gate.run(fn, "branch-combine",
                         lambda fn=fn, formed=formed: _combine_all(
                             fn, formed, profile, options.branch_combine),
                         level)
            # The paper's compiler applies superblock techniques to the
            # remaining code; traces may flow through formed hyperblocks
            # (normalization keeps predicated blocks whole).
            gate.run(fn, "superblock-formation",
                     lambda fn=fn: form_superblocks(fn, profile,
                                                    options.superblock),
                     level)
            if options.unroll is not None:
                gate.run(fn, "loop-unroll",
                         lambda fn=fn: unroll_function_loops(
                             fn, options.unroll), level)
            if model is Model.CMOV:
                level = ISALevel.PARTIAL
                gate.run(fn, "partial-conversion",
                         lambda fn=fn: convert_to_partial(
                             fn, options.conversion), level)
                if options.enable_or_tree:
                    gate.run(fn, "or-tree-reduction",
                             lambda fn=fn: reduce_function_or_trees(fn),
                             level)
            gate.run(fn, "peephole",
                     lambda fn=fn: run_function_passes(fn, PEEPHOLE_PASSES),
                     level)

    if options.verify:
        try:
            verify_program(program, model.isa_level)
        except VerificationError as exc:
            raise PassVerificationError(
                f"compiled {model.value} program failed final "
                f"verification: {exc}", pass_name="final-verify") from exc
    try:
        schedule = schedule_program(program, machine)
        addresses = assign_addresses(program, machine.instruction_bytes)
    except ReproError:
        # Already classified (e.g. a CompileError out of the
        # scheduler's own invariants) — never double-wrap.
        raise
    except Exception as exc:
        raise CompileError(
            f"scheduling {model.value} program failed: {exc}",
            pass_name="schedule") from exc
    return CompiledProgram(program=program, model=model, machine=machine,
                           schedule=schedule, addresses=addresses,
                           degradations=list(gate.degradations))


def _combine_all(fn, formed, profile, params) -> None:
    """Branch-combine every formed hyperblock that still exists.

    Later formation stages may have merged a hyperblock away; only a
    *missing block* is expected here — any other error is a real pass
    bug and must surface.
    """
    for label, _info in formed:
        try:
            block = fn.block(label)
        except IRError:
            continue
        combine_branches(fn, block, profile, params)


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
                 watchdog: EmulationWatchdog | None = None,
                 engine: str = DEFAULT_ENGINE) -> RunResult:
    """Emulate the compiled program and simulate its trace.

    ``machine`` may differ from the compile-time machine in memory
    hierarchy (the schedule is unaffected by caches), enabling
    perfect-vs-real-cache comparisons without recompiling.  An optional
    ``watchdog`` bounds emulation wall-clock time on top of ``max_steps``.

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
            max_steps=max_steps, watchdog=watchdog)
        return RunResult(compiled=compiled, execution=execution,
                         stats=stats)
    execution = run_program(compiled.program, inputs=inputs,
                            collect_trace=True, max_steps=max_steps,
                            watchdog=watchdog)
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
