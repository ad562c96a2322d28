"""The memoized, store-backed pipeline shared by suite and workers.

A :class:`PipelineContext` owns the three-stage pipeline of the paper's
methodology — compile per model, emulate to a trace, simulate per
machine — with two levels of reuse:

* an in-process memo (what :class:`ExperimentSuite` historically kept in
  ad-hoc dicts), now keyed by the stable digests of
  :mod:`repro.engine.keys` instead of hand-picked tuple fields;
* an optional :class:`~repro.engine.store.ArtifactStore`, consulted
  before any computation and fed after it, so artifacts survive the
  process and are shared across processes.

Compiled programs and traces are the exception: scheduled from the
optimized program, emulated once, simulated under every machine that
shares them, and never stored.  Redoing them costs less than a store
round trip, and a warm run reads only ``stats``.

The in-process emulation, decode and simulator-table memos are keyed
by the scheduled program's content (:func:`program_content`), not by
compile key: machines whose schedules of one program come out
instruction for instruction alike share one emulation, though each
keeps its own stored ``stats``.

Both the experiment suite (serial path) and the scheduler's pool
workers (parallel path) drive this same class, so cache keying and
metrics accounting cannot drift between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.profile import Profile
from repro.emu.interpreter import run_program
from repro.emu.trace import ExecutionResult
from repro.engine import keys
from repro.fastpath import native, vector
from repro.fastpath.columns import TraceColumns
from repro.fastpath.decode import DecodedProgram, decode_program
from repro.fastpath.interp import run_program_fast
from repro.fastpath.simulate import prepare_sim, simulate_columns
from repro.engine.metrics import PipelineMetrics
from repro.engine.store import ArtifactStore
from repro.engines import DEFAULT_ENGINE, check_engine
from repro.ir.function import Program
from repro.ir.instruction import ensure_uid_headroom
from repro.ir.operands import Imm
from repro.machine.descriptor import MachineDescription
from repro.robustness.errors import TraceIntegrityError
from repro.robustness.integrity import check_trace_integrity
from repro.sim.pipeline import SimulationStats, simulate_trace
from repro.toolchain import (CompiledProgram, Model, OptimizedProgram,
                             ToolchainOptions, compile_for_model, frontend)
from repro.workloads.base import Workload


def program_content(program: Program) -> tuple:
    """Everything an emulator reads of ``program``, as nested tuples.

    That is the entry, the globals, and each function's name, params
    and blocks in layout order, with every instruction's uid, opcode,
    operands, guard, predicate destinations, target and ``speculative``
    flag.  Programs with equal content emulate alike on equal inputs.
    The tuple is compared by equality, so two programs never share by
    a digest collision.  Constants enter by type and ``repr``: ``1``,
    ``1.0`` and ``True`` (and ``0.0`` and ``-0.0``) are equal in Python
    but not to the emulator.
    """
    return (
        program.entry,
        tuple((g.name, g.elem_size, g.count,
               None if g.init is None else repr(g.init), g.is_float)
              for g in program.globals.values()),
        tuple((fn.name, tuple(fn.params),
               tuple((b.name,
                      tuple((i.uid, i.op, i.dest,
                             tuple((type(s.value), repr(s.value))
                                   if type(s) is Imm else s
                                   for s in i.srcs),
                             i.pred, i.pdests, i.target, i.speculative)
                            for i in b.instructions))
                     for b in fn.blocks))
              for fn in program.functions.values()))


@dataclass
class RunSummary:
    """The cacheable outcome of one (workload, model, machine) triple."""

    stats: SimulationStats
    return_value: int | float
    static_size: int


@dataclass
class PipelineContext:
    """Memoized compile/emulate/simulate pipeline over one configuration."""

    scale: float = 1.0
    options: ToolchainOptions = field(default_factory=ToolchainOptions)
    max_steps: int = 20_000_000
    store: ArtifactStore | None = None
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)
    #: execution engine by name (see :mod:`repro.engines`).  Both
    #: engines produce bit-identical artifacts, so cache keys are
    #: engine-free and warm artifacts are shared across engines.
    engine: str = DEFAULT_ENGINE
    #: whether this process may use the native (C) kernels.  Resolved
    #: once from the supervisor's per-process env snapshot, never from
    #: ``os.environ`` mid-run — a mid-run env mutation can't produce
    #: mixed-engine chunks within one workload.  Set False explicitly
    #: to pin the vector engine's Python rung regardless of the
    #: snapshot.
    native_enabled: bool | None = None

    def __post_init__(self):
        check_engine(self.engine)
        if self.native_enabled is None:
            from repro.fastpath import supervisor
            self.native_enabled = supervisor.native_enabled()
        if self.store is not None:
            # One counter object for the whole pipeline, store included.
            self.store.metrics = self.metrics
        self._options_digest = self.options.digest()
        self._frontend: dict[str, Program] = {}
        self._profile: dict[str, Profile] = {}
        # Optimized programs by profile key, then model: the memo
        # compile_for_model shares across one workload's machines.
        self._optimized: dict[str, dict[Model, OptimizedProgram]] = {}
        self._compiled: dict[str, CompiledProgram] = {}
        # Workload inputs by profile key: built once, shared read-only
        # by the training run and every emulation.
        self._inputs: dict[str, dict] = {}
        self._summary: dict[str, RunSummary] = {}
        # The profile key of each workload (name, source) and the
        # (compile, execution, stats) keys of each (workload, model,
        # machine): each is digested once.
        self._profile_keys: dict[tuple[str, str], str] = {}
        self._run_keys: dict[tuple, tuple[str, str, str]] = {}
        # Each distinct scheduled program's content numbered in the
        # order first seen, and each compile key's number: the memos
        # below are keyed by the number.
        self._program_numbers: dict[tuple, int] = {}
        self._number_of: dict[str, int] = {}
        # Emulations by (program number, profile key), and the same
        # results by execution key, so a repeated query digests and
        # compares nothing.
        self._emulations: dict[tuple[int, str], ExecutionResult] = {}
        self._execution: dict[str, ExecutionResult] = {}
        # Pre-decoded form by program number: one decode serves the
        # emulation plus every machine's simulation of that program.
        # Simulator arrays (with the vector engine's form of them) by
        # (number, instruction bytes, latency overrides): the addresses
        # and latencies are all they add.
        self._decoded: dict[int, DecodedProgram] = {}
        self._prep: dict[tuple, vector.VectorSimPrep] = {}

    # ----- keys ---------------------------------------------------------

    def profile_key(self, workload: Workload) -> str:
        memo_key = (workload.name, workload.source)
        key = self._profile_keys.get(memo_key)
        if key is None:
            key = self._profile_keys[memo_key] = keys.profile_key(
                workload.name, workload.source, self.scale, self.max_steps)
        return key

    def optimize_key(self, workload: Workload, model: Model) -> str:
        return keys.optimize_key(workload.name, workload.source, self.scale,
                                 self.max_steps, model.name,
                                 self._options_digest)

    def _keys(self, workload: Workload, model: Model,
              machine: MachineDescription) -> tuple[str, str, str]:
        """The compile, execution and stats keys of one triple."""
        memo_key = (workload.name, workload.source, model, machine)
        found = self._run_keys.get(memo_key)
        if found is None:
            compile_key = keys.compile_key(
                workload.name, workload.source, self.scale, self.max_steps,
                model.name, self._options_digest, machine.schedule_digest())
            execution_key = keys.execution_key(compile_key, self.scale,
                                               self.max_steps)
            found = self._run_keys[memo_key] = (
                compile_key, execution_key,
                keys.stats_key(execution_key, machine.digest()))
        return found

    def compile_key(self, workload: Workload, model: Model,
                    machine: MachineDescription) -> str:
        return self._keys(workload, model, machine)[0]

    def execution_key(self, workload: Workload, model: Model,
                      machine: MachineDescription) -> str:
        return self._keys(workload, model, machine)[1]

    def stats_key(self, workload: Workload, model: Model,
                  machine: MachineDescription) -> str:
        return self._keys(workload, model, machine)[2]

    # ----- stages -------------------------------------------------------

    @staticmethod
    def _adopt_uids(program: Program) -> None:
        """Reserve uid headroom for a program loaded from the store.

        The program's uids were allocated by another process; without
        the reservation, this process's next allocation (tail
        duplication) would collide with them and corrupt the uid-keyed
        address map.
        """
        ensure_uid_headroom(max(
            (inst.uid for fn in program.functions.values()
             for inst in fn.all_instructions()), default=-1))

    def _program_number(self, workload: Workload, model: Model,
                        machine: MachineDescription) -> int:
        """The number of the triple's scheduled program: equal for
        every triple whose program has equal :func:`program_content`."""
        compile_key = self.compile_key(workload, model, machine)
        number = self._number_of.get(compile_key)
        if number is None:
            content = program_content(
                self.compiled(workload, model, machine).program)
            number = self._number_of[compile_key] = \
                self._program_numbers.setdefault(
                    content, len(self._program_numbers))
        return number

    def _decoded_for(self, number: int,
                     compiled: CompiledProgram) -> DecodedProgram:
        decoded = self._decoded.get(number)
        if decoded is None:
            decoded = self._decoded[number] = decode_program(
                compiled.program)
        return decoded

    def _prep_for(self, number: int, compiled: CompiledProgram,
                  machine: MachineDescription) -> vector.VectorSimPrep:
        key = (number, machine.instruction_bytes, machine.latency_overrides)
        prep = self._prep.get(key)
        if prep is None:
            prep = self._prep[key] = vector.VectorSimPrep(prepare_sim(
                self._decoded_for(number, compiled), compiled.addresses,
                machine))
        return prep

    def inputs(self, workload: Workload) -> dict:
        """The workload's inputs at this scale, built once.  Emulators
        copy them into memory and never mutate them."""
        key = self.profile_key(workload)
        inputs = self._inputs.get(key)
        if inputs is None:
            inputs = self._inputs[key] = workload.inputs(self.scale)
        return inputs

    def frontend_program(self, workload: Workload) -> Program:
        """Optimized baseline IR (cached per source)."""
        key = keys.frontend_key(workload.source)
        program = self._frontend.get(key)
        if program is None and self.store is not None:
            program = self.store.get("frontend", key)
            if program is not None:
                self._adopt_uids(program)
        if program is None:
            with self.metrics.timer("frontend"):
                program = frontend(workload.source)
            if self.store is not None:
                self.store.put("frontend", key, program)
        self._frontend[key] = program
        return program

    def profile(self, workload: Workload) -> Profile:
        """Training-run profile for the baseline IR."""
        key = self.profile_key(workload)
        profile = self._profile.get(key)
        if profile is None and self.store is not None:
            profile = self.store.get("profile", key)
        if profile is None:
            program = self.frontend_program(workload)
            self._load_kernels()
            with self.metrics.timer("profile"):
                # The legacy engine is the reference: it never runs a
                # native kernel.
                profile = Profile.collect(
                    program, inputs=self.inputs(workload),
                    max_steps=self.max_steps,
                    native=self.native_enabled and self.engine != "legacy")
            if self.store is not None:
                self.store.put("profile", key, profile)
        self._profile[key] = profile
        return profile

    def compiled(self, workload: Workload, model: Model,
                 machine: MachineDescription) -> CompiledProgram:
        """Program compiled for ``model`` on the schedule-relevant
        machine parameters (machines differing only in memory hierarchy
        share it).

        The passes run once per (workload, model): their output is
        memoized here and stored as an ``optimized`` artifact; each
        machine only schedules it, and that result is never stored.
        """
        key = self.compile_key(workload, model, machine)
        compiled = self._compiled.get(key)
        if compiled is None:
            memo = self._optimized.setdefault(self.profile_key(workload), {})
            optimize_key = self.optimize_key(workload, model)
            if model not in memo and self.store is not None:
                optimized = self.store.get("optimized", optimize_key)
                if optimized is not None:
                    self._adopt_uids(optimized.program)
                    memo[model] = optimized
            fresh = model not in memo
            # Scheduling a memoized program needs neither input.
            base = self.frontend_program(workload) if fresh else None
            profile = self.profile(workload) if fresh else None
            with self.metrics.timer("compile"):
                compiled = compile_for_model(base, model, profile, machine,
                                             self.options, optimized=memo)
            if fresh and self.store is not None:
                self.store.put("optimized", optimize_key, memo[model])
            self._compiled[key] = compiled
        return compiled

    def execution(self, workload: Workload, model: Model,
                  machine: MachineDescription) -> ExecutionResult:
        """Emulation trace of the compiled program on its inputs,
        memoized in this process only.

        The emulation is keyed by the scheduled program's content and
        the inputs' profile key: triples whose programs come out alike
        (say, one model's schedules for machines whose issue width never
        binds) share one.  With ``options.paranoid`` each triple's
        program is still checked against the trace it is given.
        """
        key = self.execution_key(workload, model, machine)
        execution = self._execution.get(key)
        if execution is None:
            compiled = self.compiled(workload, model, machine)
            number = self._program_number(workload, model, machine)
            shared = (number, self.profile_key(workload))
            execution = self._emulations.get(shared)
            if execution is None:
                execution = self._emulations[shared] = self._emulate(
                    workload, compiled, number)
            if self.options.paranoid:
                check_trace_integrity(execution, compiled.program)
            self._execution[key] = execution
        self.record_native_rung()
        return execution

    def _emulate(self, workload: Workload, compiled: CompiledProgram,
                 number: int) -> ExecutionResult:
        self._load_kernels()
        with self.metrics.timer("emulate"):
            inputs = self.inputs(workload)
            if self.engine == "legacy":
                return run_program(
                    compiled.program, inputs=inputs, collect_trace=True,
                    max_steps=self.max_steps)
            # The native emulator falls back to the interpreter by
            # itself when the process has no kernel.
            emulate = native.run_program_native \
                if self.native_enabled else run_program_fast
            return emulate(
                compiled.program, inputs=inputs, collect_trace=True,
                max_steps=self.max_steps,
                decoded=self._decoded_for(number, compiled))

    def release_traces(self) -> None:
        """Drop the memoized emulations, shared ones included.  Nothing
        stores them: a later query for one emulates again."""
        self._emulations.clear()
        self._execution.clear()

    def run_summary(self, workload: Workload, model: Model,
                    machine: MachineDescription) -> RunSummary:
        """Simulate the trace under the *full* machine description.

        On a warm store this is a single artifact load: no compilation,
        no emulation, no simulation.
        """
        key = self.stats_key(workload, model, machine)
        summary = self._summary.get(key)
        if summary is None and self.store is not None:
            summary = self.store.get("stats", key)
        if summary is None:
            compiled = self.compiled(workload, model, machine)
            number = self._program_number(workload, model, machine)
            execution = self.execution(workload, model, machine)
            trace = execution.trace
            if trace is None:
                raise TraceIntegrityError(
                    f"{workload.name}/{model.value}: emulation "
                    f"produced no trace")
            self._load_kernels()
            with self.metrics.timer("simulate"):
                if not isinstance(trace, TraceColumns):
                    stats = simulate_trace(trace, compiled.addresses,
                                           machine)
                elif self.native_enabled:
                    stats = vector.simulate_columns_vector(
                        trace, self._prep_for(number, compiled, machine),
                        machine, metrics=self.metrics)
                else:
                    stats = simulate_columns(
                        trace,
                        self._prep_for(number, compiled, machine).prep,
                        machine)
            self.metrics.add_cycles(stats.cycles)
            summary = RunSummary(stats=stats,
                                 return_value=execution.return_value,
                                 static_size=compiled.static_size)
            if self.store is not None:
                self.store.put("stats", key, summary)
        self._summary[key] = summary
        self.record_native_rung()
        return summary

    def _load_kernels(self) -> None:
        """Make the process's one native load decision before a stage
        timer starts, so a cold kernel cache's build and canary are
        charged to no stage.  A run that computes nothing (all stats
        warm) never gets here and loads no kernel."""
        if self.native_enabled and self.engine != "legacy":
            native.available()

    def record_native_rung(self) -> None:
        """Record the process's native load decision in this run's
        metrics (pool workers' reach the parent through ``to_dict``)."""
        from repro.fastpath import supervisor
        self.metrics.native_rung = supervisor.rung() \
            or self.metrics.native_rung
