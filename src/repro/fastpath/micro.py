"""Timeit microbenchmarks for the hot loops (``repro bench --micro``).

Three benchmarks, each pitting the legacy reference against the
vector engine's pure-Python rung on identical work:

* **dispatch** — full interpreter run of a small predicated kernel
  (:func:`~repro.emu.interpreter.run_program` vs
  :func:`~repro.fastpath.interp.run_program_fast`), normalized per
  dynamic instruction;
* **trace-append** — recording one dynamic event
  (``list.append(TraceEvent(...))`` vs :meth:`TraceColumns.append`);
* **issue-loop** — cycle simulation of a recorded trace
  (:func:`~repro.sim.pipeline.simulate_trace` vs
  :func:`~repro.fastpath.simulate.simulate_columns`), normalized per
  trace event.

Two more time the compiler's analyses on their largest input in the
paper suite, espresso's biggest FULLPRED hyperblock; they have no
legacy twin:

* **liveness** — :func:`~repro.analysis.liveness.liveness` of the
  hyperblock's function, normalized per instruction of the function;
* **build-dag** — :func:`~repro.schedule.dag.build_dag` of the
  hyperblock, normalized per instruction of the block.

Everything runs on :mod:`timeit` from the standard library; the
``benchmarks/perf/`` scripts are thin wrappers over this module so the
numbers are reproducible from either entry point.
"""

from __future__ import annotations

import timeit
from dataclasses import dataclass

#: MiniC kernel with branchy, predicatable control flow and array
#: traffic — small enough for a sub-second legacy run, hot enough that
#: per-instruction dispatch cost dominates.
_KERNEL = """
int data[64];
int main() {
    int i; int j; int acc; int lim;
    acc = 0;
    for (i = 0; i < 200; i = i + 1) {
        lim = (i % 13) + 3;
        for (j = 0; j < lim; j = j + 1) {
            if (data[(i + j) % 64] > j) {
                acc = acc + data[j % 64];
            } else {
                acc = acc - j;
            }
            data[(i * 3 + j) % 64] = acc % 251;
        }
    }
    return acc % 100003;
}
"""


@dataclass
class MicroResult:
    """One legacy-vs-fastpath comparison, or (``legacy_ns`` None) one
    timing with nothing to compare against."""

    name: str
    unit: str
    legacy_ns: float | None
    fast_ns: float

    @property
    def speedup(self) -> float:
        if self.legacy_ns is None or not self.fast_ns:
            return 0.0
        return self.legacy_ns / self.fast_ns


def _time_per_unit(fn, units: int, repeat: int) -> float:
    """Best-of-``repeat`` nanoseconds per unit of work for ``fn()``."""
    best = min(timeit.repeat(fn, number=1, repeat=repeat))
    return best * 1e9 / max(units, 1)


def _compiled_kernel():
    from repro.analysis.profile import Profile
    from repro.machine.descriptor import fig8_machine
    from repro.toolchain import Model, compile_for_model, frontend

    base = frontend(_KERNEL)
    profile = Profile.collect(base, max_steps=5_000_000)
    machine = fig8_machine()
    compiled = compile_for_model(base, Model.FULLPRED, profile, machine)
    return compiled, machine


def bench_dispatch(repeat: int = 3) -> MicroResult:
    """Interpreter dispatch: legacy loop vs pre-decoded micro-ops."""
    from repro.emu.interpreter import run_program
    from repro.fastpath.decode import decode_program
    from repro.fastpath.interp import run_program_fast

    compiled, _ = _compiled_kernel()
    program = compiled.program
    decoded = decode_program(program)
    dyn = run_program_fast(program, decoded=decoded).dynamic_count
    legacy = _time_per_unit(lambda: run_program(program), dyn, repeat)
    fast = _time_per_unit(
        lambda: run_program_fast(program, decoded=decoded), dyn, repeat)
    return MicroResult("dispatch", "dynamic instr", legacy, fast)


def bench_trace_append(repeat: int = 3, events: int = 50_000) -> MicroResult:
    """Recording one dynamic event: TraceEvent list vs columnar arrays."""
    from repro.emu.trace import TraceEvent
    from repro.fastpath.columns import TraceColumns
    from repro.ir.instruction import Instruction
    from repro.ir.opcodes import Opcode

    inst = Instruction(Opcode.ADD, dest=None, srcs=())

    def legacy():
        out = []
        append = out.append
        for i in range(events):
            append(TraceEvent(inst, True, False, -1, None))

    def fast():
        cols = TraceColumns()
        append = cols.append
        for i in range(events):
            append(7, 1, -1, None)

    legacy_ns = _time_per_unit(legacy, events, repeat)
    fast_ns = _time_per_unit(fast, events, repeat)
    return MicroResult("trace-append", "event", legacy_ns, fast_ns)


def bench_issue_loop(repeat: int = 3) -> MicroResult:
    """Simulator issue loop: object trace vs columnar stream."""
    from repro.emu.interpreter import run_program
    from repro.fastpath.decode import decode_program
    from repro.fastpath.interp import run_program_fast
    from repro.fastpath.simulate import prepare_sim, simulate_columns
    from repro.sim.pipeline import simulate_trace

    compiled, machine = _compiled_kernel()
    program = compiled.program
    decoded = decode_program(program)
    events = run_program(program, collect_trace=True).trace
    cols = run_program_fast(program, collect_trace=True,
                            decoded=decoded).trace
    prep = prepare_sim(decoded, compiled.addresses)
    n = len(events)
    legacy = _time_per_unit(
        lambda: simulate_trace(events, compiled.addresses, machine),
        n, repeat)
    fast = _time_per_unit(
        lambda: simulate_columns(cols, prep, machine), n, repeat)
    return MicroResult("issue-loop", "trace event", legacy, fast)


def bench_analyses(repeat: int = 3) -> list[MicroResult]:
    """Liveness and DAG construction on espresso's largest FULLPRED
    hyperblock (scale 0.2 profile, Fig. 8 machine)."""
    from repro.analysis.liveness import liveness
    from repro.analysis.profile import Profile
    from repro.machine.descriptor import fig8_machine
    from repro.schedule.dag import build_dag
    from repro.toolchain import Model, compile_for_model, frontend
    from repro.workloads.base import get_workload

    workload = get_workload("espresso")
    base = frontend(workload.source)
    profile = Profile.collect(base, inputs=workload.inputs(0.2))
    machine = fig8_machine()
    program = compile_for_model(base, Model.FULLPRED, profile,
                                machine).program
    fn, block = max(((f, b) for f in program.functions.values()
                     for b in f.blocks),
                    key=lambda fb: len(fb[1].instructions))
    live = liveness(fn)
    size = sum(len(b.instructions) for b in fn.blocks)
    return [
        MicroResult("liveness", "instr", None,
                    _time_per_unit(lambda: liveness(fn), size, repeat)),
        MicroResult("build-dag", "instr", None, _time_per_unit(
            lambda: build_dag(fn, block, live, machine),
            len(block.instructions), repeat)),
    ]


def run_all(repeat: int = 3) -> list[MicroResult]:
    return [bench_dispatch(repeat), bench_trace_append(repeat),
            bench_issue_loop(repeat), *bench_analyses(repeat)]


def render(results: list[MicroResult]) -> str:
    lines = [f"{'benchmark':<14s}{'legacy':>12s}{'fastpath':>12s}"
             f"{'speedup':>9s}  unit",
             "-" * 55]
    for r in results:
        if r.legacy_ns is None:
            lines.append(f"{r.name:<14s}{'-':>12s}{r.fast_ns:>10.0f}ns"
                         f"{'':>9s}  per {r.unit}")
            continue
        lines.append(f"{r.name:<14s}{r.legacy_ns:>10.0f}ns"
                     f"{r.fast_ns:>10.0f}ns{r.speedup:>8.2f}x"
                     f"  per {r.unit}")
    return "\n".join(lines)
