"""Spans and counters around the public functions of each layer.

The benchmark measures the program from outside: nothing under ``src/``
knows about it.  :meth:`Probe.install` replaces module and class
attributes with wrappers and returns a :class:`Patches` that puts the
originals back.  Where a module imported a function by name, the name
is patched in that module, because patching the defining module would
not reach it.

Counting wrappers are installed in every run: they count syncs (and
keep them off the disk), native kernel builds and the reference
simulator's cycles.  Span wrappers are installed only in a traced run.
A span records its name, start, end and the span open when it began;
spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

#: every pass name ``compile_for_model`` hands to ``PassGate.run``; a
#: pass not listed here is reported as ``pass.other.s``
PASS_NAMES = ("superblock-formation", "loop-unroll", "peephole",
              "hyperblock-formation", "predicate-optimization",
              "predicate-promotion", "branch-combine",
              "partial-conversion", "or-tree-reduction")

#: modules that import ``liveness`` by name, and the package that
#: re-exports it
LIVENESS_IMPORTERS = ("repro.opt.dce", "repro.schedule.list_scheduler",
                      "repro.regions.promotion",
                      "repro.regions.branch_combine",
                      "repro.regions.unroll", "repro.analysis.pressure",
                      "repro.analysis")

#: (metric, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    [("frontend.s", "s"), ("frontend.calls", "count"),
     ("profile.s", "s"), ("profile.calls", "count"),
     ("compile.s", "s"), ("compile.calls", "count"),
     ("compile.self_s", "s")]
    + [(f"pass.{name}.s", "s") for name in PASS_NAMES + ("other",)]
    + [("verify.s", "s"), ("schedule.s", "s"),
       ("schedule.build_dag.s", "s"), ("liveness.s", "s"),
       ("liveness.calls", "count"), ("decode.s", "s"),
       ("emulate.s", "s"), ("emulate.calls", "count"),
       ("emulate.events", "count"),
       ("simulate.s", "s"), ("simulate.calls", "count"),
       ("simulate.events", "count"), ("simulate.prep.s", "s"),
       ("store.get.calls", "count"), ("store.get.s", "s"),
       ("store.hit_ratio", "ratio"), ("store.read_mb", "MiB"),
       ("store.put.calls", "count"), ("store.put.s", "s"),
       ("store.write_mb", "MiB"), ("store.digest.s", "s"),
       ("fsyncs", "count"),
       ("journal.records", "count"), ("journal.s", "s"),
       ("suite.self_s", "s"), ("sweep.points", "count"),
       ("sweep.point.s", "s"), ("scheduler.jobs", "count"),
       ("oracle.legacy.s", "s"), ("oracle.fastpath.s", "s"),
       ("oracle.stream.s", "s"), ("oracle.vector.s", "s"),
       ("fuzz.findings", "count"),
       ("native.builds", "count"), ("native.demotions", "count"),
       ("traced.wall_s", "s"), ("trace.overhead_s", "s")])

#: span whose self time each ``*self_s`` metric reports
_SELF_SPANS = {"compile.self_s": "compile", "suite.self_s": "item"}


class Tracer:
    """In-memory spans: ``[name, start, end, parent index]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def innermost(self) -> str:
        return self.spans[self._open[-1]][0] if self._open else ""

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def totals(self) -> tuple[dict, dict, Counter]:
        """Inclusive seconds, self seconds and calls per span name.

        Self time is a span's duration minus its children's.  A span
        nested inside one of the same name adds to the calls only, so
        inclusive seconds never count an interval twice.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - children[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                inclusive[name] += end - start
        return inclusive, own, calls

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    [name, round(start - origin, 7),
                     round(end - start, 7), parent]) + "\n")


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(current value)``."""
        raw = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            inner = make(getattr(owner, attr))
            setattr(owner, attr,
                    classmethod(lambda _cls, *a, **k: inner(*a, **k)))
        else:
            setattr(owner, attr, make(raw))

    def undo(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _module(name: str):
    __import__(name)
    return sys.modules[name]


def _outside_oracle(tracer: Tracer) -> bool:
    return not tracer.innermost().startswith("oracle")


def _directly_in_oracle(tracer: Tracer) -> bool:
    return tracer.innermost() == "oracle"


def _counting(fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result
    return wrapper


class Probe:
    """Counters for every run, plus a :class:`Tracer` when traced."""

    def __init__(self, traced: bool):
        self.counts: Counter = Counter()
        self.tracer = Tracer() if traced else None

    def install(self) -> Patches:
        patches = Patches()
        self._install_counters(patches)
        if self.tracer is not None:
            self._install_spans(patches)
        return patches

    def _span(self, name, fn, when=None, after=None):
        """Wrap ``fn`` in a span.  ``name`` may be a function of the
        arguments, ``when`` a condition on the open spans and ``after``
        a callback on ``(args, result)``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = self.tracer
            if when is not None and not when(tracer):
                return fn(*args, **kwargs)
            index = tracer.begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _install_counters(self, patches: Patches) -> None:
        counts = self.counts

        def no_sync(_fd):
            # The bytes stay in the page cache, as on tmpfs: a sync's
            # latency belongs to the shared disk, not to the program.
            counts["fsyncs"] += 1
        patches.replace(os, "fsync", lambda _fn: no_sync)

        supervisor = _module("repro.fastpath.supervisor")

        def ensure_built(fn):
            @functools.wraps(fn)
            def wrapper():
                existed = os.path.exists(supervisor.so_path())
                path = fn()
                if not existed:
                    counts["native.builds"] += 1
                return path
            return wrapper
        patches.replace(supervisor, "ensure_built", ensure_built)

        def add_cycles(_args, stats):
            counts["reference_cycles"] += stats.cycles
        patches.replace(_module("repro.sim.pipeline"), "simulate_trace",
                        lambda fn: _counting(fn, add_cycles))

    def _install_spans(self, patches: Patches) -> None:
        counts = self.counts

        def wrap(owner, attr, name, when=None, after=None):
            if isinstance(owner, str):
                owner = _module(owner)
            patches.replace(owner, attr,
                            lambda fn: self._span(name, fn, when, after))

        def add(key, measure):
            def after(args, result):
                counts[key] += measure(args, result)
            return after

        stages = "repro.engine.stages"
        for module in (stages, "repro.fuzz.executor"):
            wrap(module, "frontend", "frontend")
            wrap(module, "compile_for_model", "compile")
        wrap(_module("repro.analysis.profile").Profile, "collect",
             "profile")

        wrap(_module("repro.robustness.passgate").PassGate, "run",
             lambda args: "pass." + (args[2] if args[2] in PASS_NAMES
                                     else "other"))
        wrap("repro.toolchain", "verify_program", "verify")
        wrap("repro.toolchain", "schedule_program", "schedule")
        wrap("repro.schedule.list_scheduler", "build_dag",
             "schedule.build_dag")
        for module in ("repro.analysis.liveness",) + LIVENESS_IMPORTERS:
            wrap(module, "liveness", "liveness")

        emulated = add("emulate.events",
                       lambda _args, execution: execution.dynamic_count)
        simulated = add("simulate.events", lambda args, _stats: len(args[0]))
        wrap(stages, "decode_program", "decode")
        wrap("repro.fastpath.native", "run_program_native", "emulate",
             _outside_oracle, emulated)
        for attr in ("run_program_fast", "run_program"):
            wrap(stages, attr, "emulate", _outside_oracle, emulated)
        wrap("repro.fastpath.vector", "simulate_columns_vector",
             "simulate", _outside_oracle, simulated)
        for attr in ("simulate_columns", "simulate_trace"):
            wrap(stages, attr, "simulate", _outside_oracle, simulated)
        wrap(stages, "prepare_sim", "simulate.prep")
        wrap(_module("repro.fastpath.vector").VectorSimPrep, "__init__",
             "simulate.prep", _outside_oracle)

        store_module = _module("repro.engine.store")
        wrap(store_module.ArtifactStore, "get", "store.get",
             after=add("store.get.hits",
                       lambda _args, payload: payload is not None))
        wrap(store_module.ArtifactStore, "put", "store.put")
        wrap(store_module.ArtifactStore, "digest_of", "store.digest")
        patches.replace(store_module, "unpack", lambda fn: _counting(
            fn, add("store.read_bytes", lambda args, _r: len(args[0]))))
        patches.replace(store_module, "pack", lambda fn: _counting(
            fn, add("store.write_bytes", lambda _args, blob: len(blob))))
        wrap(_module("repro.engine.recovery.journal").RunJournal,
             "append", "journal")

        patches.replace(
            _module("repro.experiments.runner"), "execute_jobs",
            lambda fn: _counting(fn, add("scheduler.jobs",
                                         lambda args, _r: len(args[0]))))
        wrap("repro.sweep.runner", "simulate_point", "sweep.point")

        wrap("repro.fuzz.executor", "assert_fastpath_equivalent", "oracle")
        for module, attr, name in (
                ("repro.emu.interpreter", "run_program", "oracle.legacy"),
                ("repro.sim.pipeline", "simulate_trace", "oracle.legacy"),
                ("repro.fastpath.interp", "run_program_fast",
                 "oracle.fastpath"),
                ("repro.fastpath.decode", "decode_program",
                 "oracle.fastpath"),
                ("repro.fastpath.simulate", "prepare_sim",
                 "oracle.fastpath"),
                ("repro.fastpath.simulate", "simulate_columns",
                 "oracle.fastpath"),
                ("repro.fastpath.simulate", "emulate_and_simulate_stream",
                 "oracle.stream"),
                ("repro.fastpath.vector", "emulate_and_simulate_vector",
                 "oracle.vector")):
            wrap(module, attr, name, _directly_in_oracle)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric except the two tracing-overhead
        ones, per pass of the timed loop."""
        inclusive, own, calls = self.tracer.totals()
        counts = self.counts
        per = 1.0 / max(passes, 1)
        values: dict[str, float] = {}
        for name, _unit in LAYER_METRICS:
            if name in _SELF_SPANS:
                values[name] = own[_SELF_SPANS[name]] * per
            elif name.endswith(".calls"):
                values[name] = calls[name[:-len(".calls")]] * per
            elif name.endswith(".s"):
                values[name] = inclusive[name[:-len(".s")]] * per
        gets = calls["store.get"]
        values.update({
            "emulate.events": counts["emulate.events"] * per,
            "simulate.events": counts["simulate.events"] * per,
            "store.hit_ratio": counts["store.get.hits"] / gets
            if gets else 0.0,
            "store.read_mb": counts["store.read_bytes"] / 2**20 * per,
            "store.write_mb": counts["store.write_bytes"] / 2**20 * per,
            "fsyncs": counts["fsyncs"] * per,
            "journal.records": calls["journal"] * per,
            "sweep.points": calls["sweep.point"] * per,
            "sweep.point.s": inclusive["sweep.point"] * per,
            "scheduler.jobs": counts["scheduler.jobs"] * per,
            "fuzz.findings": counts["fuzz.findings"] * per,
            "native.builds": counts["native.builds"],
            "native.demotions": counts["native.demotions"],
        })
        return values
