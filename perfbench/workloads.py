"""The benchmark's four workloads.

Each workload has two halves.  ``prepare`` runs in a fresh set-up
process (``prepare.py``) and returns JSON-able facts for the measuring
process; whatever it builds on disk (a warm store) stays in its
directory.  In the measuring process (``run.py``) a workload is a fixed
list of ``items`` - kernels, programs, or one re-render - and one pass
runs each item once.  ``run`` is one item's timed work.  ``check`` runs
right after it, outside the timed region, and returns what the item's
outputs were; ``finish`` runs once after the loop, after peak memory
has been read.  Every call goes through the repository's public API,
from a single process, with ``jobs=1``.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.render import render_all
from repro.experiments.runner import ExperimentSuite, scaled_fig11_machine
from repro.fuzz.executor import run_case
from repro.fuzz.generator import generate_case
from repro.machine.descriptor import (fig8_machine, fig9_machine,
                                      fig10_machine, scalar_machine)
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec
from repro.toolchain import Model
from repro.workloads.base import get_workload

#: random-programs takes only programs of at most this many characters
#: of source (see ``RandomPrograms.prepare``)
PROGRAM_MAX_CHARS = 600


@dataclass(frozen=True)
class Size:
    """How much work one pass does; ``FULL`` is the benchmark, ``TINY``
    the self-test."""

    name: str
    #: scale of the figure and sweep workloads
    scale: float
    #: kernels of the figure workloads and of the cache sweep
    figure_kernels: tuple[str, ...]
    sweep_kernels: tuple[str, ...]
    #: cache-sweep lattice: I-cache x D-cache sizes in bytes
    icache_bytes: tuple[int, ...]
    dcache_bytes: tuple[int, ...]
    #: random-programs: characters of source one pass's programs add up to
    program_budget: int


FULL = Size(name="full", scale=1.0,
            figure_kernels=("espresso", "compress", "grep", "li"),
            sweep_kernels=("alvinn", "eqntott", "yacc", "cmp"),
            icache_bytes=(256, 512, 1024, 2048),
            dcache_bytes=(512, 1024, 2048, 4096),
            program_budget=40_000)
TINY = Size(name="tiny", scale=0.1, figure_kernels=("wc", "cmp"),
            sweep_kernels=("cmp",), icache_bytes=(256, 1024),
            dcache_bytes=(512,), program_budget=1500)
SIZES = {s.name: s for s in (FULL, TINY)}

#: the machines of Figures 8-11 (every model) and the 1-issue baseline
#: (superblock only): the triples ``render_all`` reads
FIGURE_MACHINES = (fig8_machine, fig9_machine, fig10_machine,
                   scaled_fig11_machine)
TRIPLES_PER_KERNEL = len(FIGURE_MACHINES) * len(Model) + 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def figure_suite(size: Size, store: Path, kernels=None) -> ExperimentSuite:
    names = size.figure_kernels if kernels is None else kernels
    return ExperimentSuite(workloads=[get_workload(n) for n in names],
                           scale=size.scale, engine="vector", jobs=1,
                           cache_dir=str(store))


def render(suite: ExperimentSuite) -> str:
    try:
        text = render_all(suite)
    except BaseException:
        suite.close_journal(ok=False)
        raise
    suite.close_journal()
    return text


def figure_cycles(suite: ExperimentSuite) -> int:
    """Simulated cycles summed over every triple the figures read
    (served from the suite's memo: no new work)."""
    total = 0
    for kernel in suite.workloads:
        for machine in FIGURE_MACHINES:
            for model in Model:
                total += suite.run(kernel.name, model, machine()).cycles
        total += suite.run(kernel.name, Model.SUPERBLOCK,
                           scalar_machine()).cycles
    return total


def figures_valid(suite: ExperimentSuite) -> bool:
    """All three models agree on every kernel, on the Fig. 8 machine."""
    return all(suite.validate_models(fig8_machine()).values())


class Workload:
    name = ""

    @staticmethod
    def setup_repeats(size: Size) -> int:
        """Set-up processes per run; ``setup_s`` is their median."""
        return 1 if size is TINY else 3

    @staticmethod
    def prepare(size: Size, seed: int, directory: Path) -> dict:
        return {}

    def __init__(self, size: Size, seed: int, work: Path, prepared: dict):
        self.size = size
        self.seed = seed
        self.work = work
        self.prepared = prepared
        self.passes = 0
        #: text to print after the run
        self.notes: list[str] = []
        self.items: list = []

    def operations(self, item) -> int:
        """Operations one item attempts."""
        raise NotImplementedError

    def run(self, item):
        """One item's timed work; returns its outputs."""
        raise NotImplementedError

    def check(self, item, outputs, probe) -> tuple[str, int, int]:
        """Outside the timed region, right after ``run``: the item's
        output text (digested across the pass), its simulated cycles
        and its failed operations."""
        raise NotImplementedError

    def finish(self) -> bool:
        """Outside the timed region, after the loop; True when the
        outputs check out."""
        return True


class FiguresCold(Workload):
    """The figures and tables from an empty store, one kernel per item."""

    name = "figures-cold"

    def __init__(self, size, seed, work, prepared):
        super().__init__(size, seed, work, prepared)
        self.items = list(size.figure_kernels)
        self.valid = True

    def operations(self, item):
        return TRIPLES_PER_KERNEL

    def run(self, item):
        store = self.work / f"cold-{item}-{self.passes}"
        suite = figure_suite(self.size, store, (item,))
        return suite, store, render(suite)

    def check(self, item, outputs, probe):
        suite, store, text = outputs
        if self.passes == 0:
            # The emulations are in the suite's memo, so this replays
            # no work but the comparison itself.
            self.valid = figures_valid(suite) and self.valid
        cycles = figure_cycles(suite)
        shutil.rmtree(store, ignore_errors=True)
        return text, cycles, 0

    def finish(self):
        return self.valid


class FiguresWarm(Workload):
    """The same figures re-rendered from a store built in set-up."""

    name = "figures-warm"

    @staticmethod
    def prepare(size, seed, directory):
        store = directory / "warm-store"
        render(figure_suite(size, store))
        return {"store": str(store)}

    def __init__(self, size, seed, work, prepared):
        super().__init__(size, seed, work, prepared)
        self.items = ["all"]

    def operations(self, item):
        return TRIPLES_PER_KERNEL * len(self.size.figure_kernels)

    def run(self, item):
        suite = figure_suite(self.size, Path(self.prepared["store"]))
        return suite, render(suite)

    def check(self, item, outputs, probe):
        suite, text = outputs
        return text, figure_cycles(suite), 0

    def finish(self):
        # Loads the stored traces, so it runs after peak RSS was read.
        suite = figure_suite(self.size, Path(self.prepared["store"]))
        valid = figures_valid(suite)
        suite.close_journal()
        return valid


class CacheSweep(Workload):
    """A sweep over I-cache x D-cache sizes on the Fig. 11 machine, one
    kernel per item, each from an empty store."""

    name = "cache-sweep"

    def __init__(self, size, seed, work, prepared):
        super().__init__(size, seed, work, prepared)
        self.items = list(size.sweep_kernels)

    def operations(self, item):
        return len(self.size.icache_bytes) * len(self.size.dcache_bytes)

    def run(self, item):
        store = self.work / f"sweep-{item}-{self.passes}"
        spec = SweepSpec(name="cache-geometry", scale=self.size.scale,
                         workloads=(item,), issue_widths=(8,),
                         branch_limits=(1,), caches=("real",),
                         icache_bytes=self.size.icache_bytes,
                         dcache_bytes=self.size.dcache_bytes,
                         miss_penalties=(12,))
        return run_sweep(spec, cache_dir=str(store), jobs=1,
                         engine="vector").result, store

    def check(self, item, outputs, probe):
        result, store = outputs
        shutil.rmtree(store, ignore_errors=True)
        cycles = sum(result.baseline_cycles.values()) \
            + sum(cell["cycles"] for point in result.points
                  for row in point["workloads"].values()
                  for cell in row.values())
        return result.to_json(), cycles, 0


class RandomPrograms(Workload):
    """Generated programs through the fuzz executor, one per item."""

    name = "random-programs"

    @staticmethod
    def prepare(size, seed, directory):
        """Pick the programs from ``generate_case(seed, i)``, i = 0, 1, ...

        Per-program cost varies tenfold, so a fixed count of programs
        would cost very different amounts at different seeds.  Instead
        a pass takes every program of at most ``PROGRAM_MAX_CHARS``
        characters of source, in order, until their sources add up to
        ``size.program_budget`` characters.  Compile, the bulk of the
        work, follows source size, so a pass costs about the same at
        every seed.  Only source length decides; how a program runs
        does not."""
        chosen: list[int] = []
        chars = 0
        index = -1
        while chars < size.program_budget:
            index += 1
            length = len(generate_case(seed, index).source)
            if length <= PROGRAM_MAX_CHARS:
                chosen.append(index)
                chars += length
        return {"programs": chosen, "chars": chars,
                "candidates": index + 1}

    def __init__(self, size, seed, work, prepared):
        super().__init__(size, seed, work, prepared)
        self.items = [generate_case(seed, index)
                      for index in prepared["programs"]]
        self.counted = 0
        self.notes.append(
            f"programs: {len(self.items)} of the first "
            f"{prepared['candidates']} generated, {prepared['chars']} "
            f"characters; the others are longer than {PROGRAM_MAX_CHARS}")

    def operations(self, item):
        return 1

    def run(self, item):
        return run_case(item)

    def check(self, item, report, probe):
        # The reference simulator's cycles, counted by the probe.
        total = probe.counts["reference_cycles"]
        cycles, self.counted = total - self.counted, total
        if not report.is_finding:
            return "ok", cycles, 0
        probe.counts["fuzz.findings"] += 1
        note = f"finding {report.case_id}: {report.message[:160]}"
        if note not in self.notes:
            self.notes.append(note)
        return f"finding {report.case_id}", cycles, 1


WORKLOADS = {w.name: w for w in (FiguresCold, FiguresWarm, CacheSweep,
                                 RandomPrograms)}
