"""One dependence-edge list per optimized block, latencies per machine.

``build_dag`` finds a block's edges once, with each latency left as a
kind, and resolves the kinds for the machine at hand; the optimized
program memoizes the edge lists, so every machine after the first only
resolves latencies.  These tests pin that a graph built from an edge
list found for another machine equals a fresh build, and on the
machine with latency overrides the brute-force statement of the rules
(``test_dag_rules`` covers the default latencies); and that scheduling
through the memo gives the same program and cycles.
"""

import dataclasses
import functools
from collections import Counter

import pytest

from repro.analysis.liveness import liveness
from repro.analysis.profile import Profile
from repro.experiments.runner import scaled_fig11_machine
from repro.fuzz.generator import generate_case
from repro.ir.printer import format_function
from repro.machine.descriptor import (fig8_machine, fig9_machine,
                                      fig10_machine, scalar_machine)
from repro.schedule import dag
from repro.toolchain import Model, frontend, optimize_for_model, \
    schedule_for_machine
from repro.workloads.base import get_workload
from tests.schedule.test_dag_rules import _SEED, _short_cases, reference_edges

MACHINES = (fig8_machine(), fig9_machine(), fig10_machine(),
            scaled_fig11_machine(), scalar_machine(),
            fig8_machine().with_latencies(
                (("load", 4), ("alu", 2), ("mul", 5))))

#: three paper kernels at scale 0.05, then generated programs by index
PROGRAMS = ["wc", "grep", "compress"] + _short_cases()


@functools.cache
def _optimized(program):
    if isinstance(program, str):
        workload = get_workload(program)
        source, inputs = workload.source, workload.inputs(0.05)
    else:
        case = generate_case(_SEED, program)
        source, inputs = case.source, case.inputs
    base = frontend(source)
    profile = Profile.collect(base, inputs=inputs, max_steps=300_000)
    return [optimize_for_model(base, model, profile) for model in Model]


def _printed(compiled):
    text = [format_function(fn, compiled.schedule.cycles)
            for fn in compiled.program.functions.values()]
    return text + [f"speculated {compiled.schedule.speculated}",
                   sorted(compiled.addresses.items())]


@pytest.mark.parametrize("program", PROGRAMS)
def test_shared_edges_build_the_fresh_graph_on_every_machine(program):
    blocks = 0
    for optimized in _optimized(program):
        for fn in optimized.program.functions.values():
            live = liveness(fn)
            for block in fn.blocks:
                memo = {}
                for machine in MACHINES:
                    fresh = dag.build_dag(fn, block, live, machine)
                    shared = dag.build_dag(fn, block, live, machine, memo)
                    assert shared.succs == fresh.succs, block.name
                    assert shared.preds == fresh.preds, block.name
                    assert shared.latency == fresh.latency, block.name
                    assert shared.heights() == fresh.heights(), block.name
                    if machine.latency_overrides:
                        assert Counter(
                            (i, j, lat) for i, succ in enumerate(shared.succs)
                            for j, lat in succ) == Counter(
                                reference_edges(block, live, machine))
                # The first machine found the edges, the rest reused them.
                assert list(memo) == [(fn.name, block.name)]
                blocks += 1
    assert blocks


@pytest.mark.parametrize("program", PROGRAMS)
def test_memoized_schedules_match_unmemoized_ones(program, monkeypatch):
    found = []
    original = dag.dependence_edges

    def counting(block, live, facts=None):
        found.append(block.name)
        return original(block, live, facts)
    monkeypatch.setattr(dag, "dependence_edges", counting)
    for optimized in _optimized(program):
        optimized.dags.clear()
        nblocks = sum(len(fn.blocks)
                      for fn in optimized.program.functions.values())
        for machine in MACHINES:
            alone = dataclasses.replace(optimized, live={}, dags={})
            expected = _printed(schedule_for_machine(alone, machine))
            found.clear()
            got = schedule_for_machine(optimized, machine)
            assert _printed(got) == expected, (optimized.model, machine)
            # Only the first machine finds edges through the memo.
            assert len(found) == (nblocks if machine is MACHINES[0]
                                  else 0)
        assert len(optimized.dags) == nblocks


@pytest.mark.parametrize("first, then", [
    (fig8_machine(), fig8_machine().with_latencies({"load": 3})),
    (fig8_machine(), fig10_machine())], ids=["latencies", "width"])
def test_one_memo_resolves_each_latency_table_once(first, then):
    """A block's graph is resolved once per latency table: a machine
    with other latencies gets its own graph, one with other widths
    reuses the first machine's.  Either schedules as on a fresh memo."""
    for optimized in _optimized("compress"):
        optimized.dags.clear()
        schedule_for_machine(optimized, first)
        got = schedule_for_machine(optimized, then)
        alone = dataclasses.replace(optimized, live={}, dags={})
        assert _printed(got) == _printed(schedule_for_machine(alone, then))
        tables = {first.latency_overrides, then.latency_overrides}
        for edges in optimized.dags.values():
            assert set(edges.resolved) == tables
            for graph in edges.resolved.values():
                assert graph.height is not None
