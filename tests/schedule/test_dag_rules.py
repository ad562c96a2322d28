"""Dependence rules: ``build_dag`` against a brute-force statement of them.

``build_dag`` finds WAR predecessors through per-register reader lists
and shares one latency vector and one set of per-instruction facts.
The reference below states every rule the direct way — each write
rescans every earlier instruction for readers, every edge asks the
machine for its latency — and both must give the same multiset of
``(i, j, latency)`` edges (and the same heights) on every block of
real compiled code: superblocks, hyperblocks, cmov code and generated
programs no pass was tuned on.
"""

from collections import Counter

import pytest

from repro.analysis.liveness import liveness
from repro.analysis.profile import Profile
from repro.fuzz.generator import generate_case
from repro.ir.instruction import PType
from repro.ir.opcodes import OpCategory, Opcode
from repro.ir.operands import GlobalAddr, PReg
from repro.machine.descriptor import fig8_machine
from repro.schedule.dag import build_dag
from repro.toolchain import Model, compile_for_model, frontend
from repro.workloads.base import get_workload

_FAMILIES = (frozenset({PType.OR, PType.OR_BAR}),
             frozenset({PType.AND, PType.AND_BAR}))


def _family(inst, reg):
    for pd in inst.pdests:
        if pd.reg == reg:
            return next((f for f in _FAMILIES if pd.ptype in f), None)
    return None


def _unordered(a, b, reg):
    """Parallel predicate defines of one family, or complementary
    cmovs (same dest and condition), need no order."""
    fam = _family(a, reg)
    if fam is not None and fam is _family(b, reg):
        return True
    return ({a.op, b.op} in ({Opcode.CMOV, Opcode.CMOV_COM},
                             {Opcode.FCMOV, Opcode.FCMOV_COM})
            and a.dest == b.dest and a.srcs[1] == b.srcs[1])


def _reaching(insts, j, reg):
    """Writes of ``reg`` before ``j`` that ``j`` may observe: the last
    definite one and every conditional or accumulating one after it."""
    last, pending = None, []
    for i in range(j):
        for d in insts[i].defined_regs():
            if d != reg:
                continue
            if insts[i].is_conditional_write or _family(insts[i], d):
                pending.append(i)
            else:
                last, pending = i, []
    return ([last] if last is not None else []) + pending


def _mem_key(inst):
    if inst.mem_hint is not None:
        return inst.mem_hint
    base = inst.srcs[0] if inst.srcs else None
    return base.name if isinstance(base, GlobalAddr) else "*"


def reference_edges(block, live, machine):
    insts = block.instructions
    edges = []

    def edge(i, j, lat):
        if i != j:
            edges.append((i, j, lat))

    for j, inst in enumerate(insts):
        for r in inst.used_regs():                                # RAW
            for i in _reaching(insts, j, r):
                if not _unordered(insts[i], inst, r):
                    edge(i, j, machine.latency(insts[i].op))
        for r in inst.defined_regs():                             # WAR
            reaching = _reaching(insts, j, r)
            for i in range(j):
                if r in insts[i].used_regs() and i not in reaching \
                        and not _unordered(insts[i], inst, r):
                    edge(i, j, 0)
        for r in inst.defined_regs():                             # WAW
            for i in _reaching(insts, j, r):
                if _unordered(insts[i], inst, r):
                    continue
                slow = machine.latency(insts[i].op) > 1
                edge(i, j, 1 if isinstance(r, PReg) or slow else 0)

    # pred_clear / pred_set order against every predicate toucher.
    touchers, last_set = [], None
    for j, inst in enumerate(insts):
        if inst.cat is OpCategory.PREDSET:
            for i in touchers + ([last_set] if last_set is not None else []):
                edge(i, j, 0)
            touchers, last_set = [], j
        elif inst.pdests or any(isinstance(r, PReg)
                                for r in inst.used_regs()):
            if last_set is not None:
                edge(last_set, j, 1)
            touchers.append(j)

    # Memory: per-global disambiguation, "*" may touch anything, calls
    # are opaque stores, and writes keep program order.
    last_store, loads, last_write = {}, {}, None
    for j, inst in enumerate(insts):
        cat = inst.cat
        if cat not in (OpCategory.LOAD, OpCategory.STORE, OpCategory.CALL):
            continue
        key = "*" if cat is OpCategory.CALL else _mem_key(inst)
        stores = (list(last_store.values()) if key == "*" else
                  [last_store[k] for k in (key, "*") if k in last_store])
        if cat is OpCategory.LOAD:
            for i in stores:
                edge(i, j, machine.latency(insts[i].op))
            loads.setdefault(key, []).append(j)
            continue
        for i in stores:
            edge(i, j, 1)
        for i in ([i for lst in loads.values() for i in lst] if key == "*"
                  else loads.get(key, []) + loads.get("*", [])):
            edge(i, j, 0)
        if last_write is not None:
            edge(last_write, j, 0)
        last_write = j
        if key == "*":
            last_store.clear()
            loads.clear()
        else:
            loads.pop(key, None)
        last_store[key] = j

    # Control: branches keep their order; others stay put unless pure
    # with every destination dead at the branch target.
    for b, binst in enumerate(insts):
        if not binst.is_control:
            continue
        if binst.cat is OpCategory.CALL:
            live_target = None
        elif binst.cat is OpCategory.RET:
            live_target = frozenset(binst.used_regs())
        else:
            live_target = live.live_in.get(binst.target or "", frozenset())
        for j, other in enumerate(insts):
            if j == b or (other.is_control and j < b):
                continue
            movable = (not other.is_control and live_target is not None
                       and other.is_pure
                       and not set(other.defined_regs()) & live_target)
            if not movable:
                edge(*((j, b) if j < b else (b, j)), 0)
    return edges


def reference_heights(insts, edges, machine):
    height = [machine.latency(inst.op) for inst in insts]
    for i, j, lat in sorted(edges, key=lambda e: -e[0]):
        height[i] = max(height[i], lat + height[j])
    return height


def _compiled(source, inputs):
    base = frontend(source)
    profile = Profile.collect(base, inputs=inputs, max_steps=300_000)
    return [compile_for_model(base, model, profile, fig8_machine())
            for model in Model]


def _short_cases(count: int = 20, limit: int = 1200) -> list[int]:
    """Indices of the first ``count`` generated programs of at most
    ``limit`` characters: varied code at a tier-1 price."""
    found, index = [], 0
    while len(found) < count:
        if len(generate_case(_SEED, index).source) <= limit:
            found.append(index)
        index += 1
    return found


_SEED = 0xda6
#: two paper kernels at scale 0.05, then generated programs by index
PROGRAMS = ["wc", "grep"] + _short_cases()


@pytest.mark.parametrize("program", PROGRAMS)
def test_build_dag_matches_brute_force_rules(program):
    if isinstance(program, str):
        workload = get_workload(program)
        source, inputs = workload.source, workload.inputs(0.05)
    else:
        case = generate_case(_SEED, program)
        source, inputs = case.source, case.inputs
    machine = fig8_machine()
    blocks = 0
    for compiled in _compiled(source, inputs):
        for fn in compiled.program.functions.values():
            live = liveness(fn)
            for block in fn.blocks:
                graph = build_dag(fn, block, live, machine)
                got = Counter((i, j, lat) for i, succ in enumerate(graph.succs)
                              for j, lat in succ)
                expected = reference_edges(block, live, machine)
                assert got == Counter(expected), (program, block.name)
                assert graph.heights() == reference_heights(
                    block.instructions, expected, machine)
                blocks += 1
    assert blocks
