"""Dependence DAG construction for block scheduling.

The DAG encodes sequential semantics: the scheduled order must be a
topological order, and the emulator executes the scheduled order
sequentially, so *every* ordering requirement is an edge (latency-0
edges permit same-cycle issue while preserving emission order).

Predicate-aware special cases (paper Sections 2.1/4.2):

* OR-type (and AND-type) predicate defines targeting the same predicate
  register are order-independent (wired-OR): no output or RMW edges
  between them, so they may issue simultaneously;
* a guarded instruction depends on its predicate define with the
  define's full latency (suppression happens at decode/issue, so the
  predicate must be available one cycle ahead);
* pure instructions whose destinations are dead at an exit branch's
  target may cross that branch (speculation); may-except instructions
  that do so must later be marked silent.

Calls and returns are full barriers.

The edges depend on the machine only through result latencies, so
:func:`dependence_edges` finds them once per block with each latency
left as a kind, and :func:`build_dag` resolves the kinds for one
machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.liveness import Liveness
from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import (InstFacts, Instruction, PType,
                                  instruction_facts)
from repro.ir.opcodes import OpCategory, Opcode
from repro.ir.operands import GlobalAddr, PReg
from repro.machine.descriptor import MachineDescription

_PARALLEL_SET = frozenset({PType.OR, PType.OR_BAR})
_PARALLEL_CLEAR = frozenset({PType.AND, PType.AND_BAR})
# Categories read once: an enum member read through its class is slow.
_CALL = OpCategory.CALL
_CMOV = OpCategory.CMOV
_LOAD = OpCategory.LOAD
_RET = OpCategory.RET
_STORE = OpCategory.STORE


@dataclass
class DepGraph:
    """Nodes are instruction indices; ``succs[i]`` holds (j, latency).

    ``latency[i]`` is instruction ``i``'s result latency on the machine
    the graph was built for.  Only ``insts`` belongs to one block
    object: the other lists may be shared by the graphs of every clone
    of the block on one latency table, and are read-only.
    """

    insts: list[Instruction]
    succs: list[list[tuple[int, int]]] = field(default_factory=list)
    preds: list[list[tuple[int, int]]] = field(default_factory=list)
    latency: list[int] = field(default_factory=list)
    #: :meth:`heights`, once computed
    height: list[int] | None = field(default=None, repr=False)

    def heights(self) -> list[int]:
        """Longest-path-to-sink priority for list scheduling."""
        if self.height is not None:
            return self.height
        n = len(self.insts)
        height = [0] * n
        for i in range(n - 1, -1, -1):
            best = self.latency[i]
            for j, lat in self.succs[i]:
                best = max(best, lat + height[j])
            height[i] = best
        self.height = height
        return height


def _parallel_family(inst: Instruction, reg) -> frozenset | None:
    """Ptype family of inst's define of ``reg`` if order-independent."""
    for pd in inst.pdests:
        if pd.reg == reg:
            if pd.ptype in _PARALLEL_SET:
                return _PARALLEL_SET
            if pd.ptype in _PARALLEL_CLEAR:
                return _PARALLEL_CLEAR
            return None
    return None


_COMPLEMENTARY_PAIRS = ({Opcode.CMOV, Opcode.CMOV_COM},
                        {Opcode.FCMOV, Opcode.FCMOV_COM})


def _complementary_cmovs(a: Instruction, b: Instruction) -> bool:
    """cmov/cmov_com on the same dest and condition may issue together
    (paper Section 2.2: at most one of them modifies the register)."""
    if {a.op, b.op} not in _COMPLEMENTARY_PAIRS:
        return False
    return a.dest == b.dest and a.srcs[1] == b.srcs[1]


def _unordered(a: Instruction, b: Instruction, reg) -> bool:
    """May ``a`` and the later ``b``, both touching ``reg``, stay
    unordered?  Only parallel predicate defines of one family and
    complementary cmovs may."""
    family = _parallel_family(b, reg)
    if family is not None and _parallel_family(a, reg) is family:
        return True
    return _complementary_cmovs(a, b)


def _mem_key(inst: Instruction) -> str:
    """The global object a memory access touches, "*" if unknown."""
    if inst.mem_hint is not None:
        return inst.mem_hint
    base = inst.srcs[0] if inst.srcs else None
    if isinstance(base, GlobalAddr):
        return base.name
    return "*"


#: Edge kinds of a :class:`DagEdges` entry besides the constant
#: latencies 0 and 1: the producer's result latency, and the register
#: WAW rule (1 if the producer's latency exceeds 1, else 0).
LATENCY = 2
WAW = 3


@dataclass
class DagEdges:
    """A block's dependence edges before any machine is chosen.

    ``succs[i]`` holds ``(j, kind)`` and ``preds[j]`` ``(i, kind)``, in
    the order the edges were found; ``kind`` is 0, 1, :data:`LATENCY`
    or :data:`WAW`.  The DAG reads the machine only through the result
    latencies, so one edge list serves every machine a block is
    scheduled for, and ``resolved`` holds the block's graph once per
    latency table, keyed by the machine's ``latency_overrides``.
    """

    succs: list[list[tuple[int, int]]]
    preds: list[list[tuple[int, int]]]
    resolved: dict[tuple, DepGraph] = field(default_factory=dict)


def build_dag(fn: Function, block: BasicBlock, live: Liveness,
              machine: MachineDescription,
              memo: dict[tuple[str, str], DagEdges] | None = None,
              facts: list[InstFacts] | None = None) -> DepGraph:
    """The dependence DAG of ``block`` on ``machine``.

    ``memo``, when given, holds edge lists by (function, block) name: a
    missing entry is found and added, so the blocks of clones of one
    unscheduled program share one edge list across machines.  Each
    entry also keeps the graph resolved for every latency table it was
    asked for (heights included), so machines that differ only in
    issue width or branch slots resolve a block once.  ``facts`` are
    the block's :func:`instruction_facts`, read only when the edges
    are found here.
    """
    edges = None
    if memo is not None:
        key = (fn.name, block.name)
        edges = memo.get(key)
    if edges is None:
        edges = dependence_edges(block, live, facts)
        if memo is not None:
            memo[key] = edges
    insts = block.instructions
    resolved = edges.resolved.get(machine.latency_overrides)
    if resolved is not None:
        return DepGraph(insts, resolved.succs, resolved.preds,
                        resolved.latency, resolved.heights())
    table = machine.latency_table
    latency = [table[inst.op] for inst in insts]
    # Each node's edge latency by kind: 0, 1, LATENCY, WAW.
    rows = [(0, 1, lat, 1 if lat > 1 else 0) for lat in latency]
    succs = [[(j, row[kind]) for j, kind in out]
             for row, out in zip(rows, edges.succs)]
    preds = [[(i, rows[i][kind]) for i, kind in into]
             for into in edges.preds]
    graph = DepGraph(insts, succs, preds, latency)
    if memo is not None:
        edges.resolved[machine.latency_overrides] = graph
    return graph


def dependence_edges(block: BasicBlock, live: Liveness,
                     facts: list[InstFacts] | None = None) -> DagEdges:
    """Every ordering requirement of ``block``, with latencies by kind.

    ``facts`` are the block's :func:`instruction_facts`, computed here
    when None.
    """
    insts = block.instructions
    n = len(insts)
    if facts is None:
        facts = instruction_facts(insts)
    edges = DagEdges([[] for _ in range(n)], [[] for _ in range(n)])
    succs, preds = edges.succs, edges.preds

    def add_edge(i: int, j: int, kind: int) -> None:
        if i == j:
            return
        succs[i].append((j, kind))
        preds[j].append((i, kind))

    # Register dependences.  The definitions reaching a register are
    # its last definite one, then its pending conditional ones in
    # order; ``readers`` lists, per register, the earlier instructions
    # reading it in ascending order, so a write finds its WAR
    # predecessors without rescanning the block.  Every record holds
    # only earlier instructions until the WAW step below updates it, so
    # only a WAW edge can meet ``j`` itself (a repeated destination).
    last_definite: dict = {}
    pending: dict = {}  # reg -> list of conditional def indices
    readers: dict = {}

    for j, inst in enumerate(insts):
        f = facts[j]
        defs, uses = f.defs, f.uses
        into = preds[j]
        # Only predicate defines and cmovs are ever unordered with an
        # instruction touching the same register.
        may_pair = bool(inst.pdests) or inst.op.category is _CMOV
        # RAW (including guard predicates and cmov implicit dest reads).
        for r in uses:
            i = last_definite.get(r)
            if i is not None and not (
                    may_pair and _unordered(insts[i], inst, r)):
                succs[i].append((j, LATENCY))
                into.append((i, LATENCY))
            for i in pending.get(r, ()):
                if not (may_pair and _unordered(insts[i], inst, r)):
                    succs[i].append((j, LATENCY))
                    into.append((i, LATENCY))
        # WAR: writers wait for earlier readers (latency 0 keeps order).
        for r in defs:
            listed = readers.get(r)
            if not listed:
                continue
            definite = last_definite.get(r)
            conditional = pending.get(r, ())
            for i in listed:
                if i == definite or i in conditional \
                        or may_pair and _unordered(insts[i], inst, r):
                    continue
                succs[i].append((j, 0))
                into.append((i, 0))
        # WAW.
        for r in defs:
            # Predicate WAW must keep a cycle between writes (U-type
            # defines "may not issue simultaneously"); register WAW
            # only needs ordering unless the producer is slow.
            kind = 1 if type(r) is PReg else WAW
            i = last_definite.get(r)
            if i is not None and i != j and not (
                    may_pair and _unordered(insts[i], inst, r)):
                succs[i].append((j, kind))
                into.append((i, kind))
            conditional = pending.get(r)
            if conditional is not None:
                for i in conditional:
                    if i != j and not (
                            may_pair and _unordered(insts[i], inst, r)):
                        succs[i].append((j, kind))
                        into.append((i, kind))
            # Update def records.  Parallel-type (OR/AND) predicate
            # destinations accumulate rather than overwrite, so they are
            # pending defs like guarded writes — a later reader depends
            # on *all* of them, not just the latest.
            if f.cond_write or _parallel_family(inst, r) is not None:
                if conditional is None:
                    pending[r] = [j]
                else:
                    conditional.append(j)
            else:
                last_definite[r] = j
                if conditional is not None:
                    del pending[r]
        for r in uses:
            listed = readers.get(r)
            if listed is None:
                readers[r] = [j]
            elif listed[-1] != j:
                listed.append(j)

    # pred_clear / pred_set rewrite the entire predicate file: order them
    # against every instruction touching any predicate register.
    # Most blocks hold neither.
    if any(f.predset for f in facts):
        touchers: list[int] = []
        last_predset: int | None = None
        for j, f in enumerate(facts):
            if f.predset:
                for i in touchers:
                    add_edge(i, j, 0)
                if last_predset is not None:
                    add_edge(last_predset, j, 0)
                last_predset = j
                touchers = []
            elif insts[j].pdests or any(isinstance(r, PReg)
                                        for r in f.uses):
                # The guard is among the uses.
                if last_predset is not None:
                    add_edge(last_predset, j, 1)
                touchers.append(j)

    # Memory dependences with symbolic disambiguation: accesses through
    # distinct global objects cannot alias (globals do not overlap);
    # anything with a register base address is treated as "may touch
    # anything" ("*").  Calls behave as opaque stores.
    last_store_at: dict[str, int] = {}
    loads_since: dict[str, list[int]] = {}
    last_mem_write: int | None = None

    def conflicting_stores(key: str) -> list[int]:
        if key == "*":
            return list(last_store_at.values())
        found = []
        if key in last_store_at:
            found.append(last_store_at[key])
        if "*" in last_store_at:
            found.append(last_store_at["*"])
        return found

    def conflicting_loads(key: str) -> list[int]:
        if key == "*":
            return [i for lst in loads_since.values() for i in lst]
        return loads_since.get(key, []) + loads_since.get("*", [])

    for j, inst in enumerate(insts):
        cat = inst.op.category
        if cat is _LOAD:
            key = _mem_key(inst)
            for i in conflicting_stores(key):
                add_edge(i, j, LATENCY)
            loads_since.setdefault(key, []).append(j)
        elif cat is _STORE or cat is _CALL:
            key = "*" if cat is _CALL else _mem_key(inst)
            for i in conflicting_stores(key):
                add_edge(i, j, 1)
            for i in conflicting_loads(key):
                add_edge(i, j, 0)
            # The dynamic store stream is an architectural observable
            # (the differential oracle compares it across models), so
            # writes keep program order even when disambiguation proves
            # them independent.  Latency 0 lets ready stores share a
            # cycle, but a cheap store can no longer hoist above a
            # slower one's operand chain.
            if last_mem_write is not None:
                add_edge(last_mem_write, j, 0)
            last_mem_write = j
            if key == "*":
                last_store_at.clear()
                loads_since.clear()
            else:
                # Keep "*" loads listed: they must also order before any
                # *later* store to a different global, which has no
                # transitive path through this one.
                loads_since.pop(key, None)
            last_store_at[key] = j

    # Control dependences: control transfers keep their order; anything
    # else stays on its side of a branch unless it is pure and its
    # destinations are dead at the branch's target (speculation).
    control = [inst.op.control for inst in insts]
    for b, binst in enumerate(insts):
        if not control[b]:
            continue
        cat = binst.op.category
        if cat is _CALL:
            live_target = None  # a full barrier
        elif cat is _RET:
            # A return's "target" needs only the returned value: other
            # pure instructions may move across it like any exit branch.
            live_target = frozenset(facts[b].uses)
        else:
            live_target = live.live_in.get(binst.target or "", frozenset())
        if live_target is None:
            pinned = [True] * n
        else:
            pinned = [not (f.pure and live_target.isdisjoint(f.defs))
                      for f in facts]
        out, into = succs[b], preds[b]
        for j in range(b):
            if pinned[j] and not control[j]:
                succs[j].append((b, 0))
                into.append((j, 0))
        for j in range(b + 1, n):
            if pinned[j] or control[j]:
                out.append((j, 0))
                preds[j].append((b, 0))
    return edges
