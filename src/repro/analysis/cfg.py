"""CFG utilities: successor/predecessor maps, orderings, dominators.

All analyses key blocks by label so they stay valid while instruction
lists are edited in place.
"""

from __future__ import annotations

from repro.ir.function import Function


def successors_map(fn: Function) -> dict[str, list[str]]:
    succs: dict[str, list[str]] = {}
    for i, block in enumerate(fn.blocks):
        layout_next = fn.blocks[i + 1].name if i + 1 < len(fn.blocks) \
            else None
        succs[block.name] = block.successor_labels(layout_next)
    return succs


def predecessors_map(fn: Function,
                     succs: dict[str, list[str]] | None = None
                     ) -> dict[str, list[str]]:
    """Predecessor labels of each block; ``succs`` is the function's
    :func:`successors_map`, for a caller that already has it."""
    if succs is None:
        succs = successors_map(fn)
    preds: dict[str, list[str]] = {b.name: [] for b in fn.blocks}
    for name, targets in succs.items():
        for s in targets:
            preds[s].append(name)
    return preds


def reverse_postorder(fn: Function,
                      succs: dict[str, list[str]] | None = None
                      ) -> list[str]:
    """Blocks in reverse postorder from the entry (unreachable excluded)."""
    if succs is None:
        succs = successors_map(fn)
    visited: set[str] = set()
    order: list[str] = []

    def visit(name: str) -> None:
        stack = [(name, iter(succs[name]))]
        visited.add(name)
        while stack:
            label, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, iter(succs[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(label)
                stack.pop()

    visit(fn.entry.name)
    order.reverse()
    return order


def dominators(fn: Function) -> dict[str, set[str]]:
    """Classic iterative dominator sets (small CFGs, clarity over speed)."""
    succs = successors_map(fn)
    preds = predecessors_map(fn, succs)
    order = reverse_postorder(fn, succs)
    all_blocks = set(order)
    entry = fn.entry.name
    dom: dict[str, set[str]] = {name: set(all_blocks) for name in order}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for name in order:
            if name == entry:
                continue
            reachable_preds = [p for p in preds[name] if p in dom]
            if not reachable_preds:
                continue
            new = set(all_blocks)
            for p in reachable_preds:
                new &= dom[p]
            new.add(name)
            if new != dom[name]:
                dom[name] = new
                changed = True
    return dom


def immediate_dominators(fn: Function) -> dict[str, str | None]:
    """Immediate dominator of each reachable block (entry maps to None)."""
    dom = dominators(fn)
    idom: dict[str, str | None] = {}
    for name, doms in dom.items():
        strict = doms - {name}
        idom[name] = None
        # The idom is the closest strict dominator: the one every other
        # strict dominator dominates.
        for cand in strict:
            if all(other in dom[cand] or other == cand
                   for other in strict):
                idom[name] = cand
                break
    return idom


def dominates(dom: dict[str, set[str]], a: str, b: str) -> bool:
    """True if block ``a`` dominates block ``b``."""
    return a in dom.get(b, set())
