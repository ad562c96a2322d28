"""Natural loop detection via dominator-based back edges."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import dominators, predecessors_map, successors_map
from repro.ir.function import Function


@dataclass
class Loop:
    """A natural loop: header plus body block labels (header included)."""

    header: str
    body: set[str] = field(default_factory=set)
    #: headers of loops strictly nested inside this one
    children: list["Loop"] = field(default_factory=list)

    @property
    def is_innermost(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        return f"<loop {self.header}: {len(self.body)} blocks>"


def find_loops(fn: Function) -> list[Loop]:
    """All natural loops, merged per header, with nesting links."""
    succs = successors_map(fn)
    preds = predecessors_map(fn, succs)
    dom = dominators(fn)
    loops: dict[str, Loop] = {}
    for block, targets in succs.items():
        if block not in dom:
            continue  # unreachable
        for target in targets:
            if target in dom.get(block, set()):
                # back edge block -> target
                loop = loops.setdefault(target, Loop(target, {target}))
                _collect_body(block, target, preds, loop.body)
    result = list(loops.values())
    # Establish nesting: loop A is a child of B if A's header is inside
    # B's body (and A != B); attach to the smallest enclosing loop.
    for inner in result:
        enclosing = [outer for outer in result
                     if outer is not inner and inner.header in outer.body]
        if enclosing:
            smallest = min(enclosing, key=lambda l: len(l.body))
            smallest.children.append(inner)
    return result


def _collect_body(tail: str, header: str,
                  preds: dict[str, list[str]], body: set[str]) -> None:
    """Add every block that can reach ``tail`` without passing ``header``."""
    stack = [tail]
    while stack:
        block = stack.pop()
        if block in body:
            continue
        body.add(block)
        if block != header:
            stack.extend(preds[block])


def innermost_loops(fn: Function) -> list[Loop]:
    return [l for l in find_loops(fn) if l.is_innermost]
