"""Execution profiles for profile-driven region formation.

The superblock and hyperblock formation algorithms are both driven by the
measured run of the program (paper Sections 3.1 and 4.1): block execution
frequencies select seeds, and branch probabilities steer trace growth and
block selection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.emu.trace import ExecutionResult
from repro.ir.function import Function, Program
from repro.ir.opcodes import OpCategory, Opcode


@dataclass
class Profile:
    """Block-entry counts and branch outcome counts from a training run."""

    block_counts: dict[tuple[str, str], int]
    #: uid -> [not_taken, taken]
    branch_outcomes: dict[int, list[int]]

    @classmethod
    def from_execution(cls, result: ExecutionResult) -> "Profile":
        return cls(block_counts=dict(result.block_counts),
                   branch_outcomes={k: list(v) for k, v
                                    in result.branch_outcomes.items()})

    @classmethod
    def collect(cls, program: Program,
                inputs: dict[str, list[int | float] | bytes] | None = None,
                max_steps: int = 50_000_000,
                native: bool = False) -> "Profile":
        """Run the program on training inputs and gather a profile.

        The run keeps no trace.  ``native=True`` runs it on the native
        emulator kernel, which falls back to the interpreter by itself
        (no kernel, or a failed load); the default
        runs the vector engine's Python interpreter.  Both give the
        legacy loop's block and branch profiles bit for bit.  The
        kernel's own canary profiles on the interpreter, so the check
        of the kernel never depends on it.
        """
        if native:
            from repro.fastpath.native import run_program_native as run
        else:
            from repro.fastpath.interp import run_program_fast as run
        return cls.from_execution(run(program, inputs=inputs,
                                      max_steps=max_steps))

    # ----- queries ----------------------------------------------------------

    def block_count(self, fn: str, label: str) -> int:
        return self.block_counts.get((fn, label), 0)

    def taken_probability(self, uid: int) -> float:
        """P(taken) for a conditional branch; 0.5 when never executed."""
        counts = self.branch_outcomes.get(uid)
        if not counts or (counts[0] + counts[1]) == 0:
            return 0.5
        return counts[1] / (counts[0] + counts[1])

    def taken_count(self, uid: int) -> int:
        counts = self.branch_outcomes.get(uid)
        return counts[1] if counts else 0

    def edge_counts(self, fn: Function) -> dict[tuple[str, str], int]:
        """Approximate CFG edge execution counts for one function.

        Walks each block's control instructions in order, splitting the
        block's entry count between taken targets and the fall-through
        according to recorded branch outcomes.
        """
        edges: dict[tuple[str, str], int] = {}
        for i, block in enumerate(fn.blocks):
            remaining = self.block_count(fn.name, block.name)
            layout_next = fn.blocks[i + 1].name \
                if i + 1 < len(fn.blocks) else None
            terminated = False
            for inst in block.instructions:
                if inst.cat is OpCategory.BRANCH:
                    taken = self.taken_count(inst.uid)
                    taken = min(taken, remaining)
                    edges[(block.name, inst.target)] = \
                        edges.get((block.name, inst.target), 0) + taken
                    remaining -= taken
                elif inst.op is Opcode.JUMP and inst.pred is None:
                    edges[(block.name, inst.target)] = \
                        edges.get((block.name, inst.target), 0) + remaining
                    remaining = 0
                    terminated = True
                    break
                elif inst.op is Opcode.RET and inst.pred is None:
                    remaining = 0
                    terminated = True
                    break
            if not terminated and layout_next is not None and remaining > 0:
                edges[(block.name, layout_next)] = \
                    edges.get((block.name, layout_next), 0) + remaining
        return edges
