"""Pass manager and the standard classic-optimization pipeline."""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from repro.ir.function import Function, Program
from repro.opt.cfg_cleanup import cleanup_cfg
from repro.opt.copyprop import propagate_copies
from repro.opt.cse import eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.fold import fold_constants

#: a pass returns True iff it changed the function
FunctionPass = Callable[[Function], bool]


class PassEntry(NamedTuple):
    """One pass of a pass list."""

    name: str
    run: FunctionPass
    #: the pass iterates to its own fixpoint, so running it again on a
    #: function no pass has changed since would change nothing
    fixpoint: bool = False


#: The classic scalar pipeline run before region formation on all three
#: processor models, and re-run as the post-conversion peephole cleanup
#: for partial predication.
CLASSIC_PASSES: list[PassEntry] = [
    PassEntry("fold", fold_constants),
    PassEntry("copyprop", propagate_copies),
    PassEntry("cse", eliminate_common_subexpressions),
    PassEntry("copyprop2", propagate_copies),
    PassEntry("dce", eliminate_dead_code, fixpoint=True),
    PassEntry("cfg", cleanup_cfg),
]


def run_function_passes(fn: Function,
                        passes: list[PassEntry] | None = None,
                        max_rounds: int = 4) -> bool:
    """Run passes to a fixpoint (bounded); returns True if anything
    changed.

    A ``fixpoint`` pass is skipped while no pass has changed the
    function since it last ran.
    """
    if passes is None:
        passes = CLASSIC_PASSES
    any_change = False
    # Fixpoint passes with nothing left to do until the next change.
    settled: set[str] = set()
    for _ in range(max_rounds):
        round_change = False
        for name, run, fixpoint in passes:
            if name in settled:
                continue
            if run(fn):
                round_change = True
                settled.clear()
            if fixpoint:
                settled.add(name)
        if not round_change:
            break
        any_change = True
    return any_change


def optimize_program(program: Program, max_rounds: int = 4) -> None:
    """Run the classic pipeline over every function."""
    for fn in program.functions.values():
        run_function_passes(fn, max_rounds=max_rounds)
