"""Shared fuzz-test helpers: a fast executor config and a synthetic
miscompile injector."""

from __future__ import annotations

import pytest

from repro.fuzz.executor import ExecutorConfig
from repro.ir.opcodes import OpCategory
from repro.ir.operands import Imm
from repro.toolchain import Model, compile_for_model


@pytest.fixture
def fast_config() -> ExecutorConfig:
    """Small budgets: fuzz-generated programs finish in thousands of
    steps, and tests must fail fast when they don't."""
    return ExecutorConfig(max_steps=300_000)


def bump_first_imm(program) -> bool:
    """Corrupt every integer ALU immediate of ``main`` in place.

    The canonical *synthetic miscompile*: the mutated constants change
    what the program computes, so any model compiled through it
    diverges from the reference on a real observable.  (Bumping just
    one constant is not enough — after constant folding the first
    immediate is often dead in the observable fold.)
    """
    bumped = False
    for block in program.functions["main"].blocks:
        for inst in block.instructions:
            if inst.cat is not OpCategory.ALU or inst.dest is None:
                continue
            srcs = list(inst.srcs)
            for idx, src in enumerate(srcs):
                if isinstance(src, Imm) and isinstance(src.value, int):
                    srcs[idx] = Imm(src.value + 1)
                    bumped = True
            inst.srcs = tuple(srcs)
    return bumped


def sabotaged_compile(base, model, profile, machine, options=None):
    """Drop-in for ``compile_for_model`` that miscompiles CMOV only."""
    compiled = compile_for_model(base, model, profile, machine, options)
    if model is Model.CMOV:
        bump_first_imm(compiled.program)
    return compiled
