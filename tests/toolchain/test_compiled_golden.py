"""Compiled-artifact golden: a compile change must not move code silently.

The figure golden catches a change that moves a figure; this one
catches a change that moves code without moving a figure — a renamed
register, a reordered schedule with the same length.  Such a change
also leaves existing warm stores holding programs the code no longer
produces.  A change that is meant to move compiled code must update
the digest on purpose.

Register numbering follows set iteration order in some passes, which
follows ``PYTHONHASHSEED``; the digest is therefore taken in a child
process at a fixed hash seed.

``GOLDEN`` covers the Fig. 8 machine, each compile on its own;
``MACHINES_GOLDEN`` covers the other figures' machines, each program
optimized once per model and scheduled for every machine in turn, the
way the figures compile it.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import repro

#: SHA-256 of :func:`compiled_digest` at PYTHONHASHSEED=0
GOLDEN = "83bc4cdc240a627811e95887d045a4fe75c7641195cb030a95e80e5cf23e9711"
#: SHA-256 of :func:`machines_digest` at PYTHONHASHSEED=0
MACHINES_GOLDEN = "36b0bb2a36fe4140e3aaf49ee326ab176eb9feb2cb5b41c046573de0af71e94b"

ROOT = Path(__file__).resolve().parents[2]


def compiled_digest() -> str:
    """SHA-256 of the printed programs, with issue cycles, of wc and
    grep at scale 0.05 under every model on the Fig. 8 machine."""
    from repro.analysis.profile import Profile
    from repro.ir.printer import format_function
    from repro.machine.descriptor import fig8_machine
    from repro.toolchain import Model, compile_for_model, frontend
    from repro.workloads.base import get_workload

    digest = hashlib.sha256()
    for name in ("wc", "grep"):
        workload = get_workload(name)
        base = frontend(workload.source)
        profile = Profile.collect(base, inputs=workload.inputs(0.05))
        for model in Model:
            compiled = compile_for_model(base, model, profile,
                                         fig8_machine())
            for fn in compiled.program.functions.values():
                text = format_function(fn, compiled.schedule.cycles)
                digest.update(text.encode())
            digest.update(f"speculated {compiled.schedule.speculated}"
                          .encode())
    return digest.hexdigest()


def machines_digest() -> str:
    """SHA-256 of the printed programs, with issue cycles, of wc and
    grep at scale 0.05 under every model on the Fig. 9, Fig. 10,
    scaled Fig. 11 and scalar machines, one optimization per model."""
    from repro.analysis.profile import Profile
    from repro.experiments.runner import scaled_fig11_machine
    from repro.ir.printer import format_function
    from repro.machine.descriptor import (fig9_machine, fig10_machine,
                                          scalar_machine)
    from repro.toolchain import Model, compile_for_model, frontend
    from repro.workloads.base import get_workload

    machines = (fig9_machine(), fig10_machine(), scaled_fig11_machine(),
                scalar_machine())
    digest = hashlib.sha256()
    for name in ("wc", "grep"):
        workload = get_workload(name)
        base = frontend(workload.source)
        profile = Profile.collect(base, inputs=workload.inputs(0.05))
        for model in Model:
            optimized = {}
            for machine in machines:
                compiled = compile_for_model(base, model, profile, machine,
                                             optimized=optimized)
                for fn in compiled.program.functions.values():
                    text = format_function(fn, compiled.schedule.cycles)
                    digest.update(text.encode())
                digest.update(f"speculated {compiled.schedule.speculated}"
                              .encode())
    return digest.hexdigest()


def _digest_at_seed_0(function: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"from tests.toolchain.test_compiled_golden import {function};"
         f"print({function}())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_wc_grep_compiled_programs_are_pinned():
    assert _digest_at_seed_0("compiled_digest") == GOLDEN


def test_wc_grep_programs_on_the_other_machines_are_pinned():
    assert _digest_at_seed_0("machines_digest") == MACHINES_GOLDEN
