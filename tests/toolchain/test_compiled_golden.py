"""Compiled-artifact golden: a compile change must not move code silently.

The figure golden catches a change that moves a figure; this one
catches a change that moves code without moving a figure — a renamed
register, a reordered schedule with the same length.  Such a change
also leaves existing warm stores holding programs the code no longer
produces.  A change that is meant to move compiled code must update
the digest on purpose.

Compiled code does not depend on ``PYTHONHASHSEED``
(``tests/toolchain/test_hash_seed.py`` checks every workload), so the
digest is taken in process.

``GOLDEN`` covers the Fig. 8 machine, each compile on its own;
``MACHINES_GOLDEN`` covers the other figures' machines, each program
optimized once per model and scheduled for every machine in turn, the
way the figures compile it.  ``GENERATED_GOLDEN`` covers generated
programs that no pass was tuned on, frontend and optimized, and
``SCHEDULED_GOLDEN`` the same programs scheduled.
"""

import hashlib
import itertools

#: SHA-256 of :func:`compiled_digest`
GOLDEN = "eacb439cfa2b53508516c110d4de29a13765940cd09c3ffd867b9569dc3aa433"
#: SHA-256 of :func:`machines_digest`
MACHINES_GOLDEN = "68ec8259f49bed5935c18fb4a7b51181fe8f9aed09abe9c8a9e0715c7518b895"
#: SHA-256 of :func:`generated_digest`
GENERATED_GOLDEN = "6ba93241082e54135ef67fb9cf1f398ad652847627716b79fb35fc5e64920080"
#: SHA-256 of :func:`scheduled_digest`
SCHEDULED_GOLDEN = "28988a09dba8a5ff15c524f3c1aa0f7b0d4b407533e5737f58cca46a95fe8b6d"


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


def generated_digest() -> str:
    """SHA-256 of the :func:`program_fingerprint` of the frontend
    program and each model's optimized program, uids included, of the
    first 30 programs of ``generate_case(7, i)`` with at most 600
    characters of source.  Uids count from 0 for each program."""
    from repro.analysis.profile import Profile
    from repro.engine.serialize import program_fingerprint
    from repro.ir import instruction
    from repro.toolchain import Model, frontend, optimize_for_model
    from tests.programs import random_cases

    digest = hashlib.sha256()
    resume = next(instruction._ids)
    try:
        for case in random_cases(7, 30).values():
            instruction._ids = itertools.count(0)
            base = frontend(case.source)
            profile = Profile.collect(base, inputs=case.inputs,
                                      max_steps=2_000_000)
            digest.update(program_fingerprint(base).encode())
            for model in Model:
                optimized = optimize_for_model(base, model, profile)
                digest.update(
                    program_fingerprint(optimized.program).encode())
            resume = max(resume, next(instruction._ids))
    finally:
        instruction._ids = itertools.count(resume)
    return digest.hexdigest()


def scheduled_digest() -> str:
    """SHA-256 of the printed programs, with issue cycles, and the
    speculated count of the first 30 programs of ``generate_case(7, i)``
    with at most 600 characters of source, under every model on the
    fuzz, Fig. 9 and Fig. 10 machines, one optimization per model."""
    from repro.analysis.profile import Profile
    from repro.fuzz.executor import ExecutorConfig
    from repro.ir.printer import format_function
    from repro.machine.descriptor import fig9_machine, fig10_machine
    from repro.toolchain import Model, compile_for_model, frontend
    from tests.programs import random_cases

    machines = (ExecutorConfig().machine(), fig9_machine(),
                fig10_machine())
    digest = hashlib.sha256()
    for case in random_cases(7, 30).values():
        base = frontend(case.source)
        profile = Profile.collect(base, inputs=case.inputs,
                                  max_steps=2_000_000)
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


def test_wc_grep_compiled_programs_are_pinned():
    assert compiled_digest() == GOLDEN


def test_wc_grep_programs_on_the_other_machines_are_pinned():
    assert machines_digest() == MACHINES_GOLDEN


def test_generated_programs_are_pinned():
    assert generated_digest() == GENERATED_GOLDEN


def test_scheduled_generated_programs_are_pinned():
    assert scheduled_digest() == SCHEDULED_GOLDEN
