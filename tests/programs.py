"""Programs the compile tests share: the paper kernels, the fuzz corpus
and short generated programs no pass was tuned on."""

from __future__ import annotations

import functools

from repro.fuzz.corpus import list_entries
from repro.fuzz.generator import FuzzCase, generate_case
from repro.workloads.base import all_workloads, get_workload

CORPUS = {e.entry_id: e for e in list_entries()}


def random_cases(seed: int, count: int,
                 max_chars: int = 600) -> dict[str, FuzzCase]:
    """The first ``count`` cases of ``seed`` with short sources, by
    case id."""
    cases = {}
    index = 0
    while len(cases) < count:
        case = generate_case(seed, index)
        index += 1
        if len(case.source) <= max_chars:
            cases[case.case_id] = case
    return cases


CASES = random_cases(7, 20)
#: every paper kernel at scale 0.05, every corpus entry and 20
#: generated programs
ALL_PROGRAMS = [w.name for w in all_workloads()] + sorted(CORPUS) \
    + list(CASES)


def program_source(name: str) -> tuple[str, dict]:
    """Source and inputs of a name in :data:`ALL_PROGRAMS`."""
    if name in CORPUS:
        return CORPUS[name].source, CORPUS[name].inputs
    if name in CASES:
        return CASES[name].source, CASES[name].inputs
    workload = get_workload(name)
    return workload.source, workload.inputs(0.05)


@functools.cache
def program_functions(name: str) -> tuple:
    """(tag, function) pairs of the frontend program of a name in
    :data:`ALL_PROGRAMS` and of each model's optimized program.  Shared
    across tests, so callers must not change the functions."""
    from repro.analysis.profile import Profile
    from repro.toolchain import Model, frontend, optimize_for_model

    source, inputs = program_source(name)
    base = frontend(source)
    profile = Profile.collect(base, inputs=inputs, max_steps=2_000_000)
    programs = [("frontend", base)] + [
        (model.value, optimize_for_model(base, model, profile).program)
        for model in Model]
    return tuple((tag, fn) for tag, program in programs
                 for fn in program.functions.values())
