"""Compiled code must not depend on the hash seed.

``hash()`` of a string or an enum is salted per process, so any pass
that numbers registers or orders instructions by iterating a ``set``
compiles differently at different ``PYTHONHASHSEED`` values.  Register
numbers reach the cycle counts (the scoreboard is keyed by register),
so such a pass makes the figures depend on the seed.  This test
compiles every workload under every model in two child processes at
two seeds and compares the printed programs, issue cycles included.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]

#: two seeds whose programs differed before register renaming in the
#: unroller followed definition order
SEEDS = ("1", "21")

SCALE = 0.1


def printed_programs() -> str:
    """JSON of workload -> SHA-256 of its printed programs (issue
    cycles included) under every model, optimized once per model and
    scheduled for the Fig. 8 and scalar machines."""
    from repro.analysis.profile import Profile
    from repro.ir.printer import format_function
    from repro.machine.descriptor import fig8_machine, scalar_machine
    from repro.toolchain import Model, compile_for_model, frontend
    from repro.workloads.base import all_workloads

    digests = {}
    for workload in all_workloads():
        digest = hashlib.sha256()
        base = frontend(workload.source)
        profile = Profile.collect(base, inputs=workload.inputs(SCALE))
        for model in Model:
            optimized = {}
            for machine in (fig8_machine(), scalar_machine()):
                compiled = compile_for_model(base, model, profile, machine,
                                             optimized=optimized)
                for fn in compiled.program.functions.values():
                    text = format_function(fn, compiled.schedule.cycles)
                    digest.update(text.encode())
        digests[workload.name] = digest.hexdigest()
    return json.dumps(digests, sort_keys=True)


def _start_child(seed: str) -> subprocess.Popen:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.Popen(
        [sys.executable, "-c",
         "from tests.toolchain.test_hash_seed import printed_programs;"
         "print(printed_programs())"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def test_every_workload_compiles_the_same_at_two_hash_seeds():
    children = [_start_child(seed) for seed in SEEDS]
    results = []
    for child in children:
        out, err = child.communicate(timeout=600)
        assert child.returncode == 0, err
        results.append(json.loads(out))
    first, second = results
    assert first.keys() == second.keys() and len(first) == 15
    differing = sorted(name for name in first if first[name] != second[name])
    assert differing == [], f"compiled code follows the hash seed: " \
                            f"{differing}"
