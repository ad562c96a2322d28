"""The benchmark's traced run can wrap every function it measures.

``perfbench/layers.py`` patches public functions by module and name
(see its ``Probe``).  A rename or a removal under ``src/`` would break
the benchmark's traced run only when the benchmark runs; this test
imports the probe unchanged, installs every wrapper, and checks that
each one resolved to the function doing its job and was put back.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"

#: (module, attribute) the traced run wraps
WRAPPED = [("repro.engine.stages", name) for name in (
    "decode_program", "run_program_fast", "run_program",
    "simulate_columns", "simulate_trace", "prepare_sim")] + [
    ("repro.fastpath.interp", "run_program_fast"),
    ("repro.fastpath.decode", "decode_program"),
    ("repro.fastpath.simulate", "prepare_sim"),
    ("repro.fastpath.simulate", "simulate_columns"),
    ("repro.fastpath.simulate", "emulate_and_simulate_stream"),
    ("repro.fastpath.vector", "simulate_columns_vector"),
    ("repro.fastpath.vector", "emulate_and_simulate_vector"),
    ("repro.fastpath.native", "run_program_native"),
    ("repro.fuzz.executor", "assert_fastpath_equivalent"),
    ("repro.fastpath.supervisor", "ensure_built"),
]

#: (module, attribute) the benchmark calls without wrapping
CALLED = [("repro.fastpath.supervisor", "so_path"),
          ("repro.fastpath.supervisor", "counters_snapshot")]


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("_perfbench_layers",
                                                  LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_stage_names_are_the_functions_doing_the_job():
    from repro.emu import interpreter
    from repro.engine import stages
    from repro.fastpath import decode, interp, simulate
    from repro.sim import pipeline
    assert stages.decode_program is decode.decode_program
    assert stages.run_program_fast is interp.run_program_fast
    assert stages.run_program is interpreter.run_program
    assert stages.simulate_columns is simulate.simulate_columns
    assert stages.simulate_trace is pipeline.simulate_trace
    assert stages.prepare_sim is simulate.prepare_sim


def test_traced_probe_wraps_and_restores_every_attribute(layers):
    for module, attr in WRAPPED + CALLED:
        __import__(module)
        assert callable(getattr(sys.modules[module], attr)), (module, attr)
    from repro.fastpath.vector import VectorSimPrep
    assert "__init__" in vars(VectorSimPrep)

    fsync = os.fsync
    patches = layers.Probe(traced=True).install()
    try:
        saved = list(patches._saved)
        wrapped = {(getattr(owner, "__name__", owner), attr)
                   for owner, attr, _raw in saved}
        for module, attr in WRAPPED:
            assert (module, attr) in wrapped, (module, attr)
        assert ("VectorSimPrep", "__init__") in wrapped
        for owner, attr, raw in saved:
            assert _current(owner, attr) is not raw, (owner, attr)
    finally:
        patches.undo()
    # An attribute wrapped twice is back to the first saved original.
    originals = {}
    for owner, attr, raw in saved:
        originals.setdefault((id(owner), attr), (owner, raw))
    for (_, attr), (owner, raw) in originals.items():
        assert _current(owner, attr) is raw, (owner, attr)
    assert os.fsync is fsync
