"""The scripts under ``examples/`` run to completion.

Each runs as its own process, the way a reader runs it, against a
kernel cache under the test's temporary directory.
``run_paper_experiments.py`` is left out: it writes ``RESULTS.txt``
into its working directory and takes the full figure suite's time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def run_example(tmp_path_factory):
    work = tmp_path_factory.mktemp("examples")
    env = dict(os.environ, REPRO_KERNEL_CACHE=str(work / "kernels"))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + existing if existing else "")

    def run(name: str) -> str:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "examples" / name)], cwd=work,
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return proc.stdout
    return run


@pytest.mark.parametrize("name", ["quickstart.py", "grep_case_study.py"])
def test_example_runs(run_example, name):
    assert run_example(name)


def test_wc_case_study_prints_a_hot_loop_per_model(run_example):
    from repro.toolchain import Model
    out = run_example("wc_case_study.py")
    assert out.count("hot loop (") == len(Model)
