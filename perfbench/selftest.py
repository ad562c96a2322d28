"""Fast self-test of the benchmark at a tiny scale.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with ``--size tiny`` and checks
that each run is correct and emits exactly the metrics ``BENCHMARK.json``
names, each with its unit; that on figures-cold the compile sub-spans
and ``compile.self_s`` add up to ``compile.s``; that two runs at one
seed give the same ``sim_cycles``; and that the benchmark exits non-zero
without a result when the repository's sources are missing.  Exits 0
when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("figures-cold", "figures-warm", "cache-sweep",
             "random-programs")


def run(workload: str, trace: int, cwd: Path = ROOT,
        seed: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: dict[str, str], label: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        label
    assert result["correct"] is True, f"{label}: not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metrics {sorted(set(got) ^ set(expected))} differ"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) \
            and math.isfinite(m["value"]), f"{label}: {name}"


def check_compile_sum(metrics: dict) -> None:
    value = {name: m["value"] for name, m in metrics.items()}
    parts = sum(v for name, v in value.items()
                if name.startswith("pass.")) \
        + value["verify.s"] + value["schedule.s"] + value["compile.self_s"]
    assert value["compile.s"] > 0, "no compile spans"
    assert abs(parts - value["compile.s"]) <= 1e-6 * max(1.0, parts), \
        f"compile sub-spans add up to {parts}, compile.s is " \
        f"{value['compile.s']}"


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    bare = BENCH / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run("figures-cold", 0, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert proc.returncode != 0, "ran without the sources"
        assert not last.startswith("{"), "printed a result"
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        untraced = result_of(run(workload, 0))
        check_result(untraced, end_to_end, f"{workload} untraced")
        traced = result_of(run(workload, 1))
        check_result(traced, per_layer, f"{workload} traced")
        if workload == "figures-cold":
            check_compile_sum(traced["metrics"])
            again = result_of(run(workload, 0))
            assert again["metrics"]["sim_cycles"] \
                == untraced["metrics"]["sim_cycles"], "sim_cycles moved"
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
