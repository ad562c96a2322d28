"""One benchmark run: one workload at one seed.

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The run re-executes itself under a
``PYTHONHASHSEED`` derived from ``--seed``, sets up in fresh processes
(``prepare.py``, timed as ``setup_s``), then makes passes over the
workload's items in this process until ``--seconds`` have passed.  It prints a
readable summary and, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced (``--trace 0``), the per-layer metrics traced
(``--trace 1``).  Everything it writes goes under ``perfbench/.work/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

WORKLOAD_NAMES = ("figures-cold", "figures-warm", "cache-sweep",
                  "random-programs")

#: (metric, unit) of every end-to-end metric
END_TO_END = (("wall_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("sim_cycles", "cycles"))

#: host seconds of the reference task on a quiet host: ``wall_s`` and
#: ``setup_s`` are host seconds scaled to a host this fast (README,
#: "Steadiness").  A constant: changing it rescales every result.
REFERENCE_SECONDS = 0.025

#: bound on one set-up process and on the untraced companion run
CHILD_TIMEOUT = 170


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` of every process of a run at ``seed``."""
    return str(seed % 2**32)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload at one seed.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to make passes over the "
                             "workload's items (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's scale")
    return parser.parse_args(argv)


class SetupError(Exception):
    pass


def set_up(args, work: Path, repeats: int) -> tuple[float, dict, Path]:
    """Run ``prepare.py`` ``repeats`` times, each in a fresh directory.

    Returns the median time of one set-up, scaled by the reference task
    timed right before and right after it (median of five each); the
    last set-up's facts; and its directory, which the measuring process
    uses.
    """
    import reference

    def reference_s() -> float:
        return statistics.median(reference.timed(work / "reference")
                                 for _ in range(5))

    scaled = []
    directory = None
    after = reference_s()
    for attempt in range(repeats):
        if directory is not None:
            shutil.rmtree(directory)
        directory = work / f"setup-{attempt}"
        directory.mkdir()
        before = after
        began = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "prepare.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size, "--dir", str(directory)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT)
        seconds = time.perf_counter() - began
        after = reference_s()
        scaled.append(seconds * 2 * REFERENCE_SECONDS / (before + after))
        if proc.returncode != 0:
            raise SetupError(f"prepare.py exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    prepared = json.loads((directory / "prepared.json").read_text())
    return statistics.median(scaled), prepared, directory


def untraced_wall_s(args) -> float:
    """``wall_s`` of an untraced run at the same seed, in a fresh
    process, so the tracing overhead compares like with like."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0",
         "--size", args.size],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise SetupError(f"untraced run exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]["wall_s"]["value"]


def source_digest() -> str:
    """Digest of every file under ``src/`` and of the benchmark's own
    code: one version of the program and of its workloads."""
    hasher = hashlib.sha256()
    for path in sorted([*SRC.rglob("*"), *BENCH.glob("*.py")]):
        if path.is_file() and "__pycache__" not in path.parts:
            hasher.update(str(path.relative_to(ROOT)).encode() + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()[:12]


def agrees_with_first_run(args, record: dict) -> bool:
    """Compare outputs with the first run of this version of the code at
    this seed and size in this checkout; the first run records them."""
    path = WORK / "expected" / f"{args.workload}-{args.size}-seed" \
                               f"{args.seed}-src{source_digest()}.json"
    if path.exists():
        return json.loads(path.read_text()) == record
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    return True


def measure(args, work: Path) -> int:
    from workloads import SIZES, WORKLOADS, digest
    size = SIZES[args.size]
    workload = WORKLOADS[args.workload]
    setup_s, prepared, setup_dir = set_up(args, work,
                                          workload.setup_repeats(size))

    os.environ["REPRO_KERNEL_CACHE"] = str(setup_dir / "kernels")
    import reference
    from layers import LAYER_METRICS, Probe
    from repro.fastpath import native, supervisor
    if not native.available():
        raise SetupError("the native kernels failed to load")
    runner = workload(size, args.seed, work, prepared)
    probe = Probe(traced=bool(args.trace))
    patches = probe.install()

    def demotions() -> int:
        return supervisor.counters_snapshot()["engine_demotions"]

    first_demotions = demotions()
    #: seconds of each item, one entry per pass, and the same divided
    #: by the mean of the reference tasks timed right before and after
    times: list[list[float]] = [[] for _ in runner.items]
    ratios: list[list[float]] = [[] for _ in runner.items]
    reference_dir = work / "reference"
    reference_s = reference.timed(reference_dir)
    pass_digests: list[str] = []
    pass_cycles: list[int] = []
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    while True:
        texts: list[str] = []
        cycles = 0
        for index, item in enumerate(runner.items):
            ops = runner.operations(item)
            builds, demoted = probe.counts["native.builds"], demotions()
            tracer = probe.tracer
            span = tracer.begin("item") if tracer is not None else None
            began = time.perf_counter()
            try:
                outputs = runner.run(item)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                outputs = exc
            ended = time.perf_counter()
            if span is not None:
                tracer.end(span)
            before, reference_s = reference_s, reference.timed(reference_dir)
            times[index].append(ended - began)
            ratios[index].append(
                (ended - began) * 2 / (before + reference_s))
            attempted += ops
            if isinstance(outputs, Exception):
                errors.append(f"{type(outputs).__name__}: {outputs}")
                failed += ops
                continue
            text, item_cycles, bad = runner.check(item, outputs, probe)
            if probe.counts["native.builds"] > builds \
                    or demotions() > demoted:
                bad = ops  # measured on a demoted engine: not comparable
            failed += bad
            texts.append(text)
            cycles += item_cycles
        pass_digests.append(digest("\n".join(texts)))
        pass_cycles.append(cycles)
        runner.passes += 1
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.counts["native.demotions"] = demotions() - first_demotions
    # One pass, each item at its median over the passes.  wall_s
    # divides out how fast the host was at the time (reference.py).
    host_s = sum(statistics.median(seconds) for seconds in times)
    wall_s = REFERENCE_SECONDS * sum(statistics.median(units)
                                     for units in ratios)
    layers = probe.layer_metrics(runner.passes) if args.trace else {}

    correct = not errors
    try:
        correct = runner.finish() and correct
    except Exception as exc:  # noqa: BLE001 - counted and reported
        correct = False
        errors.append(f"check: {type(exc).__name__}: {exc}")
    finally:
        patches.undo()
    record = {"hash_seed": os.environ["PYTHONHASHSEED"],
              "digest": pass_digests[0], "sim_cycles": pass_cycles[0]}
    steady = len(set(pass_digests)) == 1 and len(set(pass_cycles)) == 1
    # Only a run whose outputs checked out may become the record.
    repeatable = correct and steady and agrees_with_first_run(args, record)
    correct = repeatable

    print(f"workload {args.workload}, seed {args.seed}, hash seed "
          f"{record['hash_seed']}, {runner.passes} pass(es) over "
          f"{len(runner.items)} item(s); one pass: wall_s {wall_s:.4f} "
          f"host_s {host_s:.4f}")
    print(f"outputs: digest {record['digest']}, sim_cycles "
          f"{record['sim_cycles']}, same every pass: {steady}, "
          f"same as the first run at this seed: {repeatable}")
    for line in runner.notes + errors:
        print(line)

    if args.trace:
        tracer_path = WORK / "traces" / f"{args.workload}-{args.size}-" \
                                        f"seed{args.seed}.jsonl"
        tracer_path.parent.mkdir(parents=True, exist_ok=True)
        probe.tracer.write(tracer_path)
        print(f"spans: {tracer_path.relative_to(ROOT)}")
        layers["traced.wall_s"] = wall_s
        layers["trace.overhead_s"] = wall_s - untraced_wall_s(args)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb,
                  "sim_cycles": record["sim_cycles"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} holds no repro package; run the benchmark "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    wanted = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv],
                  env)
    work = WORK / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Every process of the run imports this checkout's sources and
    # keeps its temporary files inside the run's directory.
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, str(SRC))
    try:
        return measure(args, work)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
