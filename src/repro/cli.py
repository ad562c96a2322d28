"""Command-line interface: compile, run, and report from the shell.

Subcommands:

* ``compile``  — compile a MiniC file for one model and dump the code;
* ``run``      — compile + emulate + simulate one file and print stats;
* ``bench``    — run one registered workload under all three models;
* ``report``   — regenerate every figure/table (the paper's evaluation);
* ``figures``  — alias of ``report`` (the paper's figures);
* ``sweep``    — design-space exploration: ``sweep run`` expands a
  declarative TOML/JSON grid (issue widths x branch limits x cache
  geometries x BTBs x latency tables x models) into a deduplicated
  machine lattice and measures every point (deterministic at any
  ``--jobs``, resumable, warm points are zero-compute), ``sweep
  report`` renders speedup surfaces and Pareto frontiers from a
  stored result, ``sweep diff`` compares two results point-for-point;
* ``cache``    — inspect, verify (``fsck``) or clear the artifact store;
* ``selftest`` — fault-injection campaign proving the checkers work;
* ``native``   — probe the native kernel path (build, sandbox-canary,
  parity-check) and print the rung the process decided on;
* ``fuzz``     — differential fuzzing: ``fuzz run`` executes a seeded
  campaign over all three models, ``fuzz replay`` re-checks corpus
  reproducers, ``fuzz corpus`` lists them, ``fuzz seed`` populates the
  corpus from the workload suite and examples;
* ``list``     — list the registered workloads.

``bench`` and ``report`` cache the frontend IR, profiles, optimized
programs and simulation results (never a scheduled program or a trace)
in a content-addressed store (``--cache-dir``,
default ``.repro-cache`` or ``$REPRO_CACHE_DIR``), so a repeated run is
served entirely from artifacts; ``--jobs N`` fans the pipeline across a
process pool.  Every store-backed suite run writes an fsync'd JSONL
journal under ``<cache-dir>/runs/<RUN_ID>.jsonl``; a killed run resumes
with ``--resume RUN_ID`` (journal-verified completed tasks are never
recomputed).

Examples::

    python -m repro compile kernel.c --model fullpred
    python -m repro run kernel.c --model cmov --width 8 --branches 1
    python -m repro run kernel.c --paranoid
    python -m repro bench wc --scale 0.5
    python -m repro report --scale 0.5 --paranoid -o RESULTS.txt
    python -m repro report --jobs 4 --bench-json bench.json
    python -m repro figures --resume R20260805-120000-abcd1234
    python -m repro cache stats
    python -m repro cache fsck --repair
    python -m repro cache clear
    python -m repro selftest
    python -m repro native --fresh
    python -m repro sweep run examples/paper_sweep.toml --jobs 4 -o sweep.json
    python -m repro sweep run grid.json --report --resume R20260807-...
    python -m repro sweep report sweep.json
    python -m repro sweep diff old.json new.json
    python -m repro fuzz run --budget 500 --seed 0xfeed --jobs 4
    python -m repro fuzz replay --all
    python -m repro fuzz replay finding-0123456789ab
    python -m repro fuzz seed && python -m repro fuzz corpus

Failures exit with the typed taxonomy's codes (one-line diagnostics,
no tracebacks): 10 generic pipeline error, 11 compile or invalid
spec (bad sweep grid, unknown latency op-class name), 12 pass
verification, 14 trace integrity, 15 model divergence, 16 emulation
fault (a step-limit overrun included), 18 open fuzz findings, 22
native kernel build failure, 23 C toolchain missing, 24 native kernel
parity mismatch, 25 native kernel crash.  Codes 14, 23 and 25 are
transient (retry — a native failure is decided once, at load, and
leaves the process on the Python rung); the rest are permanent.  Code
13 (the wall-clock emulation timeout; ``max_steps`` is the one
emulation bound), code 17 (artifact lock timeout; store writes take no
lock) and codes 19, 20, 21, 26 and 27 (the job service and cluster)
are retired and never reused.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.profile import Profile
from repro.emu.memory import EmulationFault
from repro.engine.store import ArtifactStore
from repro.engines import DEFAULT_ENGINE, ENGINES
from repro.experiments.render import render_all
from repro.experiments.runner import ExperimentSuite
from repro.ir.function import IRError
from repro.ir.printer import format_program
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError
from repro.lang.sema import SemaError
from repro.machine.descriptor import MachineDescription, scalar_machine
from repro.robustness.errors import ReproError
from repro.toolchain import (MODEL_NAMES, Model, ToolchainOptions,
                             compile_for_model, frontend, run_compiled)
from repro.workloads import all_workloads, get_workload

#: exit code for emulation faults outside the typed taxonomy
_EMULATION_FAULT_EXIT = 16
#: exit code for IR errors escaping the compile pipeline
_IR_ERROR_EXIT = 11


def _machine(args) -> MachineDescription:
    machine = MachineDescription(issue_width=args.width,
                                 branch_issue_limit=args.branches,
                                 name=f"{args.width}-issue,"
                                      f"{args.branches}-branch")
    if getattr(args, "real_caches", False):
        machine = machine.with_real_caches()
    return machine


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=8,
                        help="issue width (default 8)")
    parser.add_argument("--branches", type=int, default=1,
                        help="branch issue limit (default 1)")
    parser.add_argument("--real-caches", action="store_true",
                        help="64K direct-mapped I/D caches instead of "
                             "perfect memory")


def _add_robustness_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--paranoid", action="store_true",
                        help="verify the IR after every compiler pass "
                             "and every emulation trace; failures name "
                             "the pass and dump an IR snapshot")
    parser.add_argument("--artifact-dir", default=None,
                        help="directory for failure IR snapshots "
                             "(default: system temp)")


def _default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=ENGINES,
                        default=DEFAULT_ENGINE,
                        help=f"execution engine (default "
                             f"{DEFAULT_ENGINE}); both are "
                             "byte-identical — legacy is the readable "
                             "reference, vector runs native kernels")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan pipeline work across N pool processes "
                             "(default 1: serial, in-process)")
    parser.add_argument("--cache-dir", default=_default_cache_dir(),
                        metavar="DIR",
                        help="artifact store directory (default "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk artifact store")
    parser.add_argument("--run-id", default=None, metavar="RUN_ID",
                        help="name this run's journal (default: "
                             "generated; printed to stderr)")
    parser.add_argument("--resume", default=None, metavar="RUN_ID",
                        help="resume an interrupted run from its "
                             "journal: completed tasks are verified "
                             "against the store and never recomputed")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="max attempts per task for transient "
                             "failures (default 3)")


def _add_perf_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bench-json", metavar="PATH",
                        help="write this run's pipeline metrics (wall "
                             "time, cache hit/miss, byte volume, "
                             "cycles) as JSON")


def _cache_dir(args) -> str | None:
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None)


def _write_bench_json(metrics, args) -> None:
    bench_json = getattr(args, "bench_json", None)
    if bench_json:
        metrics.write_json(bench_json)
        print(f"wrote {bench_json}", file=sys.stderr)


def _print_metrics(metrics, args) -> None:
    """Pipeline summary to stderr; counters to --bench-json."""
    print(metrics.render(), file=sys.stderr)
    _write_bench_json(metrics, args)


def _suite_recovery_kwargs(args) -> dict:
    """Map --run-id/--resume/--retries onto ExperimentSuite fields."""
    kwargs: dict = {}
    resume = getattr(args, "resume", None)
    if resume:
        kwargs["run_id"] = resume
        kwargs["resume"] = True
    elif getattr(args, "run_id", None):
        kwargs["run_id"] = args.run_id
    retries = getattr(args, "retries", None)
    if retries is not None:
        from repro.engine.recovery.retry import RetryPolicy
        kwargs["retry"] = RetryPolicy(max_attempts=max(1, retries))
    return kwargs


def _announce_run(suite) -> None:
    if suite.run_id is not None and not suite.owns_cache_dir:
        print(f"run id: {suite.run_id} (resume with --resume "
              f"{suite.run_id})", file=sys.stderr)


def _finish_run(suite) -> None:
    if suite.run_id is not None:
        print(suite.journal_summary(), file=sys.stderr)
    suite.close_journal()


def _options(args) -> ToolchainOptions:
    return ToolchainOptions(paranoid=getattr(args, "paranoid", False),
                            artifact_dir=getattr(args, "artifact_dir",
                                                 None))


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _cmd_compile(args) -> int:
    source = _read_source(args.file)
    base = frontend(source)
    profile = Profile.collect(base, inputs=None)
    compiled = compile_for_model(base, Model[args.model.upper()], profile,
                                 _machine(args), _options(args))
    print(format_program(compiled.program))
    return 0


def _cmd_run(args) -> int:
    source = _read_source(args.file)
    base = frontend(source)
    profile = Profile.collect(base, inputs=None)
    machine = _machine(args)
    model = Model[args.model.upper()]
    options = _options(args)
    compiled = compile_for_model(base, model, profile, machine, options)
    result = run_compiled(compiled, inputs=None, engine=args.engine)
    scalar = run_compiled(
        compile_for_model(base, Model.SUPERBLOCK, profile,
                          scalar_machine(), options))
    stats = result.stats
    print(f"model              : {model.value}")
    print(f"machine            : {machine.name}")
    print(f"result             : {result.return_value}")
    print(f"cycles             : {stats.cycles}")
    print(f"dynamic instrs     : {stats.dynamic_instructions} "
          f"({stats.suppressed_instructions} nullified)")
    print(f"branches           : {stats.branches} "
          f"({stats.mispredictions} mispredicted, "
          f"{stats.misprediction_rate * 100:.2f}%)")
    print(f"speedup vs 1-issue : "
          f"{scalar.stats.cycles / stats.cycles:.2f}")
    return 0


def _cmd_bench(args) -> int:
    workload = get_workload(args.name)
    suite = ExperimentSuite(workloads=[workload], scale=args.scale,
                            options=_options(args),
                            cache_dir=_cache_dir(args), jobs=args.jobs,
                            engine=args.engine,
                            **_suite_recovery_kwargs(args))
    _announce_run(suite)
    machine = _machine(args)
    try:
        base = suite.baseline_cycles(workload.name)
        print(f"{workload.name} ({workload.stands_for}), "
              f"scale {args.scale}")
        print(f"{'model':<20s}{'cycles':>9s}{'speedup':>9s}{'instrs':>9s}"
              f"{'BR':>8s}{'MP':>7s}")
        for model in Model:
            run = suite.run(workload.name, model, machine)
            stats = run.stats
            print(f"{model.value:<20s}{stats.cycles:>9d}"
                  f"{base / stats.cycles:>9.2f}"
                  f"{stats.executed_instructions:>9d}"
                  f"{stats.branches:>8d}{stats.mispredictions:>7d}")
        if args.differential:
            _run_differential(workload, machine, args)
    except BaseException:
        suite.close_journal(ok=False)
        raise
    _print_metrics(suite.metrics, args)
    _finish_run(suite)
    return 0


def _run_differential(workload, machine, args) -> None:
    """Prove the legacy and vector engines agree on every observable.

    Raises :class:`~repro.robustness.errors.ModelDivergenceError` (CLI
    exit code 15) on the first divergence.
    """
    from repro.robustness.differential import assert_fastpath_equivalent
    base = frontend(workload.source)
    inputs = workload.inputs(args.scale)
    profile = Profile.collect(base, inputs=inputs)
    options = _options(args)
    for model in Model:
        compiled = compile_for_model(base, model, profile, machine,
                                     options)
        assert_fastpath_equivalent(compiled, inputs=inputs,
                                   machine=machine,
                                   workload=workload.name)
        print(f"differential {workload.name}/{model.value}: legacy "
              f"and vector agree", file=sys.stderr)


def _cmd_report(args) -> int:
    suite = ExperimentSuite(scale=args.scale, options=_options(args),
                            cache_dir=_cache_dir(args), jobs=args.jobs,
                            engine=args.engine,
                            **_suite_recovery_kwargs(args))
    _announce_run(suite)
    try:
        text = render_all(suite)
    except BaseException:
        suite.close_journal(ok=False)
        raise
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    _print_metrics(suite.metrics, args)
    _finish_run(suite)
    return 0


def _cmd_cache(args) -> int:
    cache_dir = args.cache_dir
    if args.action in ("stats", "clear") and not os.path.isdir(cache_dir):
        print(f"no artifact store at {cache_dir} (nothing cached yet — "
              f"run `repro report` or `repro bench` to populate it)")
        return 0
    store = ArtifactStore(cache_dir)
    if args.action == "stats":
        inventory = store.stats()
        if inventory.entries == 0:
            print(f"artifact store at {cache_dir} is empty (run "
                  f"`repro report` or `repro bench` to populate it)")
            return 0
        print(inventory.render())
        return 0
    if args.action == "fsck":
        from repro.engine.recovery.fsck import fsck_store
        report = fsck_store(store, repair=args.repair)
        print(report.render())
        return 0 if report.clean or args.repair else 1
    removed = store.clear()
    print(f"removed {removed} artifacts from {cache_dir}")
    return 0


def _cmd_selftest(args) -> int:
    from repro.robustness.faults import (format_fault_reports,
                                         run_fault_campaign)
    reports = run_fault_campaign()
    print(format_fault_reports(reports))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_native(args) -> int:
    """Probe, report and (optionally) rebuild the native kernel path."""
    from repro.fastpath import native, supervisor
    if getattr(args, "fresh", False):
        supervisor.reset_for_testing()
    available = native.available()
    for line in supervisor.status_lines():
        print(line)
    error = supervisor.last_error()
    return 0 if available or error is None else error.exit_code


def _cmd_list(_args) -> int:
    for w in all_workloads():
        print(f"{w.name:<10s} {w.category:<8s} {w.stands_for}")
    return 0


# ----- sweep ----------------------------------------------------------------


def _cmd_sweep_run(args) -> int:
    from repro.engine.metrics import PipelineMetrics
    from repro.sweep import SweepSpec, run_sweep
    from repro.sweep.report import render
    spec = SweepSpec.from_file(args.spec)
    metrics = PipelineMetrics()
    outcome = run_sweep(spec, cache_dir=_cache_dir(args),
                        jobs=args.jobs, metrics=metrics,
                        engine=args.engine,
                        **_suite_recovery_kwargs(args))
    if outcome.run_id is not None:
        print(f"run id: {outcome.run_id} (resume with --resume "
              f"{outcome.run_id})", file=sys.stderr)
    print(f"sweep {spec.name}: {outcome.points_total} points "
          f"({outcome.points_cached} warm, {outcome.resumed_tasks} "
          f"journal-resumed)", file=sys.stderr)
    result_json = outcome.result.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result_json + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if args.report_text:
        print(render(outcome.result.to_dict()), end="")
    elif not args.output:
        print(result_json)
    _print_metrics(metrics, args)
    return 0


def _cmd_sweep_report(args) -> int:
    from repro.sweep import SweepResult
    from repro.sweep.report import render
    print(render(SweepResult.from_file(args.result).to_dict()), end="")
    return 0


def _cmd_sweep_diff(args) -> int:
    from repro.sweep import SweepResult
    from repro.sweep.report import diff
    print(diff(SweepResult.from_file(args.old).to_dict(),
               SweepResult.from_file(args.new).to_dict()), end="")
    return 0


# ----- fuzz -----------------------------------------------------------------


def _fuzz_config(args):
    from repro.fuzz.executor import ExecutorConfig
    return ExecutorConfig(max_steps=args.max_steps,
                          issue_width=args.width,
                          branch_issue_limit=args.branches)


def _write_fuzz_log(path: str, reports) -> None:
    """One JSON line per case, wall time excluded: two campaigns with
    the same seed/budget must produce byte-identical logs (CI diffs
    them to prove reproducibility)."""
    import json
    with open(path, "w") as handle:
        for report in reports:
            entry = report.to_dict()
            entry.pop("wall_seconds", None)
            handle.write(json.dumps(entry, sort_keys=True) + "\n")


def _cmd_fuzz_run(args) -> int:
    from repro.engine.metrics import PipelineMetrics
    from repro.fuzz.runner import run_campaign
    from repro.robustness.errors import FuzzFindingsError

    seed = int(args.seed, 0)
    metrics = PipelineMetrics()
    result = run_campaign(seed, args.budget, jobs=args.jobs,
                          config=_fuzz_config(args),
                          corpus_dir=args.corpus_dir,
                          save_findings=not args.no_save,
                          reduce_findings=not args.no_reduce,
                          metrics=metrics)
    if args.log:
        _write_fuzz_log(args.log, result.reports)
    print(f"fuzz campaign seed={seed:#x} budget={args.budget} "
          f"jobs={args.jobs}")
    print(f"  {result.case_count} cases in {result.wall_seconds:.1f}s "
          f"({result.cases_per_second:.2f}/s)")
    print(f"  {result.finding_count} findings, "
          f"{result.unique_findings} unique signatures")
    for key, bucket in result.buckets.items():
        print(f"  [{key}] {bucket.signature.describe()} "
              f"({bucket.count} witness(es), first {bucket.case_ids[0]})")
        reduction = result.reductions.get(key)
        if reduction is not None:
            _, stats = reduction
            print(f"    reduced {stats.original_lines} -> "
                  f"{stats.reduced_lines} lines "
                  f"({stats.shrink_ratio * 100:.0f}% shrink, "
                  f"{stats.tests_run} probes)")
    for entry_id in result.saved_entries:
        print(f"    saved corpus/{entry_id}")
    _write_bench_json(metrics, args)
    if result.finding_count:
        raise FuzzFindingsError(
            f"{result.finding_count} finding(s), "
            f"{result.unique_findings} unique — reproducers saved under "
            f"corpus/", count=result.finding_count,
            unique=result.unique_findings)
    print("  no divergence, no crashes, no hangs")
    return 0


def _cmd_fuzz_replay(args) -> int:
    from repro.fuzz.corpus import list_entries, load_entry
    from repro.fuzz.executor import run_case
    from repro.fuzz.generator import FuzzCase
    from repro.robustness.errors import FuzzFindingsError

    if args.case is None and not args.all:
        print("error: give a corpus entry id or --all", file=sys.stderr)
        return 2
    entries = list_entries(args.corpus_dir) if args.all \
        else [load_entry(args.case, args.corpus_dir)]
    if not entries:
        print("corpus is empty (run `repro fuzz seed` first)")
        return 0
    config = _fuzz_config(args)
    failures = 0
    for entry in entries:
        case = FuzzCase(case_id=entry.entry_id, seed=0,
                        profile="corpus", source=entry.source,
                        inputs=entry.inputs)
        report = run_case(case, config)
        ok = report.verdict == entry.expect
        failures += 0 if ok else 1
        status = "ok" if ok else f"FAIL ({report.verdict})"
        print(f"  {entry.entry_id:<28s} expect={entry.expect:<8s} "
              f"{status}")
        if not ok and report.message:
            print(f"    {report.message}")
    print(f"replayed {len(entries)} corpus entries, "
          f"{failures} failure(s)")
    if failures:
        raise FuzzFindingsError(
            f"{failures} corpus entr(ies) no longer match their "
            f"expected verdict", count=failures, unique=failures)
    return 0


def _cmd_fuzz_corpus(args) -> int:
    from repro.fuzz.corpus import list_entries

    entries = list_entries(args.corpus_dir)
    if not entries:
        print("corpus is empty (run `repro fuzz seed` first)")
        return 0
    for entry in entries:
        lines = len(entry.source.splitlines())
        sig = ""
        if entry.signature:
            sig = (f"  sig={entry.signature.get('kind')}/"
                   f"{entry.signature.get('key')}")
        print(f"  {entry.entry_id:<28s} expect={entry.expect:<8s} "
              f"{lines:>4d} lines  {entry.provenance}{sig}")
    print(f"{len(entries)} corpus entries")
    return 0


def _cmd_fuzz_seed(args) -> int:
    from repro.fuzz.corpus import CorpusEntry, save_entry

    saved = 0
    for w in all_workloads():
        inputs = {name: list(values) if isinstance(values, bytes)
                  else values
                  for name, values in w.inputs(args.scale).items()}
        entry = CorpusEntry(entry_id=f"seed-{w.name}", source=w.source,
                            inputs=inputs, expect="ok",
                            provenance=f"seed:{w.name}",
                            notes=f"workload suite @ scale {args.scale}")
        save_entry(entry, args.corpus_dir)
        saved += 1
    quickstart = _load_quickstart_module()
    if quickstart is not None:
        entry = CorpusEntry(entry_id="seed-quickstart",
                            source=quickstart.SOURCE,
                            inputs=quickstart.make_inputs(n=200),
                            expect="ok",
                            provenance="seed:examples/quickstart.py",
                            notes="Figure 1 kernel from the quickstart")
        save_entry(entry, args.corpus_dir)
        saved += 1
    print(f"seeded {saved} corpus entries")
    return 0


def _load_quickstart_module():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[2] / "examples" \
        / "quickstart.py"
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("_quickstart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Comparison of Full and Partial "
                    "Predicated Execution Support for ILP Processors' "
                    "(ISCA 1995)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a MiniC file and dump IR")
    p.add_argument("file", help="MiniC source file, or - for stdin")
    p.add_argument("--model", choices=sorted(MODEL_NAMES), default="fullpred")
    _add_machine_args(p)
    _add_robustness_args(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("run", help="compile, emulate and simulate a file")
    p.add_argument("file", help="MiniC source file, or - for stdin")
    p.add_argument("--model", choices=sorted(MODEL_NAMES), default="fullpred")
    p.add_argument("--engine", choices=ENGINES, default=DEFAULT_ENGINE,
                   help=f"execution engine (default {DEFAULT_ENGINE}; "
                        "both are byte-identical)")
    _add_machine_args(p)
    _add_robustness_args(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="run one workload, all models")
    p.add_argument("name", help="workload name (see `list`)")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--differential", action="store_true",
                   help="after benchmarking, prove the legacy and "
                        "vector engines agree on every observable")
    _add_machine_args(p)
    _add_robustness_args(p)
    _add_engine_args(p)
    _add_perf_args(p)
    p.set_defaults(func=_cmd_bench)

    for name, help_text in (
            ("report", "regenerate all figures/tables"),
            ("figures", "regenerate all figures/tables "
                        "(alias of report)")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scale", type=float, default=0.5)
        p.add_argument("-o", "--output", help="write to file")
        _add_robustness_args(p)
        _add_engine_args(p)
        _add_perf_args(p)
        p.set_defaults(func=_cmd_report)

    p = sub.add_parser("cache",
                       help="inspect, verify or clear the artifact "
                            "store")
    p.add_argument("action", choices=("stats", "fsck", "clear"))
    p.add_argument("--cache-dir", default=_default_cache_dir(),
                   metavar="DIR",
                   help="artifact store directory (default "
                        "$REPRO_CACHE_DIR or .repro-cache)")
    p.add_argument("--repair", action="store_true",
                   help="with fsck: quarantine corrupt artifacts and "
                        "remove stale tmp files / expired locks")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("selftest",
                       help="fault-injection campaign: prove every "
                            "corruption class is caught")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("native",
                       help="probe the native kernel path: build, "
                            "sandbox-canary and parity-check the C "
                            "engine, then report the rung it decided")
    p.add_argument("--fresh", action="store_true",
                   help="drop this process's cached supervisor state "
                        "first (forces a re-probe; the on-disk .so "
                        "cache still applies)")
    p.set_defaults(func=_cmd_native)

    p = sub.add_parser("fuzz",
                       help="differential fuzzing: campaign, corpus "
                            "replay, corpus management")
    fuzz_sub = p.add_subparsers(dest="fuzz_command", required=True)

    def _add_fuzz_exec_args(fp: argparse.ArgumentParser) -> None:
        fp.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="corpus root (default: ./corpus)")
        fp.add_argument("--max-steps", type=int, default=400_000,
                        help="emulation step budget per run "
                             "(default 400000)")
        fp.add_argument("--width", type=int, default=8,
                        help="issue width (default 8)")
        fp.add_argument("--branches", type=int, default=1,
                        help="branch issue limit (default 1)")

    fp = fuzz_sub.add_parser("run",
                             help="run a seeded differential campaign")
    fp.add_argument("--budget", type=int, default=100, metavar="N",
                    help="number of cases (default 100)")
    fp.add_argument("--seed", default="0xfeed", metavar="S",
                    help="master seed, any int literal "
                         "(default 0xfeed)")
    fp.add_argument("--jobs", type=int, default=1, metavar="J",
                    help="parallel scheduler workers (default 1)")
    fp.add_argument("--log", default=None, metavar="FILE",
                    help="write one JSON line per case (wall time "
                         "excluded, so equal-seed runs diff clean)")
    fp.add_argument("--no-reduce", action="store_true",
                    help="skip delta-debugging of findings")
    fp.add_argument("--no-save", action="store_true",
                    help="do not write findings to the corpus")
    fp.add_argument("--bench-json", default=None, metavar="FILE",
                    help="write the campaign's metrics (fuzz "
                         "throughput) as JSON")
    _add_fuzz_exec_args(fp)
    fp.set_defaults(func=_cmd_fuzz_run)

    fp = fuzz_sub.add_parser("replay",
                             help="re-run corpus reproducers through "
                                  "the full differential check")
    fp.add_argument("case", nargs="?", default=None,
                    help="corpus entry id or directory")
    fp.add_argument("--all", action="store_true",
                    help="replay every corpus entry")
    _add_fuzz_exec_args(fp)
    fp.set_defaults(func=_cmd_fuzz_replay)

    fp = fuzz_sub.add_parser("corpus", help="list corpus entries")
    fp.add_argument("--corpus-dir", default=None, metavar="DIR")
    fp.set_defaults(func=_cmd_fuzz_corpus)

    fp = fuzz_sub.add_parser("seed",
                             help="seed the corpus from the workload "
                                  "suite and examples")
    fp.add_argument("--corpus-dir", default=None, metavar="DIR")
    fp.add_argument("--scale", type=float, default=0.1,
                    help="workload input scale for seeded entries "
                         "(default 0.1: replay must stay fast)")
    fp.set_defaults(func=_cmd_fuzz_seed)

    p = sub.add_parser("sweep",
                       help="design-space sweeps: grid run, report, "
                            "diff")
    sweep_sub = p.add_subparsers(dest="sweep_cmd", required=True)

    sp = sweep_sub.add_parser(
        "run", help="expand a sweep spec into its machine lattice and "
                    "measure every point")
    sp.add_argument("spec", metavar="SPEC",
                    help="sweep spec file (.toml on Python 3.11+, or "
                         ".json)")
    sp.add_argument("-o", "--output", default=None, metavar="PATH",
                    help="write the canonical SweepResult JSON here "
                         "(default: stdout unless --report)")
    sp.add_argument("--report", action="store_true", dest="report_text",
                    help="print the rendered surface/Pareto report "
                         "instead of raw JSON")
    _add_engine_args(sp)
    _add_perf_args(sp)
    sp.set_defaults(func=_cmd_sweep_run)

    sp = sweep_sub.add_parser("report",
                              help="render a stored SweepResult JSON")
    sp.add_argument("result", metavar="RESULT_JSON")
    sp.set_defaults(func=_cmd_sweep_report)

    sp = sweep_sub.add_parser(
        "diff", help="compare two SweepResult files point-for-point")
    sp.add_argument("old", metavar="OLD_JSON")
    sp.add_argument("new", metavar="NEW_JSON")
    sp.set_defaults(func=_cmd_sweep_diff)

    p = sub.add_parser("list", help="list registered workloads")
    p.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except EmulationFault as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return _EMULATION_FAULT_EXIT
    except (IRError, LexError, ParseError, SemaError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return _IR_ERROR_EXIT
    except OSError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return ReproError.exit_code


if __name__ == "__main__":
    sys.exit(main())
