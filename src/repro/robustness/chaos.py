"""Engine chaos campaign: prove the recovery machinery recovers.

Where :mod:`repro.robustness.faults` corrupts *data* to prove the
checkers fire, this module attacks the *execution engine* — killing
workers, tearing artifacts, filling the disk, SIGKILLing a whole suite
— and demands that every injection ends in one of exactly two states:

* **recover** — the run completes with correct output (retry, pool
  rebuild, quarantine + recompute, journaled resume), or
* **typed-failure** — a typed taxonomy error is reported cleanly.

Hangs, crashes of the *parent*, and silently wrong output all fail the
campaign.  Every injection is deadline-bounded.  Run it via
``python -m repro selftest --chaos``.

=======================  =============================  ===============
injection                mechanism                      expected
=======================  =============================  ===============
``worker-crash-retry``   pool worker ``os._exit`` on    recover
                         first attempt (sentinel file)
``artifact-truncate``    ``.art`` truncated to half     recover
                         (torn post-crash disk state)
``envelope-bit-flip``    one byte flipped mid-file,     recover
                         caught by ``cache fsck``
``slow-task-timeout``    emulation past its wall-clock  typed-failure
                         budget (watchdog)
``disk-full-write``      store ``write_hook`` raises    recover
                         ``ENOSPC`` once
``sigkill-resume``       suite process SIGKILLed        recover
                         mid-run, resumed from journal
``torn-journal``         partial final journal line     recover
                         (crash mid-append)
=======================  =============================  ===============

:func:`run_native_chaos_campaign` attacks the C-kernel trust chain the
same way (corrupted ``.so`` cache, vanishing compiler, sandboxed
SIGSEGV, stale cache across a simulated compiler upgrade, injected
parity mismatch, mid-run kernel fault); every injection must end in a
byte-identical degraded run or a typed taxonomy failure.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.profile import Profile
from repro.engine.keys import stable_digest
from repro.engine.recovery.fsck import fsck_store
from repro.engine.recovery.journal import RunJournal, journal_path, \
    new_run_id, replay_journal
from repro.engine.recovery.retry import RetryPolicy, is_transient
from repro.engine.scheduler import Job, execute_jobs
from repro.engine.store import ArtifactStore
from repro.robustness.errors import EmulationTimeout
from repro.robustness.faults import CAMPAIGN_INPUTS, CAMPAIGN_SOURCE
from repro.robustness.watchdog import EmulationWatchdog
from repro.toolchain import Model, compile_for_model, frontend, \
    run_compiled

#: hard per-injection deadline — a hung recovery is a failed recovery
_DEADLINE_SECONDS = 120.0

#: workloads the SIGKILL/resume injection runs (small but multi-task)
_RESUME_WORKLOADS = ("wc", "cmp")
_RESUME_SCALE = 0.25


@dataclass
class ChaosReport:
    """Outcome of one engine-level injection."""

    injection: str
    description: str
    expected: str      # "recover" | "typed-failure"
    outcome: str       # what actually happened
    ok: bool
    message: str = ""


def _report(injection: str, description: str, expected: str,
            ok: bool, outcome: str, message: str = "") -> ChaosReport:
    return ChaosReport(injection=injection, description=description,
                       expected=expected, outcome=outcome, ok=ok,
                       message=message)


# ----- pool worker crash ----------------------------------------------------

def _crash_once(sentinel: str) -> dict:
    """Die hard on the first attempt, succeed on the retry."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("crashed\n")
        os._exit(9)
    return {"survived": True}


def _steady(value: int) -> int:
    return value * 2


def _inject_worker_crash(jobs: int) -> ChaosReport:
    description = "pool worker os._exit mid-task; scheduler must " \
                  "rebuild the pool and retry"
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        sentinel = os.path.join(tmp, "crashed.sentinel")
        graph = [Job(job_id="chaos-crash", fn=_crash_once,
                     args=(sentinel,), stage="chaos"),
                 Job(job_id="chaos-steady", fn=_steady, args=(21,),
                     stage="chaos"),
                 Job(job_id="chaos-dependent", fn=_steady, args=(1,),
                     deps=("chaos-crash",), stage="chaos")]
        from repro.engine.metrics import PipelineMetrics
        metrics = PipelineMetrics()
        outcome = execute_jobs(graph, max_workers=max(2, jobs),
                               metrics=metrics)
    ok = outcome.ok \
        and outcome.results.get("chaos-crash") == {"survived": True} \
        and outcome.results.get("chaos-steady") == 42 \
        and metrics.pool_rebuilds >= 1
    return _report(
        "worker-crash-retry", description, "recover", ok,
        "recovered" if ok else "NOT recovered",
        f"{metrics.pool_rebuilds} pool rebuilds, "
        f"{len(outcome.failures)} failures, "
        f"{len(outcome.results)}/3 jobs completed")


# ----- store corruption -----------------------------------------------------

def _inject_artifact_truncate() -> ChaosReport:
    description = "artifact file truncated to half its bytes (torn " \
                  "post-crash disk state); read must quarantine and " \
                  "recompute"
    payload = {"cycles": list(range(500))}
    key = stable_digest("chaos", "truncate")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        store = ArtifactStore(tmp)
        store.put("stats", key, payload)
        path = store._path("stats", key)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        first = store.get("stats", key)          # quarantine + miss
        store.put("stats", key, payload)         # the recompute
        second = store.get("stats", key)
        quarantined = list(Path(tmp, "quarantine").rglob("*.art*"))
        quarantined = [p for p in quarantined
                       if not p.name.endswith(".reason")]
        ok = first is None and second == payload \
            and store.metrics.quarantined_artifacts == 1 \
            and len(quarantined) == 1
    return _report(
        "artifact-truncate", description, "recover", ok,
        "recovered" if ok else "NOT recovered",
        f"read after truncation -> {'miss' if first is None else 'HIT'}"
        f", rewrite {'round-trips' if second == payload else 'FAILS'}")


def _inject_envelope_bit_flip() -> ChaosReport:
    description = "one byte flipped inside the envelope; fsck must " \
                  "detect it, --repair must quarantine it"
    payload = list(range(1000))
    key = stable_digest("chaos", "bit-flip")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        store = ArtifactStore(tmp)
        store.put("execution", key, payload)
        store.put("stats", stable_digest("chaos", "healthy"), {"ok": 1})
        path = store._path("execution", key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        detect = fsck_store(store, repair=False)
        repair = fsck_store(store, repair=True)
        clean = fsck_store(store, repair=False)
        recomputed = store.get("execution", key)  # miss -> recompute
        store.put("execution", key, payload)
        ok = detect.corrupt == 1 and not detect.clean \
            and repair.corrupt == 1 \
            and clean.clean and clean.scanned == 1 \
            and recomputed is None \
            and store.get("execution", key) == payload
    return _report(
        "envelope-bit-flip", description, "recover", ok,
        "recovered" if ok else "NOT recovered",
        f"fsck detected {detect.corrupt}, post-repair scan "
        f"{'clean' if clean.clean else 'STILL CORRUPT'}")


def _inject_disk_full() -> ChaosReport:
    description = "store write_hook raises ENOSPC on the first write; " \
                  "the retry policy must classify it transient and " \
                  "the rewrite must succeed"
    payload = {"figures": [1, 2, 3]}
    key = stable_digest("chaos", "disk-full")
    state = {"armed": True, "tripped": False}

    def hook(kind: str, k: str, nbytes: int) -> None:
        if state["armed"]:
            state["armed"] = False
            state["tripped"] = True
            raise OSError(errno.ENOSPC, "No space left on device")

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        store = ArtifactStore(tmp)
        store.write_hook = hook
        policy = RetryPolicy(max_attempts=3, backoff_base=0.01,
                             backoff_cap=0.05)
        attempt = 0
        classified = False
        while True:
            attempt += 1
            try:
                store.put("stats", key, payload)
                break
            except OSError as exc:
                classified = is_transient(exc)
                if not policy.should_retry(exc, attempt):
                    raise
                time.sleep(policy.backoff("chaos-disk-full", attempt))
        debris = [p for p in Path(tmp).rglob("*")
                  if p.is_file() and (".tmp" in p.name
                                      or p.name.endswith(".lock"))]
        ok = state["tripped"] and classified and attempt == 2 \
            and store.get("stats", key) == payload and not debris
    return _report(
        "disk-full-write", description, "recover", ok,
        "recovered" if ok else "NOT recovered",
        f"ENOSPC on attempt 1, success on attempt {attempt}, "
        f"{len(debris)} tmp/lock files left behind")


# ----- slow task ------------------------------------------------------------

def _inject_slow_task() -> ChaosReport:
    description = "emulation exceeds its wall-clock budget; the " \
                  "watchdog must raise a typed EmulationTimeout"
    base = frontend(CAMPAIGN_SOURCE)
    profile = Profile.collect(base, inputs=CAMPAIGN_INPUTS)
    from repro.machine.descriptor import scalar_machine
    compiled = compile_for_model(base, Model.SUPERBLOCK, profile,
                                 scalar_machine())
    # A tiny beat interval makes the budget bite on small kernels (the
    # default 65536-step interval never fires inside one).
    wd = EmulationWatchdog(wall_clock_budget=1e-9, interval=64)
    caught: str | None = None
    message = ""
    try:
        run_compiled(compiled, inputs=CAMPAIGN_INPUTS, watchdog=wd)
    except EmulationTimeout as exc:
        caught = type(exc).__name__
        message = str(exc)[:120]
    except Exception as exc:  # noqa: BLE001 — we classify, not handle
        caught = type(exc).__name__
        message = str(exc)[:120]
    ok = caught == "EmulationTimeout" \
        and is_transient(EmulationTimeout("probe"))
    return _report(
        "slow-task-timeout", description, "typed-failure", ok,
        f"typed {caught}" if caught else "NO ERROR RAISED", message)


# ----- SIGKILL + resume -----------------------------------------------------

def _resume_suite(cache_dir: str, run_id: str | None, resume: bool):
    from repro.experiments.runner import ExperimentSuite
    from repro.workloads import get_workload
    return ExperimentSuite(
        workloads=[get_workload(n) for n in _RESUME_WORKLOADS],
        scale=_RESUME_SCALE, cache_dir=cache_dir, run_id=run_id,
        resume=resume)


def _suite_child(cache_dir: str, run_id: str) -> None:
    """Child process body: run the figure suite to completion."""
    from repro.machine.descriptor import fig8_machine
    suite = _resume_suite(cache_dir, run_id, resume=False)
    suite.speedups(fig8_machine())
    suite.close_journal()


def _inject_sigkill_resume() -> ChaosReport:
    description = "suite process SIGKILLed mid-figure; --resume must " \
                  "complete byte-identically with zero recompute of " \
                  "journaled tasks"
    from repro.machine.descriptor import fig8_machine
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        cache_dir = os.path.join(tmp, "killed-cache")
        ref_dir = os.path.join(tmp, "reference-cache")
        run_id = new_run_id()
        child = multiprocessing.Process(
            target=_suite_child, args=(cache_dir, run_id), daemon=True)
        child.start()
        jpath = journal_path(os.path.join(cache_dir, "runs"), run_id)
        deadline = time.monotonic() + _DEADLINE_SECONDS
        finishes = 0
        while time.monotonic() < deadline and child.is_alive():
            try:
                finishes = jpath.read_bytes().count(
                    b'"type":"task-finish"')
            except OSError:
                finishes = 0
            if finishes >= 1:
                break
            time.sleep(0.005)
        killed_midway = child.is_alive()
        if killed_midway:
            os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=_DEADLINE_SECONDS)

        state = replay_journal(jpath)
        # Resume against the same cache dir.
        resumed = _resume_suite(cache_dir, run_id, resume=True)
        table = resumed.speedups(fig8_machine())
        resumed_sims = sum(1 for t in resumed.resumed_verified
                           if t.startswith("simulate:"))
        sims_recomputed = \
            resumed.metrics.stages["simulate"].invocations
        expected_sims = 4 * len(_RESUME_WORKLOADS)  # 3 models + baseline
        # Differential oracle over the recovered executions.
        for name in _RESUME_WORKLOADS:
            resumed.check_model_agreement(name, fig8_machine())
        resumed.close_journal()
        # Clean reference from a cold cache, for byte-identity.
        reference = _resume_suite(ref_dir, None, resume=False)
        ref_table = reference.speedups(fig8_machine())
        reference.close_journal()
        ok = repr(table) == repr(ref_table) \
            and resumed_sims == len(state.completed) \
            and sims_recomputed == expected_sims - resumed_sims \
            and not resumed.resumed_invalid
    return _report(
        "sigkill-resume", description, "recover", ok,
        "recovered" if ok else "NOT recovered",
        f"{'killed mid-run' if killed_midway else 'finished early'}, "
        f"{resumed_sims} tasks journal-verified (zero recompute), "
        f"{sims_recomputed} recomputed, output "
        f"{'byte-identical' if repr(table) == repr(ref_table) else 'DIVERGED'}"
        f", differential oracle clean")


def _inject_torn_journal() -> ChaosReport:
    description = "SIGKILL mid-append leaves a torn final journal " \
                  "line; replay must keep every durable record"
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        journal = RunJournal.create(tmp, meta={"chaos": True})
        run_id = journal.run_id
        journal.task_start("chaos-task")
        journal.task_finish("chaos-task", [("stats", "k" * 64, "s" * 64)])
        journal.close()
        jpath = journal_path(tmp, run_id)
        with open(jpath, "a", encoding="utf-8") as handle:
            handle.write('{"type":"task-fi')  # the torn append
        state = replay_journal(jpath)
        resumed, rstate = RunJournal.resume(tmp, run_id)
        resumed.close()
        ok = state.torn_lines == 1 \
            and "chaos-task" in state.completed \
            and "chaos-task" in rstate.completed
    return _report(
        "torn-journal", description, "recover", ok,
        "recovered" if ok else "NOT recovered",
        f"{state.torn_lines} torn line tolerated, "
        f"{len(state.completed)} completed tasks preserved")


# ----- native-engine chaos --------------------------------------------------
#
# Every injection here attacks the C-kernel trust chain — the .so
# cache, the compiler, the sandbox canary, the parity replay, or a
# kernel mid-run — and demands the same two terminal states as the
# engine campaign: a *byte-identical* degraded run (the ladder ate the
# fault) or a typed taxonomy failure.  The degraded output is compared
# against a pure-Python reference of the same campaign kernel, so
# "recovered" always means "the figures did not move".

#: (compiled program, machine, reference observables) — built once
_NATIVE_CHAOS: tuple | None = None


def _native_chaos_program():
    global _NATIVE_CHAOS
    if _NATIVE_CHAOS is None:
        from repro.machine.descriptor import MachineDescription
        base = frontend(CAMPAIGN_SOURCE)
        profile = Profile.collect(base, inputs=CAMPAIGN_INPUTS)
        machine = MachineDescription(
            issue_width=4, branch_issue_limit=2,
            name="native-chaos").with_real_caches()
        compiled = compile_for_model(base, Model.FULLPRED, profile,
                                     machine)
        reference = _observables(run_compiled(
            compiled, inputs=CAMPAIGN_INPUTS, machine=machine,
            engine="legacy"))
        _NATIVE_CHAOS = (compiled, machine, reference)
    return _NATIVE_CHAOS


def _observables(result) -> str:
    """Every observable a figure could depend on, as one comparable
    string (the trace itself is engine-internal and may be None)."""
    ex = result.execution
    return repr((ex.return_value, ex.dynamic_count, ex.suppressed_count,
                 ex.output_signature, ex.output_count, ex.memory_digest,
                 result.stats))


def _degraded_run() -> str:
    """Run the campaign kernel through the vector engine under the
    *current* supervisor state (healthy, demoted, or mid-injection)."""
    compiled, machine, _ = _native_chaos_program()
    return _observables(run_compiled(
        compiled, inputs=CAMPAIGN_INPUTS, machine=machine,
        engine="vector"))


def _have_cc() -> bool:
    import shutil
    return any(shutil.which(c) for c in ("cc", "gcc"))


def _skip_no_cc(injection: str, description: str) -> ChaosReport:
    return _report(injection, description, "recover", True,
                   "skipped", "no C toolchain in this environment")


def _quarantined_kernels(cache_dir: str) -> list[Path]:
    qdir = Path(cache_dir) / "quarantine"
    if not qdir.is_dir():
        return []
    return [p for p in qdir.iterdir()
            if not p.name.endswith(".reason")]


def _inject_kernel_so_corrupt() -> ChaosReport:
    description = "cached kernel .so corrupted on disk; load must " \
                  "quarantine the object, rebuild, and stay " \
                  "byte-identical"
    if not _have_cc():
        return _skip_no_cc("kernel-so-corrupt", description)
    from repro.fastpath import native, supervisor
    _, _, reference = _native_chaos_program()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        try:
            supervisor.reset_for_testing(cache_dir=tmp)
            path = Path(supervisor.ensure_built())
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0x01
            path.write_bytes(bytes(blob))
            supervisor.reset_for_testing(cache_dir=tmp)
            rebuilt = native.available()
            counters = supervisor.counters_snapshot()
            quarantined = _quarantined_kernels(tmp)
            degraded = _degraded_run()
            ok = rebuilt \
                and counters["kernel_cache_quarantined"] >= 1 \
                and len(quarantined) >= 1 \
                and degraded == reference

            message = (f"corrupt object quarantined "
                       f"({len(quarantined)} in quarantine/), rebuilt "
                       f"and revalidated, output "
                       f"{'byte-identical' if degraded == reference else 'DIVERGED'}")
        finally:
            supervisor.reset_for_testing()
    return _report("kernel-so-corrupt", description, "recover", ok,
                   "recovered" if ok else "NOT recovered", message)


def _inject_kernel_cc_vanish() -> ChaosReport:
    description = "C compiler vanishes before the build; typed " \
                  "NativeToolchainMissing must demote the ladder and " \
                  "the degraded run must be byte-identical"
    from repro.fastpath import native, supervisor
    _, _, reference = _native_chaos_program()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        try:
            supervisor.reset_for_testing(
                cache_dir=tmp, compilers=("repro-chaos-missing-cc",))
            available = native.available()
            error = supervisor.last_error()
            events = supervisor.degradation_events()
            degraded = _degraded_run()
            ok = not available and error is not None \
                and type(error).__name__ == "NativeToolchainMissing" \
                and is_transient(error) \
                and any(e.from_engine == "native" for e in events) \
                and degraded == reference
            message = (f"typed {type(error).__name__} "
                       f"(exit {getattr(error, 'exit_code', '?')}, "
                       f"transient), engine now "
                       f"{supervisor.current_engine()}, output "
                       f"{'byte-identical' if degraded == reference else 'DIVERGED'}")
        finally:
            supervisor.reset_for_testing()
    return _report("kernel-cc-vanish", description, "recover", ok,
                   "recovered" if ok else "NOT recovered", message)


def _inject_kernel_segv() -> ChaosReport:
    description = "kernel SIGSEGVs inside the sacrificial sandbox " \
                  "canary; only the child dies, the parent demotes " \
                  "with a typed NativeKernelCrash"
    if not _have_cc():
        return _skip_no_cc("kernel-segv", description)
    from repro.fastpath import native, supervisor
    _, _, reference = _native_chaos_program()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        try:
            supervisor.reset_for_testing(cache_dir=tmp)
            supervisor.set_injection("segv-child")
            available = native.available()
            error = supervisor.last_error()
            counters = supervisor.counters_snapshot()
            degraded = _degraded_run()
            ok = not available and error is not None \
                and type(error).__name__ == "NativeKernelCrash" \
                and getattr(error, "signal", None) == int(signal.SIGSEGV) \
                and is_transient(error) \
                and counters["native_kernel_crashes"] >= 1 \
                and counters["engine_demotions"] >= 1 \
                and degraded == reference
            message = (f"child died on signal "
                       f"{getattr(error, 'signal', '?')}, parent alive, "
                       f"engine now {supervisor.current_engine()}, "
                       f"output "
                       f"{'byte-identical' if degraded == reference else 'DIVERGED'}")
        finally:
            supervisor.set_injection(None)
            supervisor.reset_for_testing()
    return _report("kernel-segv", description, "recover", ok,
                   "recovered" if ok else "NOT recovered", message)


def _inject_kernel_stale_cc() -> ChaosReport:
    description = "compiler upgrade between runs; the " \
                  "fingerprint-keyed cache must rebuild instead of " \
                  "loading the stale object"
    if not _have_cc():
        return _skip_no_cc("kernel-stale-cc", description)
    from repro.fastpath import native, supervisor
    _, _, reference = _native_chaos_program()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        try:
            supervisor.reset_for_testing(cache_dir=tmp,
                                         fingerprint="chaos-cc 1.0")
            first_path = supervisor.so_path()
            first_ok = native.available()
            first_run = _degraded_run()
            supervisor.reset_for_testing(cache_dir=tmp,
                                         fingerprint="chaos-cc 2.0")
            second_path = supervisor.so_path()
            second_ok = native.available()
            second_run = _degraded_run()
            ok = first_ok and second_ok \
                and first_path != second_path \
                and os.path.exists(first_path) \
                and os.path.exists(second_path) \
                and first_run == reference and second_run == reference
            message = ("cache keys diverged, both objects built and "
                       "validated, outputs "
                       + ("byte-identical"
                          if first_run == reference
                          and second_run == reference else "DIVERGED"))
        finally:
            supervisor.reset_for_testing()
    return _report("kernel-stale-cc", description, "recover", ok,
                   "recovered" if ok else "NOT recovered", message)


def _inject_kernel_parity() -> ChaosReport:
    description = "golden parity mismatch injected in the sandbox " \
                  "canary; the object must be quarantined, the " \
                  "process demoted, the output byte-identical"
    if not _have_cc():
        return _skip_no_cc("kernel-parity-mismatch", description)
    from repro.fastpath import native, supervisor
    _, _, reference = _native_chaos_program()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        try:
            supervisor.reset_for_testing(cache_dir=tmp)
            supervisor.set_injection("parity-child")
            available = native.available()
            error = supervisor.last_error()
            counters = supervisor.counters_snapshot()
            quarantined = _quarantined_kernels(tmp)
            degraded = _degraded_run()
            ok = not available and error is not None \
                and type(error).__name__ == "NativeParityError" \
                and counters["native_parity_failures"] >= 1 \
                and counters["kernel_cache_quarantined"] >= 1 \
                and len(quarantined) >= 1 \
                and degraded == reference
            message = (f"typed NativeParityError, object quarantined "
                       f"({len(quarantined)} in quarantine/), engine "
                       f"now {supervisor.current_engine()}, output "
                       f"{'byte-identical' if degraded == reference else 'DIVERGED'}")
        finally:
            supervisor.set_injection(None)
            supervisor.reset_for_testing()
    return _report("kernel-parity-mismatch", description, "recover", ok,
                   "recovered" if ok else "NOT recovered", message)


def _inject_kernel_midrun() -> ChaosReport:
    description = "kernel faults mid-run after passing every canary; " \
                  "the vector engine must demote in place and finish " \
                  "byte-identically"
    if not _have_cc():
        return _skip_no_cc("kernel-midrun-fault", description)
    from repro.fastpath import native, supervisor
    _, _, reference = _native_chaos_program()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        try:
            supervisor.reset_for_testing(cache_dir=tmp)
            healthy = native.available()
            supervisor.set_injection(("scan-fault", 1))
            degraded = _degraded_run()
            counters = supervisor.counters_snapshot()
            events = supervisor.degradation_events()
            ok = healthy \
                and counters["native_kernel_crashes"] >= 1 \
                and counters["engine_demotions"] >= 1 \
                and any(e.error == "NativeKernelCrash" for e in events) \
                and degraded == reference
            message = (f"validated healthy, faulted mid-run, "
                       f"{counters['engine_demotions']} demotion(s) "
                       f"recorded, output "
                       f"{'byte-identical' if degraded == reference else 'DIVERGED'}")
        finally:
            supervisor.set_injection(None)
            supervisor.reset_for_testing()
    return _report("kernel-midrun-fault", description, "recover", ok,
                   "recovered" if ok else "NOT recovered", message)


# ----- the campaigns --------------------------------------------------------

def _run_injections(injections) -> list[ChaosReport]:
    """Run each injection; one report each, the parent never crashes."""
    reports: list[ChaosReport] = []
    for name, injector in injections:
        start = time.monotonic()
        try:
            report = injector()
        except Exception as exc:  # noqa: BLE001 — campaign must finish
            report = _report(name, "injection harness", "recover",
                             False, f"unhandled {type(exc).__name__}",
                             str(exc)[:300])
        elapsed = time.monotonic() - start
        if elapsed > _DEADLINE_SECONDS:
            report.ok = False
            report.message += f" [exceeded {_DEADLINE_SECONDS:g}s deadline]"
        reports.append(report)
    return reports


def run_chaos_campaign(jobs: int = 2) -> list[ChaosReport]:
    """Run every engine injection."""
    return _run_injections([
        ("worker-crash-retry", lambda: _inject_worker_crash(jobs)),
        ("artifact-truncate", _inject_artifact_truncate),
        ("envelope-bit-flip", _inject_envelope_bit_flip),
        ("slow-task-timeout", _inject_slow_task),
        ("disk-full-write", _inject_disk_full),
        ("sigkill-resume", _inject_sigkill_resume),
        ("torn-journal", _inject_torn_journal),
    ])


def run_native_chaos_campaign(jobs: int = 2) -> list[ChaosReport]:
    """Run every native-engine injection (``jobs`` accepted for CLI
    symmetry; the supervisor is per-process state, so the injections
    run in this process)."""
    del jobs
    return _run_injections([
        ("kernel-so-corrupt", _inject_kernel_so_corrupt),
        ("kernel-cc-vanish", _inject_kernel_cc_vanish),
        ("kernel-segv", _inject_kernel_segv),
        ("kernel-stale-cc", _inject_kernel_stale_cc),
        ("kernel-parity-mismatch", _inject_kernel_parity),
        ("kernel-midrun-fault", _inject_kernel_midrun),
    ])


def format_chaos_reports(reports: list[ChaosReport],
                         title: str = "engine chaos campaign") -> str:
    lines = ["", title,
             f"{'injection':<24s}{'expected':<15s}{'outcome':<24s}"
             f"{'ok':<4s}",
             "-" * 67]
    for r in reports:
        lines.append(f"{r.injection:<24s}{r.expected:<15s}"
                     f"{r.outcome:<24s}{'yes' if r.ok else 'NO':<4s}")
        if r.message:
            lines.append(f"    {r.message}")
    recovered = sum(1 for r in reports if r.ok)
    lines.append(f"{recovered}/{len(reports)} injections ended in clean "
                 f"recovery or a typed failure")
    return "\n".join(lines)
