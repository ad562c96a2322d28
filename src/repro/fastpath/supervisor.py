"""Native-engine supervisor: sandboxing, parity canary, cache integrity.

The native (C) kernels of :mod:`repro.fastpath.native` are the only
code in the reproduction that can segfault the interpreter, load a
stale or corrupted shared object, or silently depend on the host
compiler.  This module owns everything about *trusting* that code:

* **Build + cache integrity.**  The kernel ``.so`` is cached under a
  dedicated directory (``REPRO_KERNEL_CACHE``, default
  ``<tmp>/repro-kernels``) keyed by the SHA-256 of the C source *plus*
  the compiler fingerprint (``cc --version`` first line) *plus* the
  build flags, with a ``.sha256`` digest sidecar written at publish
  time.  A cached object whose bytes no longer match the sidecar is
  quarantined (moved under ``quarantine/`` with a ``.reason`` file)
  and rebuilt; a compiler upgrade changes the fingerprint and thereby
  the cache key, so a stale object can never be loaded by accident.

* **Sacrificial-subprocess canary.**  Before a process loads a kernel
  whose digest has never passed validation (no matching ``.ok``
  sidecar), the first invocation happens in a child process
  (``python -m repro.fastpath.supervisor <so>``) that replays a golden
  MiniC trace through the native kernels and the pure-Python engines
  and byte-compares the observables.  A SIGSEGV/SIGBUS kills only the
  child and surfaces as a typed :class:`NativeKernelCrash`; an
  observable mismatch exits with :class:`NativeParityError`'s code and
  quarantines the object.

* **In-process parity canary.**  Even a sandbox-validated object is
  replayed once per process (cheap, in-process) before the process
  trusts it — a mismatch quarantines and demotes.

* **Degradation ladder.**  Any typed failure demotes the *process*
  from the native rung to the interpreter (the pure-Python
  :func:`~repro.fastpath.interp.run_program_fast` and
  :class:`~repro.fastpath.simulate.StreamSimulator`), recorded as a
  structured :class:`DegradationEvent` plus counters (``engine_demotions``,
  ``native_parity_failures``, ``native_kernel_crashes``,
  ``kernel_cache_quarantined``) that :func:`drain_into` folds into a
  :class:`~repro.engine.metrics.PipelineMetrics`, so demotions reach
  the run summary and the ``--bench-json`` snapshot.  All rungs are
  byte-identical, so degradation is observable but never changes a
  figure.

``REPRO_NATIVE`` / ``REPRO_KERNEL_CACHE`` / ``REPRO_NATIVE_CFLAGS``
are resolved exactly once per process (at first use); a mid-run env
mutation can never produce mixed-engine chunks within one workload.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.robustness.errors import (NativeBuildError, NativeEngineError,
                                     NativeKernelCrash, NativeParityError,
                                     NativeToolchainMissing, ReproError)

#: the degradation ladder, best rung first; every rung is byte-identical
ENGINE_LADDER = ("native", "interpreter")

#: compiler names probed in order
_DEFAULT_COMPILERS = ("cc", "gcc")

#: base build flags; ``REPRO_NATIVE_CFLAGS`` appends (sanitizers, -g)
_BASE_CFLAGS = ("-O2", "-shared", "-fPIC")

#: wall-clock bound on one sandbox canary child (a hung kernel is a
#: crashed kernel)
_CANARY_TIMEOUT = 180.0

#: counters drained into PipelineMetrics (names match its fields)
_COUNTER_NAMES = ("engine_demotions", "native_parity_failures",
                  "native_kernel_crashes", "kernel_cache_quarantined")


# ----------------------------------------------------------------- #
# Golden canary workload                                            #
# ----------------------------------------------------------------- #

#: small MiniC kernel exercising predication, branches, loads/stores
#: and modulo — enough dynamic behavior that every native kernel path
#: (emulator opcodes, BTB, I/D cache scans) contributes to the digest.
GOLDEN_SOURCE = """
int src[64];
int dst[64];
int n;

int main() {
  int i;
  int v;
  int acc;
  int hits;
  acc = 0;
  hits = 0;
  for (i = 0; i < n; i = i + 1) {
    v = src[i];
    if (v % 3 == 0) acc = acc + v;
    if (v > 6) hits = hits + 1;
    dst[i] = acc * 2 + v;
  }
  return acc * 100 + hits;
}
"""

GOLDEN_INPUTS = {"src": [(i * 5 + 2) % 11 for i in range(64)],
                 "n": [64]}


# ----------------------------------------------------------------- #
# Supervisor state                                                  #
# ----------------------------------------------------------------- #

@dataclass
class DegradationEvent:
    """One structured record of the process losing an engine rung."""

    at: float                  # time.time() of the demotion
    from_engine: str           # rung lost ("native")
    to_engine: str             # rung now active
    reason: str                # human-readable cause
    error: str = ""            # taxonomy class name, when one applies

    def to_dict(self) -> dict:
        return {"at": self.at, "from": self.from_engine,
                "to": self.to_engine, "reason": self.reason,
                "error": self.error}


@dataclass
class _State:
    """Per-process supervisor state (env resolved exactly once)."""

    enabled: bool
    cache_dir: str
    cflags: tuple[str, ...]
    compilers: tuple[str, ...] = _DEFAULT_COMPILERS
    fingerprint_override: str | None = None
    engine: str = "native"
    validated: bool = False
    fingerprint: str | None = None
    last_error: ReproError | None = None
    events: list[DegradationEvent] = field(default_factory=list)
    counters: dict[str, int] = field(
        default_factory=lambda: {n: 0 for n in _COUNTER_NAMES})
    drained: dict[str, int] = field(
        default_factory=lambda: {n: 0 for n in _COUNTER_NAMES})
    #: test injection: "segv-child" | "parity-child" |
    #: "parity-process" | ("scan-fault", k) | ("emu-fault", k)
    injection: object | None = None
    scan_calls: int = 0
    emu_chunks: int = 0

    def __post_init__(self):
        if not self.enabled:
            # REPRO_NATIVE=0 is a configuration choice, not a failure:
            # start below the native rung without a demotion event.
            self.engine = "interpreter"


_lock = threading.RLock()
_state: _State | None = None


def _build_state(*, cache_dir: str | None = None,
                 compilers: tuple[str, ...] | None = None,
                 fingerprint: str | None = None) -> _State:
    enabled = os.environ.get("REPRO_NATIVE", "1").lower() not in (
        "0", "off", "no", "false")
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_KERNEL_CACHE") or os.path.join(
            tempfile.gettempdir(), "repro-kernels")
    extra = tuple(shlex.split(os.environ.get("REPRO_NATIVE_CFLAGS", "")))
    return _State(enabled=enabled, cache_dir=cache_dir,
                  cflags=_BASE_CFLAGS + extra,
                  compilers=compilers or _DEFAULT_COMPILERS,
                  fingerprint_override=fingerprint)


def _get_state() -> _State:
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _build_state()
    return _state


def reset_for_testing(*, cache_dir: str | None = None,
                      compilers: tuple[str, ...] | None = None,
                      fingerprint: str | None = None) -> None:
    """Rebuild the per-process state (tests only).

    Re-reads the environment, restores the ladder to its top rung, and
    resets :mod:`repro.fastpath.native`'s cached library handle so the
    next use goes through the full acquire/verify path again.
    """
    global _state
    with _lock:
        _state = _build_state(cache_dir=cache_dir, compilers=compilers,
                              fingerprint=fingerprint)
        from repro.fastpath import native
        native._lib = None
        native._lib_tried = False


# ----------------------------------------------------------------- #
# Ladder + telemetry                                                #
# ----------------------------------------------------------------- #

def native_enabled() -> bool:
    """The once-per-process ``REPRO_NATIVE`` snapshot."""
    return _get_state().enabled


def current_engine() -> str:
    """The best rung this process still trusts."""
    return _get_state().engine


def native_active() -> bool:
    """True while the process is still on the native rung."""
    state = _get_state()
    return state.enabled and state.engine == "native"


def demote(reason: str, error: str = "") -> str:
    """Drop to the next rung; record the structured event.  Returns
    the new rung.  Demoting below the last rung is a no-op (the
    interpreter cannot fail this way)."""
    with _lock:
        state = _get_state()
        idx = ENGINE_LADDER.index(state.engine)
        if idx + 1 >= len(ENGINE_LADDER):
            return state.engine
        new = ENGINE_LADDER[idx + 1]
        state.events.append(DegradationEvent(
            at=time.time(), from_engine=state.engine, to_engine=new,
            reason=reason, error=error))
        state.engine = new
        state.counters["engine_demotions"] += 1
        return new


def last_error() -> ReproError | None:
    return _get_state().last_error


def degradation_events() -> list[DegradationEvent]:
    return list(_get_state().events)


def counters_snapshot() -> dict[str, int]:
    return dict(_get_state().counters)


def drain_into(metrics) -> None:
    """Fold undrained counter deltas into a ``PipelineMetrics``.

    Deltas are moved, not copied: two contexts draining the same
    process state split the totals instead of double-counting them.
    """
    with _lock:
        state = _get_state()
        for name in _COUNTER_NAMES:
            delta = state.counters[name] - state.drained[name]
            if delta:
                setattr(metrics, name, getattr(metrics, name) + delta)
                state.drained[name] = state.counters[name]


def _record_failure(exc: NativeEngineError) -> None:
    state = _get_state()
    state.last_error = exc
    demote(str(exc), error=type(exc).__name__)


# ----------------------------------------------------------------- #
# Injection hooks (tests)                                           #
# ----------------------------------------------------------------- #

def set_injection(kind: object | None) -> None:
    """Arm one fault injection; see :class:`_State.injection`."""
    with _lock:
        state = _get_state()
        state.injection = kind
        state.scan_calls = 0
        state.emu_chunks = 0


def maybe_fault_scan() -> None:
    """Raise an injected kernel fault before the Nth sim-scan call."""
    state = _get_state()
    inj = state.injection
    if not (isinstance(inj, tuple) and inj[0] == "scan-fault"):
        return
    state.scan_calls += 1
    if state.scan_calls >= inj[1]:
        state.injection = None
        raise NativeKernelCrash(
            f"injected sim-scan kernel fault at chunk {state.scan_calls}",
            stage="sim-scan")


def maybe_fault_emu() -> None:
    """Raise an injected kernel fault before the Nth emulator chunk."""
    state = _get_state()
    inj = state.injection
    if not (isinstance(inj, tuple) and inj[0] == "emu-fault"):
        return
    state.emu_chunks += 1
    if state.emu_chunks >= inj[1]:
        state.injection = None
        raise NativeKernelCrash(
            f"injected emulator kernel fault at chunk {state.emu_chunks}",
            stage="emu")


def report_kernel_fault(exc: NativeKernelCrash) -> None:
    """Record a mid-run kernel fault: counter + demotion.  Called by
    the code that caught the fault and is about to recover on the next
    rung (or re-raise the typed error for the scheduler's retry)."""
    with _lock:
        state = _get_state()
        state.counters["native_kernel_crashes"] += 1
        state.last_error = exc
        demote(str(exc), error=type(exc).__name__)


# ----------------------------------------------------------------- #
# Toolchain fingerprint + build                                     #
# ----------------------------------------------------------------- #

def _resolve_compiler(state: _State) -> str:
    for cc in state.compilers:
        if shutil.which(cc):
            return cc
    raise NativeToolchainMissing(
        f"no C compiler found (searched: {', '.join(state.compilers)})",
        searched=state.compilers)


def cc_fingerprint() -> str:
    """Identify the toolchain that kernels are keyed against.

    ``<cc> <first line of cc --version>`` — baked into the cache key,
    so a compiler upgrade structurally invalidates every cached object
    instead of silently serving one built by the old compiler.
    """
    state = _get_state()
    if state.fingerprint_override is not None:
        return state.fingerprint_override
    if state.fingerprint is not None:
        return state.fingerprint
    cc = _resolve_compiler(state)
    try:
        proc = subprocess.run([cc, "--version"], capture_output=True,
                              timeout=30)
        first = proc.stdout.decode("utf-8", "replace").splitlines()
        version = first[0].strip() if first else ""
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeToolchainMissing(
            f"compiler {cc!r} vanished while fingerprinting: {exc}",
            searched=state.compilers) from exc
    state.fingerprint = f"{cc} {version}".strip()
    return state.fingerprint


def cache_key() -> str:
    """Content hash of (C source, compiler fingerprint, build flags)."""
    from repro.fastpath._native_src import C_SOURCE
    state = _get_state()
    payload = "\x00".join((C_SOURCE, cc_fingerprint(),
                           " ".join(state.cflags)))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def so_path() -> str:
    """Where the current kernel object lives (built or not)."""
    return os.path.join(_get_state().cache_dir,
                        f"repro_kernel_{cache_key()}.so")


def _digest_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _publish(tmp_src: str, dest: str) -> None:
    """Atomically publish ``tmp_src`` plus its digest sidecar."""
    digest = _digest_file(tmp_src)
    tmp = f"{dest}.{os.getpid()}.tmp"
    shutil.copy(tmp_src, tmp)
    os.replace(tmp, dest)
    sidecar = f"{dest}.sha256"
    tmp = f"{sidecar}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        handle.write(digest + "\n")
    os.replace(tmp, sidecar)


def quarantine_so(path: str | Path, reason: str) -> Path | None:
    """Move a kernel object under ``<cache>/quarantine/`` with a
    ``.reason`` sidecar; drop its digest/validation sidecars.  Returns
    the new location (None when the file vanished first)."""
    path = Path(path)
    with _lock:
        state = _get_state()
        qdir = Path(state.cache_dir) / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        dest = qdir / f"{path.name}.{os.getpid()}.{os.urandom(3).hex()}"
        try:
            os.replace(path, dest)
        except FileNotFoundError:
            return None
        dest.with_name(dest.name + ".reason").write_text(reason + "\n")
        for suffix in (".sha256", ".ok"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)
        state.counters["kernel_cache_quarantined"] += 1
        state.validated = False
        return dest


def ensure_built() -> str:
    """Return a digest-verified kernel ``.so``, building if needed.

    A cached object with a missing or mismatching ``.sha256`` sidecar
    is quarantined and rebuilt once.  Raises the typed taxonomy on
    failure (:class:`NativeToolchainMissing`, :class:`NativeBuildError`).
    """
    with _lock:
        state = _get_state()
        dest = so_path()
        if os.path.exists(dest):
            sidecar = Path(f"{dest}.sha256")
            try:
                recorded = sidecar.read_text().strip()
            except OSError:
                recorded = ""
            if recorded and _digest_file(dest) == recorded:
                return dest
            quarantine_so(dest, "cached kernel object failed digest "
                          "verification on load" if recorded
                          else "cached kernel object has no digest "
                          "sidecar")
        cc = _resolve_compiler(state)
        from repro.fastpath._native_src import C_SOURCE
        os.makedirs(state.cache_dir, exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(
                    dir=state.cache_dir) as td:
                src = os.path.join(td, "repro_native.c")
                with open(src, "w") as handle:
                    handle.write(C_SOURCE)
                built = os.path.join(td, "repro_native.so")
                try:
                    proc = subprocess.run(
                        [cc, *state.cflags, "-o", built, src, "-lm"],
                        capture_output=True, timeout=120)
                except (OSError, subprocess.SubprocessError) as exc:
                    raise NativeToolchainMissing(
                        f"compiler {cc!r} vanished mid-build: {exc}",
                        searched=state.compilers) from exc
                if proc.returncode != 0 or not os.path.exists(built):
                    stderr = proc.stderr.decode("utf-8",
                                                "replace")[-2000:]
                    raise NativeBuildError(
                        f"{cc} exited {proc.returncode} building the "
                        f"native kernels", cc=cc, stderr=stderr,
                        so_path=dest)
                _publish(built, dest)
        except OSError as exc:
            raise NativeBuildError(
                f"kernel cache write failed: {exc}", cc=cc,
                so_path=dest) from exc
        return dest


# ----------------------------------------------------------------- #
# Canaries                                                          #
# ----------------------------------------------------------------- #

def _golden_program():
    """Compile the golden canary once per process (FULLPRED exercises
    the predicate-define/set kernel paths on top of the usual ones)."""
    global _GOLDEN
    if _GOLDEN is None:
        from repro.analysis.profile import Profile
        from repro.machine.descriptor import MachineDescription
        from repro.toolchain import Model, compile_for_model, frontend
        machine = MachineDescription(
            issue_width=4, branch_issue_limit=2,
            name="canary").with_real_caches()
        base = frontend(GOLDEN_SOURCE)
        profile = Profile.collect(base, inputs=GOLDEN_INPUTS)
        compiled = compile_for_model(base, Model.FULLPRED, profile,
                                     machine)
        from repro.fastpath.decode import decode_program
        _GOLDEN = (compiled, decode_program(compiled.program), machine)
    return _GOLDEN


_GOLDEN = None


def golden_digest(native: bool) -> str:
    """Run the golden workload end to end and digest every observable.

    The emulation side digests the full :class:`ExecutionResult`
    surface (return value, counts, store-stream signature, memory
    digest, branch outcomes and block counts *in insertion order*, the
    raw trace columns); the simulation side digests the cycle stats
    plus the simulator's boundary digest (ready times, BTB, cache tags
    and counters).  ``native=True`` runs both kernels; ``native=False``
    runs the pure-Python rung.
    """
    compiled, decoded, machine = _golden_program()
    if native:
        from repro.fastpath.native import run_program_native
        execution = run_program_native(
            compiled.program, inputs=GOLDEN_INPUTS, collect_trace=True,
            decoded=decoded)
    else:
        from repro.fastpath.interp import run_program_fast
        execution = run_program_fast(
            compiled.program, inputs=GOLDEN_INPUTS, collect_trace=True,
            decoded=decoded)
    from repro.fastpath.vector import VectorSimulator, prepare_vector
    vprep = prepare_vector(decoded, compiled.addresses, machine)
    sim = VectorSimulator(vprep, machine, native=native)
    sim.feed(execution.trace)
    stats = sim.finish()
    trace = execution.trace
    h = hashlib.sha256()
    for part in (
            repr(execution.return_value), repr(execution.dynamic_count),
            repr(execution.suppressed_count),
            repr(execution.output_signature),
            repr(execution.output_count), execution.memory_digest,
            repr(list(execution.branch_outcomes.items())),
            repr(list(execution.block_counts.items())),
            trace.sidx.tobytes(), trace.flags.tobytes(),
            trace.addr.tobytes(), trace.vidx.tobytes(),
            repr(trace.values), repr(stats), sim.boundary_digest()):
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def sandbox_canary(path: str) -> None:
    """First invocation of a newly built kernel, in a child process.

    Skipped when the object's digest already carries an ``.ok``
    validation sidecar (it passed the sandbox before).  A child killed
    by a signal raises :class:`NativeKernelCrash`; a parity exit
    quarantines the object and raises :class:`NativeParityError`.
    """
    with _lock:
        state = _get_state()
        digest = _digest_file(path)
        ok_path = Path(f"{path}.ok")
        try:
            if ok_path.read_text().strip() == digest:
                return
        except OSError:
            pass
        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root + (
            os.pathsep + existing if existing else "")
        env.pop("REPRO_NATIVE_INJECT", None)
        if state.injection == "segv-child":
            env["REPRO_NATIVE_INJECT"] = "segv"
        elif state.injection == "parity-child":
            env["REPRO_NATIVE_INJECT"] = "parity"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.fastpath.supervisor",
                 path],
                capture_output=True, timeout=_CANARY_TIMEOUT, env=env)
        except subprocess.TimeoutExpired as exc:
            state.counters["native_kernel_crashes"] += 1
            raise NativeKernelCrash(
                f"sandbox canary hung past {_CANARY_TIMEOUT:g}s",
                so_path=path, stage="canary") from exc
        rc = proc.returncode
        if rc == 0:
            tmp = f"{ok_path}.{os.getpid()}.tmp"
            with open(tmp, "w") as handle:
                handle.write(digest + "\n")
            os.replace(tmp, ok_path)
            return
        stderr = proc.stderr.decode("utf-8", "replace")[-2000:]
        if rc < 0:
            state.counters["native_kernel_crashes"] += 1
            raise NativeKernelCrash(
                f"native kernel died on signal {-rc} in the sandbox "
                f"canary", so_path=path, signal=-rc, stage="canary")
        if rc == NativeParityError.exit_code:
            state.counters["native_parity_failures"] += 1
            quarantine_so(path, "golden parity mismatch in the "
                                "sandbox canary")
            raise NativeParityError(
                "native kernels diverged from the interpreter on the "
                "golden trace (sandbox canary)", so_path=path)
        raise NativeBuildError(
            f"sandbox canary exited {rc}: {stderr[-300:]}",
            so_path=path, stderr=stderr)


def verify_process_parity(path: str) -> None:
    """In-process golden replay, once per process per trusted object.

    Assumes :mod:`repro.fastpath.native` has its library handle set
    (the native runs below short-circuit through it).  A mismatch
    quarantines the object, demotes, and raises
    :class:`NativeParityError`.
    """
    state = _get_state()
    if state.validated:
        return
    expected = golden_digest(native=False)
    actual = golden_digest(native=True)
    if state.injection == "parity-process":
        state.injection = None
        actual = "0" * len(actual)
    if actual != expected:
        with _lock:
            state.counters["native_parity_failures"] += 1
        quarantine_so(path, "golden parity mismatch in the in-process "
                            "canary")
        exc = NativeParityError(
            "native kernels diverged from the interpreter on the "
            "golden trace (in-process canary)", so_path=path,
            expected=expected, actual=actual)
        _record_failure(exc)
        raise exc
    state.validated = True


def acquire_so() -> str | None:
    """Build/verify/sandbox the kernel object for this process.

    Returns the validated path, or None after recording the typed
    failure and demoting — the caller falls through to the next rung.
    """
    with _lock:
        if not native_active():
            return None
        try:
            path = ensure_built()
            sandbox_canary(path)
            return path
        except NativeEngineError as exc:
            _record_failure(exc)
            return None


# ----------------------------------------------------------------- #
# Status + fsck integration                                         #
# ----------------------------------------------------------------- #

@dataclass
class KernelScan:
    """Outcome of one kernel-cache integrity scan."""

    cache_dir: str
    scanned: int = 0
    ok: int = 0
    #: (relative path, problem, action) per bad object
    issues: list[tuple[str, str, str]] = field(default_factory=list)
    #: orphan sidecars (``.sha256``/``.ok`` without an object)
    orphans: int = 0


def scan_kernel_cache(repair: bool = False) -> KernelScan:
    """Digest-verify every cached kernel object.

    With ``repair``, bad objects are quarantined and orphan sidecars
    removed — the ``repro cache fsck --repair`` contract extended to
    the kernel cache.
    """
    state = _get_state()
    scan = KernelScan(cache_dir=state.cache_dir)
    cache = Path(state.cache_dir)
    if not cache.is_dir():
        return scan
    for so in sorted(cache.glob("repro_kernel_*.so")):
        scan.scanned += 1
        sidecar = Path(f"{so}.sha256")
        problem = None
        try:
            recorded = sidecar.read_text().strip()
        except OSError:
            recorded = ""
        if not recorded:
            problem = "missing digest sidecar"
        elif _digest_file(so) != recorded:
            problem = "kernel object bytes do not match the recorded " \
                      "digest"
        if problem is None:
            scan.ok += 1
            continue
        action = "reported"
        if repair:
            quarantine_so(so, problem)
            action = "quarantined"
        scan.issues.append((so.name, problem, action))
    for pattern in ("repro_kernel_*.so.sha256", "repro_kernel_*.so.ok"):
        for sidecar in sorted(cache.glob(pattern)):
            stem = sidecar.name.rsplit(".", 1)[0]
            if not (cache / stem).exists():
                scan.orphans += 1
                if repair:
                    sidecar.unlink(missing_ok=True)
    return scan


def status_lines() -> list[str]:
    """Human-readable supervisor status for ``repro native``."""
    state = _get_state()
    lines = [
        f"engine ladder : {' > '.join(ENGINE_LADDER)}",
        f"current rung  : {state.engine}"
        + ("" if state.enabled else " (REPRO_NATIVE disabled)"),
        f"kernel cache  : {state.cache_dir}",
    ]
    try:
        lines.append(f"cc fingerprint: {cc_fingerprint()}")
        path = so_path()
        built = os.path.exists(path)
        lines.append(f"kernel object : {path}"
                     f" ({'present' if built else 'not built'})")
        if built:
            lines.append(f"  sha256      : {_digest_file(path)}")
            lines.append(
                f"  validated   : "
                f"{'yes' if Path(path + '.ok').exists() else 'no'}")
    except NativeEngineError as exc:
        lines.append(f"toolchain     : unavailable "
                     f"({type(exc).__name__}: {exc})")
    counters = counters_snapshot()
    lines.append("counters      : " + ", ".join(
        f"{name}={counters[name]}" for name in _COUNTER_NAMES))
    for event in degradation_events():
        lines.append(f"demotion      : {event.from_engine} -> "
                     f"{event.to_engine} [{event.error}] {event.reason}")
    if state.last_error is not None:
        lines.append(f"last error    : "
                     f"{type(state.last_error).__name__} "
                     f"(exit {state.last_error.exit_code})")
    return lines


# ----------------------------------------------------------------- #
# Sandbox child entry point                                         #
# ----------------------------------------------------------------- #

def _canary_child_main(argv: list[str]) -> int:
    """Body of ``python -m repro.fastpath.supervisor <so_path>``.

    Loads the object, optionally injects a genuine SIGSEGV or a parity
    perturbation (``REPRO_NATIVE_INJECT``), replays the golden trace
    on both engines and byte-compares.  Exit 0 on parity; exit
    :class:`NativeParityError`'s code on mismatch; a real kernel crash
    kills this process with the signal the parent decodes.
    """
    if not argv:
        sys.stderr.write("usage: python -m repro.fastpath.supervisor "
                         "<kernel.so>\n")
        return 2
    inject = os.environ.get("REPRO_NATIVE_INJECT", "")
    from repro.fastpath import native
    try:
        lib = native._bind_library(argv[0])
    except NativeEngineError as exc:
        sys.stderr.write(f"error[{type(exc).__name__}]: {exc}\n")
        return exc.exit_code
    if inject == "segv":
        import ctypes
        ctypes.string_at(0)  # genuine SIGSEGV, not an emulation
    native._lib = lib
    native._lib_tried = True
    state = _get_state()
    state.validated = True  # the comparison below IS the validation
    try:
        expected = golden_digest(native=False)
        actual = golden_digest(native=True)
    except Exception as exc:  # noqa: BLE001 — child reports, parent maps
        sys.stderr.write(f"canary error[{type(exc).__name__}]: {exc}\n")
        return NativeParityError.exit_code
    if inject == "parity":
        actual = "0" * len(actual)
    if actual != expected:
        sys.stderr.write(
            f"golden parity mismatch: {actual[:16]} != "
            f"{expected[:16]}\n")
        return NativeParityError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(_canary_child_main(sys.argv[1:]))
