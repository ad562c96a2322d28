"""Native-engine supervisor: the process trusts the C kernels once, at load.

The native (C) kernels of :mod:`repro.fastpath.native` are the only
code in the reproduction that can segfault the interpreter or
silently depend on the host compiler.  Whether a process runs on them
is decided once, by :func:`load`, on first use; nothing afterwards
changes that decision.  :func:`load` walks one chain:

* **Build.**  The kernel ``.so`` is cached under a dedicated
  directory (``REPRO_KERNEL_CACHE``, default ``<tmp>/repro-kernels``)
  keyed by the SHA-256 of the C source *plus* the compiler fingerprint
  (``cc --version`` first line) *plus* the build flags, so a compiler
  upgrade builds a new object instead of loading a stale one.

* **Sandbox canary.**  Each object has one ``.ok`` sidecar recording
  the SHA-256 of the bytes that passed the canary.  An object whose
  digest does not match its ``.ok`` (never validated, corrupted,
  half-written) is rebuilt, published atomically, and first run in a
  child process (``python -m repro.fastpath.supervisor <so>``) that
  replays a golden MiniC trace through the native kernels and the
  pure-Python engines and byte-compares the observables.  A
  SIGSEGV/SIGBUS kills only the child and surfaces as a typed
  :class:`NativeKernelCrash`; a mismatch as :class:`NativeParityError`.
  The process ``dlopen``\\s only bytes whose digest matches ``.ok``.

* **In-process parity.**  The loaded kernels replay the golden trace
  once more in this process before it trusts them.

Any typed failure on the way leaves the process on the ``interpreter``
rung (:func:`~repro.fastpath.interp.run_program_fast` and
:class:`~repro.fastpath.simulate.StreamSimulator`) for good, with the
error recorded once (:func:`rung`, :func:`last_error`); both rungs are
byte-identical, so the fallback changes timings, never figures.

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
from dataclasses import dataclass
from pathlib import Path

from repro.robustness.errors import (NativeBuildError, NativeEngineError,
                                     NativeKernelCrash, NativeParityError,
                                     NativeToolchainMissing, ReproError)

#: compiler names probed in order
_DEFAULT_COMPILERS = ("cc", "gcc")

#: base build flags; ``REPRO_NATIVE_CFLAGS`` appends (sanitizers, -g)
_BASE_CFLAGS = ("-O2", "-shared", "-fPIC")

#: wall-clock bound on one sandbox canary child (a hung kernel is a
#: crashed kernel)
_CANARY_TIMEOUT = 180.0


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
class _State:
    """Per-process supervisor state (env resolved exactly once)."""

    enabled: bool
    cache_dir: str
    cflags: tuple[str, ...]
    compilers: tuple[str, ...] = _DEFAULT_COMPILERS
    fingerprint_override: str | None = None
    fingerprint: str | None = None
    #: "native" | "interpreter" once decided; REPRO_NATIVE=0 decides
    #: "interpreter" up front, as a configuration choice, not a failure
    engine: str | None = None
    last_error: ReproError | None = None
    #: test injection: "segv-child" | "parity-child" | "parity-process"
    injection: str | None = None

    def __post_init__(self):
        if not self.enabled:
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
    """Rebuild the per-process state (tests and ``repro native --fresh``).

    Re-reads the environment, forgets the load decision, and resets
    :mod:`repro.fastpath.native`'s cached library handle so the next
    use walks the whole load chain again.
    """
    global _state
    with _lock:
        _state = _build_state(cache_dir=cache_dir, compilers=compilers,
                              fingerprint=fingerprint)
        from repro.fastpath import native
        native._lib = None
        native._lib_tried = False


def native_enabled() -> bool:
    """The once-per-process ``REPRO_NATIVE`` snapshot."""
    return _get_state().enabled


def rung() -> str:
    """The process's decision: ``native``, ``interpreter``, or
    ``interpreter (<error class>)`` after a failed load; empty until
    the kernels are first asked for."""
    state = _get_state()
    if state.last_error is not None:
        return f"interpreter ({type(state.last_error).__name__})"
    return state.engine or ""


def last_error() -> ReproError | None:
    return _get_state().last_error


def counters_snapshot() -> dict[str, int]:
    """``engine_demotions``: 1 when the load fell back, else 0."""
    return {"engine_demotions": int(_get_state().last_error is not None)}


def set_injection(kind: str | None) -> None:
    """Arm one load-time fault injection (tests); see
    :attr:`_State.injection`."""
    _get_state().injection = kind


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


def _validated(path: str) -> bool:
    """True when ``path``'s bytes are the ones its ``.ok`` records."""
    try:
        return Path(f"{path}.ok").read_text().strip() == _digest_file(path)
    except OSError:
        return False


def ensure_built() -> str:
    """Return a kernel ``.so`` whose bytes passed the sandbox canary.

    An object whose digest matches its ``.ok`` sidecar is returned as
    is.  Anything else is rebuilt, published atomically, run once in
    the sandbox canary (:func:`sandbox_canary`) and recorded in
    ``.ok``.  Raises the typed taxonomy on failure
    (:class:`NativeToolchainMissing`, :class:`NativeBuildError`,
    :class:`NativeKernelCrash`, :class:`NativeParityError`).
    """
    with _lock:
        state = _get_state()
        dest = so_path()
        if _validated(dest):
            return dest
        cc = _resolve_compiler(state)
        from repro.fastpath._native_src import C_SOURCE
        try:
            os.makedirs(state.cache_dir, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=state.cache_dir) as td:
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
                digest = _digest_file(built)
                tmp = f"{dest}.{os.getpid()}.tmp"
                shutil.copy(built, tmp)
                os.replace(tmp, dest)
            sandbox_canary(dest)
            tmp = f"{dest}.ok.{os.getpid()}.tmp"
            Path(tmp).write_text(digest + "\n")
            os.replace(tmp, f"{dest}.ok")
        except OSError as exc:
            raise NativeBuildError(
                f"kernel cache write failed: {exc}", cc=cc,
                so_path=dest) from exc
        return dest


# ----------------------------------------------------------------- #
# Canaries + the load decision                                      #
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
    from repro.fastpath.simulate import prepare_sim
    from repro.fastpath.vector import VectorSimulator
    sim = VectorSimulator(prepare_sim(decoded, compiled.addresses, machine),
                          machine, native=native)
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

    A child killed by a signal (or hung) raises
    :class:`NativeKernelCrash`; a parity exit raises
    :class:`NativeParityError`.
    """
    state = _get_state()
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
            [sys.executable, "-m", "repro.fastpath.supervisor", path],
            capture_output=True, timeout=_CANARY_TIMEOUT, env=env)
    except subprocess.TimeoutExpired as exc:
        raise NativeKernelCrash(
            f"sandbox canary hung past {_CANARY_TIMEOUT:g}s",
            so_path=path, stage="canary") from exc
    rc = proc.returncode
    if rc == 0:
        return
    stderr = proc.stderr.decode("utf-8", "replace")[-2000:]
    if rc < 0:
        raise NativeKernelCrash(
            f"native kernel died on signal {-rc} in the sandbox "
            f"canary", so_path=path, signal=-rc, stage="canary")
    if rc == NativeParityError.exit_code:
        raise NativeParityError(
            "native kernels diverged from the interpreter on the "
            "golden trace (sandbox canary)", so_path=path)
    raise NativeBuildError(
        f"sandbox canary exited {rc}: {stderr[-300:]}",
        so_path=path, stderr=stderr)


def load() -> None:
    """Make the process's one native-vs-interpreter decision.

    Builds or reuses a canary-validated object (:func:`ensure_built`),
    binds it, and replays the golden trace in this process.  On
    success :mod:`repro.fastpath.native` keeps the handle; on any typed
    failure it keeps None and the error is recorded.  Called once, by
    ``native._get_lib``.
    """
    from repro.fastpath import native
    with _lock:
        state = _get_state()
        if state.engine is not None:
            return
        try:
            path = ensure_built()
            native._lib = native._bind_library(path)
            # The golden replay below runs through the handle just set.
            expected = golden_digest(native=False)
            actual = golden_digest(native=True)
            if state.injection == "parity-process":
                actual = "0" * len(actual)
            if actual != expected:
                raise NativeParityError(
                    "native kernels diverged from the interpreter on the "
                    "golden trace (in-process canary)", so_path=path,
                    expected=expected, actual=actual)
        except NativeEngineError as exc:
            native._lib = None
            state.last_error = exc
            state.engine = "interpreter"
            return
        state.engine = "native"


def status_lines() -> list[str]:
    """Human-readable supervisor status for ``repro native``."""
    state = _get_state()
    lines = [f"rung          : {rung() or 'undecided'}"
             + ("" if state.enabled else " (REPRO_NATIVE disabled)"),
             f"kernel cache  : {state.cache_dir}"]
    try:
        lines.append(f"cc fingerprint: {cc_fingerprint()}")
        path = so_path()
        built = os.path.exists(path)
        lines.append(f"kernel object : {path}"
                     f" ({'present' if built else 'not built'})")
        if built:
            lines.append(f"  sha256      : {_digest_file(path)}")
        lines.append(f"  validated   : "
                     f"{'yes' if built and _validated(path) else 'no'}")
    except NativeEngineError as exc:
        lines.append(f"toolchain     : unavailable "
                     f"({type(exc).__name__}: {exc})")
    if state.last_error is not None:
        lines.append(f"last error    : "
                     f"{type(state.last_error).__name__} "
                     f"(exit {state.last_error.exit_code}): "
                     f"{state.last_error}")
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
    # The comparison below IS the validation: no load chain here.
    native._lib = lib
    native._lib_tried = True
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
