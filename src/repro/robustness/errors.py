"""Typed error taxonomy for the hardened experiment pipeline.

Every failure mode of the verify/emulate/simulate loop maps to one
exception class so callers (the CLI, the fuzz executor, CI) can react
structurally instead of pattern-matching message strings or — worse —
catching bare ``Exception``.  Nothing in the pipeline catches one of
these to carry on with less: a failing pass or workload ends the run.
Each class carries a distinct ``exit_code`` that ``python -m repro``
propagates to the shell.
Codes 19, 20, 21, 26 and 27 belonged to the retired job service and
cluster, and 13 to the retired wall-clock ``EmulationTimeout``
(``max_steps`` is the one emulation bound); they stay unassigned so an
old script never misreads a failure.
"""

from __future__ import annotations

from repro.emu.memory import EmulationFault


class ReproError(Exception):
    """Base of the reproduction pipeline's failure taxonomy."""

    exit_code = 10


class CompileError(ReproError):
    """A compilation stage crashed or produced no usable program."""

    exit_code = 11

    def __init__(self, message: str, *, pass_name: str | None = None,
                 function: str | None = None):
        super().__init__(message)
        self.pass_name = pass_name
        self.function = function


class SpecError(ReproError):
    """A user-supplied specification is invalid.

    Covers malformed sweep specs (unknown axes, empty grids, bad
    ranges) and machine descriptions with unknown latency-table keys —
    rejected *before* any digest is computed, so a typo can never be
    silently hashed into a never-matching cache key.  Shares exit code
    11 with :class:`CompileError`: both mean "your input, not the
    pipeline, is broken".
    """

    exit_code = 11

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field


class PassVerificationError(CompileError):
    """A compiler pass left the IR structurally invalid.

    Raised by the pass gate (``robustness.passgate``) when the verifier
    rejects a function right after a pass ran; ``artifact_path`` points
    at the dumped IR snapshot for post-mortem debugging.
    """

    exit_code = 12

    def __init__(self, message: str, *, pass_name: str | None = None,
                 function: str | None = None,
                 artifact_path: str | None = None):
        super().__init__(message, pass_name=pass_name, function=function)
        self.artifact_path = artifact_path


class TraceIntegrityError(ReproError):
    """A dynamic trace violates an invariant of emulation.

    Covers missing traces, event/step count mismatches, nullified
    instructions without a guard, and control transfers inconsistent
    with the recorded branch directions.
    """

    exit_code = 14


class ModelDivergenceError(ReproError):
    """Two processor models disagreed on observable program behavior.

    ``kind`` names the observable: ``return-value``, ``output-stream``
    (the dynamic store stream) or ``memory-state`` (final global data).
    """

    exit_code = 15

    def __init__(self, message: str, *, workload: str | None = None,
                 model: str | None = None, kind: str | None = None):
        super().__init__(message)
        self.workload = workload
        self.model = model
        self.kind = kind
        #: for store-stream divergences, the first divergent store
        #: ("store#3 @0x1a0 7 vs 9"), attached by the fuzz executor
        self.first_event: str | None = None


class FuzzFindingsError(ReproError):
    """A fuzzing campaign or corpus replay ended with open findings.

    Raised by ``repro fuzz run`` / ``repro fuzz replay`` after triage:
    ``count`` raw findings collapsed to ``unique`` signatures, each with
    a reproducer saved under ``corpus/``.
    """

    exit_code = 18

    def __init__(self, message: str, *, count: int = 0, unique: int = 0):
        super().__init__(message)
        self.count = count
        self.unique = unique


class NativeEngineError(ReproError):
    """Base of the native (C) kernel engine's failure taxonomy.

    Everything the native-engine supervisor can report — build
    failures, missing toolchains, parity mismatches, kernel crashes —
    derives from this class, so callers that only care about "the
    native rung is gone" can catch one type while the CLI still maps
    each subclass to a distinct exit code.
    """

    def __init__(self, message: str, *, so_path: str | None = None):
        super().__init__(message)
        self.so_path = so_path


class NativeBuildError(NativeEngineError):
    """The C compiler ran but failed to produce a loadable kernel.

    Permanent: the same source fed to the same compiler fails the same
    way on every retry.  ``cc`` names the compiler, ``stderr`` carries
    its (truncated) diagnostics for ``repro native``.
    """

    exit_code = 22

    def __init__(self, message: str, *, cc: str | None = None,
                 stderr: str = "", so_path: str | None = None):
        super().__init__(message, so_path=so_path)
        self.cc = cc
        self.stderr = stderr


class NativeToolchainMissing(NativeEngineError):
    """No usable C compiler was found on this host.

    Transient by classification: the toolchain can reappear (PATH
    fixed, container layer mounted) and a retry lands harmlessly on
    the pure-Python engines the process fell back to either way.  ``searched`` lists
    the compiler names that were tried.
    """

    exit_code = 23

    def __init__(self, message: str,
                 *, searched: tuple[str, ...] = ()):
        super().__init__(message)
        self.searched = searched


class NativeParityError(NativeEngineError):
    """A native kernel's golden-trace observables diverged from the
    interpreter's.

    Permanent: rebuilding the same source with the same compiler
    reproduces the same object, so the process runs on the
    pure-Python engines instead of retrying.  ``expected``
    and ``actual`` are the golden observable digests.
    """

    exit_code = 24

    def __init__(self, message: str, *, so_path: str | None = None,
                 expected: str | None = None, actual: str | None = None):
        super().__init__(message, so_path=so_path)
        self.expected = expected
        self.actual = actual


class NativeKernelCrash(NativeEngineError):
    """A native kernel died hard (SIGSEGV/SIGBUS) or hung.

    Raised by the sacrificial-subprocess canary when the child exits
    on a signal or outlives its timeout.  Transient by classification:
    the process falls back at load, so a retry runs on a pure-Python
    engine and succeeds byte-identically.  ``signal`` is the POSIX
    signal number when one is known, ``stage`` names where it died
    (``canary``).
    """

    exit_code = 25

    def __init__(self, message: str, *, so_path: str | None = None,
                 signal: int | None = None, stage: str | None = None):
        super().__init__(message, so_path=so_path)
        self.signal = signal
        self.stage = stage


# ----- classification -------------------------------------------------------

def _classified_bases() -> tuple[type[BaseException], ...]:
    """Exception bases the pipeline recognizes as already classified.

    Imported lazily: the language frontend does not depend on the
    robustness package, and keeping it that way at module-import time
    avoids any chance of a cycle.
    """
    from concurrent.futures.process import BrokenProcessPool
    from repro.ir.function import IRError
    from repro.lang.lexer import LexError
    from repro.lang.parser import ParseError
    from repro.lang.sema import SemaError
    return (ReproError, EmulationFault, IRError, LexError, ParseError,
            SemaError, BrokenProcessPool, OSError, TimeoutError,
            ConnectionError, KeyboardInterrupt, SystemExit)


def classify_exception(exc: BaseException) -> BaseException:
    """Normalize ``exc`` into the typed taxonomy.

    Exceptions the pipeline already maps to exit codes (the taxonomy,
    emulation faults, frontend errors, OS-level transients) pass
    through unchanged; anything else — a stray ``KeyError`` deep in a
    pass, an ``AssertionError`` in a worker — is wrapped in a generic
    :class:`ReproError` that names the original type, so downstream
    consumers (the scheduler's failure records, the run journal, the
    CLI's exit-code mapping) never see an unclassified exception.
    """
    if isinstance(exc, _classified_bases()):
        return exc
    wrapped = ReproError(
        f"unclassified {type(exc).__name__}: {exc}")
    wrapped.__cause__ = exc
    return wrapped
