"""The typed error taxonomy: hierarchy and exit-code contract."""

import importlib
import pkgutil

import repro
from repro.engine.recovery.retry import is_transient
from repro.robustness.errors import (CompileError,
                                     FuzzFindingsError,
                                     ModelDivergenceError,
                                     NativeBuildError,
                                     NativeEngineError,
                                     NativeKernelCrash,
                                     NativeParityError,
                                     NativeToolchainMissing,
                                     PassVerificationError, ReproError,
                                     TraceIntegrityError)

#: every (class, exit code) pair the README table documents
DOCUMENTED = {
    ReproError: 10, CompileError: 11, PassVerificationError: 12,
    TraceIntegrityError: 14,
    ModelDivergenceError: 15, FuzzFindingsError: 18,
    NativeBuildError: 22, NativeToolchainMissing: 23,
    NativeParityError: 24, NativeKernelCrash: 25,
}

#: retired exit codes, never to be handed out again: the wall-clock
#: emulation timeout (max_steps is the one emulation bound), the
#: artifact lock timeout (store writes take no lock), and the job
#: service and cluster's (overloaded, quota, deadline, worker lost,
#: lease fenced)
RETIRED_CODES = {13, 17, 19, 20, 21, 26, 27}


def test_every_class_is_a_repro_error():
    for cls in DOCUMENTED:
        assert issubclass(cls, ReproError)


def test_exit_codes_are_distinct_and_documented():
    codes = {cls: cls.exit_code for cls in DOCUMENTED}
    assert len(set(codes.values())) == len(DOCUMENTED)
    assert codes == DOCUMENTED
    assert 16 not in codes.values()  # EmulationFault, mapped in cli


def test_transience_split_matches_the_readme_table():
    # NativeToolchainMissing / NativeKernelCrash are transient because
    # a failed native load leaves the process on the byte-identical
    # Python engines, where the retry lands.  Build and parity failures are
    # permanent facts about the artifact.
    transient = {TraceIntegrityError, NativeToolchainMissing,
                 NativeKernelCrash}
    for cls in DOCUMENTED:
        sample = cls("probe")
        assert is_transient(sample) == (cls in transient), cls


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_no_error_reuses_a_retired_exit_code():
    # A script written against the old CLI must never misread a new
    # failure, so import every module and check every subclass.
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    codes = {cls: cls.exit_code for cls in _all_subclasses(ReproError)}
    assert set(DOCUMENTED) <= set(codes) | {ReproError}
    assert not RETIRED_CODES & set(codes.values()), codes


def test_structured_fields_carry_context():
    exc = PassVerificationError("bad", pass_name="peephole",
                                function="main", artifact_path="/tmp/x")
    assert isinstance(exc, CompileError)
    assert (exc.pass_name, exc.function) == ("peephole", "main")
    assert exc.artifact_path == "/tmp/x"
    div = ModelDivergenceError("differs", workload="wc", model="cmov",
                               kind="output-stream")
    assert (div.workload, div.model, div.kind) == ("wc", "cmov",
                                                   "output-stream")


def test_native_errors_form_their_own_branch():
    for cls in (NativeBuildError, NativeToolchainMissing,
                NativeParityError, NativeKernelCrash):
        assert issubclass(cls, NativeEngineError)
    build = NativeBuildError("cc exploded", cc="gcc", stderr="boom",
                             so_path="/tmp/k.so")
    assert (build.cc, build.stderr, build.so_path) == \
        ("gcc", "boom", "/tmp/k.so")
    missing = NativeToolchainMissing("no cc", searched=("cc", "gcc"))
    assert missing.searched == ("cc", "gcc")
    parity = NativeParityError("diverged", expected="aa", actual="bb")
    assert (parity.expected, parity.actual) == ("aa", "bb")
    crash = NativeKernelCrash("died", signal=11, stage="canary")
    assert (crash.signal, crash.stage) == (11, "canary")
