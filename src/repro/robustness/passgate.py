"""Pass gates: verify-after-every-pass with IR artifacts.

A compiler bug that corrupts the IR mid-pipeline normally surfaces many
passes later (or worse, as silently wrong cycle counts).  The gate wraps
each transformation stage of :func:`repro.toolchain.optimize_for_model`:

* a crash inside a pass becomes a
  :class:`~repro.robustness.errors.CompileError` naming the pass and the
  function, with a printed IR snapshot dumped to an artifact directory;
* in **paranoid** mode it re-runs the structural verifier after every
  stage, so the *offending pass* is named in a
  :class:`~repro.robustness.errors.PassVerificationError`, again with
  an IR snapshot.

Either failure ends the compile: no pass is ever skipped.
"""

from __future__ import annotations

import os
import re
import tempfile
from typing import Callable

from repro.ir.function import Function, Program
from repro.ir.printer import format_function
from repro.ir.verifier import ISALevel, VerificationError, verify_function
from repro.robustness.errors import (CompileError, PassVerificationError,
                                     ReproError)


def default_artifact_dir() -> str:
    return os.path.join(tempfile.gettempdir(), "repro-artifacts")


class PassGate:
    """Runs compilation stages under the crash and verification checks."""

    def __init__(self, program: Program, *, paranoid: bool = False,
                 artifact_dir: str | None = None, model: str = ""):
        self.program = program
        self.paranoid = paranoid
        self.artifact_dir = artifact_dir
        self.model = model

    def run(self, fn: Function, pass_name: str, thunk: Callable[[], object],
            level: ISALevel = ISALevel.FULL):
        """Run one stage on ``fn``; returns the thunk's result."""
        try:
            result = thunk()
        except ReproError:
            raise
        except Exception as exc:  # noqa: BLE001 — typed re-raise below
            artifact = self._dump(fn, pass_name, exc)
            raise CompileError(
                f"pass {pass_name!r} crashed on {fn.name}: {exc}"
                + (f" (IR snapshot: {artifact})" if artifact else ""),
                pass_name=pass_name, function=fn.name) from exc
        if self.paranoid:
            try:
                verify_function(fn, self.program, level)
            except VerificationError as exc:
                artifact = self._dump(fn, pass_name, exc)
                raise PassVerificationError(
                    f"pass {pass_name!r} left {fn.name} invalid: {exc}"
                    + (f" (IR snapshot: {artifact})" if artifact else ""),
                    pass_name=pass_name, function=fn.name,
                    artifact_path=artifact) from exc
        return result

    # ----- internals ------------------------------------------------------

    def _dump(self, fn: Function, pass_name: str,
              exc: Exception) -> str | None:
        """Write the post-pass IR snapshot; never raises."""
        directory = self.artifact_dir or default_artifact_dir()
        safe = re.sub(r"[^\w.-]+", "_", f"{self.model}-{fn.name}-{pass_name}")
        try:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory, f"{safe}.ir.txt")
            suffix = 1
            while os.path.exists(path):
                suffix += 1
                path = os.path.join(directory, f"{safe}-{suffix}.ir.txt")
            with open(path, "w") as handle:
                handle.write(f"; model:    {self.model or '?'}\n")
                handle.write(f"; pass:     {pass_name}\n")
                handle.write(f"; function: {fn.name}\n")
                handle.write(f"; error:    {type(exc).__name__}: {exc}\n\n")
                handle.write(format_function(fn) + "\n")
            return path
        except OSError:
            return None
