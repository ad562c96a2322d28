"""The reference task: fixed work that gauges how fast the host is now.

On a shared host the same code runs at speeds a third apart from one
minute to the next, and the slow stretches last longer than a run.
``run.py`` therefore times this task before and after every item and
around each set-up process, and reports ``wall_s``
and ``setup_s`` scaled by it: host seconds times
``REFERENCE_SECONDS / this task's time``.  The task does a little of
what the workloads do: a set-based dataflow fixpoint in pure Python
(the compile passes), NumPy array arithmetic (emulate and simulate),
and files written, read back and removed (the artifact store).  It
takes 25-50 ms.

Nothing here depends on the repository's code.  Do not change it: it
sets the scale of ``wall_s`` and ``setup_s``, and a different task
would make earlier results incomparable.
"""

from __future__ import annotations

import random
import shutil
import time
from pathlib import Path

import numpy as np

#: small, so that the task adds about 2 MiB to peak memory
_NODES = 400
_FACTS = 64
_ROUNDS = 12
_FILES = 8
_WORDS = 65_536


def _dataflow() -> int:
    rng = random.Random(7)
    successors = [[rng.randrange(_NODES) for _ in range(3)]
                  for _ in range(_NODES)]
    gen = [frozenset(rng.randrange(_FACTS) for _ in range(4))
           for _ in range(_NODES)]
    live = [frozenset()] * _NODES
    for _ in range(_ROUNDS):
        for node in range(_NODES - 1, -1, -1):
            out = set(gen[node])
            for successor in successors[node]:
                out |= live[successor]
            live[node] = frozenset(out)
    return sum(len(facts) for facts in live)


def _arrays_and_files(directory: Path) -> int:
    directory.mkdir(parents=True, exist_ok=True)
    words = np.arange(_WORDS, dtype=np.int64)
    for k in range(_FILES):
        (directory / f"block{k}").write_bytes(
            (words * (k + 3) % 1009).tobytes())
    total = 0
    for k in range(_FILES):
        block = np.frombuffer((directory / f"block{k}").read_bytes(),
                              dtype=np.int64)
        total += int(np.cumsum(block % 7)[-1])
    shutil.rmtree(directory)
    return total


def timed(directory: Path) -> float:
    """Host seconds of one reference task, scratch files in
    ``directory`` (removed again)."""
    began = time.perf_counter()
    _arrays_and_files(directory)
    _dataflow()
    return time.perf_counter() - began
