"""Set-up process of one benchmark run (started by ``run.py``).

    python3 perfbench/prepare.py --workload NAME --seed N --size full --dir DIR

Builds the native kernel cache in ``DIR/kernels``, checks it the way
every process that uses it does, runs the workload's own set-up and
writes what the measuring process needs to ``DIR/prepared.json``.
``run.py`` times this whole process, several times, for ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)

    # Resolved once per process, at first use: set before the import.
    os.environ["REPRO_KERNEL_CACHE"] = str(args.dir / "kernels")
    from layers import Probe
    from workloads import SIZES, WORKLOADS

    patches = Probe(traced=False).install()
    try:
        from repro.fastpath import native
        if not native.available():
            print("error: the native kernels did not build or validate",
                  file=sys.stderr)
            return 3
        prepared = WORKLOADS[args.workload].prepare(
            SIZES[args.size], args.seed, args.dir)
    finally:
        patches.undo()
    (args.dir / "prepared.json").write_text(json.dumps(prepared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
