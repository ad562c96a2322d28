"""Registers hash to plain ints, the same in every process.

``VReg``/``PReg`` hashes come from (index, class) alone: no enum hash
per lookup (an enum's hash is its name's, which is salted per
process), and no ``id()``.  So register-keyed dicts and sets hash the
same way at every ``PYTHONHASHSEED``.  A register is the int
``index << 2 | class`` (3 for a predicate register), so its hash is
that value and dicts look registers up in C.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.ir.operands import PReg, RegClass, VReg

SEEDS = ("1", "21", "12345")

INDICES = (0, 1, 7, 4096)

_PRINT_HASHES = (
    "import json\n"
    "from repro.ir.operands import PReg, RegClass, VReg\n"
    "regs = [VReg(i, c) for i in (0, 1, 7, 4096) for c in RegClass]\n"
    "regs += [PReg(i) for i in (0, 1, 7, 4096)]\n"
    "print(json.dumps([hash(r) for r in regs]))\n")


def _hashes_at(seed: str) -> list[int]:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _PRINT_HASHES], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    return json.loads(out)


def test_register_hashes_are_equal_at_every_hash_seed():
    first, *rest = [_hashes_at(seed) for seed in SEEDS]
    assert all(hashes == first for hashes in rest)
    # Distinct registers of every kind hash apart.
    assert len(set(first)) == len(first)


def test_equal_registers_hash_equal():
    for rclass in RegClass:
        assert VReg(5, rclass) == VReg(5, rclass)
        assert hash(VReg(5, rclass)) == hash(VReg(5, rclass))
    assert hash(VReg(5)) == hash(VReg(5, RegClass.INT))
    assert hash(PReg(3)) == hash(PReg(3))
    assert {VReg(2), PReg(2), VReg(2, RegClass.FLOAT)} == \
        {VReg(2), PReg(2), VReg(2, RegClass.FLOAT)}


def test_register_hashes_are_index_and_class_bits():
    expected = [i << 2 | c.ordinal for i in INDICES for c in RegClass]
    expected += [i << 2 | 3 for i in INDICES]
    assert [c.ordinal for c in RegClass] == [0, 1]
    assert _hashes_at("1") == expected
    regs = [VReg(i, c) for i in INDICES for c in RegClass]
    regs += [PReg(i) for i in INDICES]
    assert [hash(r) for r in regs] == [int(r) for r in regs] == expected
