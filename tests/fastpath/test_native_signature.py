"""The store-stream signature folded inside the native kernel.

The kernel folds ``hash((addr, value))`` over every store itself, so it
reproduces CPython's hashes in C: an int mod 2^61-1, ``_Py_HashDouble``
for a float and the xxHash-style tuple combine, with NaN folded through
``_NAN_KEY``.  Each case here stores known values through memory and
checks ``output_signature`` and ``output_count`` against the fold
computed in Python, and against both Python emulators.
"""

import random
import struct

import pytest

from repro.emu.interpreter import _NAN_KEY, _SIG_PRIME, _U64, run_program
from repro.emu.memory import SAFE_ADDR, Memory, layout_globals
from repro.fastpath import native, supervisor
from repro.fastpath.interp import run_program_fast
from repro.ir import Function, GlobalVar, IRBuilder, Imm, Program

HAVE_CC = any(__import__("shutil").which(c) for c in ("cc", "gcc"))
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")

WORDS = [0, 1, 2 ** 31, 2 ** 32 - 1]
BYTES = [0, 255]
FLOATS = [0.0, -0.0, 0.5, -1.5, 5e-324, -2.2250738585072014e-308,
          2.0 ** 52 + 1, 2.0 ** 61, -(2.0 ** 61), 2.0 ** 62 + 2.0 ** 10,
          1e308, -1e308, 1 / 3, float("inf"), float("-inf"),
          float("nan")]


@pytest.fixture(scope="module")
def kernel():
    supervisor.reset_for_testing()
    if not native.available():
        pytest.skip("native kernels unavailable on this host")
    yield
    supervisor.reset_for_testing()


def _copy_program(inputs: dict, safe_stores: bool) -> Program:
    """Load each input element and store it to its output twin; with
    ``safe_stores``, also store every value to ``$safe_addr``."""
    prog = Program()
    sections = (("w", 4, len(inputs["w_in"]), False),
                ("b", 1, len(inputs["b_in"]), False),
                ("f", 8, len(inputs["f_in"]), True))
    for name, size, count, is_float in sections:
        prog.add_global(GlobalVar(name + "_in", size, max(count, 1),
                                  is_float=is_float))
        prog.add_global(GlobalVar(name + "_out", size, max(count, 1),
                                  is_float=is_float))
    fn = Function("main")
    prog.add_function(fn)
    b = IRBuilder(fn, fn.new_block("entry"))
    for name, size, count, is_float in sections:
        src = b.global_addr(name + "_in")
        dst = b.global_addr(name + "_out")
        for i in range(count):
            offset = Imm(size * i)
            if is_float:
                value = b.fload(src, offset)
                b.fstore(dst, offset, value)
                if safe_stores:
                    b.fstore(Imm(SAFE_ADDR), Imm(0), value)
            else:
                value = b.load(src, offset, byte=size == 1)
                b.store(dst, offset, value, byte=size == 1)
                if safe_stores:
                    b.store(Imm(SAFE_ADDR), Imm(0), value, byte=size == 1)
    b.ret(Imm(0))
    return prog


def _python_fold(prog: Program, inputs: dict) -> tuple[int, int]:
    """The signature of the copies to the ``*_out`` globals, folded as
    ``emu/interpreter.py`` folds it."""
    layout = layout_globals(prog, Memory(), inputs)
    signature = count = 0
    for name, width in (("w", 4), ("b", 1), ("f", 8)):
        for i, value in enumerate(inputs[name + "_in"]):
            if name == "w":  # a word stores masked to 32 bits
                value &= 0xFFFFFFFF
            key = value if value == value else _NAN_KEY
            addr = layout[name + "_out"] + width * i
            signature = ((signature ^ hash((addr, key)))
                         * _SIG_PRIME) & _U64
            count += 1
    return signature, count


def _check(monkeypatch, words=(), byte_values=(), floats=()):
    def no_fallback(*_args, **_kwargs):
        raise AssertionError("the run left the kernel")
    inputs = {"w_in": list(words), "b_in": list(byte_values),
              "f_in": list(floats)}
    expected = _python_fold(_copy_program(inputs, False), inputs)
    for safe_stores in (False, True):
        prog = _copy_program(inputs, safe_stores)
        reference = run_program(prog, inputs=inputs)
        fast = run_program_fast(prog, inputs=inputs)
        with monkeypatch.context() as m:
            m.setattr(native, "run_program_fast", no_fallback)
            for collect_trace in (False, True):
                got = native.run_program_native(
                    prog, inputs=inputs, collect_trace=collect_trace)
                assert (got.output_signature, got.output_count) \
                    == expected, (safe_stores, collect_trace)
        for other in (reference, fast):
            assert (other.output_signature, other.output_count) == expected


@needs_cc
def test_paper_values_fold_as_python_hashes_them(kernel, monkeypatch):
    _check(monkeypatch, WORDS, BYTES, FLOATS)


@needs_cc
@pytest.mark.parametrize("value", FLOATS, ids=repr)
def test_each_float_alone(value, kernel, monkeypatch):
    _check(monkeypatch, floats=[value])


@needs_cc
def test_random_doubles_fold_as_python_hashes_them(kernel, monkeypatch):
    """Random bit patterns: every exponent range, subnormals, NaN
    payloads and both signs."""
    rng = random.Random(26)
    floats = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
              for _ in range(600)]
    floats += [rng.uniform(-1e6, 1e6) for _ in range(200)]
    floats += [float(rng.randrange(-2 ** 62, 2 ** 62)) for _ in range(200)]
    words = [rng.randrange(-2 ** 31, 2 ** 31) for _ in range(300)]
    _check(monkeypatch, words, [rng.randrange(256) for _ in range(300)],
           floats)


@needs_cc
def test_only_safe_addr_stores_count_nothing(kernel):
    prog = Program()
    fn = Function("main")
    prog.add_function(fn)
    b = IRBuilder(fn, fn.new_block("entry"))
    b.store(Imm(SAFE_ADDR), Imm(0), Imm(7))
    b.fstore(Imm(SAFE_ADDR), Imm(0), Imm(2.5))
    b.ret(Imm(0))
    got = native.run_program_native(prog)
    assert (got.output_signature, got.output_count) == (0, 0)
    reference = run_program(prog)
    assert (reference.output_signature, reference.output_count) == (0, 0)
