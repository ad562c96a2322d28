"""Memory model tests: layout, faults, speculative silence."""

import os

import pytest

from repro.emu.memory import (EmulationFault, GLOBAL_BASE, Memory,
                              SAFE_ADDR, _write_values, layout_globals,
                              zero_pages)
from repro.ir import GlobalVar, Program


def test_word_roundtrip_signed():
    mem = Memory()
    mem.store_word(GLOBAL_BASE, -12345)
    assert mem.load_word(GLOBAL_BASE) == -12345
    mem.store_word(GLOBAL_BASE, 0x7FFFFFFF)
    assert mem.load_word(GLOBAL_BASE) == 0x7FFFFFFF


def test_word_wraps_to_32_bits():
    mem = Memory()
    mem.store_word(GLOBAL_BASE, 0xFFFFFFFF)
    assert mem.load_word(GLOBAL_BASE) == -1


def test_byte_roundtrip():
    mem = Memory()
    mem.store_byte(GLOBAL_BASE, 300)
    assert mem.load_byte(GLOBAL_BASE) == 44


def test_float_roundtrip():
    mem = Memory()
    mem.store_float(GLOBAL_BASE, 3.14159)
    assert mem.load_float(GLOBAL_BASE) == pytest.approx(3.14159)


def test_low_addresses_fault():
    mem = Memory()
    with pytest.raises(EmulationFault):
        mem.load_word(0)
    with pytest.raises(EmulationFault):
        mem.store_word(4, 1)
    with pytest.raises(EmulationFault):
        mem.load_byte(31)


def test_out_of_range_faults():
    mem = Memory(size=1024)
    with pytest.raises(EmulationFault):
        mem.load_word(1022)


def test_speculative_loads_are_silent():
    mem = Memory(size=1024)
    assert mem.load_word(0, speculative=True) == 0
    assert mem.load_byte(4, speculative=True) == 0
    assert mem.load_float(2000, speculative=True) == 0.0


def test_safe_addr_is_writable():
    """$safe_addr must absorb nullified stores (paper Figure 3)."""
    mem = Memory()
    mem.store_word(SAFE_ADDR, 999)
    assert mem.load_word(SAFE_ADDR) == 999


def test_stack_allocation():
    mem = Memory(size=4096)
    a = mem.alloc_stack(100)
    b = mem.alloc_stack(8)
    assert b < a
    assert a % 8 == 0 and b % 8 == 0
    mem.free_stack(8)
    c = mem.alloc_stack(8)
    assert c == b


def test_stack_overflow():
    mem = Memory(size=256)
    with pytest.raises(EmulationFault):
        for _ in range(100):
            mem.alloc_stack(64)


def test_layout_globals_alignment_and_inputs():
    prog = Program()
    prog.add_global(GlobalVar("a", 1, 3))      # 3 bytes
    prog.add_global(GlobalVar("b", 4, 2))      # needs 8-alignment
    prog.add_global(GlobalVar("f", 8, 1, is_float=True))
    mem = Memory()
    layout = layout_globals(prog, mem, inputs={"a": [1, 2, 3],
                                               "b": [10, -20],
                                               "f": [2.5]})
    assert layout["a"] == GLOBAL_BASE
    assert layout["b"] % 8 == 0
    assert mem.load_byte(layout["a"] + 2) == 3
    assert mem.load_word(layout["b"] + 4) == -20
    assert mem.load_float(layout["f"]) == 2.5


def test_layout_initializers_from_program():
    prog = Program()
    prog.add_global(GlobalVar("n", 4, 1, init=[7]))
    mem = Memory()
    layout = layout_globals(prog, mem)
    assert mem.load_word(layout["n"]) == 7


def test_oversized_initializer_rejected():
    prog = Program()
    prog.add_global(GlobalVar("n", 4, 1))
    mem = Memory()
    with pytest.raises(EmulationFault):
        layout_globals(prog, mem, inputs={"n": [1, 2]})


# ----- bulk initial writes against the per-element loop they replaced ------

def _reference_write(memory, base, g, values):
    """The per-element loop ``_write_values`` replaced."""
    if len(values) > g.count:
        raise EmulationFault(
            f"initializer for {g.name} has {len(values)} elements, "
            f"declared {g.count}")
    for i, v in enumerate(values):
        if g.is_float:
            memory.store_float(base + 8 * i, float(v))
        elif g.elem_size == 1:
            memory.store_byte(base + i, int(v))
        else:
            memory.store_word(base + 4 * i, int(v))


def _outcome(write, g, values, base=GLOBAL_BASE, size=4096):
    memory = Memory(size)
    try:
        write(memory, base, g, values)
    except EmulationFault as exc:
        return "fault", str(exc)
    return "ok", bytes(memory.data)


@pytest.mark.parametrize("g, values", [
    (GlobalVar("w", 4, 8), [1, -1, 0x7FFFFFFF, -0x80000000, 2 ** 40 + 5,
                            -(2 ** 35) - 3, 0xFFFFFFFF, 7.9]),
    (GlobalVar("w", 4, 8), [3, 4]),
    (GlobalVar("b", 1, 8), [300, -1, 255, 0, 65]),
    (GlobalVar("b", 1, 8), b"hi\xff\x00"),
    (GlobalVar("w", 4, 8), b"\x01\xfe"),
    (GlobalVar("f", 8, 6, is_float=True),
     [2.5, -0.0, float("nan"), float("-inf"), 1e300, 3]),
    (GlobalVar("w", 4, 2), []),
    (GlobalVar("b", 1, 2), b""),
    (GlobalVar("f", 8, 2, is_float=True), []),
    (GlobalVar("w", 4, 2), [1, 2, 3]),
    (GlobalVar("b", 1, 2), b"abc"),
    (GlobalVar("f", 8, 1, is_float=True), [1.0, 2.0]),
    # each packing path: signed and unsigned words and bytes, tuples,
    # bools, ints into floats, and lists only the loop can convert
    (GlobalVar("w", 4, 4), [2 ** 31, 2 ** 32 - 1, 0, 5]),
    (GlobalVar("w", 4, 3), (True, -7, 2 ** 31 - 1)),
    (GlobalVar("w", 4, 2), [2 ** 32 - 1, -1]),
    (GlobalVar("w", 4, 2), [7.9, -7.9]),
    (GlobalVar("b", 1, 4), [-128, -1, 0, 127]),
    (GlobalVar("b", 1, 3), (0, 128, 255)),
    (GlobalVar("b", 1, 2), bytearray(b"\x80\x01")),
    (GlobalVar("f", 8, 3, is_float=True), (1, True, 2 ** 60 + 1)),
    (GlobalVar("f", 8, 2, is_float=True), ["1.5", 2.0]),
    (GlobalVar("f", 8, 2, is_float=True), b"\x01\x02"),
])
def test_bulk_write_matches_per_element_loop(g, values):
    assert _outcome(_write_values, g, values) == \
        _outcome(_reference_write, g, values)


@pytest.mark.parametrize("g, base", [
    (GlobalVar("w", 4, 8), 4096 - 10),
    (GlobalVar("w", 4, 8), 4096 - 28),
    (GlobalVar("w", 4, 8), 4096 + 8),
    (GlobalVar("b", 1, 8), 4096 - 3),
    (GlobalVar("f", 8, 4, is_float=True), 4096 - 20),
    (GlobalVar("w", 4, 2), SAFE_ADDR - 8),
])
def test_bulk_write_faults_at_the_same_address(g, base):
    values = list(range(1, g.count + 1))
    bulk = _outcome(_write_values, g, values, base=base)
    assert bulk[0] == "fault"
    assert bulk == _outcome(_reference_write, g, values, base=base)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_zero_pages_stay_private_to_a_forked_child():
    """A pool worker forked while a mapping exists (the native chunk
    buffers live for the whole process) must not write its parent's
    pages."""
    pages = memoryview(zero_pages(2 * 4096))
    pages[0] = 1
    pid = os.fork()
    if pid == 0:
        pages[0] = 99
        pages[4096] = 7
        os._exit(0)
    os.waitpid(pid, 0)
    assert (pages[0], pages[4096]) == (1, 0)
