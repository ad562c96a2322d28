"""Operand identity, hashing, display and pickling."""

import pickle

import pytest

from repro.ir.instruction import PredDest, PType
from repro.ir.operands import (GlobalAddr, Imm, PReg, RegClass, VReg,
                               is_register)


def test_vreg_repr_and_class():
    assert repr(VReg(3)) == "r3"
    assert repr(VReg(7, RegClass.FLOAT)) == "f7"
    assert VReg(7, RegClass.FLOAT).is_float
    assert not VReg(7).is_float


def test_vreg_equality_is_structural():
    assert VReg(1) == VReg(1)
    assert VReg(1) != VReg(1, RegClass.FLOAT)
    assert VReg(1) != VReg(2)


def test_operands_are_hashable():
    regs = {VReg(0), VReg(0), VReg(1), PReg(1), Imm(5),
            GlobalAddr("x"), GlobalAddr("x", 4)}
    assert len(regs) == 6


def test_preg_repr():
    assert repr(PReg(4)) == "p4"
    assert PReg(4).is_pred


def test_imm_repr():
    assert repr(Imm(42)) == "#42"
    assert repr(Imm(1.5)) == "#1.5"


def test_global_addr_offset():
    assert repr(GlobalAddr("tab")) == "@tab"
    assert repr(GlobalAddr("tab", 8)) == "@tab+8"
    assert GlobalAddr("tab", 8) != GlobalAddr("tab")


def test_is_register():
    assert is_register(VReg(0))
    assert is_register(PReg(0))
    assert not is_register(Imm(1))
    assert not is_register(GlobalAddr("g"))


@pytest.mark.parametrize("operand", [
    VReg(3), VReg(7, RegClass.FLOAT), PReg(2), PReg(4), VReg(0),
    Imm(42), Imm(1.5), GlobalAddr("tab"), GlobalAddr("tab", 8),
    PredDest(PReg(1), PType.OR_BAR)], ids=repr)
def test_operands_round_trip_through_pickle(operand):
    loaded = pickle.loads(pickle.dumps(operand, protocol=4))
    assert type(loaded) is type(operand)
    assert loaded == operand
    assert hash(loaded) == hash(operand)


# Protocol-4 pickles of each operand kind, as stores of schema v3 hold
# them: a store written before registers became ints must still load.
PINNED_PICKLES = [
    (VReg(3), "8004953b000000000000008c11726570726f2e69722e6f706572616e64"
              "73948c04565265679493944b0368008c08526567436c6173739493948c"
              "01729485945294869452942e"),
    (VReg(7, RegClass.FLOAT),
     "8004953b000000000000008c11726570726f2e69722e6f706572616e6473948c04"
     "565265679493944b0768008c08526567436c6173739493948c0166948594529486"
     "9452942e"),
    (PReg(4), "80049524000000000000008c11726570726f2e69722e6f706572616e64"
              "73948c04505265679493944b04859452942e"),
    (Imm(42), "80049523000000000000008c11726570726f2e69722e6f706572616e64"
              "73948c03496d6d9493944b2a859452942e"),
    (Imm(-1.5), "8004952a000000000000008c11726570726f2e69722e6f706572616e"
                "6473948c03496d6d94939447bff8000000000000859452942e"),
    (GlobalAddr("tab", 8),
     "80049530000000000000008c11726570726f2e69722e6f706572616e6473948c0a"
     "476c6f62616c416464729493948c03746162944b08869452942e"),
    (PredDest(PReg(1), PType.OR_BAR),
     "80049562000000000000008c14726570726f2e69722e696e737472756374696f6e"
     "948c0850726564446573749493948c11726570726f2e69722e6f706572616e6473"
     "948c04505265679493944b018594529468008c0550547970659493948c034f527e"
     "9485945294869452942e"),
]


@pytest.mark.parametrize("operand, pickled", PINNED_PICKLES,
                         ids=[repr(o) for o, _ in PINNED_PICKLES])
def test_pickle_bytes_are_pinned(operand, pickled):
    assert pickle.dumps(operand, protocol=4).hex() == pickled
    loaded = pickle.loads(bytes.fromhex(pickled))
    assert type(loaded) is type(operand)
    assert loaded == operand


@pytest.mark.parametrize("value", [0, 1, -7, 2**40, 0.0, -0.0, 1.5])
def test_imm_hashes_like_its_one_tuple(value):
    assert hash(Imm(value)) == hash((value,))
    assert Imm(value).value == value


def test_register_fields_read_back():
    reg = VReg(9, RegClass.FLOAT)
    assert (reg.index, reg.rclass) == (9, RegClass.FLOAT)
    assert (VReg(9).index, VReg(9).rclass) == (9, RegClass.INT)
    assert PReg(9).index == 9


@pytest.mark.parametrize("operand, text", [
    (VReg(0), "r0"), (VReg(12, RegClass.FLOAT), "f12"), (PReg(3), "p3"),
    (Imm(-4), "#-4"), (Imm(0.5), "#0.5"), (GlobalAddr("g", 4), "@g+4")],
    ids=repr)
def test_operands_print_as_before(operand, text):
    assert repr(operand) == text
    assert str(operand) == text
    assert format(operand, "") == text
    assert f"{operand}" == text
    assert f"{operand!r}" == text
    assert "%s" % (operand,) == text
    with pytest.raises(TypeError):
        format(operand, ">8")


def test_register_zero_is_true():
    assert bool(VReg(0))
    assert bool(VReg(0, RegClass.FLOAT))
    assert bool(PReg(0))
    assert bool(Imm(0))


def test_registers_equal_no_other_operand():
    for index in (0, 1, 3):
        regs = [VReg(index), VReg(index, RegClass.FLOAT), PReg(index)]
        others = [Imm(index), Imm(float(index)), GlobalAddr("g", index)]
        # the int values the registers carry, as immediates too
        others += [Imm(int(r)) for r in regs]
        for reg in regs:
            for other in regs + others:
                if other is not reg:
                    assert reg != other and other != reg
        assert len(set(regs + others)) == len(regs) + len(set(others))
    assert Imm(1) == Imm(1.0)
