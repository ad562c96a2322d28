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
    VReg(3), VReg(7, RegClass.FLOAT), VReg(2, RegClass.PRED), PReg(4),
    Imm(42), Imm(1.5), GlobalAddr("tab"), GlobalAddr("tab", 8),
    PredDest(PReg(1), PType.OR_BAR)], ids=repr)
def test_operands_round_trip_through_pickle(operand):
    loaded = pickle.loads(pickle.dumps(operand, protocol=4))
    assert type(loaded) is type(operand)
    assert loaded == operand
    assert hash(loaded) == hash(operand)
