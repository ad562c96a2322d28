"""Opcode definitions and metadata for the generic load/store ISA.

The opcode set covers the paper's three architectural models:

* the **baseline** ISA (integer/float arithmetic, logic, comparisons,
  memory, branches) including silent (non-excepting) execution for
  speculation support;
* the **partial predication** extension: ``cmov``, ``cmov_com`` and
  ``select`` (Section 2.2);
* the **full predication** extension: predicate define opcodes with
  two typed destinations, ``pred_clear``/``pred_set`` (Section 2.1).

Opcode metadata (category, commutativity, comparison function, inverse
comparison) drives the optimizer, the partial-predication lowering, the
scheduler, and the emulator without per-pass opcode switch statements.
"""

from __future__ import annotations

import enum


class OpCategory(enum.Enum):
    """Coarse behaviour class of an opcode."""

    ALU = "alu"            # int arithmetic / logic / moves
    CMP = "cmp"            # int comparisons producing 0/1
    FALU = "falu"          # float arithmetic / moves / conversions
    FCMP = "fcmp"          # float comparisons producing 0/1 int
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"      # conditional branches
    JUMP = "jump"          # unconditional jumps
    CALL = "call"
    RET = "ret"
    PREDDEF = "preddef"    # predicate define instructions
    PREDSET = "predset"    # pred_clear / pred_set
    CMOV = "cmov"          # cmov / cmov_com (partial predication)
    SELECT = "select"
    NOP = "nop"


class Opcode(enum.Enum):
    # --- integer ALU ---
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    NEG = "neg"
    MOV = "mov"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    AND_NOT = "and_not"    # dest = src1 & !src2 (logical, 0/1 second operand)
    OR_NOT = "or_not"      # dest = src1 | !src2
    # --- integer comparisons (dest = 0/1) ---
    CMP_EQ = "eq"
    CMP_NE = "ne"
    CMP_LT = "lt"
    CMP_LE = "le"
    CMP_GT = "gt"
    CMP_GE = "ge"
    # --- floating point ---
    FADD = "add_f"
    FSUB = "sub_f"
    FMUL = "mul_f"
    FDIV = "div_f"
    FNEG = "neg_f"
    FMOV = "mov_f"
    CVT_IF = "cvt_if"      # int -> float
    CVT_FI = "cvt_fi"      # float -> int (truncate)
    # --- float comparisons (int 0/1 dest) ---
    FCMP_EQ = "eq_f"
    FCMP_NE = "ne_f"
    FCMP_LT = "lt_f"
    FCMP_LE = "le_f"
    FCMP_GT = "gt_f"
    FCMP_GE = "ge_f"
    # --- memory ---
    LOAD = "load"          # dest, base, offset   (32-bit word)
    LOAD_B = "load_b"      # dest, base, offset   (unsigned byte)
    FLOAD = "load_f"
    STORE = "store"        # base, offset, src
    STORE_B = "store_b"
    FSTORE = "store_f"
    # --- control ---
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BLE = "ble"
    BGT = "bgt"
    BGE = "bge"
    JUMP = "jump"
    JSR = "jsr"
    RET = "ret"
    # --- full predication ---
    PRED_EQ = "pred_eq"
    PRED_NE = "pred_ne"
    PRED_LT = "pred_lt"
    PRED_LE = "pred_le"
    PRED_GT = "pred_gt"
    PRED_GE = "pred_ge"
    PRED_CLEAR = "pred_clear"
    PRED_SET = "pred_set"
    # --- partial predication ---
    CMOV = "cmov"          # dest, src, cond : if cond != 0 dest = src
    CMOV_COM = "cmov_com"  # dest, src, cond : if cond == 0 dest = src
    FCMOV = "cmov_f"
    FCMOV_COM = "cmov_com_f"
    SELECT = "select"      # dest, src1, src2, cond
    FSELECT = "select_f"
    # --- misc ---
    NOP = "nop"


_CATEGORY: dict[Opcode, OpCategory] = {}
for _op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
            Opcode.NEG, Opcode.MOV, Opcode.AND, Opcode.OR, Opcode.XOR,
            Opcode.NOT, Opcode.SHL, Opcode.SHR, Opcode.AND_NOT,
            Opcode.OR_NOT):
    _CATEGORY[_op] = OpCategory.ALU
for _op in (Opcode.CMP_EQ, Opcode.CMP_NE, Opcode.CMP_LT, Opcode.CMP_LE,
            Opcode.CMP_GT, Opcode.CMP_GE):
    _CATEGORY[_op] = OpCategory.CMP
for _op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
            Opcode.FNEG, Opcode.FMOV, Opcode.CVT_IF, Opcode.CVT_FI):
    _CATEGORY[_op] = OpCategory.FALU
for _op in (Opcode.FCMP_EQ, Opcode.FCMP_NE, Opcode.FCMP_LT, Opcode.FCMP_LE,
            Opcode.FCMP_GT, Opcode.FCMP_GE):
    _CATEGORY[_op] = OpCategory.FCMP
for _op in (Opcode.LOAD, Opcode.LOAD_B, Opcode.FLOAD):
    _CATEGORY[_op] = OpCategory.LOAD
for _op in (Opcode.STORE, Opcode.STORE_B, Opcode.FSTORE):
    _CATEGORY[_op] = OpCategory.STORE
for _op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BLE, Opcode.BGT,
            Opcode.BGE):
    _CATEGORY[_op] = OpCategory.BRANCH
_CATEGORY[Opcode.JUMP] = OpCategory.JUMP
_CATEGORY[Opcode.JSR] = OpCategory.CALL
_CATEGORY[Opcode.RET] = OpCategory.RET
for _op in (Opcode.PRED_EQ, Opcode.PRED_NE, Opcode.PRED_LT, Opcode.PRED_LE,
            Opcode.PRED_GT, Opcode.PRED_GE):
    _CATEGORY[_op] = OpCategory.PREDDEF
for _op in (Opcode.PRED_CLEAR, Opcode.PRED_SET):
    _CATEGORY[_op] = OpCategory.PREDSET
for _op in (Opcode.CMOV, Opcode.CMOV_COM, Opcode.FCMOV, Opcode.FCMOV_COM):
    _CATEGORY[_op] = OpCategory.CMOV
for _op in (Opcode.SELECT, Opcode.FSELECT):
    _CATEGORY[_op] = OpCategory.SELECT
_CATEGORY[Opcode.NOP] = OpCategory.NOP


_CONTROL = frozenset({OpCategory.BRANCH, OpCategory.JUMP, OpCategory.CALL,
                      OpCategory.RET})
_SIDE_EFFECTS = _CONTROL | {OpCategory.STORE, OpCategory.PREDSET}

# Per-member metadata, read as attributes: the analyses ask these of
# every instruction many times, and an attribute read is much cheaper
# than hashing the enum into a dict.
for _op in Opcode:
    _op.category = _CATEGORY[_op]
    _op.control = _op.category in _CONTROL
    _op.side_effects = _op.category in _SIDE_EFFECTS
del _op


def category(op: Opcode) -> OpCategory:
    """Return the behaviour category of ``op``."""
    return op.category


COMMUTATIVE: frozenset[Opcode] = frozenset({
    Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.CMP_EQ, Opcode.CMP_NE, Opcode.FADD, Opcode.FMUL,
    Opcode.FCMP_EQ, Opcode.FCMP_NE,
})

#: Comparison condition implemented by each comparison-flavoured opcode.
#: Shared by CMP_*, FCMP_*, B**, and PRED_* families.
CONDITION: dict[Opcode, str] = {
    Opcode.CMP_EQ: "eq", Opcode.CMP_NE: "ne", Opcode.CMP_LT: "lt",
    Opcode.CMP_LE: "le", Opcode.CMP_GT: "gt", Opcode.CMP_GE: "ge",
    Opcode.FCMP_EQ: "eq", Opcode.FCMP_NE: "ne", Opcode.FCMP_LT: "lt",
    Opcode.FCMP_LE: "le", Opcode.FCMP_GT: "gt", Opcode.FCMP_GE: "ge",
    Opcode.BEQ: "eq", Opcode.BNE: "ne", Opcode.BLT: "lt",
    Opcode.BLE: "le", Opcode.BGT: "gt", Opcode.BGE: "ge",
    Opcode.PRED_EQ: "eq", Opcode.PRED_NE: "ne", Opcode.PRED_LT: "lt",
    Opcode.PRED_LE: "le", Opcode.PRED_GT: "gt", Opcode.PRED_GE: "ge",
}

_INVERSE_COND = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt",
                 "gt": "le", "le": "gt"}

_SWAPPED_COND = {"eq": "eq", "ne": "ne", "lt": "gt", "gt": "lt",
                 "le": "ge", "ge": "le"}

_BY_COND: dict[tuple[OpCategory, str], Opcode] = {
    (category(op), cond): op for op, cond in CONDITION.items()
}


def opcode_for_condition(cat: OpCategory, cond: str) -> Opcode:
    """Opcode of category ``cat`` implementing comparison ``cond``."""
    return _BY_COND[(cat, cond)]


def inverse(op: Opcode) -> Opcode:
    """The opcode computing the logical negation of comparison ``op``.

    Used by the partial-predication lowering to eliminate one of two
    complementary comparisons (the paper's comparison-inversion peephole).
    """
    return _BY_COND[(category(op), _INVERSE_COND[CONDITION[op]])]


def swapped(op: Opcode) -> Opcode:
    """The opcode equivalent to ``op`` with its two operands exchanged."""
    return _BY_COND[(category(op), _SWAPPED_COND[CONDITION[op]])]


#: Opcodes whose normal (non-silent) execution may raise a program
#: terminating exception.  Silent versions of these exist in the baseline
#: ISA for speculation support (paper Section 4.1).
MAY_EXCEPT: frozenset[Opcode] = frozenset({
    Opcode.DIV, Opcode.REM, Opcode.FDIV,
    Opcode.LOAD, Opcode.LOAD_B, Opcode.FLOAD,
})


def has_side_effects(op: Opcode) -> bool:
    """True if the instruction does more than write its destination."""
    return op.side_effects


def is_control(op: Opcode) -> bool:
    """True for instructions that may transfer control."""
    return op.control


def writes_float(op: Opcode) -> bool:
    """True if the destination register is a float register."""
    return op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
                  Opcode.FNEG, Opcode.FMOV, Opcode.CVT_IF, Opcode.FLOAD,
                  Opcode.FCMOV, Opcode.FCMOV_COM, Opcode.FSELECT)
