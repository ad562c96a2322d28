"""Pre-decode: lower a compiled :class:`Program` once into everything
the emulators and simulators read of it.

:func:`decode_program` is the one Python loop over a scheduled
program's instructions.  It fills three views, none of which depends on
the global layout or the machine:

* the Python rung's micro-ops: per function, a flat list of 11-tuples
  ``(kind, sidx, dest, m0, i0, m1, i1, m2, i2, guard, aux)``.  ``kind``
  is a dense int dispatch ordinal, ``sidx`` indexes the program-order
  static instruction table shared with
  :class:`~repro.fastpath.columns.TraceColumns`, ``dest``/``guard`` are
  dense register indices (``-1`` for none), the ``(m, i)`` pairs encode
  up to three sources as (mode, index) with mode
  ``M_REG``/``M_CONST``/``M_PREG``, and ``aux`` carries per-kind
  payload (comparison function, resolved branch target,
  predicate-define truth tables, ...), so the interpreter dispatches on
  plain ints with no per-step attribute or ``isinstance`` lookups;
* the emulation kernel's :class:`ProgramImage`: the same program as int
  rows, CSR tables for call arguments and predicate defines, interned
  empty-block chains and branch uids.  A run only resolves the
  constants (:class:`~repro.fastpath.native.NativeProgram`);
* the simulators' :class:`SimColumns`: uid, opcode, behaviour
  flags and dense register ids.  A machine only adds addresses and
  latencies (:func:`~repro.fastpath.simulate.prepare_sim`).

Control flow is resolved to flat pcs.  Falling through or branching
into a chain of empty blocks is pre-walked, which yields the
``(fn, block)`` profile keys the legacy interpreter would count on the
way plus the landing pc (``-1`` when control falls off the end of the
function — a fault the emulators raise with the legacy message).

The legacy simulator keys its ``ready`` table by register *objects*
across the whole trace, so equal registers of different functions alias
one scoreboard entry; the simulator columns number registers the same
way, program-wide, in first-seen order (each instruction's reads, then
its writes, then its guard).
"""

from __future__ import annotations

from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

from repro.emu.interpreter import _CMP
from repro.emu.memory import EmulationFault
from repro.ir.function import Program
from repro.ir.instruction import Instruction, PType
from repro.ir.opcodes import CONDITION, OpCategory, Opcode
from repro.ir.operands import GlobalAddr, Imm, PReg, VReg
from repro.machine.predicates import pred_update

# Source-operand addressing modes.
M_REG = 0     # i indexes the dense virtual-register file
M_CONST = 1   # i indexes the per-function resolved-constant table
M_PREG = 2    # i indexes the dense predicate-register file

# Micro-op kinds.  Pure register ops come first (shared trace/advance
# tail in the interpreter), then memory, then control transfers.
(K_ADD, K_MOV, K_CMP, K_SUB, K_AND, K_PREDDEF, K_OR, K_CMOV, K_SELECT,
 K_XOR, K_SHL, K_SHR, K_NOT, K_NEG, K_MUL, K_AND_NOT, K_OR_NOT, K_DIV,
 K_REM, K_FADD, K_FSUB, K_FMUL, K_FDIV, K_FNEG, K_FMOV, K_CVT_IF,
 K_CVT_FI, K_PREDSET, K_NOP,
 K_LOAD, K_LOAD_B, K_FLOAD, K_STORE, K_STORE_B, K_FSTORE,
 K_BRANCH, K_JUMP, K_CALL, K_RET) = range(39)

_KIND: dict[Opcode, int] = {
    Opcode.ADD: K_ADD, Opcode.SUB: K_SUB, Opcode.MUL: K_MUL,
    Opcode.DIV: K_DIV, Opcode.REM: K_REM, Opcode.NEG: K_NEG,
    Opcode.MOV: K_MOV, Opcode.AND: K_AND, Opcode.OR: K_OR,
    Opcode.XOR: K_XOR, Opcode.NOT: K_NOT, Opcode.SHL: K_SHL,
    Opcode.SHR: K_SHR, Opcode.AND_NOT: K_AND_NOT,
    Opcode.OR_NOT: K_OR_NOT,
    Opcode.FADD: K_FADD, Opcode.FSUB: K_FSUB, Opcode.FMUL: K_FMUL,
    Opcode.FDIV: K_FDIV, Opcode.FNEG: K_FNEG, Opcode.FMOV: K_FMOV,
    Opcode.CVT_IF: K_CVT_IF, Opcode.CVT_FI: K_CVT_FI,
    Opcode.LOAD: K_LOAD, Opcode.LOAD_B: K_LOAD_B, Opcode.FLOAD: K_FLOAD,
    Opcode.STORE: K_STORE, Opcode.STORE_B: K_STORE_B,
    Opcode.FSTORE: K_FSTORE,
    Opcode.JUMP: K_JUMP, Opcode.JSR: K_CALL, Opcode.RET: K_RET,
    Opcode.PRED_CLEAR: K_PREDSET, Opcode.PRED_SET: K_PREDSET,
    Opcode.CMOV: K_CMOV, Opcode.CMOV_COM: K_CMOV,
    Opcode.FCMOV: K_CMOV, Opcode.FCMOV_COM: K_CMOV,
    Opcode.SELECT: K_SELECT, Opcode.FSELECT: K_SELECT,
    Opcode.NOP: K_NOP,
}
# CMP_*/FCMP_* share value-level semantics; branches and predicate
# defines carry their comparison function in ``aux``.
for _op, _cond in CONDITION.items():
    if _op.value.startswith("pred_"):
        _KIND[_op] = K_PREDDEF
    elif _op.value.startswith("b"):
        _KIND[_op] = K_BRANCH
    else:
        _KIND.setdefault(_op, K_CMP)

#: Per-PType truth table indexed by ``(p_in << 1) | cmp_result``; entry
#: is the new predicate value or None for "unchanged" (paper Table 1).
_PRED_TABLES: dict[PType, tuple] = {
    ptype: tuple(pred_update(ptype, p_in, cmp)
                 for p_in in (0, 1) for cmp in (0, 1))
    for ptype in PType
}
#: The same tables as the kernel reads them: -1 for "unchanged".
_PRED_CODES = {ptype: tuple(-1 if nv is None else int(nv) for nv in table)
               for ptype, table in _PRED_TABLES.items()}

# Per-static-instruction behaviour flags of the simulators.
F_CONTROL = 1    # branch/jump/call/ret: occupies a branch issue slot
F_LOAD = 2
F_STORE = 4
F_DYNBRANCH = 8  # dynamically conditional: predicted at fetch
F_JUMP = 16      # jump flavour of a dynamic branch (outcome = executed)

#: The kernel's comparison ordinals (``docmp`` in the C source).
_COND_ORD = {"eq": 0, "ne": 1, "lt": 2, "le": 3, "gt": 4, "ge": 5}


def _sim_flags(op: Opcode, guarded: bool) -> int:
    cat = op.category
    f = F_CONTROL if op.control else 0
    if cat is OpCategory.LOAD:
        f |= F_LOAD
    elif cat is OpCategory.STORE:
        f |= F_STORE
    if cat is OpCategory.BRANCH:
        f |= F_DYNBRANCH
    elif cat is OpCategory.JUMP and guarded:
        f |= F_DYNBRANCH | F_JUMP
    return f


#: Kinds whose micro-op carries a payload (``aux``) or image values.
_PAYLOAD = frozenset((K_CMP, K_BRANCH, K_JUMP, K_CALL, K_RET, K_PREDDEF,
                      K_PREDSET, K_CMOV, K_DIV, K_REM, K_FDIV, K_LOAD,
                      K_LOAD_B, K_FLOAD))

#: Everything decode needs of an opcode, from one lookup: kind,
#: simulator flags unguarded and guarded, whether the kind carries a
#: payload, and for the comparing kinds the comparison function and its
#: kernel ordinal (else None and 0).  Keyed by ``id(op)``: members are
#: singletons, and hashing an enum member runs Python code.
_OPINFO: dict[int, tuple] = {
    id(op): (kind, _sim_flags(op, False), _sim_flags(op, True),
             kind in _PAYLOAD)
    + ((_CMP[CONDITION[op]], _COND_ORD[CONDITION[op]])
       if kind in (K_CMP, K_BRANCH, K_PREDDEF) else (None, 0))
    for op, kind in _KIND.items()
}

#: ``ProgramImage.rows`` placeholder of a pc that falls through to
#: the next pc of its block, and of a branch or jump to an unknown label
#: (keep in sync with the C source).
NXT_NONE = -10
TGT_UNKNOWN = -2

#: Kinds that write ``regs[dest]`` unconditionally or conditionally —
#: a ``dest == -1`` means the serial engine writes ``regs[-1]`` (the
#: highest dense register), which the image reproduces by remapping.
#: ``K_CALL`` keeps ``-1``: it means "no writeback".
_NO_REG_WRITE = frozenset((K_PREDDEF, K_PREDSET, K_NOP, K_STORE,
                           K_STORE_B, K_FSTORE, K_BRANCH, K_JUMP,
                           K_CALL, K_RET))

#: The values of a pc's row in :attr:`ProgramImage.rows`: the kernel's
#: per-pc columns, then the pc's counts of call arguments and predicate
#: destinations (the CSR tables' row lengths).
IMAGE_ROW = ("kind", "sidx", "dest", "m0", "i0", "m1", "i1", "m2", "i2",
             "guard", "cond", "spec", "buid", "tgt_pc", "tgt_chain",
             "callee", "pdp", "nxt_pc", "nxt_chain", "fn_of_pc", "nargs",
             "npdefs")
_ROW = len(IMAGE_ROW)
_NXT_PC = IMAGE_ROW.index("nxt_pc")


class DecodedFunction(NamedTuple):
    """Flat decoded form of one :class:`Function`."""

    name: str
    #: flat list of 11-tuples (see module docstring)
    code: list[tuple]
    #: per-pc successor: None = next pc in the same block, else
    #: (profile_keys, landing_pc) with landing_pc == -1 meaning control
    #: falls off the end of the function
    nxt: list[tuple | None]
    #: (profile_keys, first_pc) for function entry
    entry: tuple
    #: dense register indices of the formal parameters, in order
    params: list[int]
    #: constant table spec: ('imm', value) | ('glob', name, offset)
    consts_spec: list[tuple]
    nregs: int
    npregs: int


class ProgramImage(NamedTuple):
    """The emulation kernel's program image, all but the constants.

    Pcs are program-wide (function after function, equal to ``sidx``);
    chains of empty blocks and branch uids are interned program-wide in
    first-use order.  Every list holds plain ints, ready to be packed.
    """

    #: one row of :data:`IMAGE_ROW` values per pc, one pc after another
    rows: list[int]
    fn_entry_pc: list[int]
    fn_entry_chain: list[int]
    #: call arguments as (mode, index), the calls in pc order
    cargs_mode: list[int]
    cargs_idx: list[int]
    #: predicate destinations and their truth tables, in pc order
    pd_pidx: list[int]
    pd_table: list[int]
    #: each chain's block-key ids, as CSR
    chain_off: list[int]
    chain_keys: list[int]
    #: the ``(fn, block)`` profile key of each block-key id
    keys: list[tuple]
    #: the uid of each branch id
    branch_uids: list[int]
    max_call_args: int


class SimColumns(NamedTuple):
    """The simulators' machine-independent per-``sidx`` columns."""

    #: instruction uid (the address map's key)
    uids: list[int]
    #: opcode
    ops: list[Opcode]
    #: behaviour flags (``F_*``)
    flags: list[int]
    #: dense ids of all registers read (guard included) — interlocks
    used: list[tuple[int, ...]]
    #: dense ids of all registers written (dest + pdests)
    dests: list[tuple[int, ...]]
    #: dense id of the guard predicate, -1 when unguarded
    pred: list[int]
    nregs: int


class DecodedProgram:
    """All functions of a program, the shared sidx table, and the
    kernels' image and columns."""

    __slots__ = ("entry", "functions", "instructions", "image", "sim")

    def __init__(self, entry: str,
                 functions: dict[str, DecodedFunction],
                 instructions: list[Instruction],
                 image: ProgramImage, sim: SimColumns):
        self.entry = entry
        self.functions = functions
        #: static instructions in program order — the namespace for
        #: ``TraceColumns.sidx`` and ``SimPrep`` arrays; iteration order
        #: matches ``sim.pipeline.assign_addresses``
        self.instructions = instructions
        self.image = image
        self.sim = sim


class _Numbering(dict):
    """Dense ids in first-seen order: looking a new key up numbers it."""

    __slots__ = ()

    def __missing__(self, key) -> int:
        i = self[key] = len(self)
        return i


def decode_program(program: Program) -> DecodedProgram:
    """Lower ``program`` to its flat forms (pure; no caching)."""
    fns = list(program.functions.values())
    fid_of = {fn.name: fid for fid, fn in enumerate(fns)}
    instructions: list[Instruction] = []
    functions: dict[str, DecodedFunction] = {}
    # One image row per pc, and the simulator's opcode, flags and guard
    # id per pc.
    rows: list[int] = []
    sim_rows: list[int] = []

    # The kernel image's program-wide tables.
    fn_entry_pc: list[int] = []
    fn_entry_chain: list[int] = []
    cargs_mode: list[int] = []
    cargs_idx: list[int] = []
    pd_pidx: list[int] = []
    pd_table: list[int] = []
    key_id = _Numbering()
    chain_id: dict[tuple, int] = {}
    chain_off = [0]
    chain_keys: list[int] = []
    buid_of = _Numbering()
    max_call_args = 1

    def intern_chain(keys: tuple) -> int:
        ci = chain_id.get(keys)
        if ci is None:
            ci = chain_id[keys] = len(chain_off) - 1
            chain_keys.extend(map(key_id.__getitem__, keys))
            chain_off.append(len(chain_keys))
        return ci

    # The simulator columns: one program-wide register numbering.
    sim_ids = _Numbering()
    sim_id = sim_ids.__getitem__
    used: list[tuple[int, ...]] = []
    dests: list[tuple[int, ...]] = []

    for fid, fn in enumerate(fns):
        name = fn.name
        base = len(instructions)
        regmap = _Numbering()
        rid = regmap.__getitem__
        pregmap = _Numbering()
        pid = pregmap.__getitem__
        # Register operand -> (mode, index): registers of different
        # kinds never compare equal, and never equal a constant.
        encoded: dict = {}
        # Constants by ("imm", type, value) or ("glob", name, offset).
        constmap = _Numbering()

        def enc(op) -> tuple[int, int]:
            t = type(op)
            if t is VReg:
                e = encoded[op] = (M_REG, rid(op))
                return e
            if t is Imm:
                v = op.value
                return M_CONST, constmap["imm", type(v), v]
            if t is PReg:
                e = encoded[op] = (M_PREG, pid(op))
                return e
            if t is GlobalAddr:
                return M_CONST, constmap["glob", op.name, op.offset]
            raise EmulationFault(f"bad operand {op!r}")

        blocks = fn.blocks
        nblocks = len(blocks)
        block_keys = [(name, b.name) for b in blocks]
        block_len = [len(b.instructions) for b in blocks]
        first_pc = list(accumulate(block_len, initial=0))
        label2idx = {b.name: i for i, b in enumerate(blocks)}
        chains: dict[int, tuple] = {}

        def chain(bi: int) -> tuple:
            """``((profile_keys, landing_pc), image pc, chain id)`` of
            control entering block ``bi``, walked as the legacy
            fall-through loop does."""
            found = chains.get(bi)
            if found is None:
                keys = []
                landing = -1
                at = bi
                while at < nblocks:
                    keys.append(block_keys[at])
                    if block_len[at]:
                        landing = first_pc[at]
                        break
                    at += 1
                keys = tuple(keys)
                found = chains[bi] = (
                    (keys, landing),
                    base + landing if landing >= 0 else -1,
                    intern_chain(keys))
            return found

        entry, entry_pc, entry_chain = chain(0)
        fn_entry_pc.append(entry_pc)
        fn_entry_chain.append(entry_chain)
        code: list[tuple] = []
        nxt: list[tuple | None] = []
        # Row positions of dests that stand for the top register.
        top_dests: list[int] = []

        for bi, block in enumerate(blocks):
            sidx = len(instructions)
            instructions += block.instructions
            for inst in block.instructions:
                op = inst.op
                info = _OPINFO.get(id(op))
                if info is None:
                    raise EmulationFault(f"unhandled opcode {op}")
                kind, flags, guarded_flags, payload, cmpfn, cond = info

                dreg = inst.dest
                dest = -1 if dreg is None else rid(dreg)
                preg = inst.pred
                # Predicate defines are exempt from guard nullification:
                # their input predicate is a truth-table operand (paper
                # Table 1), not a guard.
                guard = -1 if (preg is None or kind == K_PREDDEF) \
                    else pid(preg)

                m0 = i0 = m1 = i1 = m2 = i2 = 0
                srcs = inst.srcs
                if kind != K_CALL and srcs:
                    s = srcs[0]
                    m0, i0 = encoded.get(s) or enc(s)
                    if len(srcs) > 1:
                        s = srcs[1]
                        m1, i1 = encoded.get(s) or enc(s)
                        if len(srcs) > 2:
                            s = srcs[2]
                            m2, i2 = encoded.get(s) or enc(s)

                aux = None
                spec = buid = tgt_pc = tgt_chain = callee = pdp = 0
                nargs = npdefs = 0
                if not payload:  # a plain op: no aux, no image values
                    pass
                elif kind == K_CMP:
                    aux = cmpfn
                elif kind == K_BRANCH or kind == K_JUMP:
                    label = inst.target
                    bj = label2idx.get(label, -1)
                    if bj >= 0:
                        target, tgt_pc, tgt_chain = chain(bj)
                    else:
                        target = None
                        tgt_pc = TGT_UNKNOWN
                    if kind == K_JUMP:
                        aux = (target, label)
                    else:
                        aux = (cmpfn, inst.uid, target, label)
                        buid = buid_of[inst.uid]
                elif kind == K_CALL:
                    argspec = tuple([encoded.get(s) or enc(s)
                                     for s in srcs])
                    aux = (inst.target, argspec)
                    callee = fid_of[inst.target]
                    for m, i in argspec:
                        cargs_mode.append(m)
                        cargs_idx.append(i)
                    nargs = len(argspec)
                    if nargs > max_call_args:
                        max_call_args = nargs
                elif kind == K_RET:
                    aux = bool(srcs)
                    spec = 1 if aux else 0
                elif kind == K_PREDDEF:
                    pdp = -1 if preg is None else pid(preg)
                    pdspec = []
                    for pd in inst.pdests:
                        pidx = pid(pd.reg)
                        pdspec.append((pidx, _PRED_TABLES[pd.ptype]))
                        pd_pidx.append(pidx)
                        pd_table += _PRED_CODES[pd.ptype]
                    aux = (cmpfn, pdp, tuple(pdspec))
                    npdefs = len(pdspec)
                elif kind == K_PREDSET:
                    aux = spec = 1 if op is Opcode.PRED_SET else 0
                elif kind == K_CMOV:
                    aux = op is Opcode.CMOV or op is Opcode.FCMOV
                    spec = 1 if aux else 0
                elif kind in (K_DIV, K_REM, K_FDIV, K_LOAD, K_LOAD_B,
                              K_FLOAD):
                    aux = inst.speculative
                    spec = 1 if aux else 0
                code.append((kind, sidx, dest, m0, i0, m1, i1, m2, i2,
                             guard, aux))

                if dest < 0 and kind not in _NO_REG_WRITE:
                    top_dests.append(len(rows) + 2)
                used.append(tuple(map(sim_id, inst.used_regs())))
                if inst.pdests:
                    dests.append(tuple(map(sim_id, inst.defined_regs())))
                elif dreg is None:
                    dests.append(())
                else:
                    dests.append((sim_id(dreg),))
                if preg is None:
                    spred = -1
                else:
                    spred = sim_id(preg)
                    flags = guarded_flags
                rows += (kind, sidx, dest, m0, i0, m1, i1, m2, i2, guard,
                         cond, spec, buid, tgt_pc, tgt_chain, callee, pdp,
                         NXT_NONE, 0, fid, nargs, npdefs)
                sim_rows += (op, flags, spred)
                sidx += 1

            if block.instructions:
                # The block's last pc falls through to the next block.
                after, rows[-_ROW + _NXT_PC], rows[-_ROW + _NXT_PC + 1] = \
                    chain(bi + 1)
                nxt += [None] * (len(block.instructions) - 1)
                nxt.append(after)

        params = [rid(p) for p in fn.params]
        # The serial engine writes regs[-1]: the function's top register.
        top = max(len(regmap), 1) - 1
        for at in top_dests:
            rows[at] = top
        functions[name] = DecodedFunction(
            name, code, nxt, entry, params,
            [("imm", key[2]) if key[0] == "imm" else key
             for key in constmap], len(regmap), len(pregmap))

    image = ProgramImage(
        rows=rows, fn_entry_pc=fn_entry_pc, fn_entry_chain=fn_entry_chain,
        cargs_mode=cargs_mode, cargs_idx=cargs_idx, pd_pidx=pd_pidx,
        pd_table=pd_table, chain_off=chain_off, chain_keys=chain_keys,
        keys=list(key_id), branch_uids=list(buid_of),
        max_call_args=max_call_args)
    sim = SimColumns(list(map(attrgetter("uid"), instructions)),
                     sim_rows[0::3], sim_rows[1::3], used, dests,
                     sim_rows[2::3], len(sim_ids))
    return DecodedProgram(program.main.name, functions, instructions,
                          image, sim)
