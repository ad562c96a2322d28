"""What the two kernels read of a program is pinned.

Every program of ``tests/programs.py`` is compiled under each model for
the Fig. 8 machine and the scaled Fig. 11 machine; the digest covers
each scheduled program's simulator tables (``SimPrep`` and the native
scan's CSR form of them) and its emulator image (the sections the
``emu_new`` pointer vector names, constants resolved against the run's
layout; the slots each run fills itself are left out).  A change to how
a program is lowered must reproduce these bytes: the kernels, the
Python rung and every figure read nothing else of the program.

Uids enter the digest by the program-order position of their
instruction, so the digest does not depend on how many instructions
the process allocated before.
"""

import ctypes
import hashlib

import numpy as np

from repro.analysis.profile import Profile
from repro.emu.memory import Memory, layout_globals
from repro.experiments.runner import scaled_fig11_machine
from repro.fastpath.decode import decode_program
from repro.fastpath.native import NativeProgram
from repro.fastpath.simulate import prepare_sim
from repro.fastpath.vector import VectorSimPrep
from repro.machine.descriptor import fig8_machine
from repro.toolchain import Model, compile_for_model, frontend
from tests.programs import ALL_PROGRAMS, program_source

#: SHA-256 of :func:`tables_digest`
TABLES_GOLDEN = "1fd5eddc411bcefb0657cd07e55d50066addfc1c85003d686a48c65dcbd40aaa"

#: ``emu_new`` slots of the program image that hold one int32 per pc
_PC_SLOTS = tuple(range(10, 26)) + tuple(range(32, 36))


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _section(address: int, dtype, count: int) -> bytes:
    """``count`` elements of ``dtype`` at ``address`` (0 reads none)."""
    size = np.dtype(dtype).itemsize * count
    return ctypes.string_at(address, size) if size else b""


def _image_sections(nprog: NativeProgram) -> list[bytes]:
    """The bytes of each program-image section ``emu_new`` reads."""
    ptrs = nprog.ptrs.tolist()
    nfuncs, ncode = len(nprog.names), len(nprog.decoded.instructions)
    i32 = np.int32

    def read(slot, dtype, count):
        return _section(ptrs[slot], dtype, count)

    def last(slot, count):
        return int(np.frombuffer(read(slot, i32, count), i32)[-1])

    params = last(4, nfuncs + 1)
    consts = last(6, nfuncs + 1)
    cargs = last(26, ncode + 1)
    pdefs = last(29, ncode + 1)
    chain_refs = [np.frombuffer(read(slot, i32, n), i32)
                  for slot, n in ((3, nfuncs), (24, ncode), (34, ncode))]
    nchains = max((int(a.max()) for a in chain_refs if len(a)),
                  default=-1) + 1
    sections = [read(slot, i32, nfuncs) for slot in range(4)]
    sections += [read(4, i32, nfuncs + 1), read(5, i32, params),
                 read(6, i32, nfuncs + 1), read(7, np.int64, consts),
                 read(8, np.float64, consts), read(9, np.uint8, consts)]
    sections += [read(slot, i32, ncode) for slot in _PC_SLOTS]
    sections += [read(26, i32, ncode + 1), read(27, i32, cargs),
                 read(28, i32, cargs), read(29, i32, ncode + 1),
                 read(30, i32, pdefs), read(31, np.int8, 4 * pdefs),
                 read(50, i32, nchains + 1)]
    chain_keys = int(np.frombuffer(sections[-1], i32)[-1])
    sections.append(read(51, i32, chain_keys))
    return sections


def tables_digest() -> str:
    """SHA-256 over every program, model and machine of the simulator
    tables and the emulator image (see the module docstring)."""
    machines = (fig8_machine(), scaled_fig11_machine())
    digest = hashlib.sha256()

    def update(*parts):
        for part in parts:
            digest.update(part if isinstance(part, bytes)
                          else repr(part).encode())
            digest.update(b"\x00")

    for name in ALL_PROGRAMS:
        source, inputs = program_source(name)
        base = frontend(source)
        profile = Profile.collect(base, inputs=inputs, max_steps=2_000_000)
        for model in Model:
            optimized = {}
            for machine in machines:
                compiled = compile_for_model(base, model, profile, machine,
                                             optimized=optimized)
                decoded = decode_program(compiled.program)
                position = {inst.uid: i for i, inst
                            in enumerate(decoded.instructions)}
                prep = prepare_sim(decoded, compiled.addresses, machine)
                update(name, model.value, machine.name,
                       _ints(prep.pc_addr), _ints(prep.lat),
                       _ints(prep.flags),
                       [tuple(_ints(u)) for u in prep.used],
                       [tuple(_ints(d)) for d in prep.dests],
                       _ints(prep.pred), int(prep.nregs))
                tables = VectorSimPrep(prep).native_tables()
                for column in ("pc_addr", "lat", "flags", "pred",
                               "used_off", "dests_off"):
                    array = getattr(tables, column)
                    update(column, str(array.dtype), array.tobytes())
                for off, idx in (("used_off", "used_idx"),
                                 ("dests_off", "dests_idx")):
                    array = getattr(tables, idx)
                    update(idx, str(array.dtype), array[
                        :int(getattr(tables, off)[-1])].tobytes())
                update(int(tables.nregs))

                layout = layout_globals(compiled.program, Memory(), inputs)
                nprog = NativeProgram(decoded, layout)
                image = decoded.image
                update(nprog.entry_fid, image.max_call_args,
                       list(nprog.names), list(image.keys),
                       [position[uid] for uid in image.branch_uids],
                       *_image_sections(nprog))
                # the run's own slots stay empty in the image
                assert not nprog.ptrs[36:50].any()
    return digest.hexdigest()


def test_kernel_tables_of_every_program_are_pinned():
    assert tables_digest() == TABLES_GOLDEN
