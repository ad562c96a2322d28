"""Machine descriptions and the PA-7100-style latency table."""

from repro.ir.opcodes import Opcode
from repro.machine.descriptor import (CacheConfig, MachineDescription,
                                      fig8_machine, fig9_machine,
                                      fig10_machine, fig11_machine,
                                      scalar_machine)
from repro.machine.latencies import latency


def test_paper_machine_constructors():
    assert (fig8_machine().issue_width,
            fig8_machine().branch_issue_limit) == (8, 1)
    assert (fig9_machine().issue_width,
            fig9_machine().branch_issue_limit) == (8, 2)
    assert (fig10_machine().issue_width,
            fig10_machine().branch_issue_limit) == (4, 1)
    assert scalar_machine().issue_width == 1
    for m in (fig8_machine(), fig9_machine(), fig10_machine(),
              scalar_machine()):
        assert m.perfect_caches


def test_fig11_has_real_caches_with_paper_geometry():
    m = fig11_machine()
    assert not m.perfect_caches
    assert m.icache.size_bytes == 64 * 1024
    assert m.icache.line_bytes == 64
    assert m.dcache.miss_penalty == 12


def test_btb_defaults_match_paper():
    m = fig8_machine()
    assert m.btb.entries == 1024
    assert m.btb.mispredict_penalty == 2


def test_with_issue_returns_new_description():
    base = fig8_machine()
    narrow = base.with_issue(2, 1)
    assert narrow.issue_width == 2
    assert base.issue_width == 8  # immutable


def test_cache_config_lines():
    assert CacheConfig(size_bytes=64 * 1024, line_bytes=64).num_lines \
        == 1024


def test_latency_table_shape():
    # Single-cycle integer core operations.
    for op in (Opcode.ADD, Opcode.AND, Opcode.CMP_LT, Opcode.CMOV,
               Opcode.PRED_EQ, Opcode.STORE):
        assert latency(op) == 1, op
    # Load-use delay of one.
    assert latency(Opcode.LOAD) == 2
    # FP pipeline: add/multiply 2, iterative divide long.
    assert latency(Opcode.FADD) == 2
    assert latency(Opcode.FMUL) == 2
    assert latency(Opcode.FDIV) >= 8
    assert latency(Opcode.DIV) >= 8
    # Integer multiply via the FP unit.
    assert latency(Opcode.MUL) >= 2


def test_machine_latency_delegates():
    assert fig8_machine().latency(Opcode.LOAD) == 2


def test_predicate_use_delay_default():
    assert MachineDescription().predicate_use_delay == 1


# ----- latency-table overrides ----------------------------------------------

def test_latency_overrides_by_opcode_and_category():
    from repro.ir.opcodes import OpCategory, category
    m = MachineDescription(latency_overrides=(("load", 4), ("mul", 5)))
    assert m.latency(Opcode.LOAD) == 4
    assert category(Opcode.LOAD_B) == OpCategory.LOAD
    assert m.latency(Opcode.LOAD_B) == 4      # "load" is the category
    assert m.latency(Opcode.MUL) == 5         # "mul" is opcode-specific
    assert m.latency(Opcode.ADD) == 1         # untouched default


def test_opcode_override_beats_category_override():
    m = MachineDescription(latency_overrides={"load": 4, "load_b": 7})
    assert m.latency(Opcode.LOAD_B) == 7      # specific opcode wins
    assert m.latency(Opcode.LOAD) == 4        # category covers the rest


def test_overridden_latencies_follow_the_override_rule_for_every_opcode():
    # The rule, spelled out: an opcode-named override, else a
    # category-named one (a name that is both, like "load" or "cmov",
    # names the category), else the PA-7100 default.  Asked twice, so
    # a memoized table must agree with itself too.
    from repro.ir.opcodes import OpCategory, category
    category_names = {c.value for c in OpCategory}
    for table in ({"load": 3, "mul": 5}, {"falu": 4, "mul_f": 3},
                  {"cmov": 2, "div": 12, "branch": 2, "load_b": 6}):
        m = fig8_machine().with_latencies(table)
        by_op = {n: c for n, c in table.items() if n not in category_names}
        by_cat = {n: c for n, c in table.items() if n in category_names}
        for _ in range(2):
            for op in Opcode:
                expected = by_op.get(op.value, by_cat.get(
                    category(op).value, latency(op)))
                assert m.latency(op) == expected, (table, op)


def test_latency_overrides_accept_mapping_and_normalize_order():
    a = MachineDescription(latency_overrides={"mul": 5, "load": 4})
    b = MachineDescription(latency_overrides=(("load", 4), ("mul", 5)))
    assert a.latency_overrides == b.latency_overrides
    assert a.digest() == b.digest()
    assert a.schedule_digest() == b.schedule_digest()


def test_latency_overrides_change_both_digests():
    base = MachineDescription()
    tuned = base.with_latencies({"load": 4})
    assert tuned.digest() != base.digest()
    # Latencies drive DAG edge weights: schedule-relevant.
    assert tuned.schedule_digest() != base.schedule_digest()


def test_empty_overrides_keep_legacy_digests():
    assert MachineDescription(latency_overrides=()).digest() \
        == MachineDescription().digest()


def test_unknown_latency_name_is_typed_spec_error():
    import pytest
    from repro.robustness.errors import SpecError
    with pytest.raises(SpecError, match="unknown op class"):
        MachineDescription(latency_overrides={"ld": 2}).digest()
    with pytest.raises(SpecError):
        MachineDescription(latency_overrides={"bogus": 1})


def test_latency_cycles_out_of_range_rejected():
    import pytest
    from repro.robustness.errors import SpecError
    for bad in (0, -1, 1025, True, 1.5):
        with pytest.raises(SpecError):
            MachineDescription(latency_overrides={"load": bad})
