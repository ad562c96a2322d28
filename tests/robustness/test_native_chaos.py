"""Native chaos campaign: every kernel injection degrades cleanly."""

import pytest

from repro.robustness.chaos import (format_chaos_reports,
                                    run_native_chaos_campaign)

EXPECTED_INJECTIONS = {
    "kernel-so-corrupt", "kernel-cc-vanish", "kernel-segv",
    "kernel-stale-cc", "kernel-parity-mismatch", "kernel-midrun-fault",
}


@pytest.fixture(scope="module")
def reports():
    return run_native_chaos_campaign(jobs=2)


def test_campaign_covers_every_injection_kind(reports):
    assert {r.injection for r in reports} == EXPECTED_INJECTIONS
    assert len(reports) >= 5  # the acceptance floor


def test_every_injection_recovers_or_fails_typed(reports):
    bad = [r for r in reports if not r.ok]
    assert not bad, format_chaos_reports(bad)


def test_degraded_output_is_byte_identical(reports):
    for r in reports:
        if r.outcome == "skipped":
            continue
        assert "byte-identical" in r.message, r.injection


def test_typed_failures_name_their_taxonomy_class(reports):
    by_name = {r.injection: r for r in reports}
    vanish = by_name["kernel-cc-vanish"]
    assert vanish.ok
    assert "NativeToolchainMissing" in vanish.message
    parity = by_name["kernel-parity-mismatch"]
    if parity.outcome != "skipped":
        assert "NativeParityError" in parity.message
        assert "quarantined" in parity.message


def test_supervisor_state_is_restored_after_the_campaign(reports):
    from repro.fastpath import supervisor
    state = supervisor._get_state()
    assert state.injection is None
    # The campaign ran entirely against throwaway caches and reset the
    # process state afterwards: the ladder is back at its env-resolved
    # top rung.
    assert supervisor.current_engine() == \
        ("native" if supervisor.native_enabled() else "interpreter")
