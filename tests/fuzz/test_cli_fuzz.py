"""CLI fuzz verbs: exit codes, logs, corpus management."""

from __future__ import annotations

import json

import pytest

import repro.fuzz.executor as executor_mod
from repro.cli import main
from repro.robustness.errors import FuzzFindingsError, ReproError

from tests.fuzz.conftest import sabotaged_compile

_FAST = ["--max-steps", "300000"]


def test_fuzz_findings_error_is_exit_18():
    assert FuzzFindingsError.exit_code == 18
    assert issubclass(FuzzFindingsError, ReproError)


def test_clean_run_exits_zero(tmp_path, capsys):
    code = main(["fuzz", "run", "--budget", "2", "--seed", "0xfeed",
                 "--corpus-dir", str(tmp_path),
                 "--log", str(tmp_path / "log.jsonl")] + _FAST)
    assert code == 0
    out = capsys.readouterr().out
    assert "no divergence, no crashes, no hangs" in out
    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    assert len(lines) == 2
    entry = json.loads(lines[0])
    assert entry["verdict"] == "ok"
    assert "wall_seconds" not in entry  # logs must diff clean across runs


def test_findings_map_to_exit_18(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(executor_mod, "compile_for_model",
                        sabotaged_compile)
    code = main(["fuzz", "run", "--budget", "2", "--seed", "0xbadc0de",
                 "--corpus-dir", str(tmp_path), "--no-reduce"] + _FAST)
    assert code == 18
    captured = capsys.readouterr()
    assert "error[FuzzFindingsError]" in captured.err
    assert "saved corpus/finding-" in captured.out


def test_seed_and_replay_roundtrip(tmp_path, capsys):
    assert main(["fuzz", "seed", "--corpus-dir", str(tmp_path),
                 "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "seeded" in out
    assert main(["fuzz", "corpus", "--corpus-dir", str(tmp_path)]) == 0
    assert "seed-wc" in capsys.readouterr().out
    assert main(["fuzz", "replay", "seed-wc",
                 "--corpus-dir", str(tmp_path)] + _FAST) == 0
    assert "0 failure(s)" in capsys.readouterr().out


def test_replay_all_fails_on_stale_expectation(tmp_path, capsys):
    # An entry that expects a finding but now runs clean must fail
    # replay: its expectation is stale and needs updating.
    from repro.fuzz.corpus import CorpusEntry, save_entry
    save_entry(CorpusEntry(entry_id="finding-stale",
                           source="int main() { return 3; }\n",
                           expect="finding"), tmp_path)
    code = main(["fuzz", "replay", "--all",
                 "--corpus-dir", str(tmp_path)] + _FAST)
    assert code == 18
    assert "FAIL (ok)" in capsys.readouterr().out


def test_replay_without_target_is_usage_error(tmp_path, capsys):
    assert main(["fuzz", "replay",
                 "--corpus-dir", str(tmp_path)] + _FAST) == 2


def test_empty_corpus_messages(tmp_path, capsys):
    assert main(["fuzz", "corpus", "--corpus-dir",
                 str(tmp_path / "none")]) == 0
    assert "corpus is empty" in capsys.readouterr().out


def test_bench_json_carries_fuzz_throughput(tmp_path):
    """Each campaign writes its own counters; a second campaign into
    the same file replaces the first's instead of adding to them."""
    bench = tmp_path / "bench.json"
    for _ in range(2):
        code = main(["fuzz", "run", "--budget", "1", "--seed", "1",
                     "--corpus-dir", str(tmp_path),
                     "--bench-json", str(bench)] + _FAST)
        assert code == 0
    data = json.loads(bench.read_text())
    assert data["fuzz_cases"] == 1
    assert data["fuzz_cases_per_second"] > 0
    assert "history" not in data
