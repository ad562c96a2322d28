"""CLI recovery surface: cache fsck, friendly empty-store messages,
and figure resume."""

import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.engine.keys import stable_digest
from repro.engine.store import ArtifactStore
from repro.experiments.runner import ExperimentSuite
from repro.workloads import get_workload


# ----- cache stats/clear on missing or empty stores (satellite) -------------

def test_cache_stats_missing_dir_is_friendly(tmp_path, capsys):
    missing = str(tmp_path / "never-created")
    assert main(["cache", "stats", "--cache-dir", missing]) == 0
    out = capsys.readouterr().out
    assert "no artifact store" in out
    assert "Traceback" not in out


def test_cache_clear_missing_dir_is_friendly(tmp_path, capsys):
    missing = str(tmp_path / "never-created")
    assert main(["cache", "clear", "--cache-dir", missing]) == 0
    assert "no artifact store" in capsys.readouterr().out


def test_cache_stats_empty_store_is_friendly(tmp_path, capsys):
    empty = tmp_path / "empty-store"
    empty.mkdir()
    assert main(["cache", "stats", "--cache-dir", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "empty" in out and "repro report" in out


# ----- cache fsck -----------------------------------------------------------

def _populated_store(tmp_path):
    store = ArtifactStore(tmp_path)
    for i in range(3):
        store.put("stats", stable_digest("cli-fsck", str(i)), {"i": i})
    return store


def test_cache_fsck_clean_store_exits_zero(tmp_path, capsys):
    _populated_store(tmp_path)
    assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict        : clean" in out
    assert "3 artifacts" in out.replace("scanned        : ", "")


def test_cache_fsck_corrupt_store_exits_nonzero(tmp_path, capsys):
    store = _populated_store(tmp_path)
    path = store._path("stats", stable_digest("cli-fsck", "0"))
    path.write_bytes(path.read_bytes()[:12])
    assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 1
    assert "CORRUPT" in capsys.readouterr().out


def test_cache_fsck_repair_quarantines_and_exits_zero(tmp_path, capsys):
    store = _populated_store(tmp_path)
    path = store._path("stats", stable_digest("cli-fsck", "0"))
    path.write_bytes(path.read_bytes()[:12])
    assert main(["cache", "fsck", "--repair",
                 "--cache-dir", str(tmp_path)]) == 0
    assert "quarantined" in capsys.readouterr().out
    assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0


# ----- run ids and resume ---------------------------------------------------

def test_bench_announces_run_id_and_summary(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["bench", "wc", "--scale", "0.25",
                 "--cache-dir", cache, "--run-id", "R-cli-test"]) == 0
    err = capsys.readouterr().err
    assert "run id: R-cli-test" in err
    assert "tasks completed" in err
    journal = tmp_path / "cache" / "runs" / "R-cli-test.jsonl"
    records = [json.loads(line)
               for line in journal.read_text().splitlines()]
    assert records[0]["type"] == "run-start"
    assert records[-1]["type"] == "run-finish" and records[-1]["ok"]


def test_bench_resume_reports_zero_recompute(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["bench", "wc", "--scale", "0.25",
                 "--cache-dir", cache, "--run-id", "R-cli-resume"]) == 0
    first = capsys.readouterr()
    assert main(["bench", "wc", "--scale", "0.25",
                 "--cache-dir", cache, "--resume", "R-cli-resume"]) == 0
    second = capsys.readouterr()
    assert "zero recompute" in second.err
    # Byte-identical figures on resume.
    assert second.out == first.out


def test_throwaway_store_is_deleted_and_never_offered_for_resume(capsys):
    """``jobs > 1`` without a store gets a temp store the suite owns:
    ``close_journal`` deletes it, and the CLI offers no ``--resume``
    for it."""
    suite = ExperimentSuite(workloads=[get_workload("wc")], scale=0.25,
                            jobs=2)
    assert os.path.isdir(suite.cache_dir)
    suite.close_journal()
    assert not os.path.exists(suite.cache_dir)

    temp = Path(tempfile.gettempdir())
    before = set(temp.glob("repro-cache-*"))
    assert main(["bench", "wc", "--scale", "0.25", "--no-cache",
                 "--jobs", "2"]) == 0
    assert set(temp.glob("repro-cache-*")) == before
    assert "--resume" not in capsys.readouterr().err


def test_resume_unknown_run_id_exits_typed(tmp_path, capsys):
    code = main(["bench", "wc", "--scale", "0.25",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--resume", "R-never-ran"])
    assert code == 10
    err = capsys.readouterr().err
    assert "error[ReproError]" in err and "unknown run id" in err


# ----- parser surface -------------------------------------------------------

def test_figures_is_a_report_alias():
    parser = build_parser()
    args = parser.parse_args(["figures", "--resume", "RX", "--scale",
                              "0.25"])
    assert args.func.__name__ == "_cmd_report"
    assert args.resume == "RX"


@pytest.mark.parametrize("argv", [
    ["report", "--resume", "RX"],
    ["report", "--run-id", "RX"],
    ["bench", "wc", "--retries", "5"],
    ["cache", "fsck", "--repair"],
])
def test_recovery_flags_parse(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]

