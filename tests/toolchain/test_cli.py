"""Command-line interface tests."""

import pytest

from repro.cli import build_parser, main

SRC = """
int n = 40;
int total;
int main() {
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (i % 3 == 0) total = total + i;
  }
  return total;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(SRC)
    return str(path)


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv", [
    ["report", "--compare", "baseline.json"],
    ["report", "--profile"],
    ["figures", "--profile"],
    ["bench", "--micro"],
    ["bench", "wc", "--repeat", "3"],
])
def test_retired_bench_harness_flags_are_usage_errors(argv):
    """Performance is measured by perfbench/; the in-product harness's
    flags are gone, so argparse rejects them with exit code 2."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2


def test_list_workloads(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "wc" in out and "eqntott" in out


def test_compile_dumps_ir(source_file, capsys):
    assert main(["compile", source_file, "--model", "fullpred"]) == 0
    out = capsys.readouterr().out
    assert "function main" in out


def test_run_reports_stats(source_file, capsys):
    assert main(["run", source_file, "--model", "cmov",
                 "--width", "4"]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "speedup vs 1-issue" in out
    # The kernel's known answer: sum of multiples of 3 below 40.
    expected = sum(i for i in range(40) if i % 3 == 0)
    assert str(expected) in out


def test_run_models_agree(source_file, capsys):
    results = []
    for model in ("superblock", "cmov", "fullpred"):
        main(["run", source_file, "--model", model])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "result" in l)
        results.append(line.split(":")[1].strip())
    assert len(set(results)) == 1


def test_bench_runs_workload(tmp_path, capsys):
    assert main(["bench", "wc", "--scale", "0.15",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "Superblock" in out and "Full Predication" in out


def test_report_to_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    # Tiny scale keeps this test quick while covering the whole path.
    assert main(["report", "--scale", "0.1", "-o", str(target),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    text = target.read_text()
    assert "Figure 8" in text and "Table 3" in text
