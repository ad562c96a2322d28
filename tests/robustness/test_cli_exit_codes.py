"""CLI failure mapping: typed errors become distinct exit codes."""

import pytest

from repro.cli import main

SLOW_SRC = """
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 200000; i = i + 1) {
    s = s + i;
  }
  return s;
}
"""


@pytest.fixture
def slow_file(tmp_path):
    path = tmp_path / "slow.c"
    path.write_text(SLOW_SRC)
    return str(path)


def test_robustness_flags_accepted(slow_file, capsys):
    code = main(["compile", slow_file, "--model", "fullpred",
                 "--paranoid"])
    assert code == 0
    assert "function main" in capsys.readouterr().out


def test_missing_file_maps_to_exit_10(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.c")])
    assert code == 10
    err = capsys.readouterr().err
    assert "error[FileNotFoundError]" in err


def test_parse_error_maps_to_exit_11(tmp_path, capsys):
    path = tmp_path / "bad.c"
    path.write_text("int main() { return %%; }")
    code = main(["compile", str(path)])
    assert code == 11
    assert "error[ParseError]" in capsys.readouterr().err


def test_sema_error_maps_to_exit_11(tmp_path, capsys):
    path = tmp_path / "nomain.c"
    path.write_text("int helper() { return 1; }")
    code = main(["run", str(path)])
    assert code == 11
    err = capsys.readouterr().err
    assert "error[SemaError]" in err
    assert "Traceback" not in err


def test_lex_error_maps_to_exit_11(tmp_path, capsys):
    path = tmp_path / "lex.c"
    path.write_text("int main() { return `; }")
    code = main(["compile", str(path)])
    assert code == 11
    assert "error[LexError]" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "corruption classes caught" in out
    assert "UNDETECTED" not in out


@pytest.mark.parametrize("argv", [
    ["report", "--mode", "degrade"],
    ["figures", "--mode", "strict"],
    ["run", "kernel.c", "--rollback"],
    ["compile", "kernel.c", "--rollback"],
    ["run", "kernel.c", "--time-budget", "0"],
    ["fuzz", "run", "--time-budget", "10"],
])
def test_retired_fallback_flags_are_usage_errors(argv, capsys):
    # Nothing skips a failing pass or drops a failing workload, and
    # max_steps is the one emulation bound: no wall-clock budget.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
