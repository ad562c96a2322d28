"""Text renderers producing the paper's tables and figure data."""

from __future__ import annotations

from repro.experiments.runner import ExperimentSuite, mean_speedups
from repro.toolchain import Model


def _fmt_count(n: int) -> str:
    if n >= 1_000_000:
        return f"{n / 1_000_000:.1f}M"
    if n >= 1_000:
        return f"{n / 1_000:.0f}K"
    return str(n)


def render_speedup_figure(table: dict[str, dict[Model, float]],
                          title: str, bar_width: int = 36) -> str:
    """ASCII rendering of one speedup figure (Figures 8-11)."""
    lines = [title, "=" * len(title), ""]
    peak = max(max(row.values()) for row in table.values())
    scale = bar_width / max(peak, 1e-9)
    for name in sorted(table):
        lines.append(name)
        for model in Model:
            value = table[name][model]
            bar = "#" * max(1, int(value * scale))
            lines.append(f"  {model.value:<17s} {value:5.2f} |{bar}")
    lines.append("")
    means = mean_speedups(table)
    mean_text = "  ".join(f"{m.value}: {v:.2f}" for m, v in means.items())
    lines.append(f"arithmetic mean speedup — {mean_text}")
    return "\n".join(lines)


def render_table2(counts: dict[str, dict[Model, int]]) -> str:
    """Dynamic instruction count comparison (paper Table 2)."""
    header = (f"{'Benchmark':<12s} {'Superblk':>10s} "
              f"{'Cond. Move':>16s} {'Full Pred.':>16s}")
    lines = ["Table 2: Dynamic instruction count comparison",
             header, "-" * len(header)]
    for name in sorted(counts):
        row = counts[name]
        base = row[Model.SUPERBLOCK]
        cmov = row[Model.CMOV]
        full = row[Model.FULLPRED]
        lines.append(
            f"{name:<12s} {_fmt_count(base):>10s} "
            f"{_fmt_count(cmov):>9s} ({cmov / base:4.2f}) "
            f"{_fmt_count(full):>9s} ({full / base:4.2f})")
    ratios_cmov = [row[Model.CMOV] / row[Model.SUPERBLOCK]
                   for row in counts.values()]
    ratios_full = [row[Model.FULLPRED] / row[Model.SUPERBLOCK]
                   for row in counts.values()]
    lines.append("-" * len(header))
    lines.append(f"{'mean ratio':<12s} {'1.00':>10s} "
                 f"{sum(ratios_cmov) / len(ratios_cmov):>16.2f} "
                 f"{sum(ratios_full) / len(ratios_full):>16.2f}")
    return "\n".join(lines)


def render_table3(stats: dict[str, dict[Model, tuple[int, int, float]]]
                  ) -> str:
    """Branch statistics comparison (paper Table 3)."""
    header = (f"{'Benchmark':<12s}"
              f"{'BR':>9s}{'MP':>9s}{'MPR':>8s}   "
              f"{'BR':>9s}{'MP':>9s}{'MPR':>8s}   "
              f"{'BR':>9s}{'MP':>9s}{'MPR':>8s}")
    lines = [
        "Table 3: Branch statistics (BR branches, MP mispredictions, "
        "MPR rate)",
        f"{'':12s}{'Superblock':>26s}   {'Conditional Move':>26s}   "
        f"{'Full Predication':>26s}",
        header,
        "-" * len(header),
    ]
    for name in sorted(stats):
        row = stats[name]
        cells = []
        for model in Model:
            br, mp, mpr = row[model]
            cells.append(f"{_fmt_count(br):>9s}{_fmt_count(mp):>9s}"
                         f"{mpr * 100:7.2f}%")
        lines.append(f"{name:<12s}" + "   ".join(cells))
    return "\n".join(lines)


def render_all(suite: ExperimentSuite) -> str:
    """Every figure and table, in paper order."""
    sections = [
        render_speedup_figure(
            suite.figure8(),
            "Figure 8: speedup, 8-issue 1-branch, perfect caches"),
        render_speedup_figure(
            suite.figure9(),
            "Figure 9: speedup, 8-issue 2-branch, perfect caches"),
        render_speedup_figure(
            suite.figure10(),
            "Figure 10: speedup, 4-issue 1-branch, perfect caches"),
        render_speedup_figure(
            suite.figure11(),
            "Figure 11: speedup, 8-issue 1-branch, scaled real caches"),
        render_table2(suite.dynamic_counts()),
        render_table3(suite.branch_stats()),
    ]
    return "\n\n".join(sections)
