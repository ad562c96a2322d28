"""Figure golden: a compiler change must not move a paper figure silently.

Fig. 8, Fig. 11, Table 2 and Table 3 all run on the fig8-schedule
compiles, so one small-scale suite renders the four of them.  Figs. 9
and 10 need compiles of their own (8-issue 2-branch, 4-issue 1-branch)
and share the suite's frontend, profiles and 1-issue baseline.  Their
tables are not degenerate at this scale (the models differ on 12 of the
15 kernels), and a smaller scale would not be cheaper: compile, which
does not shrink with the inputs, is nearly all of their cost.  A change
that moves any number here either is a bug or must update the digest
(and ``RESULTS.txt``) on purpose.
"""

import hashlib

import pytest

from repro.experiments.render import (render_speedup_figure, render_table2,
                                      render_table3)
from repro.experiments.runner import ExperimentSuite

#: SHA-256 of the four renderings below at scale 0.05, default engine
GOLDEN = "40544d9a8b5043fe14489db496c32bd79d99c51f5cbcd3ab4ae16197e5aa160e"

#: SHA-256 of the Fig. 9 and Fig. 10 renderings at scale 0.05
GOLDEN_FIG9_FIG10 = ("16de43203ce65829054951c7189fa436"
                     "f46ad2349e11e9363c690890a54fbe58")


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(scale=0.05)


def test_fig8_fig11_table2_table3_are_pinned(suite):
    text = "\n\n".join([
        render_speedup_figure(suite.figure8(), "Figure 8"),
        render_speedup_figure(suite.figure11(), "Figure 11"),
        render_table2(suite.dynamic_counts()),
        render_table3(suite.branch_stats()),
    ])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN, text


def test_fig9_fig10_are_pinned(suite):
    text = "\n\n".join([
        render_speedup_figure(suite.figure9(), "Figure 9"),
        render_speedup_figure(suite.figure10(), "Figure 10"),
    ])
    assert hashlib.sha256(text.encode()).hexdigest() \
        == GOLDEN_FIG9_FIG10, text
