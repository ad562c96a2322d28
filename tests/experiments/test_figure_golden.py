"""Figure golden: a compiler change must not move a paper figure silently.

Fig. 8, Fig. 11, Table 2 and Table 3 all run on the fig8-schedule
compiles, so one small-scale suite renders the four of them.  A change
that moves any number here either is a bug or must update the digest
(and ``RESULTS.txt``) on purpose.
"""

import hashlib

from repro.experiments.render import (render_speedup_figure, render_table2,
                                      render_table3)
from repro.experiments.runner import ExperimentSuite

#: SHA-256 of the four renderings below at scale 0.05, default engine
GOLDEN = "40544d9a8b5043fe14489db496c32bd79d99c51f5cbcd3ab4ae16197e5aa160e"


def test_fig8_fig11_table2_table3_are_pinned():
    suite = ExperimentSuite(scale=0.05)
    text = "\n\n".join([
        render_speedup_figure(suite.figure8(), "Figure 8"),
        render_speedup_figure(suite.figure11(), "Figure 11"),
        render_table2(suite.dynamic_counts()),
        render_table3(suite.branch_stats()),
    ])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN, text
