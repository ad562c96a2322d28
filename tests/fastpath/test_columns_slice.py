"""Bulk ``TraceColumns.slice`` against the per-event loop it replaced.

``slice`` renumbers the store-value indices with NumPy.  The reference
below is the per-event loop it replaced; both must give the same
arrays (typecodes included), the same values in the same order and
the same chunks.
"""

import math
from array import array

import pytest

from repro.fastpath.columns import FLAG_EXECUTED, TraceColumns


def reference_slice(cols: TraceColumns, start: int,
                    stop: int) -> TraceColumns:
    out = TraceColumns()
    out.sidx = cols.sidx[start:stop]
    out.flags = cols.flags[start:stop]
    out.addr = cols.addr[start:stop]
    remap = array("i")
    for v in cols.vidx[start:stop]:
        if v < 0:
            remap.append(-1)
        else:
            remap.append(len(out.values))
            out.values.append(cols.values[v])
    out.vidx = remap
    return out


def _trace(n: int, store_every: int | None) -> TraceColumns:
    """``n`` events; every ``store_every``-th stores an int, a float or
    a NaN in turn (``None``: no stores)."""
    cols = TraceColumns()
    for i in range(n):
        value = None
        if store_every is not None and i % store_every == 0:
            value = (i * 7, i + 0.5, math.nan)[(i // store_every) % 3]
        cols.append(i % 13, FLAG_EXECUTED, 4 * i if value is not None
                    else -1, value)
    return cols


def _same(got: TraceColumns, expected: TraceColumns) -> None:
    for name in ("sidx", "flags", "addr", "vidx"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.typecode == b.typecode and a == b, name
    # repr keeps NaN comparable and tells 3 from 3.0.
    assert repr(got.values) == repr(expected.values)
    assert [type(v) for v in got.values] == [type(v) for v in expected.values]


TRACES = {"no-stores": _trace(50, None), "all-stores": _trace(50, 1),
          "mixed": _trace(50, 3), "empty": _trace(0, 2)}
RANGES = [(0, 0), (10, 10), (0, 50), (0, 7), (13, 29), (44, 50),
          (47, 80), (60, 90)]


@pytest.mark.parametrize("kind", sorted(TRACES))
@pytest.mark.parametrize("start,stop", RANGES)
def test_slice_matches_the_per_event_loop(kind, start, stop):
    cols = TRACES[kind]
    _same(cols.slice(start, stop), reference_slice(cols, start, stop))


@pytest.mark.parametrize("kind", sorted(TRACES))
@pytest.mark.parametrize("size", [1, 4, 16, 50, 64])
def test_chunks_match_the_per_event_loop(kind, size):
    cols = TRACES[kind]
    got = list(cols.chunks(size))
    expected = [reference_slice(cols, s, s + size)
                for s in range(0, len(cols), size)]
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        _same(a, b)


def test_slice_of_a_merged_trace_renumbers_from_zero():
    """A trace extended from chunks keeps global store indices; each
    slice starts its own numbering."""
    cols = _trace(20, 2)
    cols.extend(_trace(20, 3))
    for start, stop in [(0, 40), (15, 25), (21, 40), (39, 40)]:
        _same(cols.slice(start, stop), reference_slice(cols, start, stop))
