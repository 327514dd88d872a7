"""Unit tests for the shared merge stage's input side, MergeFeed."""

import numpy as np
import pytest

from repro.errors import SortError
from repro.pdm.records import RecordSchema
from repro.sorting.merge_stage import MergeFeed

SCHEMA = RecordSchema(8)


class CountingNode:
    """Stands in for a Node: records every merge charge."""

    def __init__(self):
        self.charges = []

    def compute_merge(self, n):
        self.charges.append(n)


def block_reader(runs, block):
    """next_block over in-memory runs, ``block`` records at a time."""
    pending = {run: [SCHEMA.from_keys(np.array(keys[i:i + block],
                                               dtype=np.uint64))
                     for i in range(0, len(keys), block)]
               for run, keys in runs.items()}
    return lambda run: pending[run].pop(0) if pending[run] else None


def test_fill_merges_everything_and_charges_each_call():
    runs = {0: [1, 4, 7, 9], 1: [2, 3, 8], 2: [5, 6]}
    node = CountingNode()
    feed = MergeFeed(node, SCHEMA, {r: len(k) for r, k in runs.items()},
                     block_reader(runs, 2))
    out = SCHEMA.empty(16)
    assert feed.fill(out, 16) == 9
    assert feed.exhausted and not feed.has_next()
    assert list(out["key"][:9]) == list(range(1, 10))
    assert sum(node.charges) == 9 and 0 not in node.charges
    assert feed.merge_into(out, 0, 4) == 0
    assert [feed.consumed(r) for r in runs] == [4, 3, 2]


def test_consumed_tracks_the_merge_cursor():
    runs = {0: [1, 2, 3, 4], 1: [5, 6, 7, 8]}
    feed = MergeFeed(CountingNode(), SCHEMA, {0: 4, 1: 4},
                     block_reader(runs, 4))
    out = SCHEMA.empty(3)
    assert feed.fill(out, 3) == 3
    assert (feed.consumed(0), feed.consumed(1)) == (3, 0)


def test_a_run_that_ends_early_is_refused_after_the_hook():
    runs = {0: [1, 2], 1: [3, 4]}
    calls = []
    feed = MergeFeed(CountingNode(), SCHEMA, {0: 2, 1: 5},
                     block_reader(runs, 2),
                     before_refill=lambda: calls.append("refill"))
    assert calls == ["refill"]   # primed on creation
    with pytest.raises(SortError, match="merge input 1 ended after 2 of 5"):
        feed.fill(SCHEMA.empty(8), 8)
    # run 0 retires cleanly; run 1's early end runs the hook once more
    # before raising, so a speculation loss can take precedence
    assert calls == ["refill"] * 4
