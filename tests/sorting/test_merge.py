"""Unit + property tests for the incremental k-way block merger."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SortError
from repro.pdm.records import RecordSchema
from repro.sorting.merge import BlockMerger
from tests.sorting.merge_reference import ReferenceBlockMerger

SCHEMA = RecordSchema(8)
WIDE = RecordSchema(16)     # room for a payload that tells equal keys apart


def recs(*keys):
    return SCHEMA.from_keys(np.array(keys, dtype=np.uint64))


def drive_merge(runs, block=3, budget=4):
    """Reference driver: feed runs block-by-block, collect all output."""
    blocks = {i: [np.asarray(r[j:j + block], dtype=np.uint64)
                  for j in range(0, len(r), block)]
              for i, r in enumerate(runs)}
    merger = BlockMerger(SCHEMA, list(blocks))
    out_all = []

    def refill():
        for run in sorted(merger.needs(), key=repr):
            if blocks[run]:
                merger.feed(run, recs(*blocks[run].pop(0)))
            else:
                merger.finish_run(run)

    refill()
    scratch = SCHEMA.empty(budget)
    while not merger.exhausted:
        if not merger.ready:
            refill()
            continue
        n = merger.merge_into(scratch, 0, budget)
        out_all.extend(int(k) for k in scratch["key"][:n])
    return out_all


def test_merge_two_runs():
    assert drive_merge([[1, 3, 5, 7], [2, 4, 6, 8]]) == list(range(1, 9))


def test_merge_three_uneven_runs():
    runs = [[10, 20, 30, 40, 50], [5], [15, 25]]
    assert drive_merge(runs) == sorted(sum(runs, []))


def test_merge_with_all_equal_keys():
    runs = [[7, 7, 7], [7, 7], [7, 7, 7, 7]]
    assert drive_merge(runs) == [7] * 9


def test_merge_single_run_streams_through():
    assert drive_merge([[1, 2, 3, 4, 5, 6, 7]]) == list(range(1, 8))


def test_merge_zero_runs_is_immediately_exhausted():
    merger = BlockMerger(SCHEMA, [])
    assert merger.exhausted
    assert merger.ready


def test_empty_run_finished_without_feeding():
    merger = BlockMerger(SCHEMA, ["a", "b"])
    merger.feed("a", recs(1, 2))
    merger.finish_run("b")
    out = SCHEMA.empty(10)
    assert merger.merge_into(out, 0, 10) == 2
    # the drained run must be declared finished before exhaustion shows
    assert merger.needs() == {"a"}
    merger.finish_run("a")
    assert merger.exhausted


def test_merge_stops_when_head_empties():
    merger = BlockMerger(SCHEMA, [0, 1])
    merger.feed(0, recs(1, 2))
    merger.feed(1, recs(10, 20))
    out = SCHEMA.empty(10)
    n = merger.merge_into(out, 0, 10)
    assert n == 2                     # run 0's head emptied
    assert merger.needs() == {0}
    merger.finish_run(0)
    n2 = merger.merge_into(out, n, 10 - n)
    assert list(out["key"][:n + n2]) == [1, 2, 10, 20]


def test_budget_respected():
    merger = BlockMerger(SCHEMA, [0])
    merger.feed(0, recs(*range(100)))
    out = SCHEMA.empty(7)
    assert merger.merge_into(out, 0, 7) == 7
    np.testing.assert_array_equal(out["key"], np.arange(7))


def test_merge_into_offset_start():
    merger = BlockMerger(SCHEMA, [0])
    merger.feed(0, recs(5, 6))
    out = SCHEMA.empty(5)
    n = merger.merge_into(out, 3, 2)
    assert n == 2
    assert list(out["key"][3:5]) == [5, 6]


def test_errors_on_misuse():
    merger = BlockMerger(SCHEMA, [0])
    with pytest.raises(SortError):
        merger.feed(1, recs(1))           # unknown run
    with pytest.raises(SortError):
        merger.feed(0, SCHEMA.empty(0))   # empty block
    merger.feed(0, recs(1))
    with pytest.raises(SortError):
        merger.feed(0, recs(2))           # head not consumed yet
    with pytest.raises(SortError):
        merger.finish_run(0)              # ditto
    merger2 = BlockMerger(SCHEMA, [0, 1])
    merger2.feed(0, recs(1))
    out = SCHEMA.empty(1)
    with pytest.raises(SortError):
        merger2.merge_into(out, 0, 1)     # run 1 still pending


def test_galloping_takes_long_stretches():
    """A dominant run streams out in one merge_into call."""
    merger = BlockMerger(SCHEMA, [0, 1])
    merger.feed(0, recs(*range(1000)))
    merger.feed(1, recs(5000))
    out = SCHEMA.empty(2000)
    n = merger.merge_into(out, 0, 2000)
    assert n == 1000
    assert merger.needs() == {0}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=50),
                         min_size=0, max_size=30),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=8))
def test_property_merge_equals_sorted_concatenation(runs, block, budget):
    runs = [sorted(r) for r in runs]
    out = drive_merge(runs, block=block, budget=budget)
    assert out == sorted(sum(runs, []))


def test_generator_run_ids_accepted():
    merger = BlockMerger(SCHEMA, (i for i in range(3)))
    assert merger.needs() == {0, 1, 2}
    with pytest.raises(SortError):
        BlockMerger(SCHEMA, (i for i in [0, 1, 0]))


def test_ties_leave_in_run_id_repr_order():
    """Equal keys leave ordered by repr(run): int id 10 precedes 2."""
    merger = BlockMerger(WIDE, [2, 10, 1])
    for run in (2, 10, 1):
        block = WIDE.empty(2)
        block["key"] = 5
        block.view(np.uint8).reshape(2, 16)[:, 8] = run   # owner tag
        merger.feed(run, block)
    out = WIDE.empty(6)
    assert merger.merge_into(out, 0, 6) == 2     # run 1's head emptied
    assert merger.needs() == {1}
    merger.finish_run(1)
    assert merger.merge_into(out, 2, 4) == 2
    assert merger.needs() == {10}
    merger.finish_run(10)
    assert merger.merge_into(out, 4, 2) == 2
    owners = out.view(np.uint8).reshape(6, 16)[:, 8].tolist()
    assert owners == [1, 1, 10, 10, 2, 2]


# -- differential test against the per-record reference merger -----------


def merge_trace(cls, run_ids, blocks, budgets):
    """Drive one merger to exhaustion; return its output bytes and, per
    merge_into call, the return value, needs() and every head_remaining."""
    pending = {run: list(run_blocks) for run, run_blocks in blocks.items()}
    merger = cls(WIDE, run_ids)
    out = WIDE.empty(sum(len(b) for bs in blocks.values() for b in bs))
    filled = 0
    calls = []
    while not merger.exhausted:
        if not merger.ready:
            for run in sorted(merger.needs(), key=repr):
                if pending[run]:
                    merger.feed(run, pending[run].pop(0))
                else:
                    merger.finish_run(run)
            continue
        budget = budgets[len(calls) % len(budgets)]
        n = merger.merge_into(out, filled, budget)
        filled += n
        calls.append((n, merger.needs(),
                      [merger.head_remaining(run) for run in run_ids]))
    assert filled == len(out)
    return out.tobytes(), calls


@st.composite
def merge_cases(draw):
    k = draw(st.integers(min_value=1, max_value=13))
    if draw(st.booleans()):
        run_ids = list(range(k))
    else:
        run_ids = draw(st.lists(st.text(min_size=1, max_size=3),
                                min_size=k, max_size=k, unique=True))
    key_range = draw(st.sampled_from([2, 3, 5, 1000, 2**64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = {}
    for run in run_ids:
        n = draw(st.integers(min_value=0, max_value=40))
        records = WIDE.empty(n)
        records["key"] = np.sort(rng.integers(0, key_range, size=n,
                                              dtype=np.uint64))
        # random payloads make the order of equal keys visible
        records.view(np.uint8).reshape(n, 16)[:, 8:] = rng.integers(
            0, 256, size=(n, 8), dtype=np.uint8)
        block = draw(st.integers(min_value=1, max_value=8))
        blocks[run] = [records[j:j + block] for j in range(0, n, block)]
    budgets = draw(st.lists(st.integers(min_value=1, max_value=12),
                            min_size=1, max_size=6))
    return run_ids, blocks, budgets


@settings(max_examples=300, deadline=None)
@given(merge_cases())
def test_frontier_merge_matches_reference(case):
    run_ids, blocks, budgets = case
    got = merge_trace(BlockMerger, run_ids, blocks, budgets)
    want = merge_trace(ReferenceBlockMerger, run_ids, blocks, budgets)
    assert got[1] == want[1]          # every call: return, needs, heads
    assert got[0] == want[0]          # output bytes, tie order included
