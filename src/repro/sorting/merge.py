"""Incremental k-way merging of sorted record blocks.

:class:`BlockMerger` is the compute core of dsort's merge stage (paper,
Figure 5/7): it merges k sorted runs whose data arrives block by block.
The caller feeds one block per run, asks the merger to copy merged output
directly into an output array, and refills whichever run's head block
empties.  The merger never blocks — pipeline flow control stays in the FG
stage that owns it.

Output order is ``(key, repr(run), position)``: equal keys leave in the
order of their run ids' ``repr`` (so int id ``10`` precedes ``2``), and
within a run in block order.

Merging is a vectorized *frontier merge*.  The frontier run is the one
whose head block's last record sorts first.  Every head record that sorts
before or at that last record can be emitted before any unseen block
matters, so one stable ``argsort`` over the heads' safe slices emits the
whole prefix at once, with no per-record Python.

Call-boundary contract: :meth:`BlockMerger.merge_into` returns when the
budget is reached or when a head block empties (only the frontier's can),
exactly where a per-record merge would stop.  Callers that charge
simulated time per call therefore see the same call boundaries and counts
whichever way the merge is computed.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.errors import SortError
from repro.pdm.records import RecordSchema

__all__ = ["BlockMerger"]


class BlockMerger:
    """Merge k sorted runs, pull-based, one head block per run."""

    def __init__(self, schema: RecordSchema, run_ids):
        run_ids = list(run_ids)
        self.schema = schema
        # run -> (head block as raw items, its keys, next unconsumed position)
        self._heads: dict[Hashable, tuple[np.ndarray, np.ndarray, int]] = {}
        self._pending: set[Hashable] = set(run_ids)  # need a block
        if len(self._pending) != len(run_ids):
            raise SortError("duplicate run ids")
        # records move as opaque items: concatenating structured arrays
        # promotes their dtype field by field, per array
        self._raw = np.dtype((np.void, schema.dtype.itemsize))
        # tie order among equal keys
        self._rank = {run: r
                      for r, run in enumerate(sorted(run_ids, key=repr))}

    # -- run feeding ---------------------------------------------------------

    def feed(self, run: Hashable, records: np.ndarray) -> None:
        """Supply the next sorted block of ``run``."""
        if run not in self._pending:
            raise SortError(f"run {run!r} does not need a block")
        if len(records) == 0:
            raise SortError(f"empty block fed for run {run!r}")
        self._pending.discard(run)
        self._heads[run] = (records.view(self._raw), records["key"], 0)

    def finish_run(self, run: Hashable) -> None:
        """Declare that ``run`` has no more blocks."""
        if run not in self._pending:
            raise SortError(
                f"run {run!r} cannot finish while it has an unconsumed head")
        self._pending.discard(run)

    # -- state queries ------------------------------------------------------------

    def needs(self) -> set:
        """Runs whose next block must be fed before merging can continue."""
        return set(self._pending)

    def head_remaining(self, run: Hashable) -> int:
        """Unconsumed records in ``run``'s current head block (0 if the
        head is empty or the run finished).  The recovery checkpoint uses
        this to journal per-run consumed positions without copying."""
        if run not in self._heads:
            return 0
        records, _, pos = self._heads[run]
        return len(records) - pos

    @property
    def ready(self) -> bool:
        """True when merging can proceed (no run awaits a block)."""
        return not self._pending

    @property
    def exhausted(self) -> bool:
        """True when every run has finished and all heads drained."""
        return not self._pending and not self._heads

    # -- merging ---------------------------------------------------------------------

    def merge_into(self, out: np.ndarray, start: int, budget: int) -> int:
        """Copy up to ``budget`` merged records into ``out[start:]``.

        Returns the number of records copied.  Stops early when a run's
        head block empties (feed it, then call again) or when all runs are
        exhausted.  Requires :attr:`ready`.
        """
        if not self.ready:
            raise SortError(
                f"merge_into while runs {sorted(map(repr, self._pending))} "
                "await blocks")
        if budget <= 0 or not self._heads:
            return 0
        runs = sorted(self._heads, key=self._rank.__getitem__)
        heads = [self._heads[run] for run in runs]
        keys = [head_keys[pos:] for _, head_keys, pos in heads]
        # the frontier: the head whose last record sorts first
        f = min(range(len(runs)), key=lambda i: (keys[i][-1], i))
        last = keys[f][-1]
        # each head's records at or before the frontier's last record, in
        # (key, rank) order; every other head outlasts the frontier's block
        counts = [len(k) if i == f else
                  int(k.searchsorted(last, "right" if i < f else "left"))
                  for i, k in enumerate(keys)]
        total = sum(counts)
        take = min(total, budget)
        dest = out[start:start + take].view(self._raw)
        if counts[f] == total:
            # only the frontier contributes: a straight slice copy
            records, _, pos = heads[f]
            dest[:] = records[pos:pos + take]
            advance = [take if i == f else 0 for i in range(len(runs))]
        else:
            # slices concatenated in rank order: the stable sort breaks
            # key ties by rank, then by position
            order = np.argsort(
                np.concatenate([k[:n] for k, n in zip(keys, counts)]),
                kind="stable")[:take]
            merged = np.concatenate(
                [records[pos:pos + n]
                 for (records, _, pos), n in zip(heads, counts)])
            np.take(merged, order, out=dest)
            advance = np.bincount(
                np.repeat(np.arange(len(runs)), counts)[order],
                minlength=len(runs)).tolist()
        for run, (records, head_keys, pos), n in zip(runs, heads, advance):
            if not n:
                continue
            pos += n
            if pos == len(records):
                # a head's run is never finished: the caller must feed it
                del self._heads[run]
                self._pending.add(run)
            else:
                self._heads[run] = (records, head_keys, pos)
        return take
