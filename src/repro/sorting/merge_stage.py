"""The merge stage where vertical pipelines meet a horizontal one.

This is the paper's intersecting-pipelines idiom (Figures 5(a) and 7):
one vertical pipeline per sorted run feeds a single merge stage, which
fills the buffers of a horizontal pipeline with the merged stream.  dsort
pass 2 (plain and recovering), NOW-Sort, the linear ablation, group-by
and the merge example share it; each keeps only its output policy.

* :func:`add_run_readers` builds the vertical pipelines (virtual read
  stages) and returns a factory for the stage's :class:`MergeFeed`;
* :class:`MergeFeed` is the stage's input side: it owns the
  :class:`~repro.sorting.merge.BlockMerger`, conveys each spent head
  buffer home before accepting the next, and refuses a run that ends
  before its known length.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Mapping, Optional

import numpy as np

from repro.cluster.node import Node
from repro.core import FGProgram, Stage
from repro.errors import SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.sorting.merge import BlockMerger

__all__ = ["MergeFeed", "add_run_readers"]


class MergeFeed:
    """One head block per run, refilled on demand; primed on creation.

    ``lengths`` maps each run id to its record count; ``next_block(run)``
    returns the run's next sorted block, or None once the run ended.
    ``before_refill`` runs at every refill and before an early-end error
    (recovery's speculation defeat check).
    """

    def __init__(self, node: Node, schema: RecordSchema,
                 lengths: Mapping[Hashable, int],
                 next_block: Callable[[Hashable], Optional[np.ndarray]],
                 before_refill: Callable[[], None] = lambda: None):
        self._node = node
        self._merger = BlockMerger(schema, lengths)
        self._lengths = lengths
        self._fed = dict.fromkeys(lengths, 0)
        self._next_block = next_block
        self.before_refill = before_refill
        self.refill()

    @property
    def exhausted(self) -> bool:
        """True once every run ended and every record was merged."""
        return self._merger.exhausted

    def consumed(self, run: Hashable) -> int:
        """Records of ``run`` merged so far (the recovery cursor)."""
        return self._fed[run] - self._merger.head_remaining(run)

    def refill(self) -> None:
        """Feed the next block of every run whose head block emptied."""
        self.before_refill()
        for run in sorted(self._merger.needs()):
            block = self._next_block(run)
            if block is not None:
                self._merger.feed(run, block)
                self._fed[run] += len(block)
            elif self._fed[run] == self._lengths[run]:
                self._merger.finish_run(run)
            else:
                # a poisoned vertical flushes a caboose too; retiring it
                # would merge the other runs into wrong-but-sorted output
                self.before_refill()
                raise SortError(
                    f"merge input {run!r} ended after {self._fed[run]} "
                    f"of {self._lengths[run]} records")

    def has_next(self) -> bool:
        """Refill if a head block emptied; True while records remain."""
        if not self._merger.ready:
            self.refill()
        return not self._merger.exhausted

    def merge_into(self, out: np.ndarray, start: int, budget: int) -> int:
        """Merge up to ``budget`` records into ``out[start:]`` and charge
        the node for them.  Returns 0 only when the feed is exhausted."""
        if not self.has_next():
            return 0
        n = self._merger.merge_into(out, start, budget)
        self._node.compute_merge(n)
        return n

    def fill(self, out: np.ndarray, count: int) -> int:
        """Merge into ``out[:count]``; returns the records filled, fewer
        than ``count`` only when the feed is exhausted."""
        filled = 0
        while filled < count:
            n = self.merge_into(out, filled, count - filled)
            if n == 0:
                break
            filled += n
        return filled


def add_run_readers(prog: FGProgram, node: Node, schema: RecordSchema,
                    runs: Mapping[int, tuple[str, int, int]],
                    merge_stage: Stage, block_records: int, *,
                    label: str = "", role: Optional[str] = None,
                    before_read: Callable[[], None] = lambda: None
                    ) -> Callable[..., MergeFeed]:
    """Add one vertical pipeline per run, each ending in ``merge_stage``.

    ``runs`` maps run id ``i`` to ``(file, first record, records)``; its
    pipeline ``{label}v{i}`` has the virtual read stage ``{label}read{i}``,
    which calls ``before_read`` and then reads ``block_records`` records
    per round.  Returns ``make_feed(ctx, before_refill=...)``, which the
    merge stage calls for its :class:`MergeFeed`.
    """
    verticals = {}
    for i, (name, first, n_run) in runs.items():
        def make_read(run_file, first, n_run):
            def read(ctx, buf):
                before_read()
                start = buf.round * block_records
                count = min(block_records, n_run - start)
                buf.put(run_file.read(first + start, count))
                return buf
            return read

        stage = Stage.map(
            f"{label}read{i}",
            make_read(RecordFile(node.disk, name, schema), first, n_run),
            virtual=True, virtual_group=f"{label}read")
        verticals[i] = prog.add_pipeline(
            f"{label}v{i}", [stage, merge_stage],
            nbuffers=2, buffer_bytes=block_records * schema.record_bytes,
            rounds=math.ceil(n_run / block_records), role=role)
    lengths = {i: n_run for i, (_, _, n_run) in runs.items()}

    def make_feed(ctx, before_refill: Callable[[], None] = lambda: None
                  ) -> MergeFeed:
        heads = {}

        def next_block(run):
            if run in heads:
                ctx.convey(heads.pop(run))  # the spent buffer goes home
            buf = ctx.accept(verticals[run])
            if buf.is_caboose:
                ctx.forward(buf)
                return None
            heads[run] = buf
            return buf.view(schema.dtype)

        return MergeFeed(node, schema, lengths, next_block, before_refill)

    return make_feed
