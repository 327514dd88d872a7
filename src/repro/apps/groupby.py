"""Distribution-based out-of-core aggregation (a Section-VIII application).

Group-by-key with summation over a dataset too large for memory: the
other classic distribution-based computation.  The structure deliberately
reuses both of dsort's pipeline regimes:

* **pass 1** — disjoint send/receive pipelines: read local (key, value)
  records, route each record to ``hash(key) mod P``, and on the receive
  side *pre-aggregate* each buffer (combine equal keys) before sorting
  and writing it as a run — so heavy-hitter keys shrink immediately;
* **pass 2** — virtual vertical pipelines intersecting a combining merge
  stage: the k-way merge emits each distinct key once with the sum of all
  its values, writing the node-local aggregate file.

Every key hashes to exactly one node, so no cross-node combining is
needed; the concatenation of per-node outputs is the full group-by
result (keys sorted within a node).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.cluster.mpi import Comm
from repro.cluster.node import Node
from repro.core import FGProgram, Stage
from repro.errors import SortError
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.sorting.merge_stage import add_run_readers

__all__ = ["KeyValueSchema", "GroupByReport", "run_groupby",
           "GroupByConfig"]

TAG_GROUPBY = 51


class KeyValueSchema(RecordSchema):
    """16-byte records of (key: u64, value: u64)."""

    def __init__(self) -> None:
        super().__init__(16)
        self.dtype = np.dtype([("key", "<u8"), ("value", "<u8")])

    def make(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        records = np.zeros(len(keys), dtype=self.dtype)
        records["key"] = keys
        records["value"] = values
        return records


def combine_sorted(records: np.ndarray) -> np.ndarray:
    """Collapse a key-sorted record array: one row per key, values summed
    (wrapping uint64 arithmetic, like an accumulator register would)."""
    if len(records) == 0:
        return records
    keys = records["key"]
    boundaries = np.empty(len(keys), dtype=bool)
    boundaries[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundaries[1:])
    starts = np.nonzero(boundaries)[0]
    sums = np.add.reduceat(records["value"], starts)
    out = np.zeros(len(starts), dtype=records.dtype)
    out["key"] = keys[starts]
    out["value"] = sums
    return out


def _hash_keys(keys: np.ndarray, buckets: int) -> np.ndarray:
    """Cheap vectorized 64-bit mix, then mod buckets."""
    mixed = keys * np.uint64(0x9E3779B97F4A7C15)
    mixed ^= mixed >> np.uint64(29)
    return (mixed % np.uint64(buckets)).astype(np.int64)


@dataclasses.dataclass(frozen=True)
class GroupByConfig:
    block_records: int = 2048
    vertical_block_records: int = 512
    out_block_records: int = 2048
    nbuffers: int = 4
    input_file: str = "kv-input"
    output_file: str = "kv-groups"
    run_prefix: str = "groupby-run"
    cleanup_runs: bool = True
    #: prefix for FGProgram names; the multi-tenant scheduler sets a
    #: per-job prefix so concurrent jobs stay distinguishable
    name_prefix: str = "groupby"

    def __post_init__(self):
        for field in ("block_records", "vertical_block_records",
                      "out_block_records", "nbuffers"):
            if getattr(self, field) < 1:
                raise SortError(f"{field} must be >= 1")


@dataclasses.dataclass
class GroupByReport:
    rank: int
    pass1_time: float
    pass2_time: float
    input_records: int
    distinct_keys: int

    @property
    def total_time(self) -> float:
        return self.pass1_time + self.pass2_time


def run_groupby(node: Node, comm: Comm,
                config: Optional[GroupByConfig] = None) -> GroupByReport:
    """SPMD main: aggregate ``kv-input`` into sorted ``kv-groups``."""
    if config is None:
        config = GroupByConfig()
    schema = KeyValueSchema()
    P = comm.size
    B = config.block_records
    rec_bytes = schema.record_bytes
    kernel = node.kernel
    hw = node.hardware
    rf_in = RecordFile(node.disk, config.input_file, schema)
    n_local = rf_in.n_records
    n_blocks = math.ceil(n_local / B)
    state: dict = {"runs": [], "next_run": 0}

    comm.barrier()
    t0 = kernel.now()

    # -- pass 1: hash-partition + pre-aggregate into sorted runs ------------

    prog1 = FGProgram(kernel, env={"node": node, "comm": comm},
                      name=f"{config.name_prefix}-p1@{comm.rank}")

    def read(ctx, buf):
        start = buf.round * B
        buf.put(rf_in.read(start, min(B, n_local - start)))
        return buf

    def route(ctx):
        while True:
            buf = ctx.accept()
            if buf.is_caboose:
                break
            records = buf.view(schema.dtype)
            part = _hash_keys(records["key"], P)
            order = np.argsort(part, kind="stable")
            node.compute(hw.sort_cost_per_key_log * len(records)
                         * max(1.0, math.log2(P))
                         + hw.copy_time(records.nbytes))
            routed = records[order]
            counts = np.bincount(part, minlength=P)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            for dest in range(P):
                lo, hi = int(offsets[dest]), int(offsets[dest + 1])
                if hi > lo:
                    comm.send(dest, routed[lo:hi].copy(), tag=TAG_GROUPBY)
            ctx.convey(buf)
        for dest in range(P):
            comm.send(dest, schema.empty(0), tag=TAG_GROUPBY)
        ctx.forward(buf)

    prog1.add_pipeline(
        "send", [Stage.map("read", read),
                 Stage.source_driven("route", route)],
        nbuffers=config.nbuffers, buffer_bytes=B * rec_bytes,
        rounds=n_blocks)

    def receive(ctx):
        pipeline = ctx.pipelines[0]
        ends = 0
        leftover = None
        while True:
            parts = []
            have = 0
            if leftover is not None:
                parts.append(leftover)
                have = len(leftover)
                leftover = None
            while have < B and ends < P:
                _, payload = comm.recv(tag=TAG_GROUPBY)
                if len(payload) == 0:
                    ends += 1
                    continue
                parts.append(payload)
                have += len(payload)
            if have == 0:
                break
            records = np.concatenate(parts) if len(parts) > 1 else parts[0]
            take = min(B, len(records))
            leftover = records[take:] if take < len(records) else None
            buf = ctx.accept()
            node.compute_copy(take * rec_bytes)
            buf.put(records[:take])
            ctx.convey(buf)
            if ends == P and leftover is None:
                break
        ctx.convey_caboose(pipeline)

    def sort_and_combine(ctx, buf):
        records = buf.view(schema.dtype)
        node.compute_sort(len(records))
        combined = combine_sorted(schema.sort(records))
        node.compute_copy(combined.nbytes)
        buf.put(combined)
        return buf

    def write_run(ctx, buf):
        records = buf.view(schema.dtype)
        run_name = f"{config.run_prefix}.{state['next_run']}"
        state["next_run"] += 1
        RecordFile(node.disk, run_name, schema).write(0, records)
        state["runs"].append((run_name, len(records)))
        return buf

    prog1.add_pipeline(
        "recv", [Stage.source_driven("receive", receive),
                 Stage.map("combine", sort_and_combine),
                 Stage.map("write", write_run)],
        nbuffers=config.nbuffers, buffer_bytes=B * rec_bytes, rounds=None)
    prog1.run()
    comm.barrier()
    t1 = kernel.now()

    # -- pass 2: combining k-way merge of the runs ----------------------------

    runs = state["runs"]
    vB = config.vertical_block_records
    outB = config.out_block_records
    out_file = RecordFile(node.disk, config.output_file, schema)
    out_file.delete()
    distinct = {"count": 0}

    prog2 = FGProgram(kernel, env={"node": node, "comm": comm},
                      name=f"{config.name_prefix}-p2@{comm.rank}")
    merge_stage = Stage.source_driven("merge", None)
    make_feed = add_run_readers(
        prog2, node, schema,
        {i: (run_name, 0, n_run) for i, (run_name, n_run) in enumerate(runs)},
        merge_stage, vB)

    def write_out(ctx, buf):
        records = buf.view(schema.dtype)
        out_file.write(buf.tags["start"], records)
        distinct["count"] += len(records)
        return buf

    horizontal = prog2.add_pipeline(
        "out", [merge_stage, Stage.map("write", write_out)],
        nbuffers=config.nbuffers, buffer_bytes=(outB + 1) * rec_bytes,
        rounds=None)

    def merge(ctx):
        feed = make_feed(ctx)
        emitted = 0
        carry = None  # last combined record; next chunk may extend it
        # the first output buffer is taken right after priming, with a
        # record ready, and every later one with a carry in hand, so no
        # accepted buffer is left unconveyed
        while not feed.exhausted or carry is not None:
            out = ctx.accept(horizontal)
            records = out.data.view(schema.dtype)
            filled = 0
            if carry is not None:
                records[0] = carry
                filled = 1
                carry = None
            while filled <= outB:
                n = feed.merge_into(records, filled, outB + 1 - filled)
                if n == 0:
                    break
                combined = combine_sorted(records[:filled + n])
                node.compute_copy((filled + n) * rec_bytes)
                records[:len(combined)] = combined
                filled = len(combined)
            # hold back the last record: the next merged chunk may carry
            # more values of the same key
            if not feed.exhausted and filled > 0:
                carry = records[filled - 1].copy()
                filled -= 1
            if filled:
                out.size = filled * rec_bytes
                out.tags["start"] = emitted
                ctx.convey(out)
                emitted += filled
        ctx.convey_caboose(horizontal)

    merge_stage.fn = merge
    prog2.run()
    comm.barrier()
    t2 = kernel.now()

    if config.cleanup_runs:
        for run_name, _ in runs:
            node.disk.delete(run_name)

    return GroupByReport(rank=comm.rank, pass1_time=t1 - t0,
                         pass2_time=t2 - t1, input_records=n_local,
                         distinct_keys=distinct["count"])
