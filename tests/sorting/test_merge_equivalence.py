"""End-to-end pins on every caller of the shared merge stage.

Each case is checked twice:

* its output bytes, reports (simulated phase times included) and kernel
  context-switch count must hash to the digest in ``PINNED``, recorded
  from the hand-written per-caller merge loops that
  :mod:`repro.sorting.merge_stage` replaced.  This catches any change to
  the stage loop itself: accept/convey order, refill points, compute
  charges;
* a rerun with the per-record reference merger swapped in must give the
  same output, reports and switches, which pins the vectorized merge.

Output verification accepts any order of equal keys, so the inputs carry
a unique per-record tag in the payload: a change in tie order shows up
here as different output bytes.

The two recovery cases run the chaos harness, which builds its own
cluster; for them the trace digest (every scheduler event) stands in for
the switch count.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.apps.groupby import GroupByConfig, KeyValueSchema, run_groupby
from repro.cluster import Cluster, HardwareModel
from repro.faults import FaultPlan, run_chaos_dsort
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.recover import RecoveryManager, RecoverPolicy, SpeculationPolicy
from repro.sorting import merge_stage
from repro.sorting.dsort import (
    DsortConfig,
    run_dsort,
    run_dsort_linear,
    run_nowsort,
)
from repro.workloads.distributions import generate_keys
from repro.workloads.generator import INPUT_FILE, generate_input
from tests.sorting.merge_reference import ReferenceBlockMerger

NODES = 4
PER_NODE = 4096
# key, key-derived stamp (checked by output verification), unique tag
SCHEMA = RecordSchema(24)
CONFIG = DsortConfig(block_records=256, vertical_block_records=64,
                     out_block_records=256, oversample=32)
DISTRIBUTIONS = ("uniform", "all_equal", "single_hot_value")
#: chaos-harness geometry and seed of tests/faults/test_recover_*.py
CHAOS_SEED = 42
CHAOS_GEOM = dict(block_records=256, vertical_block_records=64,
                  out_block_records=256)


def fast_hw():
    return HardwareModel(net_bandwidth=1e9, net_latency=1e-6,
                         disk_bandwidth=1e9, disk_seek=1e-5)


def tagged_input(cluster, distribution):
    generate_input(cluster, SCHEMA, PER_NODE, distribution)
    for node in cluster.nodes:
        rf = RecordFile(node.disk, INPUT_FILE, SCHEMA)
        records = rf.read_all()
        tags = (np.uint64(node.rank) << np.uint64(32)) + np.arange(
            len(records), dtype=np.uint64)
        records.view(np.uint8).reshape(len(records), 24)[:, 16:] = (
            tags.view(np.uint8).reshape(len(records), 8))
        rf.poke(0, records)


def kv_input(cluster, distribution):
    rng = np.random.default_rng(0)
    schema = KeyValueSchema()
    for node in cluster.nodes:
        keys = generate_keys(distribution, PER_NODE, rng)
        values = rng.integers(0, 1000, size=PER_NODE, dtype=np.uint64)
        RecordFile(node.disk, "kv-input", schema).poke(
            0, schema.make(keys, values))


def run_dsort_recover(cluster):
    manager = RecoveryManager(cluster, RecoverPolicy())
    manager.start()
    return cluster.run(run_dsort, SCHEMA, CONFIG, manager)


# caller -> (input writer, SPMD runner, output file, output schema)
CASES = {
    "dsort": (tagged_input,
              lambda c: c.run(run_dsort, SCHEMA, CONFIG),
              CONFIG.output_file, SCHEMA),
    "dsort-recover": (tagged_input, run_dsort_recover,
                      CONFIG.output_file, SCHEMA),
    "nowsort": (tagged_input,
                lambda c: c.run(run_nowsort, SCHEMA, CONFIG),
                CONFIG.output_file, SCHEMA),
    "dsort-linear": (tagged_input,
                     lambda c: c.run(run_dsort_linear, SCHEMA, CONFIG),
                     CONFIG.output_file, SCHEMA),
    "groupby": (kv_input,
                lambda c: c.run(run_groupby, GroupByConfig(
                    block_records=256, vertical_block_records=64,
                    out_block_records=128)),
                "kv-groups", KeyValueSchema()),
}


def backup_wins():
    """A 3x straggler whose range the speculative backup chain merges."""
    report = run_chaos_dsort(
        seed=CHAOS_SEED,
        plan=FaultPlan(seed=CHAOS_SEED).with_straggler(
            rank=1, slowdown=3.0, start=0.2),
        recover=RecoverPolicy(
            checkpoint=False, backup_runs=True,
            speculation=SpeculationPolicy(interval=0.01, patience=2,
                                          min_progress=0.02)),
        **CHAOS_GEOM)
    assert "backup finished the range first" in [
        d["detail"] for d in report.recovery_decisions]
    return report


def adopted_range():
    """A crash mid pass 2: a survivor adopts the dead rank's range."""
    report = run_chaos_dsort(
        seed=CHAOS_SEED,
        plan=FaultPlan(seed=CHAOS_SEED).with_node_crash(rank=1, at=0.29),
        recover=RecoverPolicy(checkpoint=True, backup_runs=True,
                              reassign=True))
    assert "reassign" in [d["kind"] for d in report.recovery_decisions]
    return report


def observe_cluster(caller, distribution):
    """(output bytes per node, reports, switches) of one caller's run."""
    write_input, run, output_file, schema = CASES[caller]
    cluster = Cluster(n_nodes=NODES, hardware=fast_hw())
    write_input(cluster, distribution)
    reports = run(cluster)
    outputs = [RecordFile(node.disk, output_file, schema).read_all()
               .tobytes() for node in cluster.nodes]
    return outputs, reports, cluster.kernel.switches


def observe_chaos(run):
    report = run()
    assert report.verified
    return ([bytes.fromhex(report.output_digest)],
            (report.elapsed, report.trace_digest, report.metrics_digest,
             report.recovery_decisions), None)


# case id -> zero-argument run returning (outputs, reports, switches)
OBSERVE = {f"{caller}-{distribution}":
           functools.partial(observe_cluster, caller, distribution)
           for caller in sorted(CASES) for distribution in DISTRIBUTIONS}
OBSERVE["dsort-backup-wins"] = functools.partial(observe_chaos, backup_wins)
OBSERVE["dsort-adopted"] = functools.partial(observe_chaos, adopted_range)

#: sha256 of each case's (output bytes, repr(reports), switches), taken
#: from the per-caller merge loops before they shared one stage
PINNED = {
    "dsort-adopted":
        "9fb90dc666389fb2e7f97209f4abe87fd50bce9d1ba6cacfbad780a5de8fc8b4",
    "dsort-all_equal":
        "1e1c1035fec877451c3792728f4c376505d959ded700f02cc2b59ab511d5dd1c",
    "dsort-backup-wins":
        "3b7879e4fffdc0f960ceaba1a4642fa9033d11ba4c044381a0f7b5dfccf0b76a",
    "dsort-linear-all_equal":
        "8ebfcda57619685b646356b1e6c599c453444afb414a46d81f8e956dbdf92798",
    "dsort-linear-single_hot_value":
        "9fba195a36f599e23d584e9dd335906041c4580992ca3f9b6356d160101070c3",
    "dsort-linear-uniform":
        "84427b13554d160f9ae7533f730d2285c2e2ba02f989f527c9dbed0adc93aa32",
    "dsort-recover-all_equal":
        "3d4f4c8e69651e85ce79ab4797db61d2f3ccc8258701c634c6f4922e6085fde3",
    "dsort-recover-single_hot_value":
        "c64b5eac294a58cd28f3ac718bb5926453d2d813bc69639cf19beb0045fdfba7",
    "dsort-recover-uniform":
        "b9b0b9cbd6a178323d5d65fcb6f6debfeb0d0178dc7c5a86f1a191393892e0a5",
    "dsort-single_hot_value":
        "f98611d9aa233c55a00620fb23248cf9f9c87c089756ef000f181704f9187a18",
    "dsort-uniform":
        "c45b0d8efb9e3dce5196126ca490379c837ff234063f762c78baa6c0acd80b66",
    "groupby-all_equal":
        "7ea910d7d398884daae10f99f17fb61ad8fe51cb5b95f69a8ed5f47ef4e83beb",
    "groupby-single_hot_value":
        "7142dc725c4302070da1ac36339ab182ed60c6001e629e9d729e91166bad9de8",
    "groupby-uniform":
        "963642bab5c5379649e8f4a75561c66064393423a0919aba1d6b32bdb22eeb46",
    "nowsort-all_equal":
        "afef35957c6c5aaea6ec89275d91a2209cc486132e54eaa02fe0982749d836ac",
    "nowsort-single_hot_value":
        "31168887f1b814a2812a79fcdac1f0d468023d4f37a26516cd6e4557bc4c0d34",
    "nowsort-uniform":
        "b336b8d0058a47ef7d7e8d8bf02919ffaed38a9f55ca9697dabf50968f4757ec",
}


@functools.cache
def observe_as_is(case):
    return OBSERVE[case]()


def digest(observation):
    outputs, reports, switches = observation
    h = hashlib.sha256()
    for output in outputs:
        h.update(output)
    h.update(repr(reports).encode())
    h.update(repr(switches).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(OBSERVE))
def test_caller_matches_pinned_digest(case):
    assert digest(observe_as_is(case)) == PINNED[case]


@pytest.mark.parametrize("case", sorted(OBSERVE))
def test_caller_matches_reference_merger(case, monkeypatch):
    outputs, reports, switches = observe_as_is(case)
    monkeypatch.setattr(merge_stage, "BlockMerger", ReferenceBlockMerger)
    ref_outputs, ref_reports, ref_switches = OBSERVE[case]()
    assert outputs == ref_outputs
    assert reports == ref_reports     # simulated phase times included
    assert switches == ref_switches
