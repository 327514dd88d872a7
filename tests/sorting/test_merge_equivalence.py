"""End-to-end differential test: every BlockMerger caller, run once as is
and once with the per-record reference merger swapped in, must produce
the same output bytes, the same reports (simulated phase times included)
and the same number of kernel context switches.

Output verification accepts any order of equal keys, so the inputs carry
a unique per-record tag in the payload: a change in tie order shows up
here as different output bytes.
"""

import numpy as np
import pytest

from repro.apps import groupby
from repro.apps.groupby import GroupByConfig, KeyValueSchema, run_groupby
from repro.cluster import Cluster, HardwareModel
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.recover import RecoveryManager, RecoverPolicy
from repro.sorting.dsort import (
    DsortConfig,
    linear,
    nowsort,
    pass2,
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
CALLERS = (pass2, nowsort, linear, groupby)


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


def run_case(caller, distribution):
    write_input, run, output_file, schema = CASES[caller]
    cluster = Cluster(n_nodes=NODES, hardware=fast_hw())
    write_input(cluster, distribution)
    reports = run(cluster)
    outputs = [RecordFile(node.disk, output_file, schema).read_all()
               .tobytes() for node in cluster.nodes]
    return outputs, reports, cluster.kernel.switches


@pytest.mark.parametrize("distribution",
                         ["uniform", "all_equal", "single_hot_value"])
@pytest.mark.parametrize("caller", sorted(CASES))
def test_caller_matches_reference_merger(caller, distribution, monkeypatch):
    outputs, reports, switches = run_case(caller, distribution)
    for module in CALLERS:
        monkeypatch.setattr(module, "BlockMerger", ReferenceBlockMerger)
    ref_outputs, ref_reports, ref_switches = run_case(caller, distribution)
    assert outputs == ref_outputs
    assert reports == ref_reports     # simulated phase times included
    assert switches == ref_switches
