"""Tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import tracing
from workloads import WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

#: each workload at a size that runs in about a second
TINY = {
    "dsort_large": dataclasses.replace(WORKLOADS["dsort_large"],
                                       n_nodes=2, n_per_node=1024),
    "csort_large": dataclasses.replace(WORKLOADS["csort_large"],
                                       n_nodes=2, n_per_node=1024),
    "small_sorts": dataclasses.replace(WORKLOADS["small_sorts"],
                                       n_nodes=2, n_per_node=1024,
                                       seeds_per_distribution=1),
    "sched_fair": dataclasses.replace(WORKLOADS["sched_fair"], n_jobs=40),
}


@pytest.fixture(scope="module")
def traced_by_name():
    return {name: bench.run_workload(wl, seed=3, seconds=0, trace=True)
            for name, wl in TINY.items()}


@pytest.fixture(params=sorted(TINY))
def traced(request, traced_by_name):
    return traced_by_name[request.param]


def _spans(doc):
    return [tracing.Span(*row) for row in doc["detail"]["spans"]]


def _names(kind):
    return [m["name"] for m in bench.spec()[kind]]


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    doc = bench.run_workload(TINY[name], seed=3, seconds=0, trace=False)
    assert doc["correct"], doc
    # the warm-up op, then one full pass over the inputs
    n_inputs = len(TINY[name].inputs(3))
    assert doc["failed"] == 0 and doc["attempted"] == 1 + n_inputs
    assert list(doc["metrics"]) == _names("end_to_end")
    for metric in doc["metrics"].values():
        assert metric["value"] > 0


def test_traced_run_emits_every_per_layer_metric(traced):
    assert traced["correct"], traced
    assert list(traced["metrics"]) == _names("per_layer")
    assert set(bench.SHOULD_MOVE) == set(_names("per_layer"))


def test_sim_s_is_the_mean_over_one_pass_of_the_inputs():
    wl = TINY["small_sorts"]
    runner = bench.Runner(wl, seed=3)
    runner.inputs = wl.inputs(3)
    sims = [runner.op(i).outcome.sim_s for i in range(len(runner.inputs))]
    runner.op(0)  # a partial second pass leaves the metric alone
    assert len(set(sims)) > 1
    assert runner.sim_s() == pytest.approx(sum(sims) / len(sims))


def test_children_lie_inside_their_parent(traced):
    spans = _spans(traced)
    by_id = {s.id: s for s in spans}
    assert len(by_id) == len(spans)
    for s in spans:
        assert s.wall0 <= s.wall1 and s.cpu0 <= s.cpu1
        if s.parent is None:
            continue
        parent = by_id[s.parent]
        assert parent.thread == s.thread and parent.op == s.op
        assert parent.wall0 <= s.wall0 and s.wall1 <= parent.wall1
        assert parent.cpu0 <= s.cpu0 and s.cpu1 <= parent.cpu1


def test_self_time_is_at_most_the_duration(traced):
    spans = _spans(traced)
    own_by_id = tracing.self_cpu(spans)
    for s in spans:
        own = own_by_id[s.id]
        assert -1e-9 <= own <= s.cpu + 1e-12


def test_counts_add_up(traced):
    spans = _spans(traced)
    layers = traced["detail"]["layers"]
    assert sum(row["calls"] for row in layers.values()) == len(spans)
    n = traced["detail"]["traced_ops"]
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    calls = {name: row["calls"] for name, row in layers.items()}
    assert m["merge.calls"] * n == calls.get("sorting.merge", 0)
    assert m["core.programs"] * n == calls.get("core.start", 0)
    assert m["cluster.disk_ops"] * n == calls.get("cluster.disk", 0)
    assert calls[tracing.OP_SPAN] == n
    assert 0 < m["trace.attributed_frac"] <= 1.0 + 1e-6
    own = tracing.self_cpu(spans)
    total_self = sum(own[s.id] for s in spans if s.name != tracing.OP_SPAN)
    top = sum(s.cpu for s in tracing.top_level(spans))
    assert total_self == pytest.approx(top, rel=1e-6, abs=1e-9)


def test_bypassed_layers_show_zero_calls(traced_by_name):
    sched = {k: v["value"] for k, v in
             traced_by_name["sched_fair"]["metrics"].items()}
    assert sched["merge.calls"] == 0
    assert sched["plan.graph_builds"] == 0
    assert sched["check.lint_calls"] == 0
    assert sched["sched.decisions"] > 0 and sched["sched.passes"] > 0
    assert sched["sched.control_cpu_s"] > 0
    csort = {k: v["value"] for k, v in
             traced_by_name["csort_large"]["metrics"].items()}
    assert csort["merge.calls"] == 0 and csort["core.programs"] > 0
    dsort = {k: v["value"] for k, v in
             traced_by_name["dsort_large"]["metrics"].items()}
    assert dsort["merge.calls"] > 0
    assert dsort["merge.records"] == 2 * 1024
    assert dsort["sim.spawns"] > 0
    assert dsort["sched.decisions"] == 0


def test_instrument_puts_every_original_back():
    from repro.plan.ir import ProgramGraph
    from repro.sched import kinds
    from repro.sim.virtual import VirtualTimeKernel

    spawn = VirtualTimeKernel.spawn
    from_program = vars(ProgramGraph)["from_program"]
    registered = {n: kinds.get_kind(n) for n in kinds.kind_names()}
    with tracing.instrument(tracing.Recorder()):
        assert VirtualTimeKernel.spawn is not spawn
    assert VirtualTimeKernel.spawn is spawn
    assert "spawn" not in vars(VirtualTimeKernel)  # inherited from Kernel
    assert vars(ProgramGraph)["from_program"] is from_program
    assert {n: kinds.get_kind(n) for n in kinds.kind_names()} == registered


class _Drifting:
    """A workload whose simulated result changes on every run."""

    name = "drifting"

    def __init__(self):
        self.calls = 0

    def run(self, inp):
        self.calls += 1
        return Outcome(items=1, sim_s=1.0, signature=(self.calls,),
                       report=None)


def test_a_repeat_with_another_simulated_result_fails():
    runner = bench.Runner(_Drifting(), seed=0)
    runner.inputs = ["only"]
    assert runner.op(0).error is None
    assert "differs from the first run" in runner.op(0).error


def test_tail_reads_a_fixed_percentile_whatever_the_op_count():
    assert bench.tail([3.0, 1.0, 2.0], 100.0) == (3.0, 0)
    assert bench.tail([float(i) for i in range(40)], 75.0) == (29.0, 10)
    assert bench.tail([float(i) for i in range(20)], 75.0) == (14.0, 5)
    assert set(bench.TAIL_PERCENTILE) == set(WORKLOADS)


def test_inputs_come_from_the_seed():
    small = WORKLOADS["small_sorts"]
    assert small.inputs(5) == small.inputs(5)
    assert small.inputs(5) != small.inputs(6)
    assert len(small.inputs(5)) == 8

    def traces(seed):
        return [trace.dumps() for _, trace in TINY["sched_fair"].inputs(seed)]

    assert traces(5) == traces(5)
    assert len(set(traces(5))) == len(traces(5)) == 4
    assert traces(5) != traces(6)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_sorts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
