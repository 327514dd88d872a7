"""Measure one workload: set up, run ops for a fixed time, report metrics.

Host time is **process CPU** (``time.process_time``: user plus system, all
threads).  The virtual kernel hands the run token between OS threads, so
wall time also measures the host's thread scheduler; it is kept only as
the per-layer ``sim.offcpu_s``.

The host's speed drifts on a shared machine: the median op CPU of one
run differs from the next by 10-20% on the same code.  So
:func:`calibrate`, a fixed mix of the host work the ops do, runs before
the first op and after every op, and each end-to-end host time is
**reference CPU**: the op's CPU times the square root of ``CALIB_REF_S``
over the mean of the calibrations on either side of it.  The square root
corrects half of the drift the calibration sees.  The calibration tracks
the ops only in part: on a 2-vCPU Intel Xeon it once slowed by 70% over
minutes while the 7 s dsort ops slowed by 15%, and the spread (IQR over
median) of ten runs' median op CPU was 0.38 with the full correction,
0.14 with none and 0.07 with half.  Raw CPU seconds and the
calibrations go to the result file beside them.

Simulated metrics are deterministic per seed, and every op is checked
against the first run of its input.  A run stops at the end of a full
pass over its inputs, and ``sim_s`` is the mean over the inputs, so it
depends on the seed only.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a
separate run that alternates an untraced op with a traced op on the same
input and reports the per-layer metrics, taken by :mod:`tracing` around
calls into each layer, plus the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import importlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Optional

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
#: CPU seconds of :func:`calibrate` between ops on the reference host
#: (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6), so that reference
#: CPU reads close to raw CPU there
CALIB_REF_S = 0.075
#: share of the drift seen by the calibration that reference CPU corrects
CALIB_EXPONENT = 0.5
#: run-token hand-offs in one calibration
CALIB_HANDOFFS = 1500
OUT_DIR = Path(__file__).resolve().parent / "out"

#: set-up is repeated this many times (imports in a fresh interpreter, and
#: input generation) and the median reported
SETUP_REPEATS = 3


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: metric names, units and directions, and why
    each workload exists."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


#: op CPU percentile reported as ``op_ref_cpu_ms_tail``, fixed per
#: workload so that a change is read at the same percentile as its parent:
#: the highest with about ten ops beyond it in a 20 s run, or the maximum
#: where a run holds ten ops or fewer
TAIL_PERCENTILE = {"dsort_large": 100.0, "csort_large": 75.0,
                   "small_sorts": 80.0, "sched_fair": 100.0}

_MERGE_MOVES = ("items_per_ref_cpu_s on dsort_large, "
                "then op_ref_cpu_ms_p50 on small_sorts")
_START_MOVES = "op_ref_cpu_ms_p50 on small_sorts"
_START_CSORT_MOVES = ("op_ref_cpu_ms_p50 on small_sorts, "
                      "items_per_ref_cpu_s on csort_large")
_SWITCH_MOVES = ("items_per_ref_cpu_s on sched_fair, "
                 "op_ref_cpu_ms_p50 on small_sorts")
_SORT_CPU_MOVES = "items_per_ref_cpu_s on dsort_large and csort_large"
_DSORT_SIM_MOVES = "sim_s on dsort_large and small_sorts"
_SCHED_MOVES = "items_per_ref_cpu_s on sched_fair"

#: per-layer metric -> the end-to-end metric and workload it should move
SHOULD_MOVE = {
    "sim.switches": _SWITCH_MOVES,
    "sim.spawns": _SCHED_MOVES,
    "sim.offcpu_s": "none: wall minus CPU, host scheduler",
    "sim.residual_cpu_s": _SWITCH_MOVES,
    "sim.residual_us_per_switch": _SWITCH_MOVES,
    "core.programs": _START_MOVES,
    "core.start_ms_p50": _START_CSORT_MOVES,
    "core.start_cpu_s": _START_CSORT_MOVES,
    "check.lint_calls": _START_MOVES,
    "check.lint_cpu_s": _START_MOVES,
    "check.effects_calls": _START_MOVES,
    "check.effects_cpu_s": _START_MOVES,
    "plan.graph_builds": _START_MOVES,
    "plan.graph_builds_per_program": _START_MOVES,
    "plan.graph_cpu_s": _START_MOVES,
    "merge.calls": _MERGE_MOVES,
    "merge.records": _MERGE_MOVES,
    "merge.cpu_s": _MERGE_MOVES,
    "merge.records_per_cpu_s": _MERGE_MOVES,
    "merge.records_per_call": _MERGE_MOVES,
    "pdm.sort_calls": _SORT_CPU_MOVES,
    "pdm.sort_cpu_s": _SORT_CPU_MOVES,
    "dsort.sampling_sim_s": _DSORT_SIM_MOVES,
    "dsort.pass1_sim_s": _DSORT_SIM_MOVES,
    "dsort.pass2_sim_s": _DSORT_SIM_MOVES,
    "dsort.imbalance": _DSORT_SIM_MOVES,
    "csort.pass1_sim_s": "sim_s on csort_large",
    "csort.pass2_sim_s": "sim_s on csort_large",
    "csort.pass3_sim_s": "sim_s on csort_large",
    "cluster.bytes_io": "sim_s on every workload",
    "cluster.bytes_wire": "sim_s on the sort workloads",
    "cluster.max_disk_busy_s": "sim_s on the sort workloads",
    "cluster.disk_ops": "items_per_ref_cpu_s on every workload",
    "cluster.disk_cpu_s": "items_per_ref_cpu_s on every workload",
    "workloads.generate_cpu_s": "items_per_ref_cpu_s on the sort workloads",
    "verify.cpu_s": "items_per_ref_cpu_s on the sort workloads",
    "sched.decisions": _SCHED_MOVES,
    "sched.passes": _SCHED_MOVES,
    "sched.vruntime_evals": _SCHED_MOVES,
    "sched.demand_evals": _SCHED_MOVES,
    "sched.control_cpu_s": _SCHED_MOVES,
    "sched.us_per_decision": _SCHED_MOVES,
    "sched.job_cpu_s": _SCHED_MOVES,
    "pdm.journal_appends": _SCHED_MOVES,
    "pdm.journal_cpu_s": _SCHED_MOVES,
    "sched.makespan_s": "sim_s on sched_fair",
    "sched.light_p99_s":
        "none: the fair-share result on sched_fair, pinned per seed",
    "trace.op_cpu_s": "op_ref_cpu_ms_p50 on every workload",
    "trace.overhead_frac": "none: cost of tracing",
    "trace.attributed_frac": "none: share of op CPU inside layer spans",
}


def calibrate() -> float:
    """CPU seconds of a fixed mix of the host work the ops do.

    Thread hand-offs through events, as the virtual kernel passes its run
    token, and interpreted dict updates.  It allocates nothing large: a
    version that also copied an 8 MiB block raised the ops' peak memory.
    """
    cpu0 = time.process_time()
    ping, pong = threading.Event(), threading.Event()

    def partner() -> None:
        for _ in range(CALIB_HANDOFFS):
            ping.wait()
            ping.clear()
            pong.set()

    thread = threading.Thread(target=partner)
    thread.start()
    for _ in range(CALIB_HANDOFFS):
        ping.set()
        pong.wait()
        pong.clear()
    thread.join()
    table: dict[int, int] = {}
    for i in range(150_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.process_time() - cpu0


@dataclasses.dataclass
class OpSample:
    """One op: its host cost and what it produced."""

    cpu: float
    wall: float
    #: mean CPU seconds of the calibrations before and after the op
    calib: float
    outcome: Any
    error: Optional[str]

    @property
    def ref_cpu(self) -> float:
        return reference_cpu(self.cpu, self.calib)


def reference_cpu(cpu: float, calib: float) -> float:
    """``cpu`` seconds measured beside a calibration of ``calib`` seconds,
    in reference CPU seconds."""
    return cpu * (CALIB_REF_S / calib) ** CALIB_EXPONENT


class Runner:
    """Runs one workload's ops and checks each against its first run."""

    def __init__(self, workload: Any, seed: int):
        self.workload = workload
        self.seed = seed
        self.inputs: list = []
        #: input index -> the first outcome of that input
        self.references: dict[int, Any] = {}
        self.samples: list[OpSample] = []
        gc.collect()
        self.calib = calibrate()

    def op(self, index: int, rec: Optional[tracing.Recorder] = None
           ) -> OpSample:
        inp = self.inputs[index % len(self.inputs)]
        gc.collect()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        outcome, error = None, None
        try:
            if rec is None:
                outcome = self.workload.run(inp)
            else:
                with tracing.instrument(rec), rec.span(tracing.OP_SPAN):
                    outcome = self.workload.run(inp)
        except Exception:  # noqa: BLE001 - an op failure is a result
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        # collecting the op's cyclic garbage is part of its cost
        gc.collect()
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        before, self.calib = self.calib, calibrate()
        calib = (before + self.calib) / 2
        if outcome is not None:
            error = outcome.error or self._check_repeat(index, outcome)
        if error is not None:
            print(f"FAILED op {len(self.samples)} ({self.workload.name}, "
                  f"input {index % len(self.inputs)}): {error}",
                  file=sys.stderr)
        sample = OpSample(cpu, wall, calib, outcome, error)
        self.samples.append(sample)
        return sample

    def _check_repeat(self, index: int, outcome: Any) -> Optional[str]:
        ref = self.references.setdefault(index % len(self.inputs), outcome)
        if ref.signature != outcome.signature:
            return (f"simulated result {outcome.signature!r} differs from "
                    f"the first run of this input {ref.signature!r}")
        return None

    def sim_s(self) -> float:
        """Mean simulated seconds over the inputs, one run of each.

        It depends on the seed only, not on how many ops a run made.
        """
        return statistics.fmean(self.references[k].sim_s
                                for k in sorted(self.references))


def _import_cpu(modules: tuple) -> float:
    """CPU seconds of a fresh interpreter importing ``modules``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c",
                    "; ".join(f"import {m}" for m in modules)],
                   check=True, env=env, cwd=ROOT, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ((after.ru_utime - before.ru_utime)
            + (after.ru_stime - before.ru_stime))


def setup(runner: Runner, timed: bool) -> float:
    """Imports, input generation and one untimed warm-up op.

    Returns the set-up reference CPU seconds: the median fresh-interpreter
    import, plus the median input generation, plus the warm-up op (the
    workload at test size), scaled by the calibrations around set-up.
    The warm-up op counts as attempted, and fails the run if it fails.
    """
    wl = runner.workload
    before = runner.calib
    imports = ([_import_cpu(wl.modules) for _ in range(SETUP_REPEATS)]
               if timed else [0.0])
    for module in wl.modules:
        importlib.import_module(module)
    generate = []
    for _ in range(SETUP_REPEATS):
        cpu0 = time.process_time()
        runner.inputs = wl.inputs(runner.seed)
        generate.append(time.process_time() - cpu0)
    warm = Runner(wl.warmup(), runner.seed)
    warm.inputs = warm.workload.inputs(runner.seed)
    warm_op = warm.op(0)
    runner.samples.append(warm_op)
    runner.calib = warm.calib
    cpu = statistics.median(imports) + statistics.median(generate) \
        + warm_op.cpu
    return reference_cpu(cpu, (before + runner.calib) / 2)


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """The nearest-rank ``percentile`` of ``values``, and how many values
    lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runner: Runner, timed: list[OpSample],
               setup_s: float) -> tuple[dict, dict]:
    good = [s for s in timed if s.error is None] or timed
    cpus = [s.ref_cpu for s in good]
    items = sum(s.outcome.items for s in good if s.outcome is not None)
    pct = TAIL_PERCENTILE[runner.workload.name]
    value, beyond = tail(cpus, pct)
    attempted = len(runner.samples)
    ok = sum(1 for s in runner.samples if s.error is None)
    metrics = {
        "items_per_ref_cpu_s": items / sum(cpus) if sum(cpus) else 0.0,
        "op_ref_cpu_ms_p50": 1000.0 * statistics.median(cpus),
        "op_ref_cpu_ms_tail": 1000.0 * value,
        "sim_s": runner.sim_s() if runner.references else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_rate": ok / attempted,
    }
    extra = {"ops": len(timed), "tail_percentile": pct,
             "tail_samples_beyond": beyond,
             "op_cpu_s": [s.cpu for s in timed],
             "op_ref_cpu_s": [s.ref_cpu for s in timed],
             "op_wall_s": [s.wall for s in timed],
             "calib_s": [s.calib for s in timed]}
    return metrics, extra


_JOB_PROCESS = re.compile(r"j\d+\.a\d+@\d+$")


def per_layer(rec: tracing.Recorder, traced: list[OpSample],
              untraced: list[OpSample]) -> tuple[dict, dict]:
    """Per-op per-layer numbers from the traced ops of one run."""
    n = len(traced)
    spans = rec.spans
    calls: dict[str, int] = {}
    cpu: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        cpu[s.name] = cpu.get(s.name, 0.0) + s.cpu
    counts = rec.counts
    op_cpu = sum(s.cpu for s in traced)
    attributed = sum(s.cpu for s in tracing.top_level(spans))
    residual = op_cpu - attributed
    switches = counts["sim.switches"]

    def per_op(x: float) -> float:
        return x / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    control = cpu.get("sched.control", 0.0)
    jobs = sum(c for name, c in rec.processes
               if _JOB_PROCESS.search(name))
    starts = [s.cpu for s in spans if s.name == "core.start"]

    from repro.bench.harness import SortRun
    from repro.sched import SchedReport

    reports = [s.outcome.report for s in traced if s.outcome is not None]
    sorts = [r for r in reports if isinstance(r, SortRun)]
    scheds = [r for r in reports if isinstance(r, SchedReport)]

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    def phase(sorter: str, name: str) -> float:
        return mean(r.phase_times[name] for r in sorts if r.sorter == sorter)

    busy: dict[int, float] = {}
    for op, cluster in rec.clusters:
        busy[op] = max(busy.get(op, 0.0), cluster.max_disk_busy())

    decisions = mean(len(r.decisions) for r in scheds)
    untraced_cpu = sum(s.cpu for s in untraced)
    metrics = {
        "sim.switches": per_op(switches),
        "sim.spawns": per_op(counts["sim.spawns"]),
        "sim.offcpu_s": per_op(sum(s.wall - s.cpu for s in traced)),
        "sim.residual_cpu_s": per_op(residual),
        "sim.residual_us_per_switch": 1e6 * ratio(residual, switches),
        "core.programs": per_op(calls.get("core.start", 0)),
        "core.start_ms_p50": (1000.0 * statistics.median(starts)
                              if starts else 0.0),
        "core.start_cpu_s": per_op(cpu.get("core.start", 0.0)),
        "check.lint_calls": per_op(calls.get("check.lint", 0)),
        "check.lint_cpu_s": per_op(cpu.get("check.lint", 0.0)),
        "check.effects_calls": per_op(calls.get("check.effects", 0)),
        "check.effects_cpu_s": per_op(cpu.get("check.effects", 0.0)),
        "plan.graph_builds": per_op(calls.get("plan.graph", 0)),
        "plan.graph_builds_per_program": ratio(
            calls.get("plan.graph", 0), calls.get("core.start", 0)),
        "plan.graph_cpu_s": per_op(cpu.get("plan.graph", 0.0)),
        "merge.calls": per_op(calls.get("sorting.merge", 0)),
        "merge.records": per_op(counts["merge.records"]),
        "merge.cpu_s": per_op(cpu.get("sorting.merge", 0.0)),
        "merge.records_per_cpu_s": ratio(
            counts["merge.records"], cpu.get("sorting.merge", 0.0)),
        "merge.records_per_call": ratio(
            counts["merge.records"], calls.get("sorting.merge", 0)),
        "pdm.sort_calls": per_op(calls.get("pdm.sort", 0)),
        "pdm.sort_cpu_s": per_op(cpu.get("pdm.sort", 0.0)),
        "dsort.sampling_sim_s": phase("dsort", "sampling"),
        "dsort.pass1_sim_s": phase("dsort", "pass1"),
        "dsort.pass2_sim_s": phase("dsort", "pass2"),
        "dsort.imbalance": mean(r.partition_imbalance for r in sorts
                                if r.sorter == "dsort"),
        "csort.pass1_sim_s": phase("csort", "pass1"),
        "csort.pass2_sim_s": phase("csort", "pass2"),
        "csort.pass3_sim_s": phase("csort", "pass3"),
        "cluster.bytes_io": per_op(
            sum(c.total_bytes_io() for _, c in rec.clusters)),
        "cluster.bytes_wire": per_op(
            sum(c.total_bytes_sent() for _, c in rec.clusters)),
        "cluster.max_disk_busy_s": mean(busy.values()),
        "cluster.disk_ops": per_op(calls.get("cluster.disk", 0)),
        "cluster.disk_cpu_s": per_op(cpu.get("cluster.disk", 0.0)),
        "workloads.generate_cpu_s": per_op(
            cpu.get("workloads.generate", 0.0)),
        "verify.cpu_s": per_op(cpu.get("sorting.verify", 0.0)),
        "sched.decisions": decisions,
        "sched.passes": per_op(counts["sched.passes"]),
        "sched.vruntime_evals": per_op(counts["sched.vruntime_evals"]),
        "sched.demand_evals": per_op(counts["sched.demand_evals"]),
        "sched.control_cpu_s": per_op(control),
        "sched.us_per_decision": 1e6 * ratio(per_op(control), decisions),
        "sched.job_cpu_s": per_op(jobs),
        "pdm.journal_appends": per_op(calls.get("pdm.journal", 0)),
        "pdm.journal_cpu_s": per_op(cpu.get("pdm.journal", 0.0)),
        "sched.makespan_s": mean(r.makespan for r in scheds),
        "sched.light_p99_s": mean(r.tenants["light"]["p99"]
                                  for r in scheds),
        "trace.op_cpu_s": per_op(op_cpu),
        "trace.overhead_frac": ratio(op_cpu, untraced_cpu) - 1.0,
        "trace.attributed_frac": ratio(attributed, op_cpu),
    }
    self_times = tracing.self_cpu(spans)
    layers = {}
    for s in spans:
        row = layers.setdefault(s.name, {"calls": 0, "cpu_s": 0.0,
                                         "self_cpu_s": 0.0, "wall_s": 0.0})
        row["calls"] += 1
        row["cpu_s"] += s.cpu
        row["self_cpu_s"] += self_times[s.id]
        row["wall_s"] += s.wall
    extra = {"traced_ops": n, "layers": layers,
             "counts": dict(counts),
             "spans": [s.as_row() for s in spans]}
    return metrics, extra


def host_info() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "cpu_model": model,
            "platform": platform.platform(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED")}


def run_workload(workload: Any, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Set up, measure for ``seconds`` and return the result document."""
    runner = Runner(workload, seed)
    setup_s = setup(runner, timed=not trace)
    deadline = time.perf_counter() + seconds
    index = 0
    timed: list[OpSample] = []
    traced: list[OpSample] = []
    rec = tracing.Recorder()
    while True:
        if trace:
            timed.append(runner.op(index))
            rec.op = index + 1
            traced.append(runner.op(index, rec))
        else:
            timed.append(runner.op(index))
        index += 1
        # stop at the end of a full pass: every input runs equally often
        if (index % len(runner.inputs) == 0
                and time.perf_counter() >= deadline):
            break
    if trace:
        metrics, extra = per_layer(rec, traced, timed)
        wanted = spec()["per_layer"]
    else:
        metrics, extra = end_to_end(runner, timed, setup_s)
        wanted = spec()["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        raise RuntimeError("metrics computed but not in BENCHMARK.json, or "
                           f"the reverse: {sorted(set(metrics) ^ names)}")
    failed = sum(1 for s in runner.samples if s.error is not None)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "host": host_info(),
        "correct": failed == 0, "attempted": len(runner.samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
        "detail": extra,
    }


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics; "
                    "the last line of output is the JSON result.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    doc = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json")
    out.write_text(json.dumps(doc), encoding="utf-8")
    print(f"host: {json.dumps(doc['host'])}")
    detail = doc["detail"]
    why = {w["name"]: w["why"] for w in spec()["workloads"]}[args.workload]
    print(f"{args.workload}: {why}")
    if not args.trace:
        print(f"ops: {detail['ops']}; tail = p{detail['tail_percentile']:g}"
              f" with {detail['tail_samples_beyond']} ops beyond it")
    for name, m in doc["metrics"].items():
        moves = f"  -> {SHOULD_MOVE[name]}" if args.trace else ""
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}{moves}")
    print(f"spans and samples: {out.relative_to(ROOT)}")
    print(json.dumps({key: doc[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if doc["correct"] else 1
