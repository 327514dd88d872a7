"""The benchmark's workloads: inputs made from one seed, one op, its check.

Every workload is driven closed loop by one client in one process: the
next op starts when the previous one returns.  An op's *items* are what
its throughput counts (records sorted, or jobs completed), its
*signature* is the simulated result that must repeat exactly whenever
the same input runs again, and its *sim_s* is the simulated seconds the
op reports (the paper's clock).

Why each workload exists is written beside its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Optional

#: the paper's four input distributions (Section VI)
DISTRIBUTIONS = ("uniform", "all_equal", "std_normal", "poisson")

#: size of the untimed warm-up op; it only has to touch every code path
#: once, and a full-size one would spend a whole op's time in set-up
WARMUP_RECORDS = 2000
WARMUP_JOBS = 50


def derived_seeds(name: str, seed: int, count: int) -> list[int]:
    """``seed`` followed by ``count - 1`` seeds drawn from it."""
    rng = random.Random(f"{name}:{seed}")
    return [seed] + [rng.randrange(1 << 31) for _ in range(count - 1)]


@dataclasses.dataclass
class Outcome:
    items: int
    sim_s: float
    #: simulated results that every repeat of the input must reproduce
    signature: tuple
    #: the SortRun or SchedReport, for the traced run's per-layer numbers
    report: Any
    #: why the op's output is wrong, or None
    error: Optional[str] = None


@dataclasses.dataclass
class SortWorkload:
    """``run_sort`` at a fixed shape over a cycle of inputs."""

    modules = ("repro.bench.harness",)

    name: str
    sorter: str
    n_nodes: int
    n_per_node: int
    distributions: tuple = ("uniform",)
    #: distinct input seeds per distribution; ops cycle through the
    #: (distribution, seed) pairs, so every input repeats in a long run
    seeds_per_distribution: int = 1

    def warmup(self) -> "SortWorkload":
        """The same sorter at test size: one op fills lazy caches."""
        return dataclasses.replace(self, n_per_node=min(self.n_per_node,
                                                        WARMUP_RECORDS))

    def inputs(self, seed: int) -> list[tuple[str, int]]:
        seeds = derived_seeds(self.name, seed, self.seeds_per_distribution)
        return [(dist, s) for s in seeds for dist in self.distributions]

    def run(self, inp: tuple[str, int]) -> Outcome:
        from repro.bench.harness import run_sort
        from repro.pdm.records import RecordSchema

        distribution, seed = inp
        # run_sort verifies its output before it returns and raises if
        # the output is not a sorted permutation of the input; records
        # with equal keys are byte-identical (RecordSchema.from_keys), so
        # that check pins every output byte
        res = run_sort(self.sorter, distribution, RecordSchema.paper_16(),
                       n_nodes=self.n_nodes, n_per_node=self.n_per_node,
                       seed=seed)
        signature = (tuple(res.phase_times.items()),
                     res.partition_imbalance, res.bytes_io, res.bytes_wire,
                     res.max_disk_busy)
        return Outcome(items=self.n_nodes * self.n_per_node,
                       sim_s=res.total_time, signature=signature,
                       report=res,
                       error=None if res.verified else "not verified")


@dataclasses.dataclass
class SchedWorkload:
    """``run_schedule`` over a cycle of seeded multi-tenant arrival traces.

    A trace's makespan varies by about 4% (interquartile) from seed to
    seed, so one seed gives ``TRACES`` traces and the workload's
    simulated time is their mean.
    """

    modules = ("repro.sched",)
    TRACES = 4
    N_NODES = 4

    name: str
    n_jobs: int = 1000

    def warmup(self) -> "SchedWorkload":
        """The same schedule shape with few jobs."""
        return dataclasses.replace(self, n_jobs=min(self.n_jobs,
                                                    WARMUP_JOBS))

    def inputs(self, seed: int) -> list[Any]:
        from repro.sched import synthetic_trace

        # the bench_multitenant workload: a flooding heavy tenant and a
        # sparse light one, 6:1, small journaled block jobs
        return [(s, synthetic_trace(
                    s, self.n_jobs, ("heavy", "light"),
                    mean_interarrival=0.012,
                    tenant_share={"heavy": 6.0, "light": 1.0},
                    params={"blocks": {"blocks": 3, "compute": 0.004,
                                       "block_bytes": 2048}}))
                for s in derived_seeds(self.name, seed, self.TRACES)]

    def run(self, inp: tuple[int, Any]) -> Outcome:
        from repro.sched import Quota, run_schedule

        seed, trace = inp
        quotas = {t: Quota(max_nodes=3, max_inflight=3)
                  for t in ("heavy", "light")}
        rep = run_schedule(trace, n_nodes=self.N_NODES, quotas=quotas,
                           policy="fair", seed=seed, provenance=False)
        error = None
        if rep.done != len(trace) or rep.failed:
            error = (f"{rep.done} of {len(trace)} jobs done, "
                     f"{rep.failed} failed")
        return Outcome(items=rep.done, sim_s=rep.makespan,
                       signature=(rep.decision_digest, rep.makespan,
                                  rep.tenants["light"]["p99"]),
                       report=rep, error=error)


WORKLOADS = {w.name: w for w in (
    SortWorkload(name="dsort_large", sorter="dsort", n_nodes=4,
                 n_per_node=65536),
    SortWorkload(name="csort_large", sorter="csort", n_nodes=4,
                 n_per_node=65536),
    SortWorkload(name="small_sorts", sorter="dsort", n_nodes=4,
                 n_per_node=2000, distributions=DISTRIBUTIONS,
                 seeds_per_distribution=2),
    SchedWorkload(name="sched_fair"),
)}
