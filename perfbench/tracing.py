"""Spans and counters taken around calls into the repro layers.

Nothing here edits the library: :func:`instrument` swaps a layer's public
function or method for a wrapper that records a :class:`Span` (or bumps a
counter) and calls the original, and puts every original back when the
``with`` block ends.

A span measures wall time and **thread CPU** (``time.thread_time``).
Stage threads of the virtual kernel park inside calls such as
``Disk.read`` while other stages run, so a wall interval would also hold
other threads' work; the thread clock stops while the thread is parked.
Spans nest per thread: a span's parent is the innermost open span of the
same thread, and every span carries the id of the benchmark op it ran in.

The virtual kernel lets one process thread execute at a time (it passes a
run token), so the counters below need no lock.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import itertools
import threading
import time
from typing import Any, Callable, Iterator, Optional

#: name of the root span the benchmark opens around each op
OP_SPAN = "bench.op"


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: int
    thread: int
    wall0: float
    wall1: float
    cpu0: float
    cpu1: float

    @property
    def wall(self) -> float:
        return self.wall1 - self.wall0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0

    def as_row(self) -> list:
        return [self.id, self.name, self.parent, self.op, self.thread,
                self.wall0, self.wall1, self.cpu0, self.cpu1]


class Recorder:
    """Spans, counters and per-process CPU of one traced run, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        #: (process name, thread CPU seconds) per finished process
        self.processes: list[tuple[str, float]] = []
        #: every Cluster built while tracing, with the op it belongs to
        self.clusters: list[tuple[int, Any]] = []
        self.op = 0
        self._cells: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        frame = [next(self._ids), name, stack[-1][0] if stack else None,
                 self.op, threading.get_ident(),
                 time.perf_counter(), time.thread_time()]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        cpu1 = time.thread_time()
        wall1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        sid, name, parent, op, thread, wall0, cpu0 = frame
        self.spans.append(Span(sid, name, parent, op, thread,
                               wall0, wall1, cpu0, cpu1))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def spanned(self, name: str, fn: Callable,
                on_result: Optional[Callable[[Any], None]] = None
                ) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = rec.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(frame)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls only (for very hot calls).

        The count lives in a one-element list, which is cheaper to bump
        than a dict entry; :meth:`flush` adds it to :attr:`counts`.
        """
        cell = self._cells.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def flush(self) -> None:
        """Move the hot-call counts into :attr:`counts`."""
        for key, cell in self._cells.items():
            self.counts[key] += cell[0]
            cell[0] = 0


def self_cpu(spans: list[Span]) -> dict[int, float]:
    """Span id -> thread CPU minus the CPU of its direct children."""
    child_cpu: dict[int, float] = collections.defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_cpu[s.parent] += s.cpu
    return {s.id: s.cpu - child_cpu[s.id] for s in spans}


def top_level(spans: list[Span]) -> list[Span]:
    """Layer spans with no layer span above them in their thread."""
    op_ids = {s.id for s in spans if s.name == OP_SPAN}
    return [s for s in spans if s.name != OP_SPAN
            and (s.parent is None or s.parent in op_ids)]


class _Patches:
    """Attribute swaps that :meth:`restore` undoes in reverse order."""

    _INHERITED = object()

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        # the raw __dict__ entry keeps classmethods intact on restore; an
        # inherited attribute is restored by deleting the override
        raw = vars(owner).get(attr, self._INHERITED)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            if raw is self._INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


@contextlib.contextmanager
def instrument(rec: Recorder) -> Iterator[Recorder]:
    """Trace every layer boundary the benchmark reports on."""
    import repro.bench.harness as harness
    import repro.check.dataflow as dataflow
    from repro.cluster.cluster import Cluster
    from repro.cluster.disk import Disk
    from repro.core.program import FGProgram
    from repro.pdm.journal import Journal
    from repro.pdm.records import RecordSchema
    from repro.plan.ir import ProgramGraph
    from repro.sched import kinds
    from repro.sched.policy import PlacementPolicy
    from repro.sched.scheduler import Scheduler
    from repro.sim.virtual import VirtualTimeKernel
    from repro.sorting.merge import BlockMerger

    patches = _Patches()
    counts = rec.counts

    def on_merged(n: int) -> None:
        counts["merge.records"] += n

    originals = [kinds.get_kind(name) for name in kinds.kind_names()]
    try:
        # -- sim: process spawns, per-process thread CPU, context switches --
        orig_spawn = VirtualTimeKernel.spawn

        def spawn(kernel, target, *args, name=None, **kwargs):
            counts["sim.spawns"] += 1
            label = name if name is not None else getattr(
                target, "__name__", "proc")

            # the scheduler's control loop is the sched layer's own process
            body = (rec.spanned("sched.control", target)
                    if label == "scheduler" else target)

            @functools.wraps(target)
            def timed(*a, **k):
                cpu0 = time.thread_time()
                try:
                    return body(*a, **k)
                finally:
                    rec.processes.append((label, time.thread_time() - cpu0))
            return orig_spawn(kernel, timed, *args, name=name, **kwargs)

        orig_run = VirtualTimeKernel.run

        def run(kernel):
            try:
                return orig_run(kernel)
            finally:
                counts["sim.switches"] += kernel.switches

        patches.set(VirtualTimeKernel, "spawn", spawn)
        patches.set(VirtualTimeKernel, "run", run)

        orig_cluster_init = Cluster.__init__

        def cluster_init(cluster, *args, **kwargs):
            orig_cluster_init(cluster, *args, **kwargs)
            rec.clusters.append((rec.op, cluster))

        patches.set(Cluster, "__init__", cluster_init)

        # -- core / check / plan: program start-time analysis --
        patches.set(FGProgram, "start",
                    rec.spanned("core.start", FGProgram.start))
        patches.set(FGProgram, "lint",
                    rec.spanned("check.lint", FGProgram.lint))
        patches.set(dataflow, "program_effects",
                    rec.spanned("check.effects", dataflow.program_effects))
        from_program = vars(ProgramGraph)["from_program"].__func__
        patches.set(ProgramGraph, "from_program", classmethod(
            rec.spanned("plan.graph", from_program)))

        # -- sorting / pdm / cluster --
        patches.set(BlockMerger, "merge_into",
                    rec.spanned("sorting.merge", BlockMerger.merge_into,
                                on_merged))
        patches.set(RecordSchema, "sort",
                    rec.spanned("pdm.sort", RecordSchema.sort))
        patches.set(Disk, "read", rec.spanned("cluster.disk", Disk.read))
        patches.set(Disk, "write", rec.spanned("cluster.disk", Disk.write))
        patches.set(Journal, "append",
                    rec.spanned("pdm.journal", Journal.append))

        # -- workloads: input generation and output verification --
        patches.set(harness, "generate_input", rec.spanned(
            "workloads.generate", harness.generate_input))
        for verify in ("verify_striped_output", "verify_partitioned_output"):
            patches.set(harness, verify, rec.spanned(
                "sorting.verify", getattr(harness, verify)))

        # -- sched: counted, not spanned (hundreds of thousands per op) --
        for policy in PlacementPolicy.__subclasses__():
            patches.set(policy, "order",
                        rec.counted("sched.passes", policy.order))
        patches.set(Scheduler, "effective_vruntime",
                    rec.counted("sched.vruntime_evals",
                                Scheduler.effective_vruntime))
        for kind in originals:
            kinds.register_kind(dataclasses.replace(
                kind, demand=rec.counted("sched.demand_evals",
                                         kind.demand)))
        yield rec
    finally:
        for kind in originals:
            kinds.register_kind(kind)
        patches.restore()
        rec.flush()
