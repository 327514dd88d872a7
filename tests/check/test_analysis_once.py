"""The start-time analysis decodes each code object once per process,
scans each stage function once per start, builds one graph per start
(lint, FGRace and the provenance fingerprint share it), and keeps no
program alive once it has run."""

import collections
import dis
import functools
import gc
import weakref

import pytest

from repro.bench.harness import run_sort
from repro.check import dataflow, lint_program
from repro.core import FGProgram, Stage
from repro.pdm.records import RecordSchema
from repro.plan.fuse import fuse_program
from repro.plan.ir import ProgramGraph
from repro.sim import VirtualTimeKernel

SCHEMA = RecordSchema.paper_16()


def small_dsort(**kwargs):
    run_sort("dsort", "uniform", SCHEMA, n_nodes=4, n_per_node=2000,
             **kwargs)


def expected_scans(fn):
    """Effect scans one stage function costs: one, or one per part of a
    fused composition."""
    parts = getattr(fn, "_fg_effect_parts", None)
    if parts:
        return sum(expected_scans(part) for part in parts)
    return 1


def unique_stage_fns(prog):
    fns = {}
    for p in prog.pipelines:
        for s in p.stages:
            if s.fn is not None:
                fns[(id(s.fn), s.style)] = s.fn
    return list(fns.values())


def count_calls(monkeypatch, owner, name, counter, key):
    original = getattr(owner, name)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        counter[key] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def scans_per_start(monkeypatch):
    """Patch in counters; returns ``[(program, scans during its start)]``
    filled as programs start."""
    counter = collections.Counter()
    count_calls(monkeypatch, dataflow._EffectScan, "run", counter, "scan")
    seen = []
    start = FGProgram.start

    def counted_start(prog):
        before = counter["scan"]
        procs = start(prog)
        seen.append((prog, counter["scan"] - before))
        return procs
    monkeypatch.setattr(FGProgram, "start", counted_start)
    return seen


def test_warm_run_decodes_no_bytecode(monkeypatch):
    small_dsort()
    counter = collections.Counter()
    count_calls(monkeypatch, dis, "get_instructions", counter, "decode")
    small_dsort()
    assert counter["decode"] == 0


def test_each_start_scans_each_stage_function_once(monkeypatch):
    seen = scans_per_start(monkeypatch)
    small_dsort()
    assert seen
    for prog, scans in seen:
        fns = unique_stage_fns(prog)
        assert scans == sum(expected_scans(fn) for fn in fns), prog.name


def test_fused_parts_are_scanned_once_per_analysis(monkeypatch):
    shared = {"n": 0}

    def count(ctx, buf):
        shared["n"] += 1
        return buf

    def plain(ctx, buf):
        return buf

    def double(ctx, buf):
        return buf

    prog = FGProgram(VirtualTimeKernel(), name="fused")
    prog.add_pipeline("p", [Stage.map("count", count),
                            Stage.map("plain", plain),
                            Stage.map("double", double)],
                      nbuffers=2, buffer_bytes=8, rounds=1)
    assert fuse_program(prog)
    (fused,) = prog.pipelines[0].stages
    assert expected_scans(fused.fn) == 3
    counter = collections.Counter()
    count_calls(monkeypatch, dataflow._EffectScan, "run", counter, "scan")
    assert list(lint_program(prog)) == []  # FG112 reads part effects
    assert counter["scan"] == 3


@pytest.mark.parametrize("mode", ["race", "provenance"])
def test_one_graph_per_start(mode, monkeypatch):
    # lint, FGRace and the provenance fingerprint all read one graph
    monkeypatch.setenv("REPRO_RACE", "1" if mode == "race" else "0")
    monkeypatch.delenv("REPRO_LINT", raising=False)
    counter = collections.Counter()
    from_program = ProgramGraph.from_program.__func__

    def counted(cls, program):
        counter["graph"] += 1
        return from_program(cls, program)
    monkeypatch.setattr(ProgramGraph, "from_program", classmethod(counted))
    seen = scans_per_start(monkeypatch)
    small_dsort(provenance=mode == "provenance")
    assert seen and counter["graph"] == len(seen)
    for prog, scans in seen:
        assert scans == sum(expected_scans(fn)
                            for fn in unique_stage_fns(prog))


def test_analysis_keeps_no_program_alive(monkeypatch):
    refs = []
    start = FGProgram.start

    def spying_start(prog):
        refs.extend(weakref.ref(fn) for fn in unique_stage_fns(prog))
        return start(prog)
    monkeypatch.setattr(FGProgram, "start", spying_start)
    small_dsort()
    monkeypatch.undo()
    gc.collect()
    assert refs
    assert [r for r in refs if r() is not None] == []


def test_decoded_bytecode_goes_with_its_code_object():
    namespace = {}
    exec("state = {}\ndef stage(ctx, buf):\n    state['n'] = 1\n"
         "    return buf\n", namespace)
    stage = namespace["stage"]
    assert dataflow.classify_fn(stage) == dataflow.WRITE_SHARED
    code = weakref.ref(stage.__code__)
    key = id(stage.__code__)
    assert key in dataflow._DECODED
    del stage, namespace
    gc.collect()
    assert code() is None
    assert key not in dataflow._DECODED
