"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sepstrat import engine, frontend, smt  # noqa: E402

SMALL = {
    "cells": dict(n_goals=8, sizes=(2, 3)),
    "sll": dict(n_goals=8, sizes=(2, 3)),
    "arrays": dict(n_goals=8, sizes=(2, 4)),
}


def small_batch(workload: str, seed: int = 7) -> workloads.Batch:
    return workloads.WORKLOADS[workload](seed, **SMALL[workload])


@pytest.fixture(scope="module")
def libraries():
    return {name: harness.load_library(name) for name in ("common", "sll", "array")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    make = workloads.WORKLOADS[workload]
    assert make(3) == make(3)
    other = make(4)
    assert other.text != make(3).text
    # The seed does not change the size schedule or the verdict mix.
    assert sorted((g.size, g.expected) for g in other.goals) == sorted(
        (g.size, g.expected) for g in make(3).goals
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_known_verdicts_at_small_sizes(workload, seed, libraries):
    batch = small_batch(workload, seed)
    lib = libraries[batch.library]
    ents = frontend.parse_entailments(batch.text, lib.sig)
    assert len(ents) == len(batch.goals)
    got = [engine.run(lib.prog, e).verdict.value for e in ents]
    assert got == [g.expected for g in batch.goals]
    assert len(set(got)) == 2, "each batch mixes two known verdicts"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced(workload, libraries):
    batch = small_batch(workload)
    lib = libraries[batch.library]
    plain = harness.run_pass(batch, lib)
    tracer = spans.Tracer()
    traced = harness.run_pass(batch, lib, tracer)
    assert plain.failures == {} and traced.failures == {}
    assert traced.verdicts == plain.verdicts
    assert traced.steps == plain.steps
    assert (traced.trace_bytes, traced.trace_sha256) == (plain.trace_bytes, plain.trace_sha256)
    assert plain.layers is None
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
    layers = traced.layers
    assert layers["matcher.yielded"] >= layers["engine.checks_calls"] > 0
    assert layers["engine.action_calls"] == plain.steps + layers["engine.action_rejected"]
    if workload == "arrays":
        assert layers["smt.infer_calls"] == layers["smt.proven"] + layers["smt.unknown"] > 0
        assert 0 < layers["smt.infer_distinct"] <= layers["smt.infer_calls"]
    else:
        assert layers["smt.infer_calls"] == 0


def test_instrument_restores_attributes():
    modules = (engine, frontend, smt)
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.instrument(tracer):
            assert engine.step is not before[0]["step"]
            assert smt.infer is not before[2]["infer"]
            raise RuntimeError("leave the block early")
    for module, saved in zip(modules, before):
        after = vars(module)
        changed = [k for k in saved if after.get(k) is not saved[k]]
        assert changed == [], module.__name__


def _span(name, start, end, parent, outcome=None):
    s = spans.Span(name, start, parent, 0)
    s.end = end
    s.outcome = outcome
    return s


def test_self_times_subtract_children():
    hyps, goal = (), object()
    trace = [
        _span(spans.GOAL, 0, 1000, -1),
        _span(spans.STEP, 10, 900, 0, "applied"),
        _span(spans.MATCH_NEXT, 20, 70, 1, "yield"),
        _span(spans.CHECKS, 100, 400, 1, "ok"),
        _span(spans.INFER, 150, 350, 3, ("proven", hyps, goal)),
        _span(spans.ACTION, 500, 800, 1, "ok"),
        _span(spans.WELL_FORMED, 600, 700, 5),
    ]
    m = spans.layer_metrics(trace)
    assert m["engine.checks_s"] == pytest.approx(100e-9)
    assert m["smt.infer_s"] == pytest.approx(200e-9)
    assert m["engine.action_s"] == pytest.approx(200e-9)
    assert m["core.well_formed_s"] == pytest.approx(100e-9)
    assert m["matcher.s"] == pytest.approx(50e-9)
    assert m["engine.step_self_s"] == pytest.approx((890 - 50 - 300 - 300) * 1e-9)
    assert (m["smt.infer_distinct"], m["smt.proven"], m["matcher.useful_ratio"]) == (1, 1, 1.0)


def test_corpus_smoke_passes():
    assert harness.corpus_smoke()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sll", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
