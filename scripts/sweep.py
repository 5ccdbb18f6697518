#!/usr/bin/env python3
"""Per-step cost against heap size on growing goal families.

Runs single goals of growing size, built by the generators of
perfbench/workloads.py, and prints one JSON object: for each family and
size, the best wall time of `engine.run` over REPEAT runs, its step count
and milliseconds per step, and the best times of two later layers over
REPEAT fresh runs: `serialise_ms`, the trace to its JSON text
(`traces_to_document` and `document_to_json`), and `replay_ms`, that JSON
replayed (`replay_document`).  Families:

    common_cells  k data_at cells, all aligned (common library)
    sll_chain     k list segments into a trailing listrep (sll library)
    arrays        k arrays read in range (array library)

Usage, from the root of a checkout:

    python3 scripts/sweep.py
"""

from __future__ import annotations

import importlib.util
import json
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 5  # timed runs per goal; the best is kept
sys.path.insert(0, str(ROOT / "src"))

from sepstrat import engine, frontend  # noqa: E402


def _load_workloads():
    """perfbench/workloads.py, which is not a package, imported by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# family -> (library, goal of size k from the workloads module, sizes)
FAMILIES = {
    "common_cells": ("common", lambda wl, rng, k: wl.cells_goal(rng, k, k), range(5, 17)),
    "sll_chain": ("sll", lambda wl, rng, k: wl.sll_goal(rng, k, None), range(10, 81, 10)),
    "arrays": ("array", lambda wl, rng, k: wl.arrays_goal(rng, k, k), range(4, 17)),
}


def _library(name: str):
    corpus = ROOT / "corpus"
    sig = frontend.parse_signature((corpus / f"{name}.sig").read_text(), f"{name}.sig")
    return sig, frontend.parse_strategies((corpus / f"{name}.stg").read_text(), sig, f"{name}.stg")


def _later_layers(text: str, sig, prog, repeat: int) -> tuple[float, float]:
    """Best serialise and replay times of the goal, in seconds.  Each repeat
    parses and runs the goal afresh, so no node has printed text cached from
    an earlier repeat; replay starts from the JSON alone, as `sepstrat replay`
    does."""
    serialise = replay = float("inf")
    for _ in range(repeat):
        trace = engine.run(prog, frontend.parse_entailment(text, sig))
        t0 = time.perf_counter()
        trace_json = engine.document_to_json(engine.traces_to_document([trace]))
        serialise = min(serialise, time.perf_counter() - t0)
        del trace
        doc = json.loads(trace_json)
        t0 = time.perf_counter()
        engine.replay_document(doc, sig, prog)
        replay = min(replay, time.perf_counter() - t0)
    return serialise, replay


def sweep(sizes=None, repeat: int = REPEAT) -> dict:
    """{family: [{k, ms, steps, ms_per_step, serialise_ms, replay_ms}, ...]};
    `sizes` maps a family to the sizes to run instead of its default range."""
    wl = _load_workloads()
    out = {}
    for family, (lib, make, default) in FAMILIES.items():
        sig, prog = _library(lib)
        rows = []
        for k in (sizes or {}).get(family, default):
            goal = make(wl, random.Random(1), k)
            e = frontend.parse_entailment(goal.text, sig)
            best = float("inf")
            for _ in range(repeat):
                t0 = time.perf_counter()
                trace = engine.run(prog, e)
                best = min(best, time.perf_counter() - t0)
            if trace.verdict.value != goal.expected:
                raise RuntimeError(f"{family} k={k}: {trace.verdict.value}, expected {goal.expected}")
            steps = len(trace.steps)
            del trace, e
            serialise, replay = _later_layers(goal.text, sig, prog, repeat)
            ms = best * 1000
            rows.append({
                "k": k,
                "ms": round(ms, 3),
                "steps": steps,
                "ms_per_step": round(ms / max(steps, 1), 4),
                "serialise_ms": round(serialise * 1000, 3),
                "replay_ms": round(replay * 1000, 3),
            })
        out[family] = rows
    return out


def main() -> int:
    print(json.dumps({"python": platform.python_version(), "families": sweep()}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
