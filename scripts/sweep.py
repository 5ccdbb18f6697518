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

One family grows the library instead of the goal:

    library_size  the arrays goal at k = 8, its library padded with N
                  strategies of priority 0, the lowest value, so that every
                  step tries them before any shipped one; each matches
                  every (array, read) pair as arr_load_cell does, with an
                  `infer` check that never holds.  Rows give N, the best
                  run time, steps, ms_per_step and `check_calls`, the
                  `engine.run_checks` calls of one run

One family times the parser alone:

    parse         each perfbench workload's seed-1 batch at 25, 50, 100 and
                  200 goals: `parse_entailments` of the batch text (source
                  "batch"), `parse_entailment` of each goal's printed
                  text, which is what a trace records as its input and
                  replay parses (source "trace_inputs"), and
                  `parse_entailments` of the batch with every name of goal
                  g suffixed by `_g`, so that no atom is repeated and the
                  parse's table of atoms is never read (source
                  "batch_unique").  Rows give the workload, goals, source,
                  chars, the best `parse_ms` and `chars_per_ms`, which
                  stays flat while the parse cost is linear in the text

Three more families time `smt.infer` alone: 2k queries against one
hypothesis set, asked through one solver context as a run asks them.  Each
row gives the best time of all of them over REPEAT rounds, each round with
fresh contexts, the query count and how many are proven:

    ineq_chain     x_{j+1} >= x_j + 1; x_0 + j <= x_j is proven, x_j <= x_0 + j not
    eq_chain       x_{j+1} == f(x_j), y_{j+1} == f(y_j), x_0 == y_0; x_j == y_j is
                   proven, x_j == y_{j-1} not
    big_constants  both chains with 2**60 in place of 1 and of nothing
                   (x_{j+1} == f(x_j + 2**60)), past float precision

Usage, from the root of a checkout:

    python3 scripts/sweep.py
"""

from __future__ import annotations

import importlib.util
import json
import platform
import random
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 5  # timed runs per goal; the best is kept
sys.path.insert(0, str(ROOT / "src"))

from sepstrat import engine, frontend, smt  # noqa: E402
from sepstrat.core import RESERVED, Apply, Arith, Eq, IntLit, Rel, Var  # noqa: E402


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


# library_size: (library, the arrays goal size, padding sizes)
LIBRARY_SIZE = ("array", 8, (0, 25, 50, 100))


def _padding(n: int) -> str:
    """n strategies, before every shipped one in priority order, that match
    each (array, read) pair and whose check n + j < 0 never holds on an
    arrays goal, whose antecedent holds 0 <= i_1 and i_bound < n."""
    return "".join(
        f"strategy pad_{j}\n  priority: 0\n  left: store_array(?p, ?x, ?y, ?l)\n"
        f"  right: data_at(p + 4 * ?i, ?v)\n  check: infer(y + {j} < x);\n"
        f"  action: left_erase(store_array(p, x, y, l));\n\n"
        for j in range(n)
    )


def _library_size_row(wl, n: int, repeat: int) -> dict:
    lib, k, _ = LIBRARY_SIZE
    sig, _ = _library(lib)
    prog = frontend.parse_strategies((ROOT / "corpus" / f"{lib}.stg").read_text() + _padding(n), sig, "padded")
    goal = wl.arrays_goal(random.Random(1), k, k)
    e = frontend.parse_entailment(goal.text, sig)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        trace = engine.run(prog, e)
        best = min(best, time.perf_counter() - t0)
    if trace.verdict.value != goal.expected or any(ts.strategy.startswith("pad_") for ts in trace.steps):
        raise RuntimeError(f"library_size N={n}: {trace.verdict.value}, expected {goal.expected} with no padding step")
    calls = 0
    real = engine.run_checks

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    engine.run_checks = counting
    try:
        engine.run(prog, e)
    finally:
        engine.run_checks = real
    ms, steps = best * 1000, len(trace.steps)
    return {"n": n, "ms": round(ms, 3), "steps": steps, "ms_per_step": round(ms / steps, 4), "check_calls": calls}


BIG = 2**60


def _ineq_chain(k: int, c: int) -> list[tuple[list, list]]:
    """x_{j+1} >= x_j + c for j < k; x_0 + j * c <= x_j for each j, which
    holds, and x_j <= x_0 + j * c, which does not."""
    x = [Var(f"x{j}") for j in range(k + 1)]
    hyps = [Rel(">=", x[j + 1], Arith("+", x[j], IntLit(c))) for j in range(k)]
    goals = []
    for j in range(1, k + 1):
        reach = Arith("+", x[0], IntLit(j * c))
        goals += [Rel("<=", reach, x[j]), Rel("<=", x[j], reach)]
    return [(hyps, goals)]


def _eq_chain(k: int, c: int) -> list[tuple[list, list]]:
    """x_{j+1} == f(x_j + c) and likewise for y (no `+ c` when c is 0), with
    x_0 == y_0; x_j == y_j for each j, which holds, and x_j == y_{j-1},
    which does not."""
    x = [Var(f"x{j}") for j in range(k + 1)]
    y = [Var(f"y{j}") for j in range(k + 1)]

    def f(t):
        return Apply("f", (Arith("+", t, IntLit(c)) if c else t,))

    hyps = [Eq(x[0], y[0])] + [Eq(v[j + 1], f(v[j])) for v in (x, y) for j in range(k)]
    goals = [g for j in range(1, k + 1) for g in (Eq(x[j], y[j]), Eq(x[j], y[j - 1]))]
    return [(hyps, goals)]


# parse: (workloads, goal counts)
PARSE = (("cells", "sll", "arrays"), (25, 50, 100, 200))


def _best_ms(fn, repeat: int) -> float:
    """The best wall time of fn() over repeat calls, in milliseconds; fn's
    result is dropped at once, so each call builds its nodes afresh."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def _unique_text(batch, sig) -> str:
    """The batch's text with every name of goal g but the declared symbols
    and the keywords suffixed by `_g`, so that no two goals share an atom."""

    def suffixed(m: re.Match, g: int) -> str:
        name = m.group()
        return name if name in RESERVED or sig.kind_of(name) else f"{name}_{g}"

    goals = (re.sub(r"\b[^\W\d][\w']*", lambda m: suffixed(m, g), goal.text) for g, goal in enumerate(batch.goals))
    return "\n\n".join(goals) + "\n"


def _parse_rows(wl, n: int, repeat: int) -> list[dict]:
    rows = []
    for workload in PARSE[0]:
        batch = wl.WORKLOADS[workload](1, n)
        sig, _ = _library(batch.library)
        inputs = [frontend.print_entailment(e) for e in frontend.parse_entailments(batch.text, sig)]
        unique = _unique_text(batch, sig)
        timed = {
            "batch": (len(batch.text), lambda: frontend.parse_entailments(batch.text, sig)),
            "trace_inputs": (sum(map(len, inputs)), lambda: [frontend.parse_entailment(t, sig) for t in inputs]),
            "batch_unique": (len(unique), lambda: frontend.parse_entailments(unique, sig)),
        }
        for source, (chars, fn) in timed.items():
            ms = _best_ms(fn, repeat)
            rows.append({"workload": workload, "goals": n, "source": source, "chars": chars,
                         "parse_ms": round(ms, 3), "chars_per_ms": round(chars / ms, 1)})
    return rows


# family -> (query sets of size k, sizes)
SOLVER_FAMILIES = {
    "ineq_chain": (lambda k: _ineq_chain(k, 1), range(4, 33, 4)),
    "eq_chain": (lambda k: _eq_chain(k, 0), range(4, 33, 4)),
    "big_constants": (lambda k: _ineq_chain(k, BIG) + _eq_chain(k, BIG), range(4, 33, 4)),
}


def _solver_row(k: int, query_sets: list[tuple[list, list]], repeat: int) -> dict:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        results = []
        for hyps, goals in query_sets:
            contexts: dict = {}
            hyps = tuple(hyps)
            results += [smt.infer(hyps, g, contexts) for g in goals]
        best = min(best, time.perf_counter() - t0)
    proven = sum(r.status is smt.ProofStatus.PROVEN for r in results)
    if proven * 2 != len(results):
        raise RuntimeError(f"k={k}: {proven} of {len(results)} queries proven, expected half")
    ms = best * 1000
    return {"k": k, "ms": round(ms, 3), "queries": len(results), "proven": proven,
            "ms_per_query": round(ms / len(results), 4)}


def _library(name: str):
    corpus = ROOT / "corpus"
    sig = frontend.parse_signature((corpus / f"{name}.sig").read_text(), f"{name}.sig")
    return sig, frontend.parse_strategies((corpus / f"{name}.stg").read_text(), sig, f"{name}.stg")


def _later_layers(text: str, sig, prog, repeat: int) -> tuple[float, float]:
    """Best serialise and replay times of the goal, in seconds.  Each repeat
    parses and runs the goal afresh, so no node has printed text cached from
    an earlier repeat; replay starts from the JSON text alone, as a checker
    of a trace file written by `--trace` does."""
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
    """{family: [{k, ms, steps, ms_per_step, serialise_ms, replay_ms}, ...]},
    with rows {n, ms, steps, ms_per_step, check_calls} for library_size,
    {workload, goals, source, chars, parse_ms, chars_per_ms} for parse and
    {k, ms, queries, proven, ms_per_query} for the solver families; `sizes`
    maps a family to the sizes (or paddings) to run instead of its default
    range."""
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
    out["library_size"] = [_library_size_row(wl, n, repeat) for n in (sizes or {}).get("library_size", LIBRARY_SIZE[2])]
    out["parse"] = [row for n in (sizes or {}).get("parse", PARSE[1]) for row in _parse_rows(wl, n, repeat)]
    for family, (make, default) in SOLVER_FAMILIES.items():
        out[family] = [_solver_row(k, make(k), repeat) for k in (sizes or {}).get(family, default)]
    return out


def main() -> int:
    print(json.dumps({"python": platform.python_version(), "families": sweep()}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
