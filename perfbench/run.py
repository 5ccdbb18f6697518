#!/usr/bin/env python3
"""Layered benchmark of sepstrat on generated entailment families.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cells --seed 1 --seconds 30 --trace 0

It generates the workload's batch from the seed, times the library set-up,
then runs passes over the batch (parse, run every goal, report lines, trace
JSON, replay) until --seconds have passed, at least two of them.  With
--trace 1 it alternates untraced and traced passes and reports per-layer
figures instead.  Every pass is checked against the known verdicts, replay
and byte-identical trace JSON.  The last line of output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15  # per round, so the samples spread over the whole run

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "goal_ms.p50": "ms",
    "goal_ms.p90": "ms",
    "goals_per_s": "1/s",
    "replay_s": "s",
    "peak_mb": "MB",
    "trace_bytes": "bytes",
    "steps": "count",
}

PER_LAYER = {
    "frontend.parse_s": "s",
    "frontend.parse_chars_per_s": "chars/s",
    "frontend.print_s": "s",
    "frontend.replay_parse_s": "s",
    "matcher.s": "s",
    "matcher.calls": "count",
    "matcher.yielded": "count",
    "matcher.useful_ratio": "ratio",
    "engine.checks_s": "s",
    "engine.checks_calls": "count",
    "engine.checks_rejected": "count",
    "smt.infer_s": "s",
    "smt.infer_calls": "count",
    "smt.infer_distinct": "count",
    "smt.proven": "count",
    "smt.unknown": "count",
    "engine.action_s": "s",
    "engine.action_calls": "count",
    "engine.action_rejected": "count",
    "core.well_formed_s": "s",
    "core.well_formed_calls": "count",
    "engine.step_self_s": "s",
    "engine.serialise_s": "s",
    "engine.replay_exec_s": "s",
    "engine.replay_self_s": "s",
    "bench.trace_overhead": "ratio",
}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("cells", "sll", "arrays"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer figures")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "sepstrat").is_dir() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: no sepstrat sources and corpus under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    import spans
    import workloads

    batch = workloads.WORKLOADS[args.workload](args.seed)
    lib = harness.load_library(batch.library)
    corpus_ok = harness.corpus_smoke()

    plain: list[harness.PassResult] = []
    traced: list[harness.PassResult] = []
    tracer = None
    setup: list[float] = []
    rounds: list[float] = []
    deadline = perf_counter() + args.seconds
    # At least two rounds (the determinism check needs two passes); after
    # that, only rounds expected to end before the deadline.
    while len(rounds) < 2 or perf_counter() + statistics.median(rounds) <= deadline:
        r0 = perf_counter()
        setup += harness.setup_seconds(batch.library, SETUP_REPEATS)
        plain.append(harness.run_pass(batch, lib))
        if args.trace:
            tracer = spans.Tracer()
            traced.append(harness.run_pass(batch, lib, tracer))
        rounds.append(perf_counter() - r0)

    first = plain[0]
    passes = plain + traced
    failed = sum(len(p.failures) for p in passes)
    # The trace JSON holds every step and verdict, so equal digests mean equal runs.
    same_json = all(p.trace_sha256 == first.trace_sha256 for p in passes)
    for p in passes:
        for g, why in sorted(p.failures.items())[:10]:
            print(f"FAIL goal {g}: {why}", file=sys.stderr)
    if not same_json:
        print("FAIL trace JSON differs between passes on one seed", file=sys.stderr)
    if not corpus_ok:
        print("FAIL the shipped corpus missed scripts/run_corpus.py's expected verdicts", file=sys.stderr)

    goal_s = [t for p in plain for t in p.goal_s]
    attempted = len(batch.goals) * len(passes)
    print(
        f"workload {args.workload} seed {args.seed}: {len(batch.goals)} goals, "
        f"{len(plain)} untraced and {len(traced)} traced passes, "
        f"{len(goal_s)} goal samples"
    )
    print(f"fail_rate {failed / attempted:.6f} ratio ({failed}/{attempted})")

    if args.trace:
        values = {
            key: statistics.median(p.layers[key] for p in traced) for key in PER_LAYER if key != "bench.trace_overhead"
        }
        traced_goal_s = [t for p in traced for t in p.goal_s]
        values["bench.trace_overhead"] = statistics.median(traced_goal_s) / statistics.median(goal_s)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write_tsv(out / f"spans-{args.workload}.tsv")
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "batch_s": statistics.median(p.batch_s for p in plain),
            "goal_ms.p50": statistics.median(goal_s) * 1e3,
            "goal_ms.p90": statistics.quantiles(goal_s, n=10)[-1] * 1e3,
            "goals_per_s": len(goal_s) / sum(goal_s),
            "replay_s": statistics.median(p.replay_s for p in plain),
            "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "trace_bytes": first.trace_bytes,
            "steps": first.steps,
        }
        units = END_TO_END
    for key, unit in units.items():
        print(f"{key:<28} {values[key]:>16.6f} {unit}")
    result = {
        "correct": failed == 0 and same_json and corpus_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
