#!/usr/bin/env python3
"""Time each corpus entailment run and check the 100 ms per-goal budget."""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run_corpus import LIBRARIES
from sepstrat.engine import run
from sepstrat.frontend import parse_entailments, parse_signature, parse_strategies


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", type=Path, default=Path(__file__).resolve().parent.parent / "corpus")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per goal (best is kept)")
    ap.add_argument("--budget-ms", type=float, default=100.0)
    args = ap.parse_args(argv)

    timings: list[float] = []
    over_budget = 0
    for lib, inputs in LIBRARIES.items():
        sig = parse_signature((args.corpus / f"{lib}.sig").read_text(), f"{lib}.sig")
        prog = parse_strategies((args.corpus / f"{lib}.stg").read_text(), sig, f"{lib}.stg")
        for name, _ in inputs:
            ents = parse_entailments((args.corpus / name).read_text(), sig, name)
            for i, e in enumerate(ents):
                best = float("inf")
                for _ in range(args.repeat):
                    t0 = time.perf_counter()
                    tr = run(prog, e)
                    best = min(best, time.perf_counter() - t0)
                timings.append(best)
                ms = best * 1000
                flag = "" if ms < args.budget_ms else "  OVER BUDGET"
                over_budget += bool(flag)
                print(f"{name:<24} #{i}  {len(tr.steps):>3} steps  {ms:8.3f} ms{flag}")

    total = sum(timings) * 1000
    print(f"\ntotal {total:.3f} ms over {len(timings)} goals, "
          f"median {statistics.median(timings) * 1000:.3f} ms, "
          f"max {max(timings) * 1000:.3f} ms")
    return 1 if over_budget else 0


if __name__ == "__main__":
    raise SystemExit(main())
