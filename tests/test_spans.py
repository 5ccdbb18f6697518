"""perfbench's layer spans see every step the engine takes.

perfbench/spans.py times steps by wrapping the module attribute
`engine.step`; this checks that `engine.run` steps through it, so the step
self time and the matcher's useful ratio are measured, not zero.
"""

from __future__ import annotations

from conftest import load_library, load_perfbench
from sepstrat import engine
from sepstrat.engine import Verdict
from sepstrat.frontend import parse_entailments


def test_step_spans_cover_every_run_step():
    spans, workloads = load_perfbench("spans"), load_perfbench("workloads")
    batch = workloads.WORKLOADS["sll"](1)
    sig, prog = load_library(batch.library)
    tracer = spans.Tracer()
    steps = 0
    with spans.instrument(tracer):
        for g, e in enumerate(parse_entailments(batch.text, sig)):
            with tracer.span(spans.GOAL, g):
                steps += len(engine.run(prog, e).steps)
    m = spans.layer_metrics(tracer.spans)
    applied = sum(s.name == spans.STEP and s.outcome == "applied" for s in tracer.spans)
    assert steps > 0 and applied == steps
    assert m["engine.step_self_s"] > 0
    assert 0 < m["matcher.useful_ratio"] <= 1


def test_step_limit_probe_is_one_applied_span():
    # run asks for one step past max_steps to tell STEP_LIMIT from a final
    # shape; that step goes through engine.step, so its span reads "applied"
    # though the trace does not record it
    spans, workloads = load_perfbench("spans"), load_perfbench("workloads")
    batch = workloads.WORKLOADS["sll"](1)
    sig, prog = load_library(batch.library)
    e = parse_entailments(batch.text, sig)[0]
    assert len(engine.run(prog, e).steps) > 2
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        trace = engine.run(prog, e, max_steps=2)
    applied = sum(s.name == spans.STEP and s.outcome == "applied" for s in tracer.spans)
    assert trace.verdict is Verdict.STEP_LIMIT and applied == len(trace.steps) + 1
