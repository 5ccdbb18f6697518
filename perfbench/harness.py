"""One pass of a workload through the public API, and the correctness gate.

A pass does what `sepstrat frame --trace` does with one input file: parse
the batch, run every goal, build the report lines and the trace JSON; then
it checks the trace the way a user would, with `replay_document`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from sepstrat import engine, frontend
from sepstrat.core import Signature
from sepstrat.frontend import Program

import spans
from workloads import Batch

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


@dataclass(frozen=True, slots=True)
class Library:
    sig: Signature
    prog: Program


def load_library(name: str) -> Library:
    sig = frontend.parse_signature((CORPUS / f"{name}.sig").read_text(), f"{name}.sig")
    prog = frontend.parse_strategies((CORPUS / f"{name}.stg").read_text(), sig, f"{name}.stg")
    return Library(sig, prog)


def setup_seconds(name: str, repeats: int) -> list[float]:
    """Times of parse_signature + parse_strategies for the library, which is
    what every CLI run pays before its first goal."""
    sig_text = (CORPUS / f"{name}.sig").read_text()
    stg_text = (CORPUS / f"{name}.stg").read_text()
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        sig = frontend.parse_signature(sig_text, f"{name}.sig")
        frontend.parse_strategies(stg_text, sig, f"{name}.stg")
        times.append(perf_counter() - t0)
    return times


@dataclass
class PassResult:
    batch_s: float
    replay_s: float
    goal_s: list[float]
    verdicts: list[str]
    steps: int
    trace_bytes: int
    trace_sha256: str  # the JSON itself is dropped, so memory does not grow with passes
    failures: dict[int, str] = field(default_factory=dict)  # goal index -> first failure
    layers: dict[str, float] | None = None


def _report_lines(traces: list) -> list[str]:
    """The lines `sepstrat frame` prints for these traces."""
    accepted = (engine.Verdict.PURIFIED, engine.Verdict.FRAME_INFERRED)
    lines = []
    for tr in traces:
        if tr.verdict in accepted:
            heap = tr.frame if tr.frame is not None else tr.final.lhs
            lines.append(f"frame: {frontend.print_heap(heap)}")
        else:
            lines.append(f"{tr.verdict.value}: {frontend.print_entailment(tr.final)}")
    ok = sum(tr.verdict in accepted for tr in traces)
    lines.append(f"framed {ok}/{len(traces)}")
    return lines


def run_pass(batch: Batch, lib: Library, tracer: spans.Tracer | None = None) -> PassResult:
    """Run the batch once.  With a tracer, every layer call is a span and the
    result carries the per-layer metrics of this pass."""

    def phase(name: str, goal: int | None = None):
        return tracer.span(name, goal) if tracer is not None else contextlib.nullcontext()

    text = batch.text
    failures: dict[int, str] = {}
    with spans.instrument(tracer) if tracer is not None else contextlib.nullcontext():
        t0 = perf_counter()
        ents = frontend.parse_entailments(text, lib.sig, f"{batch.workload}.sle")
        ran = []  # (goal index, trace) of every goal whose run returned
        goal_s = []
        for g, e in enumerate(ents):
            with phase(spans.GOAL, g):
                g0 = perf_counter()
                try:
                    tr = engine.run(lib.prog, e)
                except Exception as exc:  # counted against fail_rate; the batch goes on
                    failures[g] = f"run raised {exc!r}"
                    continue
                goal_s.append(perf_counter() - g0)
            ran.append((g, tr))
        traces = [tr for _, tr in ran]
        verdicts = [tr.verdict.value for tr in traces]
        _report_lines(traces)  # built as the CLI builds them; part of the batch cost
        with phase(spans.SERIALISE):
            doc = engine.traces_to_document(traces)
            trace_json = engine.document_to_json(doc)
        batch_s = perf_counter() - t0

        r0 = perf_counter()
        with phase(spans.REPLAY):
            replay_ok = _replays(doc, lib)
        replay_s = perf_counter() - r0
    for g, tr in ran:
        if tr.verdict.value != batch.goals[g].expected:
            failures.setdefault(g, f"verdict {tr.verdict.value}, expected {batch.goals[g].expected}")
    if not replay_ok:
        for g in _replay_each(doc, lib, [g for g, _ in ran]):
            failures.setdefault(g, "replay rejected its trace")
    result = PassResult(
        batch_s=batch_s,
        replay_s=replay_s,
        goal_s=goal_s,
        verdicts=verdicts,
        steps=sum(len(tr.steps) for tr in traces),
        trace_bytes=len(trace_json.encode()),
        trace_sha256=hashlib.sha256(trace_json.encode()).hexdigest(),
        failures=failures,
    )
    if tracer is not None:
        result.layers = spans.layer_metrics(tracer.spans)
        result.layers["frontend.parse_chars_per_s"] = len(text) / result.layers["frontend.parse_s"]
    return result


def _replays(doc: dict, lib: Library) -> bool:
    try:
        engine.replay_document(doc, lib.sig, lib.prog)
    except Exception:  # a rejected or crashing replay both count against fail_rate
        return False
    return True


def _replay_each(doc: dict, lib: Library, goal_ids: list[int]) -> list[int]:
    """The goals whose trace fails replay on its own; all of them when the
    document fails but no single trace does."""
    failed = []
    for g, tr in zip(goal_ids, doc["traces"]):
        if not _replays({"schema_version": doc["schema_version"], "traces": [tr]}, lib):
            failed.append(g)
    return failed or goal_ids


def corpus_smoke() -> bool:
    """The shipped corpus lands on scripts/run_corpus.py's expected verdicts."""
    path = ROOT / "scripts" / "run_corpus.py"
    spec = importlib.util.spec_from_file_location("run_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with contextlib.redirect_stdout(io.StringIO()):
        return module.main(["--corpus", str(CORPUS)]) == 0
