"""Byte goldens for what the CLI and the printers produce on the corpus.

For each `corpus/*.sle` input, `sepstrat frame --trace` stdout and trace JSON;
for each corpus library, `print_program` of its parsed strategies; for the
perfbench workloads at two seeds, the sha256 and byte length of the trace JSON
of the whole batch; for the 300 one-token mutants of the corpus, the stderr
of `validate` and `frame`, so that every diagnostic's position and wording is
pinned.  Any change to the bytes is a change to the CLI output,
the trace format, the printers or the rewriting itself, and needs a
deliberate regeneration:

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from conftest import CORPUS, GOLDENS, load_library, load_perfbench
from test_cli import mutant_diagnostics
from sepstrat import engine
from sepstrat.cli import main
from sepstrat.frontend import parse_entailments, print_program

INPUTS = sorted(p.stem for p in CORPUS.glob("*.sle"))
LIBRARIES = sorted(p.stem for p in CORPUS.glob("*.stg"))
PERFBENCH_RUNS = [(w, seed) for w in ("cells", "sll", "arrays") for seed in (1, 7)]


def _frame(name: str, tmp: Path) -> tuple[bytes, bytes]:
    """stdout and trace JSON of `sepstrat frame --trace` on one input."""
    lib = name.split("_")[0]
    out, trace = tmp / "out.txt", tmp / "trace.json"
    main(
        [
            "frame",
            "--sig", str(CORPUS / f"{lib}.sig"),
            "--strategies", str(CORPUS / f"{lib}.stg"),
            "--input", str(CORPUS / f"{name}.sle"),
            "-o", str(out),
            "--trace", str(trace),
        ]
    )
    return out.read_bytes(), trace.read_bytes()


def _program(lib: str) -> bytes:
    return print_program(load_library(lib)[1]).encode()


WORKLOADS = load_perfbench("workloads").WORKLOADS


def _perfbench_trace(workload: str, seed: int) -> str:
    """`<workload> <seed> <sha256> <bytes>` of the batch's trace JSON."""
    batch = WORKLOADS[workload](seed)
    sig, prog = load_library(batch.library)
    ents = parse_entailments(batch.text, sig, f"{workload}.sle")
    doc = engine.traces_to_document(engine.run(prog, e) for e in ents)
    data = engine.document_to_json(doc).encode()
    return f"{workload} {seed} {hashlib.sha256(data).hexdigest()} {len(data)}"


def test_corpus_is_covered():
    assert len(INPUTS) == 6 and LIBRARIES == ["array", "common", "sll"]


@pytest.mark.parametrize("name", INPUTS)
def test_frame_output_and_trace(name, tmp_path):
    out, trace = _frame(name, tmp_path)
    assert out == (GOLDENS / f"frame_{name}.out").read_bytes()
    assert trace == (GOLDENS / f"frame_{name}.trace.json").read_bytes()


@pytest.mark.parametrize("lib", LIBRARIES)
def test_print_program(lib):
    assert _program(lib) == (GOLDENS / f"program_{lib}.stg").read_bytes()


@pytest.mark.parametrize("workload, seed", PERFBENCH_RUNS)
def test_perfbench_trace(workload, seed):
    pinned = {tuple(line.split()[:2]): line for line in (GOLDENS / "perfbench_traces.txt").read_text().splitlines()}
    assert _perfbench_trace(workload, seed) == pinned[workload, str(seed)]


def test_mutant_diagnostics():
    assert mutant_diagnostics().encode() == (GOLDENS / "mutant_diagnostics.txt").read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS:
            out, trace = _frame(name, Path(tmp))
            (GOLDENS / f"frame_{name}.out").write_bytes(out)
            (GOLDENS / f"frame_{name}.trace.json").write_bytes(trace)
    for lib in LIBRARIES:
        (GOLDENS / f"program_{lib}.stg").write_bytes(_program(lib))
    lines = [_perfbench_trace(w, seed) for w, seed in PERFBENCH_RUNS]
    (GOLDENS / "perfbench_traces.txt").write_text("\n".join(lines) + "\n")
    (GOLDENS / "mutant_diagnostics.txt").write_bytes(mutant_diagnostics().encode())
    print(f"wrote {2 * len(INPUTS) + len(LIBRARIES) + 2} goldens to {GOLDENS}", file=sys.stderr)
