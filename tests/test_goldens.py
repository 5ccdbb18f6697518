"""Byte goldens for what the CLI and the printers produce on the corpus.

For each `corpus/*.sle` input, `sepstrat frame --trace` stdout and trace JSON;
for each corpus library, `print_program` of its parsed strategies.  Any
change to the bytes is a change to the CLI output, the trace format or the
printers, and needs a deliberate regeneration:

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from conftest import CORPUS, GOLDENS, load_library
from sepstrat.cli import main
from sepstrat.frontend import print_program

INPUTS = sorted(p.stem for p in CORPUS.glob("*.sle"))
LIBRARIES = sorted(p.stem for p in CORPUS.glob("*.stg"))


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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS:
            out, trace = _frame(name, Path(tmp))
            (GOLDENS / f"frame_{name}.out").write_bytes(out)
            (GOLDENS / f"frame_{name}.trace.json").write_bytes(trace)
    for lib in LIBRARIES:
        (GOLDENS / f"program_{lib}.stg").write_bytes(_program(lib))
    print(f"wrote {2 * len(INPUTS) + len(LIBRARIES)} goldens to {GOLDENS}", file=sys.stderr)
