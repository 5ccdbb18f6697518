#!/usr/bin/env python3
"""Write every observable output of this checkout into one directory, so
that two checkouts can be compared with `diff -r`.

The artefacts, one file each:

    soundness_<lib>.out             `sepstrat soundness` on each corpus library
    <mode>_<input>.out              `sepstrat purify`/`frame --trace` stdout and
    <mode>_<input>.trace.json       exit code, and the trace, on every corpus .sle
    run_corpus.out                  `scripts/run_corpus.py --show-final`
    perfbench_<wl>_<seed>.out       `sepstrat frame --trace` on the perfbench
    perfbench_<wl>_<seed>.trace.json  cells/sll/arrays batches at seeds 1 and 7

Each `.out` file ends with an `exit: N` line.  The CLI runs in this process,
on the `src/` of the checkout the script belongs to.

Usage, from the root of a checkout:

    python3 scripts/differential.py OUTDIR
    diff -r OUTDIR_A OUTDIR_B
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "src"))

from sepstrat import cli  # noqa: E402

SEEDS = (1, 7)


def _load(name: str, path: Path):
    """A module that is not in a package, imported by path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _capture(out: Path, entry, argv: list[str]) -> None:
    """Write entry(argv)'s stdout, stderr and exit code to out."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = entry(argv)
    out.write_text(f"{stdout.getvalue()}{stderr.getvalue()}exit: {code}\n")


def _library(lib: str) -> list[str]:
    return ["--sig", str(CORPUS / f"{lib}.sig"), "--strategies", str(CORPUS / f"{lib}.stg")]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)

    for stg in sorted(CORPUS.glob("*.stg")):
        _capture(outdir / f"soundness_{stg.stem}.out", cli.main, ["soundness", *_library(stg.stem)])
    for sle in sorted(CORPUS.glob("*.sle")):
        for mode in ("purify", "frame"):
            trace = outdir / f"{mode}_{sle.stem}.trace.json"
            args = [mode, *_library(sle.stem.split("_")[0]), "--input", str(sle), "--trace", str(trace)]
            _capture(outdir / f"{mode}_{sle.stem}.out", cli.main, args)
    run_corpus = _load("run_corpus", ROOT / "scripts" / "run_corpus.py")
    _capture(outdir / "run_corpus.out", run_corpus.main, ["--show-final"])

    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    for name in ("cells", "sll", "arrays"):
        for seed in SEEDS:
            batch = workloads.WORKLOADS[name](seed)
            stem = outdir / f"perfbench_{name}_{seed}"
            sle = stem.with_suffix(".sle")
            sle.write_text(batch.text)
            args = ["frame", *_library(batch.library), "--input", str(sle), "--trace", f"{stem}.trace.json"]
            _capture(stem.with_suffix(".out"), cli.main, args)
            sle.unlink()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
