"""Command-line interface.

Subcommands: purify, frame, soundness, validate.  Exit codes: 0 on full
success, 1 when some entailment stays stuck or hits the step bound, 2 on
bad input (a FrontendError), an unreadable or unwritable file, or a bad option.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import engine, soundness
from .core import Signature
from .engine import Verdict
from .frontend import (
    FrontendError,
    Program,
    parse_entailments,
    parse_signature,
    parse_strategies,
    print_condition,
    print_entailment,
    print_heap,
)


class _CliError(Exception):
    """Carries already-formatted diagnostics; always maps to exit 2."""


def _read(path: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return _universal_newlines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        lines = _universal_newlines(data[: exc.start].decode("utf-8")).split("\n")
        raise FrontendError(f"invalid UTF-8 byte {data[exc.start]:#04x}", path, len(lines), len(lines[-1]) + 1) from None


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror or exc}") from exc


def _load(ns: argparse.Namespace) -> tuple[Signature, Program]:
    """The signature and the program, its strategy files read in order."""
    sig = parse_signature(_read(ns.sig), ns.sig)
    prog = Program(())
    for path in ns.strategies:
        prog = parse_strategies(_read(path), sig, path, prog)
    return sig, prog


def _load_entailments(ns: argparse.Namespace, sig: Signature) -> list:
    if ns.input is None:
        raise _CliError("an --input file is required")
    return parse_entailments(_read(ns.input), sig, ns.input)


def _emit(ns: argparse.Namespace, text: str) -> None:
    if ns.output is None:
        sys.stdout.write(text)
    else:
        _write(ns.output, text)


def _run(ns: argparse.Namespace) -> int:
    sig, prog = _load(ns)
    if ns.mode == "soundness":
        _emit(ns, "\n".join(print_condition(s.name, soundness.soundness_of(s)) for s in prog.strategies))
        return 0
    if ns.mode == "validate":
        n_ents = 0 if ns.input is None else len(_load_entailments(ns, sig))
        _emit(ns, f"ok: {len(sig.entries)} declarations, {len(prog.strategies)} strategies, {n_ents} entailments\n")
        return 0
    ents = _load_entailments(ns, sig)
    if ns.max_steps < 1:
        raise _CliError("max_steps must be positive")
    traces = [engine.run(prog, e, max_steps=ns.max_steps) for e in ents]

    frame_mode = ns.mode == "frame"
    accepted = (Verdict.PURIFIED, Verdict.FRAME_INFERRED) if frame_mode else (Verdict.PURIFIED,)
    lines: list[str] = []
    ok = 0
    for tr in traces:
        ok += tr.verdict in accepted
        if frame_mode and tr.verdict in accepted:  # a frame is the final antecedent
            lines.append(f"frame: {print_heap(tr.final.lhs)}")
        else:
            lines.append(f"{tr.verdict.value}: {print_entailment(tr.final)}")
    word = "framed" if frame_mode else "purified"
    lines.append(f"{word} {ok}/{len(traces)}")
    _emit(ns, "".join(f"{ln}\n" for ln in lines))

    if ns.trace is not None:
        doc = engine.traces_to_document(traces)
        _write(ns.trace, engine.document_to_json(doc))
    return 0 if ok == len(traces) else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sepstrat",
        description="Purify separation-logic entailments with user-written strategies.",
    )
    sub = ap.add_subparsers(dest="mode", required=True)
    for mode, doc in [
        ("purify", "eliminate all spatial conjuncts from each entailment"),
        ("frame", "purify the consequent and report the leftover antecedent"),
        ("soundness", "emit the soundness condition of every strategy"),
        ("validate", "parse and scope-check a library without running it"),
    ]:
        p = sub.add_parser(mode, help=doc)
        p.add_argument("--sig", required=True, help="signature file (.sig)")
        p.add_argument(
            "--strategies",
            action="append",
            default=[],
            metavar="FILE",
            help="strategy file (.stg); repeatable, concatenated in order",
        )
        p.add_argument("--input", help="entailment file (.sle)")
        p.add_argument("-o", "--output", help="write results here instead of stdout")
        if mode in ("purify", "frame"):
            p.add_argument("--trace", help="write the JSON reduction trace here")
            p.add_argument(
                "--max-steps",
                type=int,
                default=1000,
                help="step bound per entailment (default 1000)",
            )
    return ap


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return _run(ns)
    except (FrontendError, _CliError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
