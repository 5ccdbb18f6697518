"""Command-line interface.

Subcommands: purify, frame, soundness, validate.  Exit codes: 0 on full
success, 1 when some entailment stays stuck or hits the step bound, 2 on
parse or validation errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class RunConfig:
    mode: str
    signature_path: str
    strategy_paths: tuple[str, ...] = ()
    input_path: str | None = None
    trace_output_path: str | None = None
    output_path: str | None = None
    max_steps: int = 1000


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


def _load_signature(cfg: RunConfig) -> Signature:
    return parse_signature(_read(cfg.signature_path), cfg.signature_path)


def _load_program(cfg: RunConfig, sig: Signature) -> Program:
    strategies = []
    names: dict[str, str] = {}
    for path in cfg.strategy_paths:
        prog = parse_strategies(_read(path), sig, path)
        for s in prog.strategies:
            if s.name in names:
                raise _CliError(
                    f"{path}: strategy '{s.name}' already defined in {names[s.name]}"
                )
            names[s.name] = path
            strategies.append(s)
    return Program(tuple(strategies))


def _load_entailments(cfg: RunConfig, sig: Signature) -> list:
    if cfg.input_path is None:
        raise _CliError("an --input file is required")
    return parse_entailments(_read(cfg.input_path), sig, cfg.input_path)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        _write(cfg.output_path, text)


def _run_entailments(cfg: RunConfig, *, frame_mode: bool) -> int:
    sig = _load_signature(cfg)
    prog = _load_program(cfg, sig)
    ents = _load_entailments(cfg, sig)
    traces = [engine.run(prog, e, max_steps=cfg.max_steps) for e in ents]

    accepted = (Verdict.PURIFIED, Verdict.FRAME_INFERRED) if frame_mode else (Verdict.PURIFIED,)
    lines: list[str] = []
    ok = 0
    for tr in traces:
        if tr.verdict in accepted:
            ok += 1
        if frame_mode:
            heap = tr.frame if tr.frame is not None else tr.final.lhs
            if tr.verdict in accepted:
                lines.append(f"frame: {print_heap(heap)}")
            else:
                lines.append(f"{tr.verdict.value}: {print_entailment(tr.final)}")
        else:
            lines.append(f"{tr.verdict.value}: {print_entailment(tr.final)}")
    word = "framed" if frame_mode else "purified"
    lines.append(f"{word} {ok}/{len(traces)}")
    _emit(cfg, "".join(f"{ln}\n" for ln in lines))

    if cfg.trace_output_path is not None:
        doc = engine.traces_to_document(traces)
        _write(cfg.trace_output_path, engine.document_to_json(doc))
    return 0 if ok == len(traces) else 1


def cmd_purify(cfg: RunConfig) -> int:
    return _run_entailments(cfg, frame_mode=False)


def cmd_frame(cfg: RunConfig) -> int:
    return _run_entailments(cfg, frame_mode=True)


def cmd_soundness(cfg: RunConfig) -> int:
    sig = _load_signature(cfg)
    prog = _load_program(cfg, sig)
    blocks = [print_condition(s.name, soundness.soundness_of(s)) for s in prog.strategies]
    _emit(cfg, "\n".join(blocks))
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    sig = _load_signature(cfg)
    prog = _load_program(cfg, sig)
    n_ents = 0
    if cfg.input_path is not None:
        n_ents = len(_load_entailments(cfg, sig))
    print(
        f"ok: {len(sig.entries)} declarations, {len(prog.strategies)} strategies, "
        f"{n_ents} entailments"
    )
    return 0


_COMMANDS = {
    "purify": cmd_purify,
    "frame": cmd_frame,
    "soundness": cmd_soundness,
    "validate": cmd_validate,
}


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
    cfg = RunConfig(
        mode=ns.mode,
        signature_path=ns.sig,
        strategy_paths=tuple(ns.strategies),
        input_path=ns.input,
        trace_output_path=getattr(ns, "trace", None),
        output_path=ns.output,
        max_steps=getattr(ns, "max_steps", 1000),
    )
    try:
        return _COMMANDS[cfg.mode](cfg)
    except (FrontendError, _CliError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
