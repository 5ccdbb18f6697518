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
    smt_answers.out                 the answer to every `smt.infer` call the
                                    runs above make, then to a fixed-seed
                                    stream of generated solver queries
    replay_rejections.out           the `ReplayError` text, or `accepted`,
                                    of `replay_document` on fixed-seed
                                    one-field mutations of the corpus and
                                    seed-1 perfbench trace documents

Each `.out` file but the last two ends with an `exit: N` line.  The CLI runs in
this process, on the `src/` of the checkout the script belongs to.  An answer
line reads `status reason: hypotheses |= goal`, hypotheses separated by `;`;
the stream reaches every reason, and the file ends with a count of each.

Usage, from the root of a checkout:

    python3 scripts/differential.py OUTDIR
    diff -r OUTDIR_A OUTDIR_B
"""

from __future__ import annotations

import collections
import contextlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "src"))

from sepstrat import cli, engine, frontend, smt  # noqa: E402
from sepstrat.core import Apply, Arith, Bin, Eq, IntLit, Not, Rel, Var  # noqa: E402
from sepstrat.frontend import print_node  # noqa: E402

SEEDS = (1, 7)
STREAM_SEED = 25
STREAM_SIZE = 400


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


# ---------------------------------------------------------------------------
# The generated solver queries: small formulas over x, y, z and the unary
# functions f and g, mostly literals, some with `!`, `&&` and `||`; dense
# linear systems that Fourier-Motzkin cannot eliminate within its budget; and
# one sum with more distinct variables than a closure may hold nodes.


def _term(rng: random.Random, depth: int = 2):
    roll = rng.random()
    if depth == 0 or roll < 0.5:
        return Var(rng.choice("xyz")) if rng.random() < 0.7 else IntLit(rng.randint(-3, 3))
    if roll < 0.7:
        return Apply(rng.choice("fg"), (_term(rng, depth - 1),))
    return Arith(rng.choice("+-*"), _term(rng, depth - 1), _term(rng, depth - 1))


def _formula(rng: random.Random, depth: int = 2):
    roll = rng.random()
    if depth > 0 and roll < 0.15:
        return Not(_formula(rng, depth - 1))
    if depth > 0 and roll < 0.3:
        return Bin(rng.choice(("&&", "&&", "||")), _formula(rng, depth - 1), _formula(rng, depth - 1))
    op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
    l, r = _term(rng), _term(rng)
    return Eq(l, r) if op == "==" else Rel(op, l, r)


def _sum(terms: list):
    """The terms added up as a balanced tree."""
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return Arith("+", _sum(terms[:mid]), _sum(terms[mid:]))


def _dense(rng: random.Random) -> list:
    """Sixteen bounds over six variables, with every coefficient nonzero, that
    one integer point meets, so that only the budget stops the elimination."""
    point = {v: rng.randint(-5, 5) for v in "abcdef"}
    hyps = []
    for _ in range(16):
        coeffs = {v: rng.choice((1, -1, 2, -2, 3, -3)) for v in point}
        lhs = _sum([Arith("*", IntLit(c), Var(v)) for v, c in coeffs.items()])
        value = sum(c * point[v] for v, c in coeffs.items())
        hyps.append(Rel("<=", lhs, IntLit(value + rng.randint(0, 3))))
    return hyps


def _stream() -> list[tuple[list, object]]:
    rng = random.Random(STREAM_SEED)
    queries = []
    for i in range(STREAM_SIZE):
        if i % 40 == 39:
            queries.append((_dense(rng), Rel("<=", Var("a"), Var("b"))))
            continue
        hyps = [_formula(rng) for _ in range(rng.randint(0, 3))]
        goal = rng.choice(hyps) if hyps and rng.random() < 0.3 else _formula(rng)
        queries.append((hyps, goal))
    wide = _sum([Var(f"v{i}") for i in range(smt._MAX_NODES // 2)])
    queries.append(([Eq(wide, IntLit(0))], Rel("<=", Var("v0"), Var("v1"))))
    return queries


def _answer(hyps, goal, res: smt.QueryResult) -> str:
    why = f"{res.status.value} {res.reason}" if res.reason else res.status.value
    return f"{why}: {'; '.join(map(print_node, hyps))} |= {print_node(goal)}\n"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    answers: list[str] = []
    reasons: collections.Counter = collections.Counter()
    infer = smt.infer

    def recording(hyps, goal, contexts=None):
        res = infer(hyps, goal, contexts)
        answers.append(_answer(hyps, goal, res))
        reasons[res.reason or res.status.value] += 1
        return res

    smt.infer = recording
    try:
        documents = _runs(outdir)
        answers.append("# generated queries\n")
        for hyps, goal in _stream():
            recording(hyps, goal)
    finally:
        smt.infer = infer
    answers.append(f"# answers: {', '.join(f'{why} {n}' for why, n in sorted(reasons.items()))}\n")
    (outdir / "smt_answers.out").write_text("".join(answers))
    (outdir / "replay_rejections.out").write_text("".join(_rejections(documents)))
    return 0


# ---------------------------------------------------------------------------
# One-field mutations of trace documents, and what replay says of each.


def _mutations(doc: dict, prog, rng: random.Random):
    """(label, mutated document) pairs: up to two of each kind, at steps or
    traces drawn from rng, each changing one field of a copy of doc."""
    traces = doc["traces"]
    steps = [(t, i) for t, tr in enumerate(traces) for i in range(len(tr["steps"]))]
    fresh = {
        s.name: [op.arg for op in s.action if op.keyword in ("forall_add", "exist_add")] for s in prog.strategies
    }
    names = sorted(s.name for s in prog.strategies)

    def value(st):  # another value of the substitution, or a name bound nowhere
        others = sorted(set(st["substitution"].values()))
        return lambda old: rng.choice([v for v in others if v != old] or ["zz"])

    def named(st):  # the fresh names the step records
        return [x for x in fresh[st["strategy"]] if x in st["substitution"]]

    kinds = {  # kind -> (the steps it applies to, its change of one step)
        "substitution value": (lambda st: st["substitution"], lambda st: _set_one(st["substitution"], rng, value(st))),
        "dropped fresh name": (named, lambda st: st["substitution"].pop(rng.choice(named(st)))),
        "stray key": (lambda st: True, lambda st: st["substitution"].setdefault("stray", "zz")),
        "strategy name": (
            lambda st: True,
            lambda st: st.update(strategy=rng.choice([n for n in names + ["unknown"] if n != st["strategy"]])),
        ),
        "entailment_after": (lambda st: True, lambda st: st.update(entailment_after=st["entailment_after"] + " * emp")),
        "side-condition status": (
            lambda st: st["side_conditions"],
            lambda st: rng.choice(st["side_conditions"]).update(status="unknown"),
        ),
    }
    for kind, (applies, change) in kinds.items():
        chosen = [(t, i) for t, i in steps if applies(traces[t]["steps"][i])]
        for t, i in rng.sample(chosen, min(2, len(chosen))):
            mutant = json.loads(json.dumps(doc))
            change(mutant["traces"][t]["steps"][i])
            yield f"{kind} at trace {t} step {i}", mutant
    for t in rng.sample(range(len(traces)), min(2, len(traces))):
        mutant = json.loads(json.dumps(doc))
        mutant["traces"][t]["verdict"] = rng.choice([v.value for v in engine.Verdict])
        yield f"verdict at trace {t}", mutant


def _set_one(substitution: dict, rng: random.Random, new) -> None:
    x = rng.choice(sorted(substitution))
    substitution[x] = new(substitution[x])


def _rejections(documents: list[tuple[Path, str]]) -> list[str]:
    """One line per mutant of each (trace document, library): what
    `replay_document` says of it, the mutants drawn from one fixed-seed
    stream."""
    rng = random.Random(STREAM_SEED)
    lines = []
    for path, lib in documents:
        sig = frontend.parse_signature((CORPUS / f"{lib}.sig").read_text())
        prog = frontend.parse_strategies((CORPUS / f"{lib}.stg").read_text(), sig)
        for label, mutant in _mutations(json.loads(path.read_text()), prog, rng):
            try:
                engine.replay_document(mutant, sig, prog)
                said = "accepted"
            except engine.ReplayError as exc:
                said = str(exc).replace("\n", "\n    ")
            lines.append(f"{path.name}, {label}: {said}\n")
    return lines


def _runs(outdir: Path) -> list[tuple[Path, str]]:
    """Write the CLI artefacts; return the frame-mode corpus and seed-1
    perfbench trace documents, each with its library."""
    documents = []
    for stg in sorted(CORPUS.glob("*.stg")):
        _capture(outdir / f"soundness_{stg.stem}.out", cli.main, ["soundness", *_library(stg.stem)])
    for sle in sorted(CORPUS.glob("*.sle")):
        for mode in ("purify", "frame"):
            trace = outdir / f"{mode}_{sle.stem}.trace.json"
            args = [mode, *_library(sle.stem.split("_")[0]), "--input", str(sle), "--trace", str(trace)]
            _capture(outdir / f"{mode}_{sle.stem}.out", cli.main, args)
            if mode == "frame":
                documents.append((trace, sle.stem.split("_")[0]))
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
            if seed == 1:
                documents.append((Path(f"{stem}.trace.json"), batch.library))
    return documents


if __name__ == "__main__":
    raise SystemExit(main())
