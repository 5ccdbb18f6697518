"""Spans around the calls into each layer, recorded from outside the program.

`instrument` replaces module attributes of `sepstrat` with wrappers that
open and close spans on a `Tracer`, and puts the originals back on exit.
The program's own code is not changed: the engine looks these names up as
module globals at call time, so the wrappers see every call it makes.

A span is (name, start, end, parent, goal, outcome).  Spans nest: the parent
is the innermost span open when the call began.  `layer_metrics` turns one
traced pass into per-layer self times and counts.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter_ns
from typing import Iterator

from sepstrat import engine, frontend, smt

# Phases the benchmark itself opens around each part of a pass.
GOAL = "bench.goal"
SERIALISE = "bench.serialise"
REPLAY = "bench.replay"

MATCH_CALL = "engine.match_strategy"
MATCH_NEXT = "matcher.next"
CHECKS = "engine.run_checks"
INFER = "smt.infer"
ACTION = "engine.apply_action"
WELL_FORMED = "engine.well_formed"
STEP = "engine.step"
PARSE_BATCH = "frontend.parse_entailments"
REPLAY_PARSE = ("engine.parse_entailment", "engine.parse_term")
EXEC = (MATCH_CALL, MATCH_NEXT, CHECKS, ACTION)


class Span:
    __slots__ = ("name", "start", "end", "parent", "goal", "outcome")

    def __init__(self, name: str, start: int, parent: int, goal: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.goal = goal
        self.outcome: object = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; times are perf_counter_ns."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.goal = -1
        self._open: list[int] = [-1]

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append(Span(name, perf_counter_ns(), self._open[-1], self.goal))
        self._open.append(i)
        return i

    def close(self, i: int, outcome: object = None) -> None:
        span = self.spans[i]
        span.end = perf_counter_ns()
        span.outcome = outcome
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, goal: int | None = None) -> Iterator[None]:
        if goal is not None:
            self.goal = goal
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)
            self.goal = -1

    def write_tsv(self, path) -> None:
        with open(path, "w") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\tgoal\toutcome\n")
            for i, s in enumerate(self.spans):
                outcome = "" if s.outcome is None else _outcome_text(s.outcome)
                out.write(f"{i}\t{s.name}\t{s.start}\t{s.end}\t{s.parent}\t{s.goal}\t{outcome}\n")


def _outcome_text(outcome: object) -> str:
    if isinstance(outcome, tuple):  # smt.infer keeps (status, hypotheses, goal)
        return outcome[0]
    return str(outcome)


# ---------------------------------------------------------------------------
# Wrappers


def _wrap(tracer: Tracer, name: str, fn, outcome=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(i, outcome(args, result) if outcome is not None else None)

    return wrapper


class _TimedMatches:
    """Iterates a match_strategy generator, one span per advance."""

    __slots__ = ("_tracer", "_it")

    def __init__(self, tracer: Tracer, it) -> None:
        self._tracer = tracer
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer.open(MATCH_NEXT)
        try:
            item = next(self._it)
        except StopIteration:
            self._tracer.close(i, "end")
            raise
        except BaseException:
            self._tracer.close(i, "error")
            raise
        self._tracer.close(i, "yield")
        return item


def _accepted(args, result) -> str:
    return "rejected" if result is None else "ok"


def _applied(args, result) -> str:
    return "none" if result is None else "applied"


def _infer_outcome(args, result):
    status = "error" if result is None else result.status.value
    return (status, args[0], args[1])


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(module, attribute, replacement) for every traced call site."""
    match_strategy = engine.match_strategy

    @functools.wraps(match_strategy)
    def traced_match_strategy(*args, **kwargs):
        i = tracer.open(MATCH_CALL)
        try:
            it = match_strategy(*args, **kwargs)
        finally:
            tracer.close(i)
        return _TimedMatches(tracer, it)

    patches = [
        (engine, "match_strategy", traced_match_strategy),
        (engine, "step", _wrap(tracer, STEP, engine.step, _applied)),
        (engine, "run_checks", _wrap(tracer, CHECKS, engine.run_checks, _accepted)),
        (engine, "apply_action", _wrap(tracer, ACTION, engine.apply_action, _accepted)),
        (engine, "well_formed", _wrap(tracer, WELL_FORMED, engine.well_formed)),
        (smt, "infer", _wrap(tracer, INFER, smt.infer, _infer_outcome)),
    ]
    for module, prefix in ((engine, "parse_"), (engine, "print_"), (frontend, "parse_")):
        for attr in sorted(vars(module)):
            if attr.startswith(prefix) and callable(getattr(module, attr)):
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                patches.append((module, attr, _wrap(tracer, name, getattr(module, attr))))
    return patches


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route the traced call sites through `tracer`; restore them on exit."""
    saved = []
    try:
        for module, attr, replacement in _patches(tracer):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self times in seconds and counts, split by layer.

    Matcher, checks, solver, action and well-formedness figures cover the
    reduction runs (spans under a goal).  Replay is split into parsing,
    execution (its direct matcher, check and action calls, solver included)
    and the rest."""
    n = len(spans)
    phase = [""] * n
    child_time = [0] * n
    for i, s in enumerate(spans):
        if s.name in (GOAL, SERIALISE, REPLAY):
            phase[i] = s.name
        elif s.parent >= 0:
            phase[i] = phase[s.parent]
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    time_ns: dict[str, int] = {}
    count: dict[str, int] = {}
    infer_keys = set()

    def add(key: str, ns: int) -> None:
        time_ns[key] = time_ns.get(key, 0) + ns
        count[key] = count.get(key, 0) + 1

    for i, s in enumerate(spans):
        p = phase[i]
        d = s.duration
        own = d - child_time[i]
        if p == GOAL:
            if s.name in (MATCH_CALL, MATCH_NEXT):
                add("matcher", d)
                if s.name == MATCH_CALL:
                    add("matcher.calls", 0)
                elif s.outcome == "yield":
                    add("matcher.yielded", 0)
            elif s.name in (CHECKS, ACTION):
                add(s.name, own)
                if s.outcome == "rejected":
                    add(s.name + ".rejected", 0)
            elif s.name == INFER:
                add(INFER, d)
                status, hyps, goal = s.outcome
                infer_keys.add((hyps, goal))
                add(f"smt.{status}", 0)
            elif s.name == WELL_FORMED:
                add(WELL_FORMED, d)
            elif s.name == STEP:
                add(STEP, own)
                if s.outcome == "applied":
                    add("steps", 0)
        elif p == SERIALISE:
            if s.name == SERIALISE:
                add(SERIALISE, own)
            elif s.parent >= 0 and spans[s.parent].name == SERIALISE:
                add("print", d)
        elif p == REPLAY and s.parent >= 0 and spans[s.parent].name == REPLAY:
            if s.name in REPLAY_PARSE:
                add("replay.parse", d)
            elif s.name in EXEC:
                add("replay.exec", d)
        elif s.name == PARSE_BATCH:
            add(PARSE_BATCH, d)
        if s.name == REPLAY:
            add(REPLAY, d)

    def sec(key: str) -> float:
        return time_ns.get(key, 0) / 1e9

    def cnt(key: str) -> int:
        return count.get(key, 0)

    yielded = cnt("matcher.yielded")
    return {
        "frontend.parse_s": sec(PARSE_BATCH),
        "frontend.print_s": sec("print"),
        "frontend.replay_parse_s": sec("replay.parse"),
        "matcher.s": sec("matcher"),
        "matcher.calls": cnt("matcher.calls"),
        "matcher.yielded": yielded,
        "matcher.useful_ratio": cnt("steps") / yielded if yielded else 0.0,
        "engine.checks_s": sec(CHECKS),
        "engine.checks_calls": cnt(CHECKS),
        "engine.checks_rejected": cnt(CHECKS + ".rejected"),
        "smt.infer_s": sec(INFER),
        "smt.infer_calls": cnt(INFER),
        "smt.infer_distinct": len(infer_keys),
        "smt.proven": cnt("smt.proven"),
        "smt.unknown": cnt("smt.unknown"),
        "engine.action_s": sec(ACTION),
        "engine.action_calls": cnt(ACTION),
        "engine.action_rejected": cnt(ACTION + ".rejected"),
        "core.well_formed_s": sec(WELL_FORMED),
        "core.well_formed_calls": cnt(WELL_FORMED),
        "engine.step_self_s": sec(STEP),
        "engine.serialise_s": sec(SERIALISE),
        "engine.replay_exec_s": sec("replay.exec"),
        "engine.replay_self_s": sec(REPLAY) - sec("replay.parse") - sec("replay.exec"),
    }
