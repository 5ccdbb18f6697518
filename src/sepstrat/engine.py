"""Strategy application and the priority-driven reduction loop.

A step picks the first applicable (strategy, match) pair: strategies ordered
by (priority, declaration index), matches in the matcher's order.  A run
takes its matches from one `MatchStore`, which keeps them across steps.
Checks and the action run per candidate match; a failure moves on to the
next candidate.
Applied steps are never undone.  Traces serialize to a versioned JSON
document and can be replayed against it; replay checks each recorded match
directly, without a store.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from . import smt
from .core import (
    Emp,
    Entailment,
    PureFormula,
    Signature,
    SymbolicHeap,
    Term,
    Var,
    free_vars,
    fresh_name,
    substitute,
    well_formed,
)
from .frontend import (
    Program,
    Strategy,
    parse_entailment,
    parse_term,
    print_entailment,
    print_heap,
    print_node,
)
from .matcher import MatchStore, match_strategy
from .smt import ProofStatus

TRACE_SCHEMA_VERSION = 1


class Verdict(str, Enum):
    PURIFIED = "purified"
    FRAME_INFERRED = "frame_inferred"
    STUCK = "stuck"
    STEP_LIMIT = "step_limit"


class ReplayError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class SideCondition:
    goal: PureFormula
    status: ProofStatus
    strategy: str
    step_index: int


@dataclass(frozen=True, slots=True)
class TraceStep:
    strategy: str
    substitution: tuple[tuple[str, Term], ...]
    side_conditions: tuple[SideCondition, ...]
    entailment_after: Entailment


@dataclass(frozen=True, slots=True)
class ReductionTrace:
    input: Entailment
    steps: tuple[TraceStep, ...]
    verdict: Verdict
    frame: SymbolicHeap | None

    @property
    def final(self) -> Entailment:
        return self.steps[-1].entailment_after if self.steps else self.input


# ---------------------------------------------------------------------------
# Checks


def run_checks(
    s: Strategy, binding: Mapping[str, Term], e: Entailment, contexts: dict | None = None
) -> list[SideCondition] | None:
    """Evaluate the strategy's checks under the binding; None on failure.

    `contexts` is the solver's cache of one `smt.Context` per antecedent
    pures tuple, kept for one run or one trace, and each context keeps its
    answers by goal; without it each query gets a one-shot context."""
    conditions: list[SideCondition] = []
    for c in s.checks:
        f = substitute(c.arg, binding)
        if c.keyword != "infer":  # left_absent, right_absent
            if f in (e.lhs if c.keyword == "left_absent" else e.rhs).pures:
                return None
            continue
        res = smt.infer(e.lhs.pures, f, contexts)
        conditions.append(
            SideCondition(
                goal=f,
                status=res.status,
                strategy=s.name,
                step_index=-1,
            )
        )
        if res.status is not ProofStatus.PROVEN:
            return None
    return conditions


# ---------------------------------------------------------------------------
# Actions


def apply_action(
    s: Strategy, binding: Mapping[str, Term], e: Entailment
) -> tuple[Entailment, dict[str, Term]] | None:
    """Apply the strategy's action under the binding; None on failure.

    Returns the new entailment and the binding extended with the names chosen
    for forall_add/exist_add.  A pre-seeded binding for such a name forces
    that choice (used by trace replay)."""
    sigma = dict(binding)
    if s.action and s.action[0].keyword == "instantiate":
        var, term = s.action[0].arg
        v = sigma.get(var)
        if not isinstance(v, Var) or v.name not in e.existentials:
            return None
        t = substitute(term, sigma)
        fv = free_vars(t)
        if v.name in fv:
            return None
        remaining = tuple(x for x in e.existentials if x != v.name)
        if not fv <= set(e.universals) | set(remaining):
            return None
        rhs = substitute(e.rhs, {v.name: t})
        e2 = Entailment(e.universals, e.lhs, remaining, rhs)
        if not well_formed(e2):
            return None
        return e2, sigma

    lp = list(e.lhs.pures)
    ls = list(e.lhs.spatials)
    rp = list(e.rhs.pures)
    rs = list(e.rhs.spatials)
    universals = list(e.universals)
    existentials = list(e.existentials)

    def current_names() -> set[str]:
        return set(universals).union(existentials, *map(free_vars, lp + ls + rp + rs))

    for op in s.action:
        side, _, verb = op.keyword.partition("_")
        if side in ("left", "right"):
            g = substitute(op.arg, sigma)
            pure = isinstance(g, PureFormula)
            target = (lp if pure else ls) if side == "left" else (rp if pure else rs)
            if verb == "add":
                if not isinstance(g, Emp):
                    target.append(g)
            elif isinstance(g, Emp) or g not in target:
                return None
            else:
                target.remove(g)
            continue
        # forall_add, exist_add
        seeded = sigma.get(op.arg)
        if seeded is not None:
            if not isinstance(seeded, Var):
                return None
            name = seeded.name
            if name in current_names():
                return None
        else:
            avoid = current_names().union(*map(free_vars, sigma.values()))
            name = fresh_name(op.arg, avoid)
            sigma[op.arg] = Var(name)
        (universals if side == "forall" else existentials).append(name)
    e2 = Entailment(
        tuple(universals),
        SymbolicHeap(tuple(lp), tuple(ls)),
        tuple(existentials),
        SymbolicHeap(tuple(rp), tuple(rs)),
    )
    if not well_formed(e2):
        return None
    return e2, sigma


# ---------------------------------------------------------------------------
# The reduction loop


def _ordered(prog: Program) -> list[Strategy]:
    return [s for _, _, s in sorted((s.priority, i, s) for i, s in enumerate(prog.strategies))]


def step(
    prog: Program, e: Entailment, store: MatchStore | None = None, contexts: dict | None = None
) -> TraceStep | None:
    """First applicable strategy application, or None when none applies.

    A run passes its match store, which must be at e, and its solver
    contexts (see `run_checks`).  The store's strategies are tried in its
    order, so prog is read only when no store is given.  A store or
    contexts left out are made for this step."""
    if store is None:
        store = MatchStore(_ordered(prog), e)
    elif store.entailment is not e:
        raise ValueError("the match store is not at the given entailment")
    contexts = {} if contexts is None else contexts
    for s in store.strategies:
        for m in match_strategy(s, e, store):
            conditions = run_checks(s, m.bindings, e, contexts)
            if conditions is None:
                continue
            applied = apply_action(s, m.bindings, e)
            if applied is None:
                continue
            e2, sigma = applied
            return TraceStep(
                strategy=s.name,
                substitution=tuple(sigma.items()),
                side_conditions=tuple(conditions),
                entailment_after=e2,
            )
    return None


def run(prog: Program, e: Entailment, max_steps: int = 1000) -> ReductionTrace:
    """Iterate step up to max_steps times and classify the outcome."""
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if not well_formed(e):
        raise ValueError("input entailment is not well-formed")
    contexts: dict = {}  # the solver's contexts and their answers, shared by every step of this run
    store = MatchStore(_ordered(prog), e)  # every strategy's matches, kept across steps
    steps: list[TraceStep] = []
    cur = e
    while len(steps) < max_steps:
        ts = step(prog, cur, store, contexts)
        if ts is None:
            break
        if ts.side_conditions:
            ts = dataclasses.replace(
                ts,
                side_conditions=tuple(
                    dataclasses.replace(c, step_index=len(steps)) for c in ts.side_conditions
                ),
            )
        steps.append(ts)
        cur = ts.entailment_after
        store.advance(cur)
    purified = not cur.lhs.spatials and not cur.rhs.spatials
    if purified:
        verdict = Verdict.PURIFIED
    elif len(steps) == max_steps and step(prog, cur, store, contexts) is not None:
        verdict = Verdict.STEP_LIMIT
    elif not cur.rhs.spatials:
        verdict = Verdict.FRAME_INFERRED
    else:
        verdict = Verdict.STUCK
    frame = cur.lhs if verdict is Verdict.FRAME_INFERRED else None
    return ReductionTrace(input=e, steps=tuple(steps), verdict=verdict, frame=frame)


# ---------------------------------------------------------------------------
# Trace serialization and replay


def trace_to_dict(trace: ReductionTrace) -> dict:
    return {
        "input": print_entailment(trace.input),
        "steps": [
            {
                "strategy": ts.strategy,
                "substitution": {x: print_node(t) for x, t in ts.substitution},
                "side_conditions": [
                    {"goal": print_node(c.goal), "status": c.status.value} for c in ts.side_conditions
                ],
                "entailment_after": print_entailment(ts.entailment_after),
            }
            for ts in trace.steps
        ],
        "verdict": trace.verdict.value,
        "frame": print_heap(trace.frame) if trace.frame is not None else None,
    }


def traces_to_document(traces: Iterable[ReductionTrace]) -> dict:
    return {
        "schema_version": TRACE_SCHEMA_VERSION,
        "traces": [trace_to_dict(t) for t in traces],
    }


def document_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


_REQUIRED = object()
_JSON_KINDS = {dict: "an object", list: "an array"}


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ReplayError(f"{where}: not a JSON object")
    return value


def _field(obj: dict, key: str, where: str, kind: type | None = None, default=_REQUIRED):
    """obj[key], which must be present unless a default is given and must be
    of `kind` when one is given."""
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise ReplayError(f"{where}: missing {key!r}")
    if kind is not None and not isinstance(value, kind):
        raise ReplayError(f"{where}: {key!r} is not {_JSON_KINDS[kind]}")
    return value


def _matches_at(s: Strategy, binding: Mapping[str, Term], e: Entailment) -> bool:
    """Whether the binding is a match of s's patterns against distinct
    conjunct occurrences of e: one the matcher finds, held back by a
    `*_absent` check or not.  The binding must bind every pattern binder,
    each pattern under it must occur in its list, as often as the patterns
    that instantiate to it, and each `exists` binder must be bound to an
    existential."""
    if not all(b in binding for p in s.patterns for b in p.atom.binders):
        return False
    lists = (e.lhs.pures, e.lhs.spatials, e.rhs.pures, e.rhs.spatials)
    need: Counter = Counter()
    for p in s.patterns:
        f = p.atom.formula
        need[2 * (p.side == "right") + (not isinstance(f, PureFormula)), substitute(f, binding)] += 1
        for b in p.exists_binders:
            t = binding[b]
            if type(t) is not Var or t.name not in e.existentials:
                return False
    return all(lists[li].count(f) >= n for (li, f), n in need.items())


def replay_document(doc: dict, sig: Signature, prog: Program) -> None:
    """Re-execute every step of a trace document; raises ReplayError on any
    divergence from the recorded entailments, substitutions or verdicts, and
    on a document of the wrong shape.

    Each trace's input is parsed once, and each distinct substitution text
    once per call.  A step is checked directly: the recorded substitution
    must match the strategy's patterns at the current entailment, and the
    action, seeded with it, must return it unchanged, with no key added or
    left over.  Every recorded entailment, side condition goal and frame must
    equal the printer's text for what replay computes.  Every side condition
    is solved again, per trace, through one context per hypothesis set.
    Only a verdict that claims no step applies, or that one does, builds a
    match store."""
    _object(doc, "document")
    version = doc.get("schema_version")
    if type(version) is not int or version != TRACE_SCHEMA_VERSION:
        raise ReplayError(f"unsupported schema_version {version!r}")
    terms: dict[str, Term] = {}  # each distinct recorded substitution text, parsed once

    def term(text) -> Term:
        if not isinstance(text, str):
            return parse_term(text, sig)  # only text is memoised
        t = terms.get(text)
        if t is None:
            t = terms[text] = parse_term(text, sig)
        return t

    for t_idx, tr in enumerate(_field(doc, "traces", "document", list, [])):
        tr = _object(tr, f"trace {t_idx}")
        source = _field(tr, "input", f"trace {t_idx}")
        try:
            cur = parse_entailment(source, sig)
        except Exception as exc:
            raise ReplayError(f"trace {t_idx}: cannot parse input: {exc}") from exc
        contexts: dict = {}  # the solver's contexts for this trace
        for s_idx, st in enumerate(_field(tr, "steps", f"trace {t_idx}", list, [])):
            where = f"trace {t_idx} step {s_idx}"
            st = _object(st, where)
            name = _field(st, "strategy", where)
            substitution = _field(st, "substitution", where, dict)
            recorded_after = _field(st, "entailment_after", where)
            s = prog.by_name(name)
            if s is None:
                raise ReplayError(f"{where}: unknown strategy {name!r}")
            try:
                binding = {x: term(text) for x, text in substitution.items()}
            except Exception as exc:
                raise ReplayError(f"{where}: cannot parse recorded step: {exc}") from exc
            if not _matches_at(s, binding, cur):
                raise ReplayError(f"{where}: recorded substitution does not match {s.name}")
            # the pattern binders and the names the action introduces; any
            # other recorded key is left out, so the comparison below sees it
            keys = {b for p in s.patterns for b in p.atom.binders}
            keys.update(op.arg for op in s.action if op.keyword in ("forall_add", "exist_add"))
            seeded = {x: t for x, t in binding.items() if x in keys}
            conditions = run_checks(s, seeded, cur, contexts)
            if conditions is None:
                raise ReplayError(f"{where}: checks of {s.name} no longer pass")
            recorded = _field(st, "side_conditions", where, list, [])
            if len(recorded) != len(conditions):
                raise ReplayError(f"{where}: side condition count differs")
            for rec, got in zip(recorded, conditions):
                rec = _object(rec, where)
                goal = _field(rec, "goal", where)
                if goal != print_node(got.goal) or _field(rec, "status", where) != got.status.value:
                    raise ReplayError(f"{where}: side condition diverges on {goal!r}")
            applied = apply_action(s, seeded, cur)
            if applied is None:
                raise ReplayError(f"{where}: action of {s.name} fails on replay")
            cur, sigma = applied
            if sigma != binding:
                raise ReplayError(f"{where}: recorded substitution differs from the one {s.name} makes")
            got_after = print_entailment(cur)
            if got_after != recorded_after:
                raise ReplayError(
                    f"{where}: entailment diverges:\n  got      {got_after}\n"
                    f"  recorded {recorded_after}"
                )
        _check_verdict(tr, t_idx, prog, cur, contexts)


def _check_verdict(tr: dict, t_idx: int, prog: Program, cur: Entailment, contexts: dict) -> None:
    """The recorded verdict and frame must be what `run` gives a trace that
    ends in cur; only the step bound itself is not recorded."""
    claimed = tr.get("verdict")
    try:
        verdict = Verdict(claimed)
    except ValueError:
        raise ReplayError(f"trace {t_idx}: unknown verdict {claimed!r}") from None
    frame = tr.get("frame")
    if frame is not None and verdict is not Verdict.FRAME_INFERRED:
        raise ReplayError(f"trace {t_idx}: a {verdict.value} trace records a frame")
    claim = f"trace {t_idx}: verdict claims {verdict.value} but"
    spatial_left = bool(cur.lhs.spatials or cur.rhs.spatials)
    match verdict:
        case Verdict.PURIFIED:
            if spatial_left:
                raise ReplayError(f"{claim} spatial conjuncts remain")
        case Verdict.STEP_LIMIT:
            if step(prog, cur, contexts=contexts) is None:
                raise ReplayError(f"{claim} no step applies")
            if not spatial_left:
                raise ReplayError(f"{claim} no spatial conjuncts remain")
        case Verdict.STUCK:
            if not cur.rhs.spatials:
                raise ReplayError(f"{claim} no spatial conjunct is left on the right")
            if step(prog, cur, contexts=contexts) is not None:
                raise ReplayError(f"{claim} a step still applies")
        case Verdict.FRAME_INFERRED:
            if cur.rhs.spatials or not cur.lhs.spatials:
                raise ReplayError(f"{claim} the final shape disagrees")
            if step(prog, cur, contexts=contexts) is not None:
                raise ReplayError(f"{claim} a step still applies")
            if frame != print_heap(cur.lhs):
                raise ReplayError(f"trace {t_idx}: recorded frame differs from the final antecedent")
