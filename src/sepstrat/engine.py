"""Strategy application and the priority-driven reduction loop.

A step picks the first applicable (strategy, match) pair: strategies ordered
by (priority, declaration index), matches in the matcher's order.  A run
takes its matches from one `MatchStore`, which keeps them across steps and
yields only the ready ones: `*_absent` checks are part of the match (see
`matcher`).  The `infer` checks and the action run per candidate match,
from the strategy's compiled plan (`matcher.plan_of`), and the action
reuses the instances the match holds; a failure moves on to the next
candidate.  A candidate whose checks fail is parked in the store until the
antecedent pures change, since until then they would fail again; one whose
action fails stays ready.
Applied steps are never undone.  Traces serialize to a versioned JSON
document and can be replayed against it; replay checks each recorded match
directly, without a store, by `matcher.unready`, through the same plans,
with one solver table and one atom table for the whole document.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _string
from typing import Iterable, Mapping

from . import smt
from .core import (
    Emp,
    Entailment,
    FrontendError,
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
from .matcher import Delta, MatchStore, conjunct_lists, match_strategy, plan_of, unready
from .smt import ProofStatus
from .soundness import scan

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
    """Solve the strategy's `infer` checks under the binding, in order, from
    e's antecedent pures; None once one is not proven.  The `*_absent`
    checks belong to the match, which the matcher decides.

    `contexts` is the solver's cache of one `smt.Context` per antecedent
    pures tuple, kept for one run or one replayed document, and each context
    keeps its answers by goal; without it each query gets a one-shot context."""
    conditions: list[SideCondition] = []
    for build in plan_of(s).infer:
        f = build(binding)
        res = smt.infer(e.lhs.pures, f, contexts)
        conditions.append(SideCondition(f, res.status))
        if res.status is not ProofStatus.PROVEN:
            return None
    return conditions


# ---------------------------------------------------------------------------
# Actions


def apply_action(
    s: Strategy, binding: Mapping[str, Term], e: Entailment, held: list | None = None
) -> tuple[Entailment, dict[str, Term], Delta] | None:
    """Apply the strategy's action under the binding; None on failure.

    Returns the new entailment, reusing each heap no operation touched, the
    binding extended with the names chosen for forall_add/exist_add, and the
    net change as a `Delta`.  A pre-seeded binding for such a name forces
    that choice (used by trace replay).  held, when given, is the match's
    held instances (`Plan.held`), which an operation on one of them reuses.
    The net change is `soundness.scan`'s on the instantiated operations,
    each formula paired with its list number, as for the strategy's
    condition, and each net erase removes the first occurrence of its
    formula left in e.

    e must be well formed, as `run` checks of its input; every step keeps it
    so.  The parser scope-checks every action variable, so the names in use
    are the binders, and the result is well formed when each appended
    conjunct is in scope: a left one among the universals, a right one among
    the universals and existentials.  `instantiate` needs no such check."""
    plan = plan_of(s)
    sigma = dict(binding)
    lists = conjunct_lists(e)
    if plan.instantiate:
        var, build = plan.instantiate
        v = sigma.get(var)
        if not isinstance(v, Var) or v.name not in e.existentials:
            return None
        t = build(sigma)
        remaining = tuple(x for x in e.existentials if x != v.name)
        # t may use the universals and the other existentials only, so not v
        if not free_vars(t) <= set(e.universals) | set(remaining):
            return None
        e2 = Entailment(e.universals, e.lhs, remaining, substitute(e.rhs, {v.name: t}))
        after = conjunct_lists(e2)
        rewritten = tuple((li, p) for li in (2, 3) for p, f in enumerate(after[li]) if f is not lists[li][p])
        return e2, sigma, Delta(rewritten=rewritten)

    binders = None  # the names in use, once an operation introduces one
    ops = []
    for keyword, li, arg, reuse in plan.ops:  # arg: a builder, or the name a forall_add/exist_add binds
        if li is not None:
            ops.append((keyword, (li, arg(sigma) if reuse is None or held is None else held[reuse])))
            continue
        if binders is None:
            binders = {*e.universals, *e.existentials}
        name = sigma.get(arg)
        if name is None:
            name = sigma[arg] = Var(fresh_name(arg, binders))
        elif not isinstance(name, Var) or name.name in binders:
            return None
        binders.add(name.name)
        ops.append((keyword, name.name))
    net = scan(ops)
    erased: tuple[list, ...] = ([], [], [], [])
    added: tuple[list, ...] = ([], [], [], [])
    for li, f in net.l_minus + net.r_minus:
        erased[li].append(f)
    left = (e.universals, net.vl_forall)
    for scope, plus in ((left, net.l_plus), ((*left, e.existentials, net.vl_exists), net.r_plus)):
        for li, f in plus:
            if free_vars(f).difference(*scope):
                return None
            if type(f) is not Emp:  # the unit of *, which no list holds
                added[li].append(f)
    new = list(lists)
    for li, gone in enumerate(erased):
        if gone or added[li]:
            kept = list(lists[li]) if gone else lists[li]
            for f in gone:
                if f not in kept:
                    return None
                kept.remove(f)
            new[li] = (*kept, *added[li])
    lhs = e.lhs if new[0] is lists[0] and new[1] is lists[1] else SymbolicHeap(new[0], new[1])
    rhs = e.rhs if new[2] is lists[2] and new[3] is lists[3] else SymbolicHeap(new[2], new[3])
    delta = Delta(tuple(map(tuple, erased)), tuple(map(tuple, added)))
    return Entailment(e.universals + net.vl_forall, lhs, e.existentials + net.vl_exists, rhs), sigma, delta


# ---------------------------------------------------------------------------
# The reduction loop


def _ordered(prog: Program) -> list[Strategy]:
    return [s for _, _, s in sorted((s.priority, i, s) for i, s in enumerate(prog.strategies))]


def step(
    prog: Program, e: Entailment, store: MatchStore | None = None, contexts: dict | None = None
) -> TraceStep | None:
    """First applicable strategy application, or None when none applies.

    A run passes its match store, which must be at e and which an applied
    step moves to its result, and its solver contexts (see `run_checks`).
    The store's strategies are tried in its order, so prog is read only when
    no store is given, and a match whose checks fail is parked in it.  A
    store or contexts left out are made for this step.  `_verdict` calls it
    once past a run's last step to ask whether one still applies."""
    if store is None:
        store = MatchStore(_ordered(prog), e)
    elif store.entailment is not e:
        raise ValueError("the match store is not at the given entailment")
    contexts = {} if contexts is None else contexts
    for s in store.strategies:
        for m in match_strategy(s, e, store):
            conditions = run_checks(s, m.bindings, e, contexts)
            if conditions is None:
                store.park(s, m)
                continue
            applied = apply_action(s, m.bindings, e, m.held)
            if applied is None:
                continue
            e2, sigma, delta = applied
            store.advance(e2, delta)
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
        steps.append(ts)
        cur = ts.entailment_after
    verdict = _verdict(prog, cur, store, contexts, len(steps) == max_steps)
    frame = cur.lhs if verdict is Verdict.FRAME_INFERRED else None
    return ReductionTrace(input=e, steps=tuple(steps), verdict=verdict, frame=frame)


def _verdict(prog: Program, e: Entailment, store: MatchStore | None, contexts: dict, may_step: bool) -> Verdict:
    """The verdict of a run that ends at e: purified when no spatial conjunct
    is left; else step_limit when may_step, the run having used its bound,
    and a step still applies; else frame_inferred when the right side has no
    spatial conjunct, stuck when it has."""
    if not e.lhs.spatials and not e.rhs.spatials:
        return Verdict.PURIFIED
    if may_step and step(prog, e, store, contexts) is not None:
        return Verdict.STEP_LIMIT
    return Verdict.STUCK if e.rhs.spatials else Verdict.FRAME_INFERRED


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
    """`json.dumps(doc, indent=2)` and a newline, byte for byte, for a
    document of dicts with string keys, lists, strings, integers and None.
    `indent` makes `json` use its pure-Python encoder; this writer puts the
    same text together around `json`'s C string encoder."""
    out: list[str] = []
    _write(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, put) -> None:
    """Put value's JSON text, where newline starts a line at its depth."""
    cls = type(value)
    if cls is str:
        put(_string(value))
    elif cls is dict or cls is list:
        if not value:
            put("{}" if cls is dict else "[]")
            return
        inner = newline + "  "
        sep = ("{" if cls is dict else "[") + inner
        for k, v in value.items() if cls is dict else enumerate(value):
            head = sep + _string(k) + ": " if cls is dict else sep
            if type(v) is str:
                put(head + _string(v))
            else:
                put(head)
                _write(v, inner, put)
            sep = "," + inner
        put(newline + ("}" if cls is dict else "]"))
    elif value is None:
        put("null")
    elif cls is int:
        put(int.__repr__(value))
    else:
        raise TypeError(f"cannot write a {cls.__name__} into a trace document")


_REQUIRED = object()
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _object(value, where: str = "") -> dict:
    if not isinstance(value, dict):
        raise ReplayError(f"{where}not a JSON object")
    return value


def _field(obj: dict, key: str, kind: type | None = None, default=_REQUIRED, where: str = ""):
    """obj[key], which must be present unless a default is given and must be
    of `kind` when one is given.  where prefixes the error; a step's errors
    take theirs from the loop that replays it."""
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise ReplayError(f"{where}missing {key!r}")
    if kind is not None and not isinstance(value, kind):
        raise ReplayError(f"{where}{key!r} is not {_JSON_KINDS[kind]}")
    return value


def replay_document(doc: dict, sig: Signature, prog: Program) -> None:
    """Re-execute every step of a trace document; raises ReplayError on any
    divergence from the recorded entailments, substitutions or verdicts, and
    on a document of the wrong shape.

    Each trace's input is parsed once, and each distinct substitution text
    once per call, both through tables kept for the call; each strategy is
    compiled once (`matcher.plan_of`).  A step is checked directly: the
    recorded substitution must be a ready match at the current entailment
    (`matcher.unready`), and the action, seeded with it and reusing the
    instances that check built, must return it unchanged, with no key added
    or left over.  Every recorded entailment, side condition goal and frame
    must equal the printer's text for what replay computes.  Every side
    condition is solved again, through one context per hypothesis set for
    the whole call, whose kept answers are those a fresh context gives.
    Only a trace whose last entailment keeps a spatial conjunct builds a
    match store, to ask whether a step still applies."""
    _object(doc, "document: ")
    version = doc.get("schema_version")
    if type(version) is not int or version != TRACE_SCHEMA_VERSION:
        raise ReplayError(f"unsupported schema_version {version!r}")
    terms: dict[str, Term] = {}  # each distinct recorded substitution text, parsed once
    atoms: dict = {}  # the inputs' parsed call atoms (see `parse_entailment`)
    contexts: dict = {}  # the solver's contexts, shared by every trace and verdict check

    def term(x: str, text) -> Term:
        if not isinstance(text, str):
            raise ReplayError(f"cannot parse recorded step: the value of {x!r} is not a string")
        t = terms.get(text)
        if t is None:
            try:
                t = terms[text] = parse_term(text, sig)
            except FrontendError as exc:
                raise ReplayError(f"cannot parse recorded step: {exc}") from exc
        return t

    for t_idx, tr in enumerate(_field(doc, "traces", list, [], "document: ")):
        where = f"trace {t_idx}: "
        tr = _object(tr, where)
        source = _field(tr, "input", str, where=where)
        try:
            cur = parse_entailment(source, sig, atoms=atoms)
        except FrontendError as exc:
            raise ReplayError(f"{where}cannot parse input: {exc}") from exc
        for s_idx, st in enumerate(_field(tr, "steps", list, [], where)):
            try:
                st = _object(st)
                name = _field(st, "strategy")
                substitution = _field(st, "substitution", dict)
                recorded_after = _field(st, "entailment_after")
                s = prog.by_name(name)
                if s is None:
                    raise ReplayError(f"unknown strategy {name!r}")
                try:
                    binding = {x: terms[text] for x, text in substitution.items()}
                except (KeyError, TypeError):  # a text not parsed yet, or not a string
                    binding = {x: term(x, text) for x, text in substitution.items()}
                plan = plan_of(s)
                held = plan.held(binding)
                why = unready(plan, binding, cur, held)
                if why in ("patterns", "exists"):
                    raise ReplayError(f"recorded substitution does not match {s.name}")
                # any other recorded key is left out, so the comparison below sees it
                seeded = {x: t for x, t in binding.items() if x in plan.keys}
                conditions = None if why else run_checks(s, seeded, cur, contexts)
                if conditions is None:
                    raise ReplayError(f"checks of {s.name} no longer pass")
                recorded = _field(st, "side_conditions", list, [])
                if len(recorded) != len(conditions):
                    raise ReplayError("side condition count differs")
                for rec, got in zip(recorded, conditions):
                    rec = _object(rec)
                    goal = _field(rec, "goal")
                    if goal != print_node(got.goal) or _field(rec, "status") != got.status.value:
                        raise ReplayError(f"side condition diverges on {goal!r}")
                applied = apply_action(s, seeded, cur, held)
                if applied is None:
                    raise ReplayError(f"action of {s.name} fails on replay")
                cur, sigma, _ = applied
                if sigma != binding:
                    raise ReplayError(f"recorded substitution differs from the one {s.name} makes")
                got_after = print_entailment(cur)
                if got_after != recorded_after:
                    raise ReplayError(f"entailment diverges:\n  got      {got_after}\n  recorded {recorded_after}")
            except ReplayError as exc:
                raise ReplayError(f"trace {t_idx} step {s_idx}: {exc}") from exc.__cause__
        _check_verdict(tr, t_idx, prog, cur, contexts)


def _check_verdict(tr: dict, t_idx: int, prog: Program, cur: Entailment, contexts: dict) -> None:
    """The recorded verdict must be the one `_verdict` gives a trace that ends
    in cur and may still step, since the step bound is not recorded; so a
    purified trace cut short still replays.  The frame must be recorded
    exactly for frame_inferred, as the printer's text for cur's antecedent."""
    claimed = tr.get("verdict")
    try:
        verdict = Verdict(claimed)
    except ValueError:
        raise ReplayError(f"trace {t_idx}: unknown verdict {claimed!r}") from None
    frame = tr.get("frame")
    if frame is not None and verdict is not Verdict.FRAME_INFERRED:
        raise ReplayError(f"trace {t_idx}: a {verdict.value} trace records a frame")
    got = _verdict(prog, cur, None, contexts, True)
    if got is not verdict:
        raise ReplayError(f"trace {t_idx}: verdict claims {verdict.value} but replay gives {got.value}")
    if verdict is Verdict.FRAME_INFERRED and frame != print_heap(cur.lhs):
        raise ReplayError(f"trace {t_idx}: recorded frame differs from the final antecedent")
