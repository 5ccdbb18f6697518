"""Shared oracles and comparison helpers for the test suite."""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator, Mapping

from sepstrat import smt
from sepstrat.core import (
    _KIDS,
    Apply,
    Arith,
    Bin,
    DataAt,
    Emp,
    Entailment,
    Eq,
    FieldAddr,
    IntLit,
    Not,
    PredP,
    PredS,
    PureFormula,
    Rel,
    SymbolicHeap,
    Term,
    TrueF,
    Var,
    free_vars,
    fresh_name,
    rebuild,
    substitute,
    well_formed,
)
from sepstrat.frontend import Strategy
from sepstrat.matcher import PatternSubstitution

# ---------------------------------------------------------------------------
# Entailment comparison modulo conjunct order, binder order, and a bijection
# between existential prefixes (fresh names may differ between runs).


def _heap_counters(h: SymbolicHeap) -> tuple[Counter, Counter]:
    return Counter(h.pures), Counter(h.spatials)


def _rename_heap(h: SymbolicHeap, ren: dict[str, str]) -> SymbolicHeap:
    mapping = {old: Var(new) for old, new in ren.items()}
    return substitute(h, mapping)


def entailments_match(a: Entailment, b: Entailment) -> bool:
    if Counter(a.universals) != Counter(b.universals):
        return False
    if len(a.existentials) != len(b.existentials):
        return False
    if _heap_counters(a.lhs) != _heap_counters(b.lhs):
        return False
    if len(a.existentials) > 6:
        raise ValueError("existential prefix too large for permutation search")
    for perm in itertools.permutations(b.existentials):
        ren = dict(zip(a.existentials, perm))
        if _heap_counters(_rename_heap(a.rhs, ren)) == _heap_counters(b.rhs):
            return True
    return False


# ---------------------------------------------------------------------------
# Reference substitution: a plain walk that rebuilds every node of a term,
# pure formula, spatial atom or heap through `core.rebuild`, independent of
# `core.builder`.  It loops over children rather than use comprehensions, so
# it takes one frame per tree level on every Python version.


def reference_substitute(x, mapping: Mapping[str, Term]):
    if type(x) is Var:
        return mapping.get(x.name, x)
    kids = []
    for name in _KIDS[type(x)]:
        c = getattr(x, name)
        if type(c) is tuple:
            new = []
            for y in c:
                new.append(reference_substitute(y, mapping))
            kids.append(tuple(new))
        else:
            kids.append(reference_substitute(c, mapping))
    return rebuild(x, kids)


# ---------------------------------------------------------------------------
# Independent brute-force matcher: enumerate injective assignments of pattern
# atoms to conjunct occurrences with itertools.product, threading a one-sided
# structural matcher.


def _tmatch(pat: Term, t: Term, binders: frozenset[str], sub: dict[str, Term]) -> bool:
    match pat, t:
        case Var(x), _ if x in binders:
            if x in sub:
                return sub[x] == t
            sub[x] = t
            return True
        case Var(x), Var(y):
            return x == y
        case IntLit(a), IntLit(b):
            return a == b
        case FieldAddr(b1, f1), FieldAddr(b2, f2):
            return f1 == f2 and _tmatch(b1, b2, binders, sub)
        case Apply(f1, a1), Apply(f2, a2):
            return f1 == f2 and len(a1) == len(a2) and all(
                _tmatch(p, q, binders, sub) for p, q in zip(a1, a2)
            )
        case Arith(o1, l1, r1), Arith(o2, l2, r2):
            return o1 == o2 and _tmatch(l1, l2, binders, sub) and _tmatch(r1, r2, binders, sub)
        case _:
            return False


def _fmatch(pat, f, binders: frozenset[str], sub: dict[str, Term]) -> bool:
    match pat, f:
        case TrueF(), TrueF():
            return True
        case Emp(), Emp():
            return True
        case Eq(l1, r1), Eq(l2, r2):
            return _tmatch(l1, l2, binders, sub) and _tmatch(r1, r2, binders, sub)
        case Rel(o1, l1, r1), Rel(o2, l2, r2):
            return o1 == o2 and _tmatch(l1, l2, binders, sub) and _tmatch(r1, r2, binders, sub)
        case Not(p), Not(q):
            return _fmatch(p, q, binders, sub)
        case Bin(o1, l1, r1), Bin(o2, l2, r2):
            return o1 == o2 and _fmatch(l1, l2, binders, sub) and _fmatch(r1, r2, binders, sub)
        case PredP(n1, a1), PredP(n2, a2):
            pass
        case PredS(n1, a1), PredS(n2, a2):
            pass
        case DataAt(l1, r1), DataAt(l2, r2):
            return _tmatch(l1, l2, binders, sub) and _tmatch(r1, r2, binders, sub)
        case _:
            return False
    n1, a1 = pat.name, pat.args
    n2, a2 = f.name, f.args
    return n1 == n2 and len(a1) == len(a2) and all(
        _tmatch(p, q, binders, sub) for p, q in zip(a1, a2)
    )


def brute_match(s: Strategy, e: Entailment) -> list[PatternSubstitution]:
    all_binders = frozenset(b for p in s.patterns for b in p.atom.binders)
    candidate_lists = []
    for p in s.patterns:
        heap = e.lhs if p.side == "left" else e.rhs
        pure = isinstance(p.atom.formula, PureFormula)
        conjs = heap.pures if pure else heap.spatials
        kind = "pure" if pure else "spatial"
        candidate_lists.append(
            [((p.side, kind, i), c) for i, c in enumerate(conjs)]
        )
    out: list[PatternSubstitution] = []
    for choice in itertools.product(*candidate_lists):
        slots = [slot for slot, _ in choice]
        if len(set(slots)) != len(slots):
            continue
        sub: dict[str, Term] = {}
        ok = True
        for p, (_, conj) in zip(s.patterns, choice):
            if not _fmatch(p.atom.formula, conj, all_binders, sub):
                ok = False
                break
        if not ok:
            continue
        exists_ok = True
        for p in s.patterns:
            for b in p.exists_binders:
                t = sub.get(b)
                if not (isinstance(t, Var) and t.name in e.existentials):
                    exists_ok = False
        if not exists_ok:
            continue
        out.append(
            PatternSubstitution(
                bindings=dict(sub),
                used_conjuncts={i: slot for i, (slot, _) in enumerate(choice)},
            )
        )
    return out


# ---------------------------------------------------------------------------
# Reference action: every list rewritten as a whole, the names in use read off
# every conjunct, and the result checked by the full well-formedness walk.  An
# erase cancels the latest conjunct the action appended, when one is equal,
# and otherwise removes the input's first occurrence; `emp` is appended only
# to be cancelled, and dropped at the end.


def reference_apply_action(
    s: Strategy, binding: Mapping[str, Term], e: Entailment
) -> tuple[Entailment, dict[str, Term]] | None:
    sigma = dict(binding)
    if s.action and s.action[0].keyword == "instantiate":
        var, term = s.action[0].arg
        v = sigma.get(var)
        if not isinstance(v, Var) or v.name not in e.existentials:
            return None
        t = reference_substitute(term, sigma)
        fv = free_vars(t)
        if v.name in fv:
            return None
        remaining = tuple(x for x in e.existentials if x != v.name)
        if not fv <= set(e.universals) | set(remaining):
            return None
        e2 = Entailment(e.universals, e.lhs, remaining, reference_substitute(e.rhs, {v.name: t}))
        return (e2, sigma) if well_formed(e2) else None

    # each list holds (conjunct, appended by this action)
    lp, ls, rp, rs = ([(f, False) for f in x] for x in (e.lhs.pures, e.lhs.spatials, e.rhs.pures, e.rhs.spatials))
    universals, existentials = list(e.universals), list(e.existentials)

    def current_names() -> set[str]:
        return set(universals).union(existentials, *(free_vars(f) for f, _ in lp + ls + rp + rs))

    for op in s.action:
        side, _, verb = op.keyword.partition("_")
        if side in ("left", "right"):
            g = reference_substitute(op.arg, sigma)
            pure = isinstance(g, PureFormula)
            target = (lp if pure else ls) if side == "left" else (rp if pure else rs)
            if verb == "add":
                target.append((g, True))
                continue
            mine = [i for i, (f, new) in enumerate(target) if new and f == g]
            theirs = [i for i, (f, new) in enumerate(target) if not new and f == g]
            if not mine and not theirs:
                return None
            del target[mine[-1] if mine else theirs[0]]
            continue
        seeded = sigma.get(op.arg)
        if seeded is not None:
            if not isinstance(seeded, Var) or seeded.name in current_names():
                return None
            name = seeded.name
        else:
            name = fresh_name(op.arg, current_names().union(*map(free_vars, sigma.values())))
            sigma[op.arg] = Var(name)
        (universals if side == "forall" else existentials).append(name)

    def heap(pures: list, spatials: list) -> SymbolicHeap:
        return SymbolicHeap(tuple(f for f, _ in pures), tuple(f for f, _ in spatials if not isinstance(f, Emp)))

    e2 = Entailment(tuple(universals), heap(lp, ls), tuple(existentials), heap(rp, rs))
    return (e2, sigma) if well_formed(e2) else None


# ---------------------------------------------------------------------------
# Reference solver start: a goal atom negated to an equality, disequality or
# predicate asserted with the hypotheses into a fresh closure, its terms
# numbered among theirs, as a one-shot refutation numbers them.  A bound goes
# on from the context's prebuilt state, as in `smt.Context`; either start
# ends in the shared refutation loop.


class ReferenceContext(smt.Context):
    def _refute(self, neg: smt._State) -> str | None:
        if neg.bounds:
            return super()._refute(neg)
        st = self._st
        st = smt._State(st.eqs + neg.eqs, st.diseqs + neg.diseqs, st.bounds + neg.bounds, st.preds + neg.preds)
        cc = smt._CC()
        return smt._exchange(st, cc, [(0, 1)] + smt._closure(st, cc), None)


# ---------------------------------------------------------------------------
# Finite-model evaluation for SMT soundness checks: integer variables over
# [-bound, bound], unary uninterpreted functions into a small carrier.


class _Undefined(Exception):
    pass


def _eval_term(t: Term, env: dict[str, int], fenv: dict) -> int:
    match t:
        case IntLit(v):
            return v
        case Var(x):
            if x not in env:
                raise _Undefined
            return env[x]
        case Apply(f, args):
            vals = tuple(_eval_term(a, env, fenv) for a in args)
            key = (f, vals)
            if key not in fenv:
                raise _Undefined
            return fenv[key]
        case Arith(op, l, r):
            a, b = _eval_term(l, env, fenv), _eval_term(r, env, fenv)
            return {"+": a + b, "-": a - b, "*": a * b}[op]
        case _:
            raise _Undefined


def _eval_pure(p: PureFormula, env: dict[str, int], fenv: dict) -> bool:
    match p:
        case TrueF():
            return True
        case Eq(l, r):
            return _eval_term(l, env, fenv) == _eval_term(r, env, fenv)
        case Rel(op, l, r):
            a, b = _eval_term(l, env, fenv), _eval_term(r, env, fenv)
            return {
                "!=": a != b,
                "<": a < b,
                "<=": a <= b,
                ">": a > b,
                ">=": a >= b,
            }[op]
        case Not(q):
            return not _eval_pure(q, env, fenv)
        case Bin(op, l, r):
            a, b = _eval_pure(l, env, fenv), _eval_pure(r, env, fenv)
            return {
                "&&": a and b,
                "||": a or b,
                "->": (not a) or b,
                "<->": a == b,
            }[op]
        case _:
            raise _Undefined


def _app_arg_terms(x) -> Iterator[tuple[str, Term]]:
    match x:
        case Apply(f, args) if len(args) == 1:
            yield (f, args[0])
            yield from _app_arg_terms(args[0])
        case Apply(_, args):
            for a in args:
                yield from _app_arg_terms(a)
        case Arith(_, l, r) | Eq(l, r) | Rel(_, l, r) | Bin(_, l, r):
            yield from _app_arg_terms(l)
            yield from _app_arg_terms(r)
        case Not(inner):
            yield from _app_arg_terms(inner)
        case _:
            return


def _vars_of(x) -> set[str]:
    return free_vars(x)


def find_grid_countermodel(
    hyps: list[PureFormula],
    goal: PureFormula,
    bound: int = 3,
    carrier: int = 3,
    offset: int = 0,
) -> dict | None:
    """Search assignments where all hypotheses hold but the goal fails.

    Variables range over offset + [-bound, bound].  Unary applications are
    interpreted pointwise: for each variable assignment, every distinct
    argument value gets each carrier value in turn.  Nested applications
    are resolved innermost-first."""
    formulas = list(hyps) + [goal]
    int_vars = sorted(set().union(*(_vars_of(f) for f in formulas)) if formulas else set())
    rng = range(offset - bound, offset + bound + 1)
    for vals in itertools.product(rng, repeat=len(int_vars)):
        env = dict(zip(int_vars, vals))
        for fenv in _enumerate_fenvs(formulas, env, carrier):
            try:
                if all(_eval_pure(h, env, fenv) for h in hyps) and not _eval_pure(
                    goal, env, fenv
                ):
                    return {"env": env, "fenv": fenv}
            except _Undefined:
                continue
    return None


def _enumerate_fenvs(formulas, env: dict[str, int], carrier: int) -> Iterator[dict]:
    apps = []
    for f in formulas:
        apps.extend(_app_arg_terms(f))
    if not apps:
        yield {}
        return

    # Assign carrier values to (function, argument-value) points, innermost
    # applications first; each round grounds at least one more nesting level.
    def expand(fenv: dict) -> Iterator[dict]:
        missing: list[tuple[str, int]] = []
        unresolved = False
        for fname, arg in apps:
            try:
                v = _eval_term(arg, env, fenv)
            except _Undefined:
                unresolved = True
                continue
            if (fname, v) not in fenv and (fname, v) not in missing:
                missing.append((fname, v))
        if not missing:
            if not unresolved:
                yield dict(fenv)
            return
        for combo in itertools.product(range(carrier), repeat=len(missing)):
            ext = dict(fenv)
            ext.update(zip(missing, combo))
            yield from expand(ext)

    yield from expand({})
