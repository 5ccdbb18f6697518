"""Soundness condition generation.

For an operation-sequence strategy, the infer checks (as assumptions) and
virtual erase/add pairs (one per pattern) are injected ahead of the real
action.
A left-to-right scan with per-side cancellation yields the six-tuple
(vl_forall, sc, l_minus, l_plus, r_plus, r_minus), from which the condition

    sc && l_minus |-- exists vl_forall, l_plus * (forall v, r_plus -* r_minus)

is assembled, where v collects the variables occurring only in r_plus and
r_minus.  Instantiation strategies need no condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AndA,
    Assertion,
    Emp,
    ExistsA,
    ForallA,
    PureA,
    PureFormula,
    SepConj,
    SoundnessCondition,
    SpatialA,
    SpatialAtom,
    Wand,
    occurring_vars,
)
from .frontend import Item, Strategy

Formula = PureFormula | SpatialAtom


@dataclass(frozen=True, slots=True)
class SoundnessAnalysis:
    vl_forall: tuple[str, ...]
    sc: tuple[PureFormula, ...]
    l_minus: tuple[Formula, ...]
    l_plus: tuple[Formula, ...]
    r_plus: tuple[Formula, ...]
    r_minus: tuple[Formula, ...]
    v: tuple[str, ...]


def inject_virtual_ops(s: Strategy) -> list[Item]:
    """The infer checks, as assumptions, then per-pattern erase/add pairs
    (lefts before rights), then the strategy's own operations."""
    if s.action and s.action[0].keyword == "instantiate":
        raise ValueError("instantiate actions have no operation sequence")
    assumes = [c for c in s.checks if c.keyword == "infer"]
    pairs = []
    for side in ("left", "right"):
        for p in s.patterns:
            if p.side == side:
                pairs += [Item(f"{side}_erase", p.atom.formula), Item(f"{side}_add", p.atom.formula)]
    return assumes + pairs + list(s.action)


def analyze(ops: list[Item]) -> SoundnessAnalysis:
    vl: list[str] = []
    sc: list[PureFormula] = []
    minus: dict[str, list[Formula]] = {"left": [], "right": []}
    plus: dict[str, list[Formula]] = {"left": [], "right": []}
    for op in ops:
        side, _, verb = op.keyword.partition("_")
        if op.keyword == "infer":
            sc.append(op.arg)
        elif op.keyword == "forall_add":
            vl.append(op.arg)
        elif side in plus and verb == "add":
            plus[side].append(op.arg)
        elif verb == "erase":
            if op.arg in plus[side]:
                plus[side].remove(op.arg)
            else:
                minus[side].append(op.arg)
    outside: set[str] = set(vl)
    for f in sc + minus["left"] + plus["left"]:
        outside |= set(occurring_vars(f))
    v: list[str] = []
    for f in plus["right"] + minus["right"]:
        for x in occurring_vars(f):
            if x not in outside and x not in v:
                v.append(x)
    return SoundnessAnalysis(
        vl_forall=tuple(vl),
        sc=tuple(sc),
        l_minus=tuple(minus["left"]),
        l_plus=tuple(plus["left"]),
        r_plus=tuple(plus["right"]),
        r_minus=tuple(minus["right"]),
        v=tuple(v),
    )


def _group(pures: list[PureFormula], spatials: list[SpatialAtom]) -> Assertion:
    """Pure conjuncts first, the spatial part last: p1 && .. && (s1 * .. * sn)."""
    spatial: Assertion
    if not spatials:
        spatial = SpatialA(Emp())
    elif len(spatials) == 1:
        spatial = SpatialA(spatials[0])
    else:
        spatial = SepConj(tuple(SpatialA(a) for a in spatials))
    if not pures:
        return spatial
    parts: list[Assertion] = [PureA(p) for p in pures]
    if spatials:
        parts.append(spatial)
    return parts[0] if len(parts) == 1 else AndA(tuple(parts))


def _group_formulas(fs: tuple[Formula, ...]) -> Assertion:
    pures = [f for f in fs if isinstance(f, PureFormula)]
    spatials = [f for f in fs if isinstance(f, SpatialAtom)]
    return _group(pures, spatials)


def condition_of(a: SoundnessAnalysis) -> SoundnessCondition:
    hypothesis = _group(
        [*a.sc, *(f for f in a.l_minus if isinstance(f, PureFormula))],
        [f for f in a.l_minus if isinstance(f, SpatialAtom)],
    )
    wand: Assertion = Wand(_group_formulas(a.r_plus), _group_formulas(a.r_minus))
    if a.v:
        wand = ForallA(a.v, wand)
    conclusion: Assertion = SepConj((_group_formulas(a.l_plus), wand))
    if a.vl_forall:
        conclusion = ExistsA(a.vl_forall, conclusion)
    bound = set(a.vl_forall) | set(a.v)
    free: list[str] = []
    for x in occurring_vars(hypothesis) + occurring_vars(conclusion):
        if x not in bound and x not in free:
            free.append(x)
    return SoundnessCondition(hypothesis=hypothesis, conclusion=conclusion, free_vars=tuple(free))


def soundness_of(s: Strategy) -> SoundnessCondition | None:
    """None for instantiation strategies, which are sound by construction."""
    if s.action and s.action[0].keyword == "instantiate":
        return None
    return condition_of(analyze(inject_virtual_ops(s)))
