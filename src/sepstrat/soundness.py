"""Soundness condition generation, and the operation scan it shares with
the engine.

`scan` is the one rule for the net effect of an operation list: an erase
cancels the latest earlier add of the same formula on its side, and is
otherwise a net erase.  `engine.apply_action` scans a step's substituted
operations.  `analyze` scans a strategy's operations after the infer checks
(as assumptions) and virtual erase/add pairs (one per pattern), and so
yields the six-tuple (vl_forall, sc, l_minus, l_plus, r_plus, r_minus) from
which the condition

    sc && l_minus |-- exists vl_forall, l_plus * (forall v, r_plus -* r_minus)

is assembled, where v collects the variables occurring only in r_plus and
r_minus.  Instantiation strategies need no condition.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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


class SoundnessAnalysis(NamedTuple):
    """An operation list's net effect as `scan` finds it (minus: erased and
    not added first, plus: added and not erased again), and the wand's
    variables v, which `analyze` fills in."""

    vl_forall: tuple[str, ...]
    sc: tuple[PureFormula, ...]
    l_minus: tuple[Formula, ...]
    l_plus: tuple[Formula, ...]
    r_plus: tuple[Formula, ...]
    r_minus: tuple[Formula, ...]
    v: tuple[str, ...] = ()
    vl_exists: tuple[str, ...] = ()


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


def scan(ops: Iterable[tuple[str, object]]) -> SoundnessAnalysis:
    """The net effect of ops, (keyword, arg) pairs such as `Item`s, read
    left to right: an erase cancels the latest earlier add of the same
    formula on its side, and is otherwise a net erase.  Each list keeps
    operation order.  `*_absent` checks and `instantiate` contribute
    nothing."""
    sc: list[PureFormula] = []
    names: tuple[list[str], list[str]] = ([], [])  # forall_add, exist_add
    minus: tuple[list[Formula], list[Formula]] = ([], [])
    plus: tuple[list[Formula], list[Formula]] = ([], [])
    for keyword, arg in ops:
        side, _, verb = keyword.partition("_")
        if side == "infer":
            sc.append(arg)
        elif side in ("forall", "exist"):
            names[side == "exist"].append(arg)
        elif verb == "add":
            plus[side == "right"].append(arg)
        elif verb == "erase":
            added = plus[side == "right"]
            if arg in added:
                del added[max(i for i, f in enumerate(added) if f == arg)]
            else:
                minus[side == "right"].append(arg)
    (l_minus, r_minus), (l_plus, r_plus) = minus, plus
    return SoundnessAnalysis(
        tuple(names[0]), tuple(sc), tuple(l_minus), tuple(l_plus), tuple(r_plus), tuple(r_minus), (), tuple(names[1])
    )


def analyze(ops: list[Item]) -> SoundnessAnalysis:
    a = scan(ops)
    outside = set(a.vl_forall).union(*map(occurring_vars, a.sc + a.l_minus + a.l_plus))
    return a._replace(v=_vars_outside(a.r_plus + a.r_minus, outside))


def _vars_outside(nodes: tuple, bound: set[str]) -> tuple[str, ...]:
    """The variables of nodes in first-occurrence order, less bound."""
    occurring = dict.fromkeys(x for f in nodes for x in occurring_vars(f))
    return tuple(x for x in occurring if x not in bound)


def _group(fs: tuple[Formula, ...]) -> Assertion:
    """Pure conjuncts first, the spatial part last: p1 && .. && (s1 * .. * sn)."""
    pures = [f for f in fs if isinstance(f, PureFormula)]
    spatials = [f for f in fs if isinstance(f, SpatialAtom)]
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


def condition_of(a: SoundnessAnalysis) -> SoundnessCondition:
    hypothesis = _group(a.sc + a.l_minus)
    wand: Assertion = Wand(_group(a.r_plus), _group(a.r_minus))
    if a.v:
        wand = ForallA(a.v, wand)
    conclusion: Assertion = SepConj((_group(a.l_plus), wand))
    if a.vl_forall:
        conclusion = ExistsA(a.vl_forall, conclusion)
    free = _vars_outside((hypothesis, conclusion), set(a.vl_forall) | set(a.v))
    return SoundnessCondition(hypothesis=hypothesis, conclusion=conclusion, free_vars=free)


def soundness_of(s: Strategy) -> SoundnessCondition | None:
    """None for instantiation strategies, which are sound by construction."""
    if s.action and s.action[0].keyword == "instantiate":
        return None
    return condition_of(analyze(inject_virtual_ops(s)))
