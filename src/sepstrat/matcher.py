"""First-order syntactic matching of strategy patterns against entailments.

`?x` occurrences bind; bare occurrences must agree with the binding found so
far.  No matching modulo arithmetic or commutativity: nth(i - 0, l) only
matches nth(i - 0, l).  Enumeration is lazy and deterministic: patterns in
declaration order, candidate conjuncts in heap insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import _FIELDS, Entailment, PureFormula, SpatialAtom, Term, Var
from .frontend import Pattern, PatternAtom, Strategy

LEFT = "left"
RIGHT = "right"
PURE = "pure"
SPATIAL = "spatial"


@dataclass(frozen=True, slots=True)
class PatternSubstitution:
    """bindings: pattern variable -> matched term; used_conjuncts: pattern
    index -> (side, kind, conjunct index), injective on occurrences."""

    bindings: dict[str, Term]
    used_conjuncts: dict[int, tuple[str, str, int]]


def _match(pat, target, m: dict[str, Term], binders: frozenset[str]) -> dict[str, Term] | None:
    """Extend m, in place, so that pat under m equals target; None when no
    extension does.  A pattern variable in binders binds at its first
    occurrence; every other node must agree in class, labels and arity.
    Nodes are hash-consed, so `is` compares terms structurally."""
    cls = type(pat)
    if cls is Var:
        name = pat.name
        if name in m:
            return m if m[name] is target else None
        if name in binders:
            m[name] = target
            return m
        return m if pat is target else None
    if type(target) is not cls:
        return None
    for name, kid in _FIELDS[cls]:
        p, t = getattr(pat, name), getattr(target, name)
        if not kid:
            if p != t:
                return None
        elif type(p) is tuple:
            if len(p) != len(t):
                return None
            for a, b in zip(p, t):
                if _match(a, b, m, binders) is None:
                    return None
        elif _match(p, t, m, binders) is None:
            return None
    return m


def match_atom(
    pat: PatternAtom,
    target: PureFormula | SpatialAtom,
    partial: Mapping[str, Term],
) -> dict[str, Term] | None:
    """Match one pattern conjunct against one conjunct occurrence, extending
    the partial binding.  Returns the extended mapping or None."""
    return _match(pat.formula, target, dict(partial), frozenset(pat.binders))


def _candidates(e: Entailment, side: str, kind: str) -> tuple:
    heap = e.lhs if side == LEFT else e.rhs
    return heap.pures if kind == PURE else heap.spatials


def match_strategy(s: Strategy, e: Entailment) -> Iterator[PatternSubstitution]:
    """All substitutions matching the strategy's patterns against distinct
    conjunct occurrences of the entailment, lazily, in deterministic order."""
    patterns: list[Pattern] = list(s.patterns)
    existential_names = set(e.existentials)

    def ok_exists(m: dict[str, Term]) -> bool:
        for p in patterns:
            for b in p.exists_binders:
                t = m.get(b)
                if not (isinstance(t, Var) and t.name in existential_names):
                    return False
        return True

    def go(i: int, m: dict[str, Term], used: dict[int, tuple[str, str, int]]) -> Iterator[PatternSubstitution]:
        if i == len(patterns):
            if ok_exists(m):
                yield PatternSubstitution(dict(m), dict(used))
            return
        p = patterns[i]
        kind = PURE if isinstance(p.atom.formula, PureFormula) else SPATIAL
        occupied = set(used.values())
        for idx, conj in enumerate(_candidates(e, p.side, kind)):
            occ = (p.side, kind, idx)
            if occ in occupied:
                continue
            m2 = match_atom(p.atom, conj, m)
            if m2 is None:
                continue
            used[i] = occ
            yield from go(i + 1, m2, used)
            del used[i]

    return go(0, {}, {})
