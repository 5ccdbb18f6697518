"""First-order syntactic matching of strategy patterns against entailments.

`?x` occurrences bind; bare occurrences must agree with the binding found so
far.  No matching modulo arithmetic or commutativity: nth(i - 0, l) only
matches nth(i - 0, l).  Matches come out in a deterministic order: by the
conjunct occurrence of the first pattern, then of the second, and so on, each
in heap insertion order.

A match is ready to fire when its patterns occur as distinct conjunct
occurrences ("patterns"), its `exists` binders are bound to existentials
("exists") and none of its `left_absent`/`right_absent` formulas is present
("absent").  That is the one readiness rule: a run reads the ready matches
from a store, replay checks a recorded binding with `unready`, and the
engine is left only the `infer` checks.

A `MatchStore` keeps every strategy's matches of one entailment and updates
them as the entailment is rewritten, in the manner of Rete (Forgy 1982) and
TREAT (Miranker 1987).  Each conjunct occurrence carries a serial that
follows its list order.  A step kills the matches that used an erased
occurrence and joins only the new occurrences against the rest, both read
off the step's `Delta`, so its cost follows the size of the change, not of
the heap.  A ready match whose `infer` checks failed is parked, held back
like an absent one, until a step changes the antecedent pures that the
checks are solved against; so a match's checks fail at most once while
those stay as they are.

Each strategy is compiled once into a `Plan` (`plan_of`) that runs and
replays share, with a direct instance builder for every template.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

from .core import _FIELDS, Entailment, PureFormula, Term, Var, builder
from .frontend import Strategy

LEFT = "left"
RIGHT = "right"
PURE = "pure"
SPATIAL = "spatial"

# The four conjunct lists of an entailment, as (side, kind), by list number.
_LISTS = ((LEFT, PURE), (LEFT, SPATIAL), (RIGHT, PURE), (RIGHT, SPATIAL))


def conjunct_lists(e: Entailment) -> tuple[tuple, tuple, tuple, tuple]:
    """The four conjunct lists of e, by list number."""
    return e.lhs.pures, e.lhs.spatials, e.rhs.pures, e.rhs.spatials


class Delta(NamedTuple):
    """A step's net change, per conjunct list by list number: the input's
    conjuncts it erased, each the first occurrence left at the time, and the
    ones it appended, in order, an add that an erase cancels being neither;
    and the (list number, position) of each conjunct that `instantiate`
    rewrote in place."""

    erased: tuple[tuple, ...] = ((), (), (), ())
    added: tuple[tuple, ...] = ((), (), (), ())
    rewritten: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True, slots=True)
class PatternSubstitution:
    """bindings: pattern variable -> matched term; used_conjuncts: pattern
    index -> (side, kind, conjunct index), injective on occurrences, or None
    where it was not asked for (see `MatchStore.matches`)."""

    bindings: dict[str, Term]
    used_conjuncts: dict[int, tuple[str, str, int]] | None


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


def _shape(f) -> tuple:
    """(head, first child) of a conjunct: its class with its first label
    (predicate name or operator), and its first argument."""
    label = first = None
    for name, kid in reversed(_FIELDS[type(f)]):  # so the first of each kind wins
        v = getattr(f, name)
        if not kid:
            label = v
        elif type(v) is not tuple:
            first = v
        elif v:
            first = v[0]
    return (type(f), label), first


class Plan:
    """A strategy compiled once: per pattern its list number, head, formula
    and first argument's variable; the binders in pattern order; the
    `exists` binders; per `*_absent` formula its list and `core.builder`;
    the builders of what a match holds (its patterns' instances, the
    conjuncts it uses, then its absent ones); the `infer` builders; per
    operation its keyword, list number (None for a name it introduces) and
    builder or name, and which held instance it reuses, if its formula is a
    held one over binders only; the `instantiate` variable and builder; and
    `keys`, the binders and introduced names."""

    def __init__(self, s: Strategy) -> None:
        self.pats = []
        for p in s.patterns:
            f = p.atom.formula
            head, a = _shape(f)
            li = 2 * (p.side == RIGHT) + (not isinstance(f, PureFormula))
            self.pats.append((li, head, f, a.name if type(a) is Var else None))
        self.order = tuple(dict.fromkeys(b for p in s.patterns for b in p.atom.binders))
        self.binders = frozenset(self.order)
        self.exists = tuple(b for p in s.patterns for b in p.exists_binders)
        absent = [c for c in s.checks if c.keyword in ("left_absent", "right_absent")]
        self.absent = tuple((2 * (c.keyword == "right_absent"), builder(c.arg)) for c in absent)
        self.builders = tuple(builder(p[2]) for p in self.pats) + tuple(build for _, build in self.absent)
        self.infer = tuple(builder(c.arg) for c in s.checks if c.keyword == "infer")
        held = [p[2] for p in self.pats] + [c.arg for c in absent]
        self.ops = []
        self.instantiate = None
        for keyword, arg in s.action:
            if keyword == "instantiate":
                self.instantiate = arg[0], builder(arg[1])
            elif keyword in ("forall_add", "exist_add"):
                self.ops.append((keyword, None, arg, None))
            else:
                reuse = held.index(arg) if arg in held and arg._fv <= self.binders else None
                li = 2 * keyword.startswith(RIGHT) + (not isinstance(arg, PureFormula))
                self.ops.append((keyword, li, builder(arg), reuse))
        self.keys = self.binders.union(arg for _, li, arg, _ in self.ops if li is None)

    def __reduce__(self):
        # builders are closures, which do not pickle: a pickled strategy compiles again
        return type(None), ()

    def held(self, binding: Mapping[str, Term]) -> list:
        """The instances a match under binding holds."""
        return [build(binding) for build in self.builders]

    def witnessed(self, bindings: Mapping[str, Term], existentials) -> bool:
        """Whether every `exists` binder is bound to one of existentials."""
        return all(type(t := bindings[b]) is Var and t.name in existentials for b in self.exists)


def plan_of(s: Strategy) -> Plan:
    """s's plan, compiled the first time it is asked for and kept on s."""
    if s.compiled is None:
        object.__setattr__(s, "compiled", Plan(s))
    return s.compiled


def unready(plan: Plan, binding: Mapping[str, Term], e: Entailment, held: list | None = None) -> str | None:
    """None when the binding is a ready match of plan's strategy at e, as a
    store at e yields; else the first condition it fails, by name.  held is
    `plan.held(binding)`, when the caller has it."""
    if not plan.binders <= binding.keys():
        return "patterns"
    held = plan.held(binding) if held is None else held
    lists = conjunct_lists(e)
    need = [(p[0], f) for p, f in zip(plan.pats, held)]
    if any(lists[li].count(f) < need.count((li, f)) for li, f in need):
        return "patterns"
    if not plan.witnessed(binding, e.existentials):
        return "exists"
    if any(f in lists[li] for (li, _), f in zip(plan.absent, held[len(need) :])):
        return "absent"
    return None


class _Match:
    __slots__ = ("key", "bindings", "held", "absent", "blocks")

    def __init__(self, key: tuple, bindings: dict[str, Term], held: list, absent: tuple, blocks: int) -> None:
        self.key = key
        self.bindings = bindings
        self.held = held  # as `Plan.held` gives them
        self.absent = absent  # distinct (list number, formula) pairs
        self.blocks = blocks  # how many of them are present, plus one while parked


class MatchStore:
    """The complete matches of each strategy against one entailment, kept up
    to date by `advance` from each step's `Delta`.

    A strategy's matches are found the first time they are asked for and
    kept from then on.  A match is keyed by the serials of the occurrences it
    uses, so sorting the keys gives the matcher's order.  A match that fails
    "exists" is not kept: only rewriting a conjunct it uses, as `instantiate`
    does, could change that.  One that fails "absent" is held back until its
    formula is erased, and one that `park` takes until list 0, the
    antecedent pures, changes.  A held match's `blocks` counts its reasons:
    its present absent formulas, plus one while parked."""

    def __init__(self, strategies, e: Entailment) -> None:
        self.entailment = e
        self.strategies = tuple(strategies)  # in the order they are tried
        self._number = {id(s): si for si, s in enumerate(self.strategies)}
        n = len(self.strategies)
        self._plans: list[Plan | None] = [None] * n  # None until first asked for
        self._listeners: dict[tuple, list[tuple[int, int]]] = {}  # (list, head) -> patterns
        self._matches: list[dict[tuple, _Match]] = [{} for _ in range(n)]
        self._ready: list[list[tuple]] = [[] for _ in range(n)]  # unblocked keys, sorted
        self._users: dict[int, set] = {}  # serial -> matches using it
        self._watch: dict[tuple, set] = {}  # (list number, formula) -> matches
        self._present: Counter[tuple] = Counter()  # (list number, pure) -> occurrences
        self._occ: dict[int, tuple] = {}  # serial -> (list number, conjunct, head, first child)
        # (list number, head) and (list number, head, first child) -> serials
        self._buckets: dict[tuple, set[int]] = {}
        self._serials: list[list[int]] = [[], [], [], []]  # ascending, in list order
        self._next = 0
        self._parked: list[tuple[int, _Match]] = []  # (strategy, match) parked since list 0 last changed
        self.advance(e, Delta(added=conjunct_lists(e)))  # from the empty entailment

    # -- keeping up with the entailment

    def advance(self, e: Entailment, delta: Delta) -> None:
        """Move the store to e, which delta makes of the current entailment.
        An erased occurrence dies, an appended one gets a new, higher serial,
        and a rewritten one keeps its serial."""
        old = conjunct_lists(self.entailment)
        self.entailment = e
        dead: list[int] = []
        born: list[tuple[int, int, object]] = []
        for li, gone in enumerate(delta.erased):
            left = list(old[li]) if gone else []  # the input's occurrences not yet erased
            for f in gone:
                p = left.index(f)
                del left[p]
                dead.append(self._serials[li].pop(p))
        for li, added in enumerate(delta.added):
            for f in added:
                self._serials[li].append(self._next)
                born.append((li, self._next, f))
                self._next += 1
        if delta.rewritten:
            after = conjunct_lists(e)
            for li, p in delta.rewritten:
                s = self._serials[li][p]
                dead.append(s)
                born.append((li, s, after[li][p]))
        for s in dead:
            li, f, head, arg = self._occ.pop(s)
            self._buckets[li, head].discard(s)
            self._buckets[li, head, arg].discard(s)
            for key in list(self._users.pop(s, ())):
                self._kill(*key)
            if li in (0, 2):
                self._count((li, f), -1)
        for li, s, f in born:
            head, arg = _shape(f)
            self._occ[s] = (li, f, head, arg)
            self._buckets.setdefault((li, head), set()).add(s)
            self._buckets.setdefault((li, head, arg), set()).add(s)
            if li in (0, 2):
                self._count((li, f), 1)
        new = {s for _, s, _ in born}
        for li, s, f in born:
            for si, i in self._listeners.get((li, self._occ[s][2]), ()):
                self._join(si, i, s, f, new)
        if self._parked and (delta.erased[0] or delta.added[0]):
            # the antecedent pures changed, so a parked match's checks may now
            # pass; one killed since it was parked is gone from _matches, and
            # an instantiate rewrite records a new match under the same key
            for si, m in self._parked:
                if self._matches[si].get(m.key) is m:
                    m.blocks -= 1
                    if not m.blocks:
                        self._set_ready(si, m.key, True)
            self._parked = []

    def park(self, s: Strategy, m: _Match) -> None:
        """Hold back m, a ready match of s whose `infer` checks fail, until
        the antecedent pures change: the checks read only those and m's
        bindings, and the solver gives a goal the same answer every time."""
        si = self._number[id(s)]
        m.blocks += 1
        self._set_ready(si, m.key, False)
        self._parked.append((si, m))

    def _count(self, a: tuple, d: int) -> None:
        """Add d to the occurrences of pure a; a match is held back while any
        of its absent formulas occurs."""
        self._present[a] += d
        if self._present[a] == (d > 0):  # a appeared or disappeared
            for si, key in self._watch.get(a, ()):
                m = self._matches[si][key]
                m.blocks += d
                if m.blocks == (d > 0):
                    self._set_ready(si, key, d < 0)

    def _kill(self, si: int, key: tuple) -> None:
        m = self._matches[si].pop(key)
        if not m.blocks:
            self._set_ready(si, key, False)
        for s in key:
            self._users.get(s, set()).discard((si, key))
        for a in m.absent:
            self._watch[a].discard((si, key))

    def _set_ready(self, si: int, key: tuple, ready: bool) -> None:
        keys = self._ready[si]
        if ready:
            insort(keys, key)
        else:
            del keys[bisect_left(keys, key)]

    # -- the join

    def _activate(self, si: int) -> Plan:
        """Find strategy si's matches, from its plan, and keep them from now on."""
        plan = self._plans[si] = plan_of(self.strategies[si])
        for i, (li, head, _, _) in enumerate(plan.pats):
            self._listeners.setdefault((li, head), []).append((si, i))
        li, head = plan.pats[0][:2]
        for s in list(self._buckets.get((li, head), ())):
            self._join(si, 0, s, self._occ[s][1], ())
        return plan

    def _join(self, si: int, i: int, s: int, f, new) -> None:
        """Record every match of strategy si that uses occurrence s for
        pattern i and no new occurrence for an earlier pattern, so each new
        match is found once, at the first pattern that uses a new occurrence."""
        plan = self._plans[si]
        m = _match(plan.pats[i][2], f, {}, plan.binders)
        if m is None:
            return
        slots: list[int | None] = [None] * len(plan.pats)
        slots[i] = s
        self._extend(si, plan, [j for j in range(len(plan.pats)) if j != i], m, slots, i, new)

    def _extend(self, si, plan, rest, m, slots, first, new) -> None:
        """Match the patterns in rest, taking next the one with the fewest
        candidates: conjuncts of its head, or of its head and first argument
        once that argument's variable is bound."""
        if not rest:
            self._record(si, plan, tuple(slots), m)
            return
        best = bucket = None
        for j in rest:
            li, head, _, var = plan.pats[j]
            b = self._buckets.get((li, head, m[var]) if var in m else (li, head))
            if not b:
                return
            if bucket is None or len(b) < len(bucket):
                best, bucket = j, b
        f = plan.pats[best][2]
        rest = [j for j in rest if j != best]
        for c in bucket:
            if c in slots or (best < first and c in new):
                continue
            m2 = _match(f, self._occ[c][1], dict(m), plan.binders)
            if m2 is not None:
                slots[best] = c
                self._extend(si, plan, rest, m2, slots, first, new)
        slots[best] = None

    def _record(self, si: int, plan: Plan, key: tuple, m: dict[str, Term]) -> None:
        bindings = {b: m[b] for b in plan.order if b in m}
        if plan.exists and not plan.witnessed(bindings, self.entailment.existentials):
            return
        held = [self._occ[c][1] for c in key]
        absent, blocks = (), 0
        if plan.absent:
            fs = [build(bindings) for _, build in plan.absent]
            held += fs
            absent = tuple(dict.fromkeys(zip([li for li, _ in plan.absent], fs)))
            blocks = sum(self._present[a] > 0 for a in absent)
        self._matches[si][key] = _Match(key, bindings, held, absent, blocks)
        if not blocks:
            self._set_ready(si, key, True)
        for s in key:
            self._users.setdefault(s, set()).add((si, key))
        for a in absent:
            self._watch.setdefault(a, set()).add((si, key))

    # -- reading matches

    def matches(self, s: Strategy, held: bool = False) -> Iterator[PatternSubstitution | _Match]:
        """The matches of s in the matcher's order.  With `held`, every match,
        parked or held back or not, each as a `PatternSubstitution` with its
        own bindings and its `used_conjuncts`.  Without, only the ready ones,
        which is what a step reads: the store's own records, whose `bindings`
        are to be read and not changed, and which `park` takes."""
        si = self._number[id(s)]
        plan = self._plans[si] or self._activate(si)
        keys = sorted(self._matches[si]) if held else self._ready[si][:]
        for key in keys:
            m = self._matches[si][key]
            if not held:
                yield m
                continue
            lists = (p[0] for p in plan.pats)
            used = {j: (*_LISTS[li], bisect_left(self._serials[li], c)) for j, (li, c) in enumerate(zip(lists, key))}
            yield PatternSubstitution(dict(m.bindings), used)


def match_strategy(
    s: Strategy, e: Entailment, store: MatchStore | None = None
) -> Iterator[PatternSubstitution | _Match]:
    """Substitutions matching the strategy's patterns against distinct
    conjunct occurrences of the entailment, in deterministic order.

    With a store, which must be at e, only the ready matches, as the store's
    records (see `MatchStore.matches`); without one, every match in full,
    held back or not."""
    if store is None:
        return MatchStore((s,), e).matches(s, held=True)
    if store.entailment is not e:
        raise ValueError("match store is not at this entailment")
    return store.matches(s)
