"""Conservative validity checks for infer() side conditions: EUF + LIA.

Refutation-based: to prove hyps |= goal, assert hyps together with the
negated goal and search for a contradiction.  Congruence closure handles
equalities and uninterpreted structure; linear integer arithmetic is handled
by Fourier-Motzkin elimination with gcd rounding plus a difference-bound
closure that feeds derived equalities back into the congruence closure.
Proven is returned only on a closed refutation; everything else is Unknown,
with the reason no refutation was found.

A `Context` asserts one hypothesis set once and answers goals against it:
each negated goal atom starts from a copy of the hypotheses' closure, and
many bounds are decided by one lookup in the shortest-path closure of the
hypotheses' difference constraints (Cotton and Maler 2006): proven when the
negated goal closes a negative cycle, and unknown at once when hypotheses
and negated goal form a difference system without one, which then has an
integer model.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

from .core import (
    Apply,
    Arith,
    Bin,
    Eq,
    FieldAddr,
    IntLit,
    Not,
    PredP,
    PureFormula,
    Rel,
    Term,
    TrueF,
    Var,
)


class ProofStatus(str, Enum):
    PROVEN = "proven"
    UNKNOWN = "unknown"


# Why an answer is UNKNOWN: which budget ran out, an unsupported goal, or none.
BUDGET_NODES = "budget:nodes"
BUDGET_FM = "budget:fm"
UNSUPPORTED = "unsupported-shape"
NO_REFUTATION = "no-refutation"


@dataclass(frozen=True, slots=True)
class QueryResult:
    status: ProofStatus
    reason: str | None = None  # one of the four above when UNKNOWN, else None


_MAX_NODES = 10_000
_MAX_FM_CONSTRAINTS = 4_000
_MAX_EXCHANGE_ROUNDS = 30

_ZERO = -1  # the constant 0 among the variables of a difference closure
_TRUE = ("bconst", True)
_FALSE = ("bconst", False)


class _Budget(Exception):
    """A search budget ran out; the argument is the UNKNOWN reason."""


class _CC:
    """Congruence closure over a term DAG with literal-valued classes.  A
    node is keyed by the interned term or predicate it stands for; true and
    false are nodes 0 and 1."""

    def __init__(self) -> None:
        self.labels: list[tuple] = [_TRUE, _FALSE]
        self.kids: list[tuple[int, ...]] = [(), ()]
        self.ids: dict[Term | PredP, int] = {}  # interned nodes hash in O(1)
        self.parent: list[int] = [0, 1]
        self.rank: list[int] = [0, 0]
        self.class_lit: dict[int, int] = {}
        self.use: dict[int, list[int]] = {}
        self.sigs: dict[tuple, int] = {}
        self.pending: list[tuple[int, int]] = []
        self.unsat = False

    def copy(self) -> "_CC":
        """An independent closure in the same state."""
        c = copy.copy(self)
        for name in ("labels", "kids", "parent", "rank", "pending", "ids", "class_lit", "sigs"):
            setattr(c, name, getattr(self, name).copy())
        c.use = {r: ns[:] for r, ns in self.use.items()}
        return c

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def add_term(self, t: Term | PredP) -> int:
        n = self.ids.get(t)
        if n is not None:
            return n
        match t:
            case IntLit(v):
                label, kids = ("int", v), ()
            case Var(name):
                label, kids = ("var", name), ()
            case FieldAddr(base, fld):
                label, kids = ("fld", fld), (self.add_term(base),)
            case Apply(fn, args):
                label, kids = ("app", fn), tuple(self.add_term(a) for a in args)
            case PredP(name, args):
                label, kids = ("pred", name), tuple(self.add_term(a) for a in args)
            case Arith(op, l, r):
                label, kids = ("ar", op), (self.add_term(l), self.add_term(r))
            case _:
                raise TypeError(f"add_term: unsupported term {t!r}")
        n = len(self.labels)
        if n >= _MAX_NODES:
            raise _Budget(BUDGET_NODES)
        self.labels.append(label)
        self.kids.append(kids)
        self.parent.append(n)
        self.rank.append(0)
        if label[0] == "int":
            self.class_lit[n] = label[1]
        for k in kids:
            self.use.setdefault(self.find(k), []).append(n)
        if kids:
            self._enter(n)
        self.ids[t] = n
        return n

    def _enter(self, n: int) -> None:
        """Enter node n under its congruence signature, or queue its merge
        with the node of another class already there."""
        sig = (self.labels[n], tuple(map(self.find, self.kids[n])))
        other = self.sigs.get(sig)
        if other is not None and self.find(other) != self.find(n):
            self.pending.append((n, other))
        else:
            self.sigs[sig] = n

    def merge(self, a: int, b: int) -> None:
        self.pending.append((a, b))
        self.propagate()

    def propagate(self) -> None:
        while self.pending and not self.unsat:
            a, b = self.pending.pop()
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                continue
            la, lb = self.class_lit.get(ra), self.class_lit.get(rb)
            if la is not None and lb is not None and la != lb:
                self.unsat = True
                return
            if self.rank[ra] < self.rank[rb]:
                ra, rb = rb, ra
            elif self.rank[ra] == self.rank[rb]:
                self.rank[ra] += 1
            # rb is absorbed into ra
            self.parent[rb] = ra
            lit = la if la is not None else lb
            if lit is not None:
                self.class_lit[ra] = lit
            moved = self.use.pop(rb, [])
            for p in moved:
                self._enter(p)
            self.use.setdefault(ra, []).extend(moved)

    def equal(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def literal_of(self, n: int) -> int | None:
        return self.class_lit.get(self.find(n))


# ---------------------------------------------------------------------------
# Linear constraints: (coeffs, k) encodes sum(coeffs[v] * v) <= k.


def _gcd_normalize(coeffs: dict[int, int], k: int) -> tuple[dict[int, int], int]:
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    g = math.gcd(*coeffs.values())
    if g > 1:
        coeffs = {v: c // g for v, c in coeffs.items()}
        k = k // g
    return coeffs, k


def _edge(coeffs: dict[int, int]) -> tuple[int, int] | None:
    """(u, w) when a row reads u - w <= k, with _ZERO standing in for a
    missing side; None when it is not a difference constraint."""
    ends = {c: v for v, c in coeffs.items()}
    if not coeffs or len(ends) < len(coeffs) or not ends.keys() <= {1, -1}:
        return None
    return ends.get(1, _ZERO), ends.get(-1, _ZERO)


class _Lia:
    def __init__(self, constraints: Iterable[tuple[dict[int, int], int]] = (), contradiction: bool = False) -> None:
        self.constraints = list(constraints)
        self.contradiction = contradiction

    def add(self, coeffs: dict[int, int], k: int) -> None:
        coeffs, k = _gcd_normalize(coeffs, k)
        if not coeffs:
            if k < 0:
                self.contradiction = True
            return
        self.constraints.append((coeffs, k))

    def fm_unsat(self) -> bool:
        """Fourier-Motzkin elimination; True only on a derived contradiction."""
        if self.contradiction:
            return True
        rows = list(self.constraints)  # read, never changed: rows may be shared
        seen: set[tuple] = set()
        total = len(rows)
        while rows:
            vars_here: dict[int, tuple[int, int]] = {}
            for coeffs, _ in rows:
                for v, c in coeffs.items():
                    pos, neg = vars_here.get(v, (0, 0))
                    vars_here[v] = (pos + 1, neg) if c > 0 else (pos, neg + 1)
            if not vars_here:
                return False
            v = min(vars_here, key=lambda u: (vars_here[u][0] * vars_here[u][1], u))
            uppers, lowers, rest = [], [], []
            for coeffs, k in rows:
                c = coeffs.get(v, 0)
                if c > 0:
                    uppers.append((coeffs, k, c))
                elif c < 0:
                    lowers.append((coeffs, k, -c))
                else:
                    rest.append((coeffs, k))
            for cu, ku, a in uppers:
                for cl, kl, b in lowers:
                    coeffs: dict[int, int] = {}
                    for u, c in cu.items():
                        coeffs[u] = coeffs.get(u, 0) + b * c
                    for u, c in cl.items():
                        coeffs[u] = coeffs.get(u, 0) + a * c
                    k = b * ku + a * kl
                    coeffs, k = _gcd_normalize(coeffs, k)
                    if not coeffs:
                        if k < 0:
                            return True
                        continue
                    key = (tuple(sorted(coeffs.items())), k)
                    if key in seen:
                        continue
                    seen.add(key)
                    rest.append((coeffs, k))
                    total += 1
                    if total > _MAX_FM_CONSTRAINTS:
                        raise _Budget(BUDGET_FM)
            rows = rest
        return False

    def shortest_paths(self) -> tuple[dict[int, int], list[list[int | None]]]:
        """Shortest-path closure over the unit-difference constraints.

        Returns index, which numbers the variables they mention in ascending
        order with _ZERO, the constant 0, last, and dist, where
        dist[index[u]][index[w]] is the least k with u - w <= k derivable
        from them (None when none is).
        """
        edges: dict[tuple[int, int], int] = {}
        for coeffs, k in self.constraints:
            edge = _edge(coeffs)
            if edge is not None and (edge not in edges or k < edges[edge]):
                edges[edge] = k
        nodes = {v for edge in edges for v in edge if v != _ZERO}
        index = {v: i for i, v in enumerate(sorted(nodes) + [_ZERO])}
        n = len(index)
        dist: list[list[int | None]] = [[0 if i == j else None for j in range(n)] for i in range(n)]
        for (u, w), k in edges.items():
            dist[index[u]][index[w]] = k
        for m in range(n):
            dm = dist[m]
            for du in dist:
                dum = du[m]
                if dum is None:
                    continue
                for w in range(n):
                    dmw = dm[w]
                    if dmw is None:
                        continue
                    cur = du[w]
                    if cur is None or dum + dmw < cur:
                        du[w] = dum + dmw
        return index, dist

    def difference_closure(self) -> tuple[bool, list[tuple[int, int]], list[tuple[int, int]]]:
        """Returns (unsat, var-var equalities, var-constant equalities) of the
        shortest-path closure, where an equality is justified by bounds of
        zero in both directions.
        """
        index, dist = self.shortest_paths()
        if any(dist[i][i] < 0 for i in range(len(dist))):
            return True, [], []
        order = list(index)[:-1]
        z = len(order)
        var_eqs: list[tuple[int, int]] = []
        const_eqs: list[tuple[int, int]] = []
        for i, u in enumerate(order):
            duz = dist[i][z]
            dzu = dist[z][i]
            if duz is not None and dzu is not None and duz + dzu == 0:
                const_eqs.append((u, duz))
                continue
            for j in range(i + 1, z):
                if dist[i][j] == 0 and dist[j][i] == 0:
                    var_eqs.append((u, order[j]))
        return False, var_eqs, const_eqs


# ---------------------------------------------------------------------------
# Assertion collection


@dataclass
class _State:
    eqs: list[tuple[Term, Term]] = field(default_factory=list)
    diseqs: list[tuple[Term, Term]] = field(default_factory=list)
    bounds: list[tuple[Term, Term, bool]] = field(default_factory=list)  # (l, r, strict): l <= r / l < r
    preds: list[tuple[PredP, bool]] = field(default_factory=list)

    def add(self, f: PureFormula, positive: bool) -> None:
        """Record one literal, or its negation when not positive."""
        match f:
            case TrueF():
                if not positive:
                    # an assumed falsehood: encode as 0 <= -1
                    self.bounds.append((IntLit(0), IntLit(-1), False))
            case Eq(l, r):
                (self.eqs if positive else self.diseqs).append((l, r))
            case Rel("!=", l, r):
                (self.diseqs if positive else self.eqs).append((l, r))
            case Rel(op, l, r):
                a, b, strict = {"<": (l, r, True), "<=": (l, r, False), ">": (r, l, True), ">=": (r, l, False)}[op]
                self.bounds.append((a, b, strict) if positive else (b, a, not strict))
            case PredP():
                self.preds.append((f, positive))


def _literals(f: PureFormula, positive: bool, add: Callable[[PureFormula, bool], None]) -> bool:
    """Pass each literal of f, read through negations and conjunctions, to
    add(atom, positive); whether every part of f was a literal.  `false`, a
    negated `true`, is passed on but is no literal: a hypothesis that holds
    it is contradictory, and a goal that asks for it is unsupported."""
    match f:
        case TrueF():
            if not positive:
                add(f, False)
            return positive
        case Eq() | Rel() | PredP():
            add(f, positive)
            return True
        case Not(inner):
            return _literals(inner, not positive, add)
        case Bin("&&", l, r) if positive:
            left = _literals(l, True, add)
            return _literals(r, True, add) and left
    return False


# ---------------------------------------------------------------------------
# The refutation engine


def _leaf(n: int, cc: _CC) -> tuple[dict[int, int], int]:
    lit = cc.literal_of(n)
    if lit is not None:
        return {}, lit
    return {cc.find(n): 1}, 0


def _linearize(t: Term, cc: _CC) -> tuple[dict[int, int], int]:
    """Linear form of a term; +, - and literal-scaled * decompose, everything
    else is an atom keyed by its congruence class (literal-valued classes
    fold to their constant)."""
    n = cc.ids.get(t)
    if n is None:  # the first call adds every subterm, in add_term's order
        n = cc.add_term(t)
    match t:
        case IntLit(v):
            return {}, v
        case Arith("+", l, r):
            cl, kl = _linearize(l, cc)
            cr, kr = _linearize(r, cc)
            for v, c in cr.items():
                cl[v] = cl.get(v, 0) + c
            return cl, kl + kr
        case Arith("-", l, r):
            cl, kl = _linearize(l, cc)
            cr, kr = _linearize(r, cc)
            for v, c in cr.items():
                cl[v] = cl.get(v, 0) - c
            return cl, kl - kr
        case Arith("*", l, r):
            cl, kl = _linearize(l, cc)
            cr, kr = _linearize(r, cc)
            if not cl:
                return {v: kl * c for v, c in cr.items()}, kl * kr
            if not cr:
                return {v: kr * c for v, c in cl.items()}, kr * kl
            return _leaf(n, cc)  # nonlinear: opaque atom
    return _leaf(n, cc)


def _le_row(l: Term, r: Term, cc: _CC) -> tuple[dict[int, int], int, bool]:
    """(coeffs, k, ground): l <= r reads sum(coeffs[v] * v) <= k, and ground
    says that one side has no variables."""
    cl, kl = _linearize(l, cc)
    cr, kr = _linearize(r, cc)
    ground = not cl or not cr
    for v, c in cr.items():
        cl[v] = cl.get(v, 0) - c
    return cl, kr - kl, ground


def _rows(bounds: Sequence[tuple[Term, Term, bool]], eqs: Sequence[tuple[Term, Term]], cc: _CC) -> _Lia:
    """The linear rows of the bounds (minus one more when strict) and of
    both directions of the equalities, under cc's classes."""
    lia = _Lia()
    for l, r, strict in bounds:
        coeffs, k, _ = _le_row(l, r, cc)
        lia.add(coeffs, k - strict)
    for l, r in eqs:
        coeffs, k, _ = _le_row(l, r, cc)
        lia.add(coeffs, k)
        lia.add({v: -c for v, c in coeffs.items()}, -k)
    return lia


def _closure(st: _State, cc: _CC) -> list[tuple[int, int]]:
    """Assert the state's equalities and predicates into cc; returns the node
    pairs of its disequalities."""
    for l, r in st.eqs:
        cc.merge(cc.add_term(l), cc.add_term(r))
    diseqs = [(cc.add_term(l), cc.add_term(r)) for l, r in st.diseqs]
    for p, positive in st.preds:
        cc.merge(cc.add_term(p), 0 if positive else 1)  # true or false
    return diseqs


def _refuted(cc: _CC, diseqs: list[tuple[int, int]]) -> bool:
    return cc.unsat or any(cc.equal(a, b) for a, b in diseqs)


def _linear(cc: _CC, n: int) -> bool:
    """Whether node n is a variable, a literal, true, false, a sum, a
    difference or a product with a literal factor."""
    kind, op = cc.labels[n]
    if kind != "ar":
        return kind in ("var", "int", "bconst")
    return op != "*" or any(cc.labels[k][0] == "int" for k in cc.kids[n])


def _exchange(st: _State, cc: _CC, diseq_nodes: list[tuple[int, int]], lia: _Lia | None) -> str | None:
    """The refutation loop on st, whose equalities, predicates and
    disequality node pairs cc already holds: None when it finds st
    contradictory, otherwise why not.  Each round builds st's linear rows
    under cc's classes, unless lia holds the first round's, and gives the
    equalities their closure derives back to cc."""
    budget = None
    for _ in range(_MAX_EXCHANGE_ROUNDS):
        if lia is None:
            cc.propagate()
            if _refuted(cc, diseq_nodes):
                return None
            lia = _rows(st.bounds, st.eqs, cc)
        # terms the rows just added that congruence merges: the next
        # round's rows read them as one atom
        progressed = bool(cc.pending)
        cc.propagate()
        if _refuted(cc, diseq_nodes):
            return None
        try:
            if lia.fm_unsat():
                return None
        except _Budget as exc:
            budget = exc.args[0]
        # A disequality with a ground side refutes when both strict orderings
        # are impossible; non-ground pairs stay with congruence closure only.
        for l, r in st.diseqs:
            coeffs, k, ground = _le_row(l, r, cc)
            if not ground:
                continue
            below, above = _Lia(lia.constraints), _Lia(lia.constraints)
            below.add(coeffs, k - 1)
            above.add({v: -c for v, c in coeffs.items()}, -k - 1)
            try:
                if below.fm_unsat() and above.fm_unsat():
                    return None
            except _Budget as exc:
                budget = exc.args[0]
        unsat, var_eqs, const_eqs = lia.difference_closure()
        if unsat:
            return None
        for u, w in var_eqs:
            if not cc.equal(u, w):
                cc.merge(u, w)
                progressed = True
        for u, value in const_eqs:
            vn = cc.add_term(IntLit(value))
            if not cc.equal(u, vn):
                cc.merge(u, vn)
                progressed = True
        if cc.unsat:
            return None
        if not progressed and not cc.pending:
            break
        lia = None
    return budget or NO_REFUTATION


class Context:
    """One hypothesis set, asserted once, against which goals are decided.

    On creation the hypotheses go into a congruence closure, their linear
    rows are built as the refutation loop's first round builds them, and so
    is the shortest-path closure of their difference rows.  Every negated
    goal atom starts from that state.  A bound's row is built on the closure
    itself or, when the row adds nodes, on a copy, and `_lookup` decides it
    when it can: proven when the row closes a negative cycle, no refutation
    when the hypotheses and the row are a difference system over linear
    terms without one.  Otherwise the bound runs the loop on a copy.  An
    equality or predicate is merged into a copy, and a disequality's node
    pair joins the hypotheses'.  The answer depends on the goal alone, so
    each goal is decided once and its answer kept."""

    def __init__(self, hyps: Iterable[PureFormula]) -> None:
        st = _State()
        for h in hyps:
            _literals(h, True, st.add)  # a part that is no literal adds nothing, which is conservative
        self._st = st
        self._answers: dict[PureFormula, QueryResult] = {}
        self._cc: _CC | None = None  # stays None when the hypotheses run out of nodes
        self._hyp_rows: tuple[_Lia, _Lia] | None = None  # bound rows, equality rows
        # negative cycle, index, dist, and whether the hypotheses are a difference system
        self._paths: tuple[bool, dict, list, bool] | None = None
        try:
            cc = _CC()
            self._diseqs = [(0, 1)] + _closure(st, cc)  # node pairs kept apart: true and false first
            cc.propagate()
            if not _refuted(cc, self._diseqs):  # else every query is refuted before its rows
                self._hyp_rows = bounds, eqs = _rows(st.bounds, (), cc), _rows((), st.eqs, cc)
                rows = bounds.constraints + eqs.constraints
                index, dist = _Lia(rows).shortest_paths()
                cycle = bounds.contradiction or eqs.contradiction or any(dist[i][i] < 0 for i in range(len(dist)))
                difference = (
                    not st.diseqs
                    and all(_edge(coeffs) is not None for coeffs, _ in rows)
                    and all(_linear(cc, n) for n in range(len(cc.labels)))  # so no predicate either
                )
                self._paths = (cycle, index, dist, difference)
            self._cc = cc
        except _Budget:
            pass  # so does every query

    def infer(self, goal: PureFormula) -> QueryResult:
        """Conservatively decide hyps |= goal; see the module function."""
        res = self._answers.get(goal)
        if res is None:
            res = self._answers[goal] = self._decide(goal)
        return res

    def _decide(self, goal: PureFormula) -> QueryResult:
        atoms: list[tuple[PureFormula, bool]] = []
        if not _literals(goal, True, lambda atom, polarity: atoms.append((atom, polarity))):
            return QueryResult(ProofStatus.UNKNOWN, reason=UNSUPPORTED)
        for atom, polarity in atoms:
            neg = _State()  # refute hyps together with this sub-goal negated
            neg.add(atom, not polarity)
            try:
                why = self._refute(neg)
            except _Budget as exc:
                why = exc.args[0]
            if why is not None:
                return QueryResult(ProofStatus.UNKNOWN, reason=why)
        return QueryResult(ProofStatus.PROVEN)

    def _lookup(self, goal: _Lia, cc: _CC) -> bool | None:
        """Whether the hypotheses and the negated goal, whose row under cc is
        goal, are contradictory, as read off the shortest-path closure of the
        hypotheses' difference rows; None when only the loop can tell.

        True when the row closes a negative cycle with those rows: a
        contradiction the loop's first round refutes by Fourier-Motzkin or,
        past its budget, by the difference closure.  False when the
        hypotheses are a difference system with no negative cycle and no
        disequality but true and false's, every node of cc is a variable, a
        literal or linear arithmetic (so no predicate is asserted), and the
        row is at most one edge and closes no cycle: the system's
        shortest-path potentials are then an integer model (Cormen et al.,
        Introduction to Algorithms, 24.4), so no sound refutation exists,
        and the loop, which adds at most one literal node per node, would
        not run out of nodes either."""
        cycle, index, dist, difference = self._paths
        if cycle or goal.contradiction:
            return True
        if goal.constraints:
            (coeffs, k), = goal.constraints
            edge = _edge(coeffs)
            if edge is None:
                return None
            u, w = edge
            back = dist[index[w]][index[u]] if u in index and w in index else None
            if back is not None and k + back < 0:
                return True
        new_nodes = range(len(self._cc.labels), len(cc.labels))  # the goal's, when cc is a copy
        if not difference or 2 * len(cc.labels) > _MAX_NODES or not all(_linear(cc, n) for n in new_nodes):
            return None
        return False

    def _refute(self, neg: _State) -> str | None:
        """None when the hypotheses and neg, one negated goal atom, are
        jointly contradictory; otherwise why no contradiction was found."""
        if self._cc is None:
            raise _Budget(BUDGET_NODES)
        st = self._st
        st = _State(st.eqs + neg.eqs, st.diseqs + neg.diseqs, st.bounds + neg.bounds, st.preds + neg.preds)
        cc, lia = self._cc, None
        if neg.bounds and self._hyp_rows is not None:  # the first round's rows, in their order
            (l, r, _), = neg.bounds
            if l not in cc.ids or r not in cc.ids:  # the goal's row adds nodes
                cc = cc.copy()
            goal = _rows(neg.bounds, (), cc)
            refuted = self._lookup(goal, cc)
            if refuted is not None:
                return None if refuted else NO_REFUTATION
            bounds, eqs = self._hyp_rows
            lia = _Lia(
                bounds.constraints + goal.constraints + eqs.constraints,
                bounds.contradiction or goal.contradiction or eqs.contradiction,
            )
        if cc is self._cc:  # the loop merges into a closure of its own
            cc = cc.copy()
        return _exchange(st, cc, self._diseqs + _closure(neg, cc), lia)


def infer(
    hyps: Iterable[PureFormula], goal: PureFormula, contexts: dict[tuple, Context] | None = None
) -> QueryResult:
    """Conservatively decide hyps |= goal.  Proven results are sound under
    integer semantics with uninterpreted functions and predicates; Unknown
    says nothing, and its reason says why.

    `contexts` maps a hypothesis tuple to its `Context`; a miss builds one
    and keeps it there.  Without it the query gets a one-shot context."""
    hyps = tuple(hyps)
    if contexts is None:
        return Context(hyps).infer(goal)
    if hyps not in contexts:
        contexts[hyps] = Context(hyps)
    return contexts[hyps].infer(goal)
