"""Conservative validity checks for infer() side conditions: EUF + LIA.

Refutation-based: to prove hyps |= goal, assert hyps together with the
negated goal and search for a contradiction.  Congruence closure handles
equalities and uninterpreted structure; linear integer arithmetic is handled
by Fourier-Motzkin elimination with gcd rounding plus a difference-bound
closure that feeds derived equalities back into the congruence closure.
Proven is returned only on a closed refutation; everything else is Unknown,
with the reason no refutation was found.

A `Context` asserts one hypothesis set once and answers goals against it,
some by lookup in the shortest-path closure of the hypotheses' difference
constraints (Cotton and Maler 2006).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

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
    used_hypotheses: tuple[PureFormula, ...] = ()
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
    """Congruence closure over a term DAG with literal-valued classes."""

    def __init__(self) -> None:
        self.labels: list[tuple] = []
        self.kids: list[tuple[int, ...]] = []
        self.ids: dict[tuple, int] = {}
        self.term_ids: dict[Term, int] = {}  # interned terms hash in O(1)
        self.parent: list[int] = []
        self.rank: list[int] = []
        self.class_lit: dict[int, int] = {}
        self.use: dict[int, list[int]] = {}
        self.sigs: dict[tuple, int] = {}
        self.pending: list[tuple[int, int]] = []
        self.unsat = False

    def copy(self) -> "_CC":
        """An independent closure in the same state."""
        c = copy.copy(self)
        for name in ("labels", "kids", "parent", "rank", "pending", "ids", "term_ids", "class_lit", "sigs"):
            setattr(c, name, getattr(self, name).copy())
        c.use = {r: ns[:] for r, ns in self.use.items()}
        return c

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def _new_node(self, label: tuple, kids: tuple[int, ...]) -> int:
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
            sig = (label, tuple(self.find(k) for k in kids))
            other = self.sigs.get(sig)
            if other is not None and self.find(other) != n:
                self.pending.append((n, other))
            else:
                self.sigs[sig] = n
        return n

    def node(self, label: tuple, kids: tuple[int, ...] = ()) -> int:
        key = (label, kids)
        n = self.ids.get(key)
        if n is None:
            n = self._new_node(label, kids)
            self.ids[key] = n
        return n

    def add_term(self, t: Term) -> int:
        n = self.term_ids.get(t)
        if n is not None:
            return n
        match t:
            case IntLit(v):
                n = self.node(("int", v))
            case Var(name):
                n = self.node(("var", name))
            case FieldAddr(base, fld):
                n = self.node(("fld", fld), (self.add_term(base),))
            case Apply(fn, args):
                n = self.node(("app", fn), tuple(self.add_term(a) for a in args))
            case Arith(op, l, r):
                n = self.node(("ar", op), (self.add_term(l), self.add_term(r)))
            case _:
                raise TypeError(f"add_term: unsupported term {t!r}")
        self.term_ids[t] = n
        return n

    def add_pred(self, p: PredP) -> int:
        return self.node(("pred", p.name), tuple(self.add_term(a) for a in p.args))

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
                sig = (self.labels[p], tuple(self.find(k) for k in self.kids[p]))
                other = self.sigs.get(sig)
                if other is not None and self.find(other) != self.find(p):
                    self.pending.append((p, other))
                else:
                    self.sigs[sig] = p
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


def _assert_formula(f: PureFormula, st: _State, positive: bool) -> bool:
    """Record one hypothesis-side fact; False when the formula contributed
    nothing (unsupported shape, ignored conservatively)."""
    match f:
        case TrueF():
            if not positive:
                # an assumed falsehood: encode as 0 <= -1
                st.bounds.append((IntLit(0), IntLit(-1), False))
            return not positive
        case Eq(l, r):
            if positive:
                st.eqs.append((l, r))
            else:
                st.diseqs.append((l, r))
            return True
        case Rel(op, l, r):
            if op == "!=":
                if positive:
                    st.diseqs.append((l, r))
                else:
                    st.eqs.append((l, r))
                return True
            flipped = {"<": (l, r, True), "<=": (l, r, False), ">": (r, l, True), ">=": (r, l, False)}[op]
            if not positive:
                a, b, strict = flipped
                flipped = (b, a, not strict)
            st.bounds.append(flipped)
            return True
        case PredP():
            st.preds.append((f, positive))
            return True
        case Not(inner):
            return _assert_formula(inner, st, not positive)
        case Bin("&&", l, r) if positive:
            used_l = _assert_formula(l, st, True)
            used_r = _assert_formula(r, st, True)
            return used_l or used_r
        case Bin():
            return False
    raise TypeError(f"assert: unsupported formula {f!r}")


def _goal_atoms(goal: PureFormula) -> list[tuple[PureFormula, bool]] | None:
    """Flatten the goal into (atom, polarity) pairs, or None if unsupported."""
    out: list[tuple[PureFormula, bool]] = []

    def walk(f: PureFormula, polarity: bool) -> bool:
        match f:
            case TrueF():
                return polarity  # a negative TrueF goal is unprovable, but legal
            case Eq() | Rel() | PredP():
                out.append((f, polarity))
                return True
            case Not(inner):
                return walk(inner, not polarity)
            case Bin("&&", l, r) if polarity:
                return walk(l, polarity) and walk(r, polarity)
            case _:
                return False

    if not walk(goal, True):
        return None
    return out


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
    n = cc.term_ids.get(t)
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


def _closure(st: _State) -> tuple[_CC, list[tuple[int, int]]]:
    """A congruence closure of the state's equalities and predicates, and the
    node pairs that must stay apart: true and false, then its disequalities."""
    cc = _CC()
    t_node, f_node = cc.node(_TRUE), cc.node(_FALSE)
    for l, r in st.eqs:
        cc.merge(cc.add_term(l), cc.add_term(r))
    diseqs = [(t_node, f_node)] + [(cc.add_term(l), cc.add_term(r)) for l, r in st.diseqs]
    for p, positive in st.preds:
        cc.merge(cc.add_pred(p), t_node if positive else f_node)
    return cc, diseqs


def _refuted(cc: _CC, diseqs: list[tuple[int, int]]) -> bool:
    return cc.unsat or any(cc.equal(a, b) for a, b in diseqs)


class Context:
    """One hypothesis set, asserted once, against which goals are decided.

    On creation the hypotheses go into a congruence closure, their linear
    rows are built as the refutation loop's first round builds them, and so
    is the shortest-path closure of their difference rows.  A goal atom
    negated to a bound goes on from that state, its row built on the closure
    itself or, when the row adds nodes, on a copy: it is proven by lookup
    when the row is one difference edge closing a negative cycle, and
    otherwise runs the loop on a copy.  One negated to an equality,
    disequality or predicate starts afresh, so that its terms are numbered
    as in a one-shot refutation, whose answer every query gives.  That
    answer depends on the goal alone, so each goal is decided once and its
    answer kept."""

    def __init__(self, hyps: Iterable[PureFormula]) -> None:
        st = _State()
        used: list[PureFormula] = []
        for h in hyps:
            try:
                if _assert_formula(h, st, True):
                    used.append(h)
            except TypeError:
                continue
        self._st, self._used = st, tuple(used)
        self._answers: dict[PureFormula, QueryResult] = {}
        self._cc: _CC | None = None  # stays None when the hypotheses run out of nodes
        self._hyp_rows: tuple[_Lia, _Lia] | None = None  # bound rows, equality rows
        self._paths: tuple[bool, dict, list] | None = None  # negative cycle, index, dist
        try:
            cc, self._diseqs = _closure(st)
            cc.propagate()
            if not _refuted(cc, self._diseqs):  # else every query is refuted before its rows
                self._hyp_rows = bounds, eqs = _rows(st.bounds, (), cc), _rows((), st.eqs, cc)
                index, dist = _Lia(bounds.constraints + eqs.constraints).shortest_paths()
                cycle = bounds.contradiction or eqs.contradiction or any(dist[i][i] < 0 for i in range(len(dist)))
                self._paths = (cycle, index, dist)
            self._cc = cc
        except _Budget:
            pass  # so does every query whose negation is a bound

    def infer(self, goal: PureFormula) -> QueryResult:
        """Conservatively decide hyps |= goal; see the module function."""
        res = self._answers.get(goal)
        if res is None:
            res = self._answers[goal] = self._decide(goal)
        return res

    def _decide(self, goal: PureFormula) -> QueryResult:
        atoms = _goal_atoms(goal)
        if atoms is None:
            return QueryResult(ProofStatus.UNKNOWN, reason=UNSUPPORTED)
        for atom, polarity in atoms:
            neg = _State()  # refute hyps together with this sub-goal negated
            _assert_formula(atom, neg, not polarity)
            try:
                why = self._refute(neg)
            except _Budget as exc:
                why = exc.args[0]
            if why is not None:
                return QueryResult(ProofStatus.UNKNOWN, reason=why)
        return QueryResult(ProofStatus.PROVEN, self._used)

    def _closes_cycle(self, goal: _Lia) -> bool:
        """True when goal, the negated goal's row under the hypotheses'
        closure, closes a negative cycle with their difference rows:
        a contradiction the loop's first round refutes by Fourier-Motzkin or,
        past its budget, by the difference closure."""
        cycle, index, dist = self._paths
        if cycle or goal.contradiction:
            return True
        if len(goal.constraints) != 1:  # the row holds whatever the values
            return False
        (coeffs, k), = goal.constraints
        u, w = _edge(coeffs) or (None, None)
        back = dist[index[w]][index[u]] if u in index and w in index else None
        return back is not None and k + back < 0

    def _refute(self, neg: _State) -> str | None:
        """None when the hypotheses and neg, one negated goal atom, are
        jointly contradictory; otherwise why no contradiction was found."""
        st = self._st
        st = _State(st.eqs + neg.eqs, st.diseqs + neg.diseqs, st.bounds + neg.bounds, st.preds + neg.preds)
        lia = None
        if neg.bounds:  # nothing to assert: go on from the prebuilt closure
            if self._cc is None:
                raise _Budget(BUDGET_NODES)
            cc, diseq_nodes = self._cc, self._diseqs
            if self._hyp_rows is not None:  # the first round's rows, in their order
                (l, r, _), = neg.bounds
                if l not in cc.term_ids or r not in cc.term_ids:  # the goal's row adds nodes
                    cc = cc.copy()
                goal = _rows(neg.bounds, (), cc)
                if self._closes_cycle(goal):
                    return None
                bounds, eqs = self._hyp_rows
                lia = _Lia(
                    bounds.constraints + goal.constraints + eqs.constraints,
                    bounds.contradiction or goal.contradiction or eqs.contradiction,
                )
            if cc is self._cc:  # the loop merges into a closure of its own
                cc = cc.copy()
        else:  # the atom's terms go in among the hypotheses', numbered as before
            cc, diseq_nodes = _closure(st)
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
                vn = cc.node(("int", value))
                if not cc.equal(u, vn):
                    cc.merge(u, vn)
                    progressed = True
            if cc.unsat:
                return None
            if not progressed and not cc.pending:
                break
            lia = None
        return budget or NO_REFUTATION


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
