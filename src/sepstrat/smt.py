"""Conservative validity checks for infer() side conditions: EUF + LIA.

Refutation-based: to prove hyps |= goal, assert hyps together with the
negated goal and search for a contradiction.  Congruence closure handles
equalities and uninterpreted structure; linear integer arithmetic is handled
by Fourier-Motzkin elimination with gcd rounding plus a difference-bound
closure that feeds derived equalities back into the congruence closure.
Proven is returned only on a closed refutation; everything else is Unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class QueryResult:
    status: ProofStatus
    used_hypotheses: tuple[PureFormula, ...] = ()


_MAX_NODES = 10_000
_MAX_FM_CONSTRAINTS = 4_000
_MAX_EXCHANGE_ROUNDS = 30

_TRUE = ("bconst", True)
_FALSE = ("bconst", False)


class _Budget(Exception):
    pass


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

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def _new_node(self, label: tuple, kids: tuple[int, ...]) -> int:
        n = len(self.labels)
        if n >= _MAX_NODES:
            raise _Budget()
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

    def add_const(self, label: tuple) -> int:
        return self.node(label)

    def int_node(self, v: int) -> int:
        return self.node(("int", v))

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
    if not coeffs:
        return coeffs, k
    g = 0
    for c in coeffs.values():
        g = math.gcd(g, abs(c))
    if g > 1:
        coeffs = {v: c // g for v, c in coeffs.items()}
        k = k // g
    return coeffs, k


class _Lia:
    def __init__(self) -> None:
        self.constraints: list[tuple[dict[int, int], int]] = []
        self.contradiction = False

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
        work = [dict(c) for c, _ in self.constraints]
        ks = [k for _, k in self.constraints]
        rows = list(zip(work, ks))
        seen: set[tuple] = set()
        total = len(rows)
        while rows:
            vars_here: dict[int, tuple[int, int]] = {}
            for coeffs, _ in rows:
                for v, c in coeffs.items():
                    pos, neg = vars_here.get(v, (0, 0))
                    if c > 0:
                        vars_here[v] = (pos + 1, neg)
                    else:
                        vars_here[v] = (pos, neg + 1)
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
                        raise _Budget()
            rows = rest
        return False

    def difference_closure(self) -> tuple[bool, list[tuple[int, int]], list[tuple[int, int]]]:
        """Shortest-path closure over unit-difference constraints.

        Returns (unsat, var-var equalities, var-constant equalities) where an
        equality is justified by bounds of zero in both directions.
        """
        ZERO = -1
        edges: dict[tuple[int, int], int] = {}

        def upd(u: int, w: int, k: int) -> None:
            cur = edges.get((u, w))
            if cur is None or k < cur:
                edges[(u, w)] = k

        nodes: set[int] = set()
        for coeffs, k in self.constraints:
            items = sorted(coeffs.items())
            if len(items) == 1:
                (v, c), = items
                nodes.add(v)
                if c == 1:
                    upd(v, ZERO, k)
                elif c == -1:
                    upd(ZERO, v, k)
            elif len(items) == 2:
                (v1, c1), (v2, c2) = items
                if c1 == 1 and c2 == -1:
                    nodes.update((v1, v2))
                    upd(v1, v2, k)
                elif c1 == -1 and c2 == 1:
                    nodes.update((v1, v2))
                    upd(v2, v1, k)
        if not nodes:
            return False, [], []
        order = sorted(nodes) + [ZERO]
        dist = {(u, w): edges.get((u, w)) for u in order for w in order if u != w}
        for u in order:
            dist[(u, u)] = 0
        for m in order:
            for u in order:
                dum = dist[(u, m)]
                if dum is None:
                    continue
                for w in order:
                    dmw = dist[(m, w)]
                    if dmw is None:
                        continue
                    cur = dist[(u, w)]
                    if cur is None or dum + dmw < cur:
                        dist[(u, w)] = dum + dmw
        for u in order:
            if dist[(u, u)] < 0:
                return True, [], []
        var_eqs: list[tuple[int, int]] = []
        const_eqs: list[tuple[int, int]] = []
        for i, u in enumerate(order[:-1]):
            duz = dist[(u, ZERO)]
            dzu = dist[(ZERO, u)]
            if duz is not None and dzu is not None and duz + dzu == 0:
                const_eqs.append((u, duz))
                continue
            for w in order[i + 1 : -1]:
                duw = dist[(u, w)]
                dwu = dist[(w, u)]
                if duw is not None and dwu is not None and duw == 0 and dwu == 0:
                    var_eqs.append((u, w))
        return False, var_eqs, const_eqs


# ---------------------------------------------------------------------------
# Assertion collection


@dataclass
class _State:
    eqs: list[tuple[Term, Term]]
    diseqs: list[tuple[Term, Term]]
    bounds: list[tuple[Term, Term, bool]]  # (l, r, strict) meaning l <= r / l < r
    preds: list[tuple[PredP, bool]]

    @staticmethod
    def empty() -> "_State":
        return _State([], [], [], [])


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


def _refute(st: _State) -> bool:
    """True iff the asserted facts are jointly contradictory."""
    cc = _CC()
    t_node = cc.add_const(_TRUE)
    f_node = cc.add_const(_FALSE)
    diseq_nodes: list[tuple[int, int]] = [(t_node, f_node)]
    for l, r in st.eqs:
        cc.merge(cc.add_term(l), cc.add_term(r))
    for l, r in st.diseqs:
        diseq_nodes.append((cc.add_term(l), cc.add_term(r)))
    for p, positive in st.preds:
        cc.merge(cc.add_pred(p), t_node if positive else f_node)
    if cc.unsat:
        return True

    for _ in range(_MAX_EXCHANGE_ROUNDS):
        cc.propagate()
        if cc.unsat:
            return True
        for a, b in diseq_nodes:
            if cc.equal(a, b):
                return True
        lia = _Lia()
        for l, r, strict in st.bounds:
            cl, kl = _linearize(l, cc)
            cr, kr = _linearize(r, cc)
            coeffs = dict(cl)
            for v, c in cr.items():
                coeffs[v] = coeffs.get(v, 0) - c
            # l - r <= kr - kl, minus one more when strict
            lia.add(coeffs, kr - kl - (1 if strict else 0))
        for l, r in st.eqs:
            cl, kl = _linearize(l, cc)
            cr, kr = _linearize(r, cc)
            coeffs = dict(cl)
            for v, c in cr.items():
                coeffs[v] = coeffs.get(v, 0) - c
            lia.add(coeffs, kr - kl)
            lia.add({v: -c for v, c in coeffs.items()}, kl - kr)
        cc.propagate()
        if cc.unsat:
            return True
        for a, b in diseq_nodes:
            if cc.equal(a, b):
                return True
        try:
            if lia.fm_unsat():
                return True
        except _Budget:
            pass
        # A disequality with a ground side refutes when both strict orderings
        # are impossible; non-ground pairs stay with congruence closure only.
        for l, r in st.diseqs:
            cl, kl = _linearize(l, cc)
            cr, kr = _linearize(r, cc)
            if cl and cr:
                continue
            coeffs = dict(cl)
            for v, c in cr.items():
                coeffs[v] = coeffs.get(v, 0) - c
            below = _Lia()
            below.constraints = list(lia.constraints)
            below.add(dict(coeffs), kr - kl - 1)
            above = _Lia()
            above.constraints = list(lia.constraints)
            above.add({v: -c for v, c in coeffs.items()}, kl - kr - 1)
            try:
                if below.fm_unsat() and above.fm_unsat():
                    return True
            except _Budget:
                continue
        unsat, var_eqs, const_eqs = lia.difference_closure()
        if unsat:
            return True
        progressed = False
        for u, w in var_eqs:
            if not cc.equal(u, w):
                cc.merge(u, w)
                progressed = True
        for u, value in const_eqs:
            vn = cc.int_node(value)
            if not cc.equal(u, vn):
                cc.merge(u, vn)
                progressed = True
        if cc.unsat:
            return True
        if not progressed and not cc.pending:
            return False
    return False


def infer(hyps: Iterable[PureFormula], goal: PureFormula) -> QueryResult:
    """Conservatively decide hyps |= goal.  Proven results are sound under
    integer semantics with uninterpreted functions and predicates; Unknown
    says nothing."""
    hyps = tuple(hyps)
    atoms = _goal_atoms(goal)
    if atoms is None:
        return QueryResult(ProofStatus.UNKNOWN)
    base = _State.empty()
    used: list[PureFormula] = []
    for h in hyps:
        try:
            if _assert_formula(h, base, True):
                used.append(h)
        except TypeError:
            continue
    for atom, polarity in atoms:
        st = _State(list(base.eqs), list(base.diseqs), list(base.bounds), list(base.preds))
        # Refute hyps together with the negation of this sub-goal.
        _assert_formula(atom, st, not polarity)
        try:
            if not _refute(st):
                return QueryResult(ProofStatus.UNKNOWN)
        except _Budget:
            return QueryResult(ProofStatus.UNKNOWN)
    return QueryResult(ProofStatus.PROVEN, tuple(used))
