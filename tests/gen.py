"""Hypothesis strategies over a fixed test vocabulary.

The vocabulary mirrors the shipped corpus: lseg/listrep/store_array spatial
predicates, app/nth functions, the neg pure predicate.  Generated entailments
are well-formed by construction (closed, disjoint quantifier prefixes), and
generated strategies are well-scoped (each variable bound before it is used).
"""

from __future__ import annotations

from hypothesis import strategies as st

from sepstrat.core import (
    AndA,
    Apply,
    Arith,
    Bin,
    DataAt,
    Emp,
    Entailment,
    Eq,
    ExistsA,
    FieldAddr,
    ForallA,
    IntLit,
    Not,
    PredP,
    PredS,
    PureA,
    Rel,
    SepConj,
    Signature,
    SpatialA,
    SymbolicHeap,
    TrueF,
    Var,
    Wand,
    free_vars,
    occurring_vars,
)
from sepstrat.frontend import DEFAULT_PRIORITY, Item, Pattern, PatternAtom, Program, Strategy

VAR_NAMES = ("p", "q", "r", "x", "y", "i", "n", "v0", "v1", "l1", "l2")
FIELDS = ("data", "next")

SPATIALS = {"listrep": 2, "lseg": 3, "store_array": 4, "store_array_hole": 5}
FUNCS = {"app": 2, "nth": 2, "update_nth": 3}
PURES = {"neg": 3}


def test_signature() -> Signature:
    sig = Signature()
    for n, a in SPATIALS.items():
        sig.declare(n, "spatial", a)
    for n, a in FUNCS.items():
        sig.declare(n, "func", a)
    for n, a in PURES.items():
        sig.declare(n, "pure", a)
    return sig


variables = st.sampled_from(VAR_NAMES).map(Var)
int_lits = st.integers(min_value=-3, max_value=7).map(IntLit)


@st.composite
def terms(draw, max_depth: int = 3, names: tuple[str, ...] = VAR_NAMES):
    """Terms whose variables are among names."""
    if max_depth <= 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(st.sampled_from(names).map(Var), int_lits) if names else int_lits)
    kind = draw(st.sampled_from(["arith", "apply", "field"]))
    sub = terms(max_depth=max_depth - 1, names=names)
    if kind == "arith":
        return Arith(draw(st.sampled_from(["+", "-", "*"])), draw(sub), draw(sub))
    if kind == "apply":
        name = draw(st.sampled_from(sorted(FUNCS)))
        return Apply(name, tuple(draw(sub) for _ in range(FUNCS[name])))
    return FieldAddr(draw(sub), draw(st.sampled_from(FIELDS)))


@st.composite
def pure_atoms(draw, names: tuple[str, ...] = VAR_NAMES):
    kind = draw(st.sampled_from(["eq", "rel", "pred", "true"]))
    t = terms(max_depth=2, names=names)
    if kind == "eq":
        return Eq(draw(t), draw(t))
    if kind == "rel":
        return Rel(draw(st.sampled_from(["!=", "<", "<=", ">", ">="])), draw(t), draw(t))
    if kind == "pred":
        name = draw(st.sampled_from(sorted(PURES)))
        return PredP(name, tuple(draw(t) for _ in range(PURES[name])))
    return TrueF()


@st.composite
def pure_formulas(draw, max_depth: int = 2, names: tuple[str, ...] = VAR_NAMES):
    if max_depth <= 0 or draw(st.integers(0, 2)) == 0:
        return draw(pure_atoms(names))
    sub = pure_formulas(max_depth=max_depth - 1, names=names)
    if draw(st.booleans()):
        return Not(draw(sub))
    return Bin(draw(st.sampled_from(["&&", "||", "->", "<->"])), draw(sub), draw(sub))


@st.composite
def spatial_atoms(draw, names: tuple[str, ...] = VAR_NAMES):
    kind = draw(st.sampled_from(["data_at", "pred", "emp"]))
    t = terms(max_depth=2, names=names)
    if kind == "data_at":
        return DataAt(draw(t), draw(t))
    if kind == "pred":
        name = draw(st.sampled_from(sorted(SPATIALS)))
        return PredS(name, tuple(draw(t) for _ in range(SPATIALS[name])))
    return Emp()


@st.composite
def heaps(draw, max_conjuncts: int = 4, names: tuple[str, ...] = VAR_NAMES):
    pures = draw(st.lists(pure_atoms(names), max_size=max_conjuncts))
    spatials = draw(st.lists(spatial_atoms(names), max_size=max_conjuncts))
    return SymbolicHeap(tuple(pures), tuple(spatials))


@st.composite
def assertions(draw, max_depth: int = 3):
    """Assertions with binders that may shadow or capture VAR_NAMES."""
    if max_depth <= 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(pure_formulas().map(PureA), spatial_atoms().map(SpatialA)))
    sub = assertions(max_depth=max_depth - 1)
    kind = draw(st.sampled_from(["sep", "and", "wand", "forall", "exists"]))
    if kind == "sep":
        return SepConj(tuple(draw(st.lists(sub, max_size=3))))
    if kind == "and":
        return AndA(tuple(draw(st.lists(sub, max_size=3))))
    if kind == "wand":
        return Wand(draw(sub), draw(sub))
    vs = tuple(draw(st.lists(st.sampled_from(VAR_NAMES), min_size=1, max_size=2, unique=True)))
    return (ForallA if kind == "forall" else ExistsA)(vs, draw(sub))


# Every kind of node the traversals in core take.
syntax = st.one_of(terms(), pure_formulas(), spatial_atoms(), heaps(), assertions())
# the syntax `core.substitute` accepts: every kind but assertions
substitutable = st.one_of(terms(), pure_formulas(), spatial_atoms(), heaps())


@st.composite
def entailments(draw, max_conjuncts: int = 4):
    lhs = draw(heaps(max_conjuncts=max_conjuncts))
    rhs = draw(heaps(max_conjuncts=max_conjuncts))
    lv = free_vars(lhs)
    rv = free_vars(rhs)
    pool = sorted(rv - lv)
    exist = draw(st.sets(st.sampled_from(pool))) if pool else set()
    univ = sorted(lv | (rv - exist))
    return Entailment(tuple(univ), lhs, tuple(sorted(exist)), rhs)


def _conjuncts(names: tuple[str, ...]):
    """Pure formulas, parenthesised `&&`/`||` ones among them, and spatial
    atoms other than emp, over names."""
    return st.one_of(pure_formulas(names=names), spatial_atoms(names=names).filter(lambda a: a != Emp()))


@st.composite
def strategy_defs(draw, name: str = "s"):
    """A well-scoped strategy: each pattern `?`-binds the variables that
    occur in it for the first time, a right pattern may open with `exists`
    binders among those, and checks and the action use bound names only,
    where `forall_add`/`exist_add` bind a name not bound yet."""
    bound: list[str] = []
    patterns = []
    for _ in range(draw(st.integers(1, 3))):
        side = draw(st.sampled_from(["left", "right"]))
        f = draw(_conjuncts(VAR_NAMES))
        binders = tuple(v for v in occurring_vars(f) if v not in bound)
        bound.extend(binders)
        exists = draw(st.lists(st.sampled_from(binders), unique=True)) if side == "right" and binders else []
        patterns.append(Pattern(side, PatternAtom(f, binders), tuple(exists)))
    check = st.builds(Item, st.sampled_from(["left_absent", "right_absent", "infer"]), pure_formulas(names=tuple(bound)))
    checks = draw(st.lists(check, max_size=2))
    if bound and draw(st.booleans()):
        action = [Item("instantiate", (draw(st.sampled_from(bound)), draw(terms(max_depth=2, names=tuple(bound)))))]
    else:
        action = []
        for _ in range(draw(st.integers(1, 4))):
            free = [v for v in VAR_NAMES if v not in bound]
            keyword = draw(st.sampled_from(["left_add", "right_add", "left_erase", "right_erase", "forall_add", "exist_add"]))
            if keyword in ("forall_add", "exist_add"):
                if not free:
                    continue
                arg = draw(st.sampled_from(free))
                bound.append(arg)
            else:
                arg = draw(_conjuncts(tuple(bound)))
            action.append(Item(keyword, arg))
        if not action:
            action = [Item("left_add", TrueF())]
    priority = draw(st.one_of(st.just(DEFAULT_PRIORITY), st.integers(-5, 99)))
    return Strategy(name, priority, tuple(patterns), tuple(checks), tuple(action))


@st.composite
def programs(draw, max_strategies: int = 3):
    n = draw(st.integers(1, max_strategies))
    return Program(tuple(draw(strategy_defs(f"s{i}")) for i in range(n)))


# ---------------------------------------------------------------------------
# Linear systems for the solver.  Terms are over LINEAR_NAMES.

LINEAR_NAMES = ("p", "q", "x", "y", "i", "n")


def _difference_row(u: str | None, w: str | None, d: int, form: int):
    """u - w <= d, written in one of five ways; None stands for 0."""
    if w is None:
        return Rel("<=", Var(u), IntLit(d)) if form % 2 else Rel(">=", IntLit(d), Var(u))
    if u is None:
        return Rel(">=", Var(w), IntLit(-d)) if form % 2 else Rel("<=", IntLit(-d), Var(w))
    U, W = Var(u), Var(w)
    return (
        Rel("<=", Arith("-", U, W), IntLit(d)),
        Rel("<=", U, Arith("+", W, IntLit(d))),
        Rel("<", U, Arith("+", W, IntLit(d + 1))),
        Rel(">=", Arith("+", W, IntLit(d)), U),
        Rel(">=", W, Arith("-", U, IntLit(d))),
    )[form]


@st.composite
def difference_systems(draw):
    """(hyps, unknown, other): hypotheses that hold in a drawn integer model,
    most of them difference rows and the rest not (a scaled or summed row, a
    product, a disequality, a predicate, a bound on a function application);
    bound goals that fail in the model, so no sound solver proves them; and
    bound goals that hold in it, which may or may not follow.  Values reach
    past float precision when the model is shifted by 2**60."""
    shift = draw(st.sampled_from((0, 2**60)))
    value = {v: shift + draw(st.integers(-6, 6)) for v in LINEAR_NAMES}
    value[None] = 0
    ends = st.lists(st.sampled_from((None,) + LINEAR_NAMES), min_size=2, max_size=2, unique=True)

    def row(d_offset: int):
        u, w = draw(ends)
        return _difference_row(u, w, value[u] - value[w] + d_offset, draw(st.integers(0, 4)))

    def other():
        u, w = (Var(v) for v in draw(st.lists(st.sampled_from(LINEAR_NAMES), min_size=2, max_size=2, unique=True)))
        a, b = value[u.name], value[w.name]
        slack = draw(st.integers(0, 2))
        kind = draw(st.integers(0, 5))
        if kind == 0:
            c = draw(st.sampled_from((2, 3, -2)))
            return Rel("<=", Arith("*", IntLit(c), u), Arith("+", w, IntLit(c * a - b + slack)))
        if kind == 1:
            return Rel("<=", Arith("+", u, w), IntLit(a + b + slack))
        if kind == 2:
            return Rel("<=", Arith("*", u, w), IntLit(a * b + slack))
        if kind == 3 and a != b:
            return Rel("!=", u, w)
        if kind == 4:
            return PredP("neg", (u, w, IntLit(slack)))
        # app(u, w) takes a value below every bound drawn for it
        return Rel("<=", Apply("app", (u, w)), IntLit(slack))

    hyps = [
        row(draw(st.integers(0, 3))) if draw(st.integers(0, 3)) else other()  # three in four a difference row
        for _ in range(draw(st.integers(1, 7)))
    ]
    unknown = [row(-1 - draw(st.integers(0, 2))) for _ in range(draw(st.integers(1, 4)))]
    holds = [row(draw(st.integers(0, 2))) for _ in range(draw(st.integers(0, 3)))]
    return hyps, unknown, holds


@st.composite
def dense_linear_systems(draw):
    """Equalities sum(c_v * v) == k over the six LINEAR_NAMES with
    coefficients in -3..3, zero the least likely: enough to run
    Fourier-Motzkin past a small budget.  Equalities, not bounds, so that a
    closure numbers their terms first, whatever the goal."""
    rows = []
    coefficient = st.sampled_from((1, -1, 2, -2, 3, -3, 0))
    for _ in range(draw(st.integers(6, 9))):
        coeffs = draw(st.lists(coefficient, min_size=len(LINEAR_NAMES), max_size=len(LINEAR_NAMES)))
        terms = [Arith("*", IntLit(c), Var(v)) for c, v in zip(coeffs, LINEAR_NAMES) if c]
        lhs = terms[0] if terms else IntLit(0)
        for t in terms[1:]:
            lhs = Arith("+", lhs, t)
        rows.append(Eq(lhs, IntLit(draw(st.integers(-5, 5)))))
    return rows
