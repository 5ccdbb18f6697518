from __future__ import annotations

import importlib.util
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import helpers
from conftest import CORPUS, load_entailments, load_library, load_perfbench
from sepstrat import engine
from sepstrat.core import Apply, Arith, Bin, Eq, IntLit, Not, PredP, Rel, TrueF, Var, free_vars, substitute
from sepstrat import smt
from sepstrat.frontend import parse_entailments, parse_pure
from sepstrat.smt import ProofStatus, QueryResult, infer

SIG = gen.test_signature()


def pures(*texts):
    return [parse_pure(t, SIG) for t in texts]


def status(hyps, goal):
    return infer(pures(*hyps), parse_pure(goal, SIG)).status


PROVEN = ProofStatus.PROVEN
UNKNOWN = ProofStatus.UNKNOWN


class TestNamedQueries:
    def test_subsumption(self):
        assert status(["0 <= i", "i < n"], "0 <= i") == PROVEN

    def test_chaining(self):
        assert status(["x <= i", "i < y"], "x < y") == PROVEN

    def test_congruence(self):
        assert status(["x == y"], "app(x, x) == app(y, y)") == PROVEN

    def test_not_a_consequence(self):
        assert status([], "p != q") == UNKNOWN

    def test_antisymmetry(self):
        assert status(["i >= n", "i <= n"], "i == n") == PROVEN


class TestLia:
    def test_equality_goal_needs_ground_side(self):
        # y == x + 1 does follow, but refuting the disequality only branches
        # into orderings when one side is ground
        assert status(["x < y", "y < x + 2"], "y == x + 1") == UNKNOWN
        assert status(["x < y", "y < x + 2", "x == 0"], "y == 1") == PROVEN

    def test_coefficients(self):
        assert status(["2 * x <= 6", "x >= 3"], "x == 3") == PROVEN

    def test_negative_bounds(self):
        assert status(["x <= -1", "x >= -1"], "x == -1") == PROVEN

    def test_constant_arithmetic(self):
        assert status([], "2 + 2 == 4") == PROVEN
        assert status([], "2 < 7") == PROVEN
        assert status([], "1 < 0") == UNKNOWN

    def test_chain_of_bounds(self):
        assert status(["a <= b", "b <= c", "c <= d", "d < e"], "a < e") == PROVEN

    def test_unsatisfiable_bounds_prove_anything(self):
        assert status(["x < 0", "x > 0"], "p == q") == PROVEN

    def test_offset_reasoning(self):
        assert status(["i + 1 <= n"], "i < n") == PROVEN

    def test_no_false_positive_on_gap(self):
        assert status(["x < y"], "x + 1 < y") == UNKNOWN

    def test_nonlinear_is_opaque(self):
        assert status(["x * y == 4"], "x * y == 4") == PROVEN
        assert status(["x * y == 4", "y * x == 4"], "x == 2") == UNKNOWN

    def test_gcd_normalization_exact_above_float_precision(self):
        # 2 * x <= 2**55 + 3 allows x == 2**54 + 1; float division rounded
        # the bound down to 2**54
        assert status(["2 * x <= 36028797018963971"], "x <= 18014398509481984") == UNKNOWN
        assert status(["2 * x <= 36028797018963971"], "x <= 18014398509481985") == PROVEN

    def test_nonlinear_linearizes_after_constant_merge(self):
        assert status(["x * y == 4", "x == 2"], "y == 2") == PROVEN


class TestEuf:
    def test_transitive_equalities(self):
        assert status(["a == b", "b == c"], "a == c") == PROVEN

    def test_nested_congruence(self):
        assert status(["a == b"], "app(app(a, a), a) == app(app(b, b), b)") == PROVEN

    def test_disequality_refutes_merge(self):
        assert status(["a == b", "b == c"], "a != d") == UNKNOWN
        assert status(["a == b", "a != b"], "p == q") == PROVEN

    def test_function_arguments_not_injective(self):
        assert status(["app(a, a) == app(b, b)"], "a == b") == UNKNOWN

    def test_pure_predicates_uninterpreted(self):
        assert status(["neg(i, l1, l2)"], "neg(i, l1, l2)") == PROVEN
        assert status(["neg(i, l1, l2)", "i == n"], "neg(n, l1, l2)") == PROVEN

    def test_field_addr_opaque(self):
        assert status(["field_addr(p, data) == q"], "field_addr(p, data) == q") == PROVEN


class TestCombination:
    def test_equalities_reach_lia(self):
        assert status(["x == y", "y <= 3"], "x <= 3") == PROVEN

    def test_lia_equalities_reach_euf(self):
        assert status(["x <= y", "y <= x"], "app(x, x) == app(y, y)") == PROVEN

    def test_bounds_through_function_terms(self):
        assert status(["nth(i, l1) == v", "v < 3"], "nth(i, l1) < 3") == PROVEN

    def test_indices(self):
        assert status(["0 <= i", "i < n", "n <= 8"], "i <= 7") == PROVEN

    def test_congruence_after_the_rows_reaches_lia(self):
        # a round's rows read app(x, x) and app(y, y) as two atoms before
        # congruence merges them; the next round's rows read them as one
        assert status(["x == y", "app(x, x) < app(y, y)"], "p == q") == PROVEN
        assert status(["app(x, x) < app(y, y)"], "x != y") == PROVEN


class TestGoalForms:
    def test_conjunction_goal_splits(self):
        assert status(["0 <= i", "i < n"], "(0 <= i && i < n)") == PROVEN
        assert status(["0 <= i"], "(0 <= i && i < n)") == UNKNOWN

    def test_negated_atom_goal(self):
        assert status(["x < y"], "!(x == y)") == PROVEN

    def test_true_goal(self):
        assert status([], "true") == PROVEN

    def test_rich_goal_unknown(self):
        assert status(["x == y"], "(x == y || x < y)") == UNKNOWN

    def test_disequality_goal_with_bounds(self):
        assert status(["x < y"], "x != y") == PROVEN


class TestLiteralWalk:
    """One walk splits hypotheses and goals into literals: a hypothesis
    drops a part that is no literal, and a goal with one is unsupported."""

    @pytest.mark.parametrize(
        "hyps,goal,expected",
        [
            pytest.param(["!(true)"], "x == y", PROVEN, id="false-hypothesis"),
            pytest.param([], "!(true)", smt.UNSUPPORTED, id="false-goal"),
            pytest.param(["(x == y && (p < q || q < p))"], "y == x", PROVEN, id="hypothesis-keeps-its-literals"),
            pytest.param([], "((p < q || q < p) && x == y)", smt.UNSUPPORTED, id="goal-with-a-disjunction"),
            pytest.param(["!((x == y && p < q))"], "x != y", smt.NO_REFUTATION, id="negated-conjunction-dropped"),
            pytest.param(["x == y"], "!(!(x == y))", PROVEN, id="double-negation"),
        ],
    )
    def test_answer(self, hyps, goal, expected):
        r = infer(pures(*hyps), parse_pure(goal, SIG))
        assert (r.status if r.status is PROVEN else r.reason) == expected


class TestResultShape:
    def test_unknown_result_shape(self):
        r = infer([], parse_pure("p != q", SIG))
        assert r == QueryResult(UNKNOWN, reason=smt.NO_REFUTATION)

    def test_determinism(self):
        hs = pures("x <= i", "i < y")
        g = parse_pure("x < y", SIG)
        assert infer(hs, g) == infer(hs, g)


@given(st.data(), gen.pure_atoms(), st.lists(gen.pure_atoms(), max_size=3))
@settings(max_examples=80, deadline=None)
def test_monotonicity(data, goal, extra):
    hyps = data.draw(st.lists(gen.pure_atoms(), max_size=4))
    if infer(hyps, goal).status == PROVEN:
        assert infer(hyps + extra, goal).status == PROVEN


# ---------------------------------------------------------------------------
# Finite-model soundness: queries biased toward provable shapes, each Proven
# answer checked against exhaustive grid enumeration.  Acceptance C8 runs 500
# of them as they are; the big-constants test below shifts them.

GRID_VARS = ("x", "y", "z")
GRID_FNS = ("f", "g")


def _grid_sig():
    from sepstrat.core import Signature

    sig = Signature()
    sig.declare("f", "func", 1)
    sig.declare("g", "func", 1)
    return sig


def _random_term(rng, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return Var(rng.choice(GRID_VARS)) if rng.random() < 0.7 else IntLit(rng.randint(-3, 3))
    if roll < 0.7:
        return Apply(rng.choice(GRID_FNS), (_random_term(rng, depth - 1),))
    op = rng.choice(["+", "-"])
    return Arith(op, _random_term(rng, depth - 1), _random_term(rng, depth - 1))


def _random_atom(rng):
    op = rng.choice(["==", "<", "<=", "!=", ">=", ">"])
    l, r = _random_term(rng), _random_term(rng)
    return Eq(l, r) if op == "==" else Rel(op, l, r)


def _biased_query(rng):
    """Build (hyps, goal) with a decent chance of being provable."""
    style = rng.randrange(4)
    if style == 0:
        hyps = [_random_atom(rng) for _ in range(rng.randint(1, 3))]
        return hyps, rng.choice(hyps)
    if style == 1:
        a, b, c = (Var(v) for v in rng.sample(GRID_VARS, 3))
        hyps = [Rel("<=", a, b), Rel(rng.choice(["<", "<="]), b, c)]
        rng.shuffle(hyps)
        return hyps, Rel("<=", a, c)
    if style == 2:
        a, b = (Var(v) for v in rng.sample(GRID_VARS, 2))
        f = rng.choice(GRID_FNS)
        hyps = [Eq(a, b), _random_atom(rng)]
        return hyps, Eq(Apply(f, (a,)), Apply(f, (b,)))
    a, b = (Var(v) for v in rng.sample(GRID_VARS, 2))
    k = IntLit(rng.randint(-2, 2))
    hyps = [Eq(a, Arith("+", b, k)), _random_atom(rng)]
    return hyps, Eq(Arith("-", a, k), b)


# ---------------------------------------------------------------------------
# Big constants: each query with every variable x replaced by x - 2**60, so
# every model value shifts by 2**60 and every linear constant by a multiple
# of it, far past float precision.  The query means the same, so a Proven
# answer must have no countermodel on the grid shifted by 2**60.

BIG = 2**60


def _scaled_bound_query(rng):
    """g * x <= k |= x <= d, which holds exactly when d >= k // g; the
    solver's gcd rounding decides it."""
    g, k = rng.randint(2, 3), rng.randint(-7, 7)
    x = Var(rng.choice(GRID_VARS))
    d = k // g + rng.randint(-1, 1)
    return [Rel("<=", Arith("*", IntLit(g), x), IntLit(k))], Rel("<=", x, IntLit(d))


def _translated(f):
    return substitute(f, {v: Arith("-", Var(v), IntLit(BIG)) for v in free_vars(f)})


def test_no_shifted_grid_countermodel_with_big_constants():
    rng = random.Random(0xB16)
    proven = 0
    attempts = 0
    while proven < 60:
        attempts += 1
        assert attempts < 5000, "query generator failed to produce enough Proven cases"
        hyps, goal = (_scaled_bound_query if rng.random() < 0.4 else _biased_query)(rng)
        hyps, goal = [_translated(h) for h in hyps], _translated(goal)
        if infer(hyps, goal).status != PROVEN:
            continue
        proven += 1
        cm = helpers.find_grid_countermodel(hyps, goal, bound=3, carrier=3, offset=BIG)
        assert cm is None, (hyps, goal, cm)


def test_linearizing_a_deep_sum_adds_each_subterm_once():
    # one add_term per subterm, not one walk of the subterm per enclosing level
    t = Var("x0")
    for i in range(1, 401):
        t = Arith("+", t, Var(f"x{i}"))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is smt._CC.add_term.__code__:
            calls += 1

    sys.setprofile(count)  # counts without adding a frame per level
    try:
        coeffs, k = smt._linearize(t, smt._CC())
    finally:
        sys.setprofile(None)
    assert k == 0 and sorted(coeffs.values()) == [1] * 401
    assert calls < 4 * 400


# ---------------------------------------------------------------------------
# Reasons: why an answer is UNKNOWN


class TestReasons:
    def test_proven_has_no_reason(self):
        assert infer(pures("x <= i", "i < y"), parse_pure("x < y", SIG)).reason is None

    def test_no_refutation(self):
        assert infer(pures("x < y"), parse_pure("x + 1 < y", SIG)).reason == smt.NO_REFUTATION

    def test_unsupported_shape(self):
        r = infer(pures("x == y"), parse_pure("(x == y || x < y)", SIG))
        assert r == QueryResult(UNKNOWN, reason=smt.UNSUPPORTED)

    def test_node_budget(self, monkeypatch):
        # true, false and x fit; y is one node too many
        monkeypatch.setattr(smt, "_MAX_NODES", 3)
        hs = pures("x <= y")
        assert infer(hs, parse_pure("x <= y", SIG)).reason == smt.BUDGET_NODES
        assert smt.Context(hs).infer(parse_pure("x == y", SIG)).reason == smt.BUDGET_NODES

    def test_node_budget_of_the_loop_on_a_difference_system(self, monkeypatch):
        # the hypotheses fit in 7 nodes, and the loop pins x to 3, a literal
        # it must add; so the lookup leaves the query to the loop
        hs, goal = pures("x <= y + 1", "y <= 2", "y + 1 <= x", "2 <= y"), parse_pure("x <= 2", SIG)
        assert infer(hs, goal).reason == smt.NO_REFUTATION
        monkeypatch.setattr(smt, "_MAX_NODES", 7)
        assert infer(hs, goal).reason == smt.BUDGET_NODES

    def test_fourier_motzkin_budget(self, monkeypatch):
        # four rows, and the first derived row is one too many; the row of
        # z <= x + y + 5 is no difference edge, so the lookup leaves the
        # query to the loop
        hs, goal = pures("x <= y", "y <= z", "z <= x + y + 5"), parse_pure("z <= x", SIG)
        assert infer(hs, goal).reason == smt.NO_REFUTATION
        monkeypatch.setattr(smt, "_MAX_FM_CONSTRAINTS", 3)
        assert infer(hs, goal).reason == smt.BUDGET_FM
        # a contradiction the difference closure finds still proves
        assert infer(hs, parse_pure("x <= z", SIG)).status == PROVEN

    def test_differential_stream_reaches_every_reason(self):
        # scripts/differential.py records these answers for `diff -r`
        path = CORPUS.parent / "scripts" / "differential.py"
        spec = importlib.util.spec_from_file_location("sepstrat_differential", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        reasons = {infer(hyps, goal).reason for hyps, goal in module._stream()}
        assert reasons == {None, smt.BUDGET_NODES, smt.BUDGET_FM, smt.UNSUPPORTED, smt.NO_REFUTATION}

    def test_difference_system_needs_no_budget(self, monkeypatch):
        # a difference system with no negative cycle: the lookup answers
        # where the loop would run out of budget
        hs, goal = pures("x <= y", "y <= z", "z <= x + 5"), parse_pure("z <= x", SIG)
        monkeypatch.setattr(smt, "_MAX_FM_CONSTRAINTS", 3)
        assert infer(hs, goal).reason == smt.NO_REFUTATION
        assert _without_lookup(hs, goal).reason == smt.BUDGET_FM


# ---------------------------------------------------------------------------
# Contexts: a shared context answers as a one-shot one, and its lookup proves
# exactly what Fourier-Motzkin refutes on difference constraints.

DIFF_VARS = tuple(Var(f"x{i}") for i in range(5))
BIG_BOUND = 2**60


@st.composite
def difference_rows(draw):
    """(u, w, c) for the constraint u - w <= c, where u or w may be None, the
    constant 0; constants reach past float precision."""
    u, w = draw(st.lists(st.sampled_from((None,) + DIFF_VARS), min_size=2, max_size=2, unique=True))
    return u, w, draw(st.integers(-BIG_BOUND, BIG_BOUND))


def _row_formula(u, w, c):
    if w is None:
        return Rel("<=", u, IntLit(c))
    if u is None:
        return Rel(">=", w, IntLit(-c))
    if c % 2:  # the two ways of writing u - w <= c, by the parity of c
        return Rel("<=", Arith("-", u, w), IntLit(c))
    return Rel("<=", u, Arith("+", w, IntLit(c)))


def _fm_refutes(rows, goal) -> bool:
    """hyps and the negated goal u - w > c, that is w - u <= -c - 1, as rows
    over variable numbers, refuted by Fourier-Motzkin alone."""
    number = {v: i for i, v in enumerate(DIFF_VARS)}
    lia = smt._Lia()
    for u, w, c in list(rows) + [(goal[1], goal[0], -goal[2] - 1)]:
        coeffs = {}
        if u is not None:
            coeffs[number[u]] = 1
        if w is not None:
            coeffs[number[w]] = -1
        lia.add(coeffs, c)
    return lia.fm_unsat()


def _loop_only():
    """Every bound goal runs the refutation loop: the lookup never answers."""
    return mock.patch.object(smt.Context, "_lookup", lambda self, goal, cc: None)


def _without_lookup(hyps, goal) -> QueryResult:
    """The refutation loop's answer alone, from a one-shot context whose
    lookup never answers."""
    with _loop_only():
        return infer(hyps, goal)


@given(st.lists(difference_rows(), min_size=1, max_size=8), difference_rows())
@settings(max_examples=300, deadline=None)
def test_lookup_proves_exactly_what_fourier_motzkin_refutes(rows, goal_row):
    # goal atoms the hypotheses do not mention get fresh nodes, off the paths
    ctx = smt.Context([_row_formula(*r) for r in rows])
    neg = smt._State()
    neg.add(_row_formula(*goal_row), False)
    refuted = _fm_refutes(rows, goal_row)
    cc = ctx._cc.copy()
    # on a difference system the lookup always answers, one way or the other
    assert ctx._lookup(smt._rows(neg.bounds, (), cc), cc) is refuted
    assert (ctx.infer(_row_formula(*goal_row)).status is PROVEN) == refuted


def test_a_query_leaves_the_shared_closure_as_it_was():
    # goals with known atoms, a new atom, a new literal, and non-bound goals;
    # "y <= x" runs the loop, which merges x and i
    ctx = smt.Context(pures("x <= i", "i <= x", "i < y"))
    labels = list(ctx._cc.labels)
    classes = [ctx._cc.find(n) for n in range(len(labels))]
    for g in ("x < y", "y <= x", "z < y", "x + 3 <= y", "i <= 7", "x == y", "x != i"):
        ctx.infer(parse_pure(g, SIG))
    assert ctx._cc.labels == labels
    assert [ctx._cc.find(n) for n in range(len(labels))] == classes


@given(st.lists(difference_rows(), max_size=6), st.lists(difference_rows(), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_shared_context_answers_as_one_shot_on_difference_systems(rows, goals):
    hyps = [_row_formula(*r) for r in rows]
    contexts = {}
    for g in goals:
        goal = _row_formula(*g)
        assert infer(hyps, goal, contexts) == infer(hyps, goal) == _without_lookup(hyps, goal)


@given(st.lists(gen.pure_atoms(), max_size=5), st.lists(gen.pure_atoms(), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_shared_context_answers_as_one_shot(hyps, goals):
    contexts = {}
    for goal in goals:
        assert infer(hyps, goal, contexts) == infer(hyps, goal) == _without_lookup(hyps, goal)


def test_shared_context_answers_as_one_shot_on_engine_queries(monkeypatch):
    """Every query the engine asks on the perfbench workloads at seeds 1 and
    7 and on the corpus, answered through one context per goal, through a
    fresh one-shot context and by the refutation loop without the lookup:
    same status and reason."""
    goals = []
    for make in load_perfbench("workloads").WORKLOADS.values():
        for seed in (1, 7):
            batch = make(seed)
            sig, prog = load_library(batch.library)
            goals += [(prog, e) for e in parse_entailments(batch.text, sig)]
    for path in sorted(CORPUS.glob("*.sle")):
        sig, prog = load_library(path.stem.split("_")[0])
        goals += [(prog, e) for e in load_entailments(path.stem, sig)]

    queries: list = []
    real = smt.infer

    def recording(hyps, goal, contexts=None):
        queries.append((hyps, goal))
        return real(hyps, goal, contexts)

    monkeypatch.setattr(smt, "infer", recording)
    asked = 0
    for prog, e in goals:
        queries.clear()
        engine.run(prog, e)
        contexts = {}
        shared = [real(h, g, contexts) for h, g in queries]
        assert shared == [real(h, g) for h, g in queries]
        with _loop_only():
            assert shared == [real(h, g) for h, g in queries]
        asked += len(queries)
    assert asked > 2 * 1200


# ---------------------------------------------------------------------------
# The start of a goal negated to an equality, disequality or predicate: from a
# copy of the context's closure, against a fresh closure that numbers the
# goal's terms among the hypotheses'.


def _not_a_bound_when_negated(f) -> bool:
    return isinstance(f, (Eq, PredP)) or (isinstance(f, Rel) and f.op == "!=")


@pytest.mark.parametrize("fm_budget", [smt._MAX_FM_CONSTRAINTS, 30])
def test_closure_copy_start_answers_as_a_fresh_closure(fm_budget):
    # dense systems run Fourier-Motzkin past a budget of 30 rows, so that
    # case checks the budget path too
    reasons = set()

    @given(
        st.one_of(st.lists(gen.pure_atoms(), max_size=6), gen.dense_linear_systems()),
        st.lists(gen.pure_atoms().filter(_not_a_bound_when_negated), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def check(hyps, goals):
        with mock.patch.object(smt, "_MAX_FM_CONSTRAINTS", fm_budget):
            ctx, ref = smt.Context(hyps), helpers.ReferenceContext(hyps)
            for goal in goals:
                got = ctx.infer(goal)
                assert got == ref.infer(goal), goal
                reasons.add(got.reason)

    check()
    assert fm_budget != 30 or smt.BUDGET_FM in reasons, reasons


# ---------------------------------------------------------------------------
# The lookup's no-refutation answer: on difference systems, some mixed with
# rows that are no difference edge, the lookup and the loop give the same
# status, and the same reason but where the loop runs out of budget; a goal
# that fails in the system's model is never proven.


@pytest.mark.parametrize(
    "hyps,goal",
    [
        (["x <= 3", "x != 3"], "x <= 2"),  # a disequality
        (["neg(x, y, 0)", "!(neg(y, y, 0))", "x <= y"], "x < y"),  # a predicate
        (["x <= z", "app(x, x) < app(z, z)"], "x < z"),  # an application among the hypotheses
        (["x <= z", "field_addr(x, data) < field_addr(z, data)"], "x < z"),  # a field address
        (["x <= z", "z <= x"], "app(x, x) <= app(z, z)"),  # an application the goal adds
        (["x <= 2", "2 <= x", "y <= 3", "3 <= y", "x * y <= z"], "6 <= z"),  # a product of unknowns
        (["x <= 2", "2 <= x", "y <= 3", "3 <= y"], "x * y <= 6"),  # ... that the goal adds
    ],
)
def test_lookup_leaves_to_the_loop(hyps, goal):
    # difference rows all, no negative cycle, and the negated goal closes
    # none; what makes each provable is outside the difference system
    assert status(hyps, goal) == PROVEN


def test_lookup_answers_as_the_loop_on_difference_systems():
    lookups = []
    real = smt.Context._lookup

    def spy(self, goal, cc):
        lookups.append(real(self, goal, cc))
        return lookups[-1]

    @given(gen.difference_systems())
    @settings(max_examples=200, deadline=None)
    def check(system):
        hyps, unknown, holds = system
        contexts = {}
        for goal in unknown + holds:
            with mock.patch.object(smt.Context, "_lookup", spy):
                got = infer(hyps, goal, contexts)
            loop = _without_lookup(hyps, goal)
            assert got.status is loop.status, goal
            assert got.reason == loop.reason or (got.reason, loop.reason) == (smt.NO_REFUTATION, smt.BUDGET_FM)
            assert got.status is UNKNOWN or goal not in unknown

    check()
    # every outcome is reached: proven, no refutation, and left to the loop
    assert {True, False, None} <= set(lookups), set(lookups)
