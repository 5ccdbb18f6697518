from __future__ import annotations

import copy
import dataclasses
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import helpers
from conftest import CORPUS
from sepstrat.core import Apply, Arith, IntLit, Var, builder, occurring_vars, substitute
from sepstrat.frontend import MAX_DEPTH, MAX_NESTING, Item, Program, Strategy, parse_entailment, parse_strategies
from sepstrat.matcher import Plan, _match, match_strategy, plan_of

SIG = gen.test_signature()


def only_match(s, e):
    ms = list(match_strategy(s, e))
    assert len(ms) == 1
    return ms[0]


class TestWorkedExample:
    """The three-list entailment from the singly-linked-list corpus."""

    ENT = (
        "forall p q r l1 l2 l3,"
        " lseg(p, q, l1) * lseg(q, r, l2) * listrep(r, l3)"
        " |-- exists l4 l5, lseg(p, q, l4) * listrep(q, l5)"
    )

    def setup_method(self):
        text = (CORPUS / "sll.stg").read_text()
        sig = gen.test_signature()
        self.prog = parse_strategies(text, sig)
        self.e = parse_entailment(self.ENT, sig)

    def strategy(self, name):
        return next(s for s in self.prog.strategies if s.name == name)

    def test_align_lseg_binding(self):
        m = only_match(self.strategy("sll_align_lseg"), self.e)
        assert m.bindings == {
            "p": Var("p"),
            "q": Var("q"),
            "l1": Var("l1"),
            "l2": Var("l4"),
            "l3": Var("l5"),
        }
        assert m.used_conjuncts == {
            0: ("left", "spatial", 0),
            1: ("right", "spatial", 0),
            2: ("right", "spatial", 1),
        }

    def test_absorb_binding(self):
        m = only_match(self.strategy("sll_absorb_lseg"), self.e)
        assert m.bindings["p"] == Var("q") and m.bindings["q"] == Var("r")
        assert m.used_conjuncts == {0: ("left", "spatial", 1), 1: ("right", "spatial", 1)}

    def test_align_listrep_no_match(self):
        assert list(match_strategy(self.strategy("sll_align_listrep"), self.e)) == []


class TestMechanics:
    def setup_method(self):
        self.sig = gen.test_signature()

    def parse(self, stg):
        return parse_strategies(stg, self.sig).strategies[0]

    def test_injectivity(self):
        s = self.parse(
            "strategy two_cells\n"
            "  left: data_at(?p, ?v0)\n"
            "  left: data_at(?q, ?v1)\n"
            "  action: left_add(p != q);\n"
        )
        one = parse_entailment("forall p v, data_at(p, v) |-- emp", self.sig)
        assert list(match_strategy(s, one)) == []
        two = parse_entailment("forall p q v w, data_at(p, v) * data_at(q, w) |-- emp", self.sig)
        ms = list(match_strategy(s, two))
        assert [m.used_conjuncts[0][2] for m in ms] == [0, 1]
        assert [m.used_conjuncts[1][2] for m in ms] == [1, 0]

    def test_enumeration_order_is_conjunct_order(self):
        s = self.parse(
            "strategy cell\n  left: data_at(?x, ?v)\n  action: left_erase(data_at(x, v));\n"
        )
        e = parse_entailment(
            "forall p a b, data_at(p, a) * data_at(p, b) |-- emp", self.sig
        )
        ms = list(match_strategy(s, e))
        assert [m.bindings["v"] for m in ms] == [Var("a"), Var("b")]

    def test_pure_conjunct_occurrence(self):
        s = self.parse("strategy refl\n  right: ?x == x\n  action: right_erase(x == x);\n")
        e = parse_entailment("forall a b, emp |-- a == a && b == b && a == b", self.sig)
        ms = list(match_strategy(s, e))
        assert [m.used_conjuncts[0] for m in ms] == [
            ("right", "pure", 0),
            ("right", "pure", 1),
        ]

    def test_exists_binder_requires_existential(self):
        s = self.parse(
            "strategy inst\n  right: exists x, ?x == ?y\n  action: instantiate(x -> y);\n"
        )
        good = parse_entailment("forall v, emp |-- exists w, w == v", self.sig)
        m = only_match(s, good)
        assert m.bindings == {"x": Var("w"), "y": Var("v")}

        flipped = parse_entailment("forall v, emp |-- exists w, v == w", self.sig)
        assert list(match_strategy(s, flipped)) == []

        universal = parse_entailment("forall v, emp |-- v == 3", self.sig)
        assert list(match_strategy(s, universal)) == []

    def test_plain_binder_accepts_any_term(self):
        s = self.parse(
            "strategy inst\n  right: exists x, ?x == ?y\n  action: instantiate(x -> y);\n"
        )
        e = parse_entailment("forall p, emp |-- exists w, w == 3", self.sig)
        assert only_match(s, e).bindings["y"] == IntLit(3)

    def test_no_arithmetic_normalization(self):
        s = self.parse(
            "strategy load\n"
            "  right: data_at(?p + 4 * ?i, ?v)\n"
            "  action: right_erase(data_at(p + 4 * i, v));\n"
        )
        commuted = parse_entailment("forall p i, emp |-- exists v, data_at(4 * i + p, v)", self.sig)
        assert list(match_strategy(s, commuted)) == []
        literal = parse_entailment("forall p i, emp |-- exists v, data_at(p + 4 * i, v)", self.sig)
        assert only_match(s, literal).bindings["i"] == Var("i")

    def test_bound_variable_constrains_later_positions(self):
        s = self.parse(
            "strategy align\n"
            "  left: data_at(?x, ?v0)\n"
            "  right: data_at(x, ?v1)\n"
            "  action: right_add(v1 == v0);\n"
        )
        e = parse_entailment(
            "forall p q a, data_at(p, a) * data_at(q, a) |-- exists b, data_at(q, b)",
            self.sig,
        )
        m = only_match(s, e)
        assert m.bindings["x"] == Var("q")
        assert m.used_conjuncts[0] == ("left", "spatial", 1)


def _library_strategies():
    out = []
    for name in ("sll", "array", "common"):
        text = (CORPUS / f"{name}.stg").read_text()
        out.extend(parse_strategies(text, SIG).strategies)
    return out


LIBRARY = _library_strategies()


@given(gen.entailments(max_conjuncts=6))
@settings(max_examples=120, deadline=None)
def test_brute_force_equivalence(e):
    for s in LIBRARY:
        assert list(match_strategy(s, e)) == helpers.brute_match(s, e)


@given(
    st.one_of(gen.pure_formulas(), gen.spatial_atoms()),
    st.fixed_dictionaries({v: gen.terms(max_depth=2) for v in gen.VAR_NAMES}),
)
@settings(max_examples=150)
def test_pattern_of_every_variable_recovers_the_substitution(f, sigma):
    vs = occurring_vars(f)
    got = _match(f, substitute(f, sigma), {}, frozenset(vs))
    assert got == {v: sigma[v] for v in vs}


# ---------------------------------------------------------------------------
# Compiled plans: every template's builder gives the instance `substitute`
# gives, the very node, and each strategy object compiles its own plan.


def compiled_templates(s: Strategy) -> list:
    """(template, builder) for every template s's plan compiles, read off
    the strategy and the plan side by side."""
    plan = Plan(s)
    absent = [c.arg for c in s.checks if c.keyword in ("left_absent", "right_absent")]
    pairs = list(zip([p.atom.formula for p in s.patterns] + absent, plan.builders, strict=True))
    pairs += zip(absent, [build for _, build in plan.absent], strict=True)
    pairs += zip([c.arg for c in s.checks if c.keyword == "infer"], plan.infer, strict=True)
    for item, (_, li, arg, _) in zip([i for i in s.action if i.keyword != "instantiate"], plan.ops, strict=True):
        if li is not None:
            pairs.append((item.arg, arg))
    if plan.instantiate:
        pairs.append((s.action[0].arg[1], plan.instantiate[1]))
    return pairs


# a binding may leave a template variable out, as `zz` is in
# test_engine.py::TestDelta::test_named_actions, or bind extra names
bindings = st.dictionaries(st.sampled_from(gen.VAR_NAMES + ("zz", "stray")), gen.terms(max_depth=2), max_size=8)


@given(bindings)
@settings(max_examples=60)
def test_corpus_builders_give_the_substituted_node(binding):
    for s in LIBRARY:
        for template, build in compiled_templates(s):
            assert build(binding) is substitute(template, binding)


@given(gen.strategy_defs(), bindings)
@settings(max_examples=150)
def test_generated_builders_give_the_substituted_node(s, binding):
    for template, build in compiled_templates(s):
        assert build(binding) is substitute(template, binding)


def test_builder_reaches_the_parser_depth():
    chain = Var("x")
    for _ in range(MAX_DEPTH):
        chain = Arith("+", chain, Var("y"))
    call = Var("x")
    for _ in range(MAX_NESTING):
        call = Apply("nth", (call, Var("y")))
    binding = {"x": IntLit(0)}
    for t in (chain, call):
        assert builder(t)(binding) is substitute(t, binding)


def test_each_strategy_object_compiles_its_own_plan():
    s = next(s for s in LIBRARY if s.name == "com_ptr_neq")
    plan = plan_of(s)
    assert plan_of(s) is plan and s.compiled is plan  # compiled once, kept on s
    erase = dataclasses.replace(s, action=(Item("left_erase", s.patterns[0].atom.formula),))
    assert erase == dataclasses.replace(erase) and erase.compiled is None
    assert plan_of(erase) is not plan and [op[0] for op in plan_of(erase).ops] == ["left_erase"]
    direct = Strategy(s.name, s.priority, s.patterns, (), s.action)
    assert direct.compiled is None and plan_of(direct).absent == () and plan.absent != ()
    copied = pickle.loads(pickle.dumps(s))
    assert copied == s and copied.compiled is None and copy.deepcopy(s).compiled is None


def test_program_index_takes_the_first_definition():
    first, other = LIBRARY[0], dataclasses.replace(LIBRARY[1], name=LIBRARY[0].name)
    prog = Program((first, other))
    assert prog.by_name(first.name) is first and prog.by_name("nowhere") is None
    assert prog.by_name(["a list"]) is None
    assert dataclasses.replace(prog, strategies=(other,)).by_name(first.name) is other
