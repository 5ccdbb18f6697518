from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen
from conftest import CORPUS, load_perfbench
from sepstrat.core import (
    Arith,
    Assertion,
    Bin,
    Emp,
    Eq,
    IntLit,
    PredS,
    PureFormula,
    Rel,
    SpatialAtom,
    SymbolicHeap,
    Term,
    Var,
)
from sepstrat import core, frontend
from sepstrat.frontend import (
    MAX_DEPTH,
    MAX_NESTING,
    ITEMS,
    FrontendError,
    ParseError,
    parse_assertion,
    parse_entailment,
    parse_entailments,
    parse_heap,
    parse_pure,
    parse_signature,
    parse_strategies,
    parse_term,
    print_node,
    print_entailment,
    print_heap,
    print_program,
    print_signature,
    print_strategy,
)
from sepstrat.soundness import soundness_of

SIG = gen.test_signature()


class TestTerms:
    def test_precedence(self):
        t = parse_term("x + 4 * i", SIG)
        assert t == Arith("+", Var("x"), Arith("*", IntLit(4), Var("i")))

    def test_unary_minus_literal_folds(self):
        assert parse_term("-3", SIG) == IntLit(-3)

    def test_unary_minus_term(self):
        t = parse_term("-nth(i - 0, l)", SIG)
        assert t == Arith("-", IntLit(0), parse_term("nth(i - 0, l)", SIG))
        assert print_node(t) == "-nth(i - 0, l)"

    def test_no_arithmetic_normalization(self):
        t = parse_term("i - 0", SIG)
        assert t == Arith("-", Var("i"), IntLit(0))

    def test_function_arity_checked(self):
        with pytest.raises(FrontendError):
            parse_term("app(x)", SIG)

    def test_unknown_function_rejected(self):
        with pytest.raises(FrontendError):
            parse_term("mystery(x)", SIG)

    def test_field_addr(self):
        t = parse_term("field_addr(p, next)", SIG)
        assert print_node(t) == "field_addr(p, next)"


class TestHeapDisambiguation:
    def test_multiplication_inside_pure(self):
        h = parse_heap("x == y * z * listrep(y, l)", SIG)
        assert len(h.pures) == 1 and len(h.spatials) == 1
        assert h.pures[0] == Eq(Var("x"), Arith("*", Var("y"), Var("z")))

    def test_spatial_then_pure(self):
        h = parse_heap("listrep(p, l) * x == y * 2", SIG)
        assert len(h.pures) == 1 and len(h.spatials) == 1

    def test_double_ampersand_separator(self):
        h = parse_heap("0 <= i && i < n && store_array(p, 0, n, l)", SIG)
        assert len(h.pures) == 2 and len(h.spatials) == 1

    def test_emp_heap(self):
        h = parse_heap("emp", SIG)
        assert h == SymbolicHeap((), ())

    def test_parenthesized_connective_conjunct(self):
        h = parse_heap("(x == 0 || x == 1) && data_at(p, x)", SIG)
        assert isinstance(h.pures[0], Bin)
        assert h.pures[0].op == "||"

    def test_negated_pure(self):
        h = parse_heap("!(x == 0)", SIG)
        assert len(h.pures) == 1


class TestEntailments:
    def test_quantifier_prefixes(self):
        e = parse_entailment("forall p l, listrep(p, l) |-- exists q, listrep(q, l)", SIG)
        assert e.universals == ("p", "l") and e.existentials == ("q",)

    def test_unbound_variable_rejected(self):
        with pytest.raises(FrontendError):
            parse_entailment("forall p, listrep(p, l) |-- emp", SIG)

    def test_overlapping_binders_rejected(self):
        with pytest.raises(FrontendError):
            parse_entailment("forall x, x == x |-- exists x, x == x", SIG)

    def test_file_chunks_and_comments(self):
        text = """\
// leading comment
forall p l, listrep(p, l) |-- emp

// another
forall q l, lseg(q, q, l) |-- emp
"""
        ents = parse_entailments(text, SIG, "t.sle")
        assert len(ents) == 2

    def test_diagnostic_position(self):
        with pytest.raises(FrontendError) as info:
            parse_entailments("forall p,\n  listrep(p) |-- emp\n", SIG, "bad.sle")
        msg = str(info.value)
        assert msg.startswith("bad.sle:2:")

    @pytest.mark.parametrize("text, position", [("  lseg(x, y, z)", "1:3"), ("\n\nlseg(x, y, z)", "3:1")])
    def test_spatial_atom_as_pure_formula_is_reported_at_the_atom(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_pure(text, SIG, "f.pure")
        assert str(info.value) == f"f.pure:{position}: expected a pure formula"


class TestSignatureFiles:
    def test_round_trip(self):
        text = "spatial lseg/3;\npure neg/3;\nfunc app/2;\n"
        sig = parse_signature(text)
        assert print_signature(sig) == text

    def test_duplicate_declaration(self):
        with pytest.raises(FrontendError):
            parse_signature("func f/1;\nfunc f/1;\n")

    def test_one_duplicate_declaration_error(self):
        assert FrontendError is core.FrontendError
        with pytest.raises(FrontendError) as info:
            parse_signature("func f/1;\nfunc f/2;\n", "lib.sig")
        assert str(info.value) == "lib.sig:2:6: f is already declared"

    @pytest.mark.parametrize("name", sorted(core.RESERVED))
    def test_reserved_words_not_declarable(self, name):
        with pytest.raises(FrontendError) as info:
            parse_signature(f"pure {name}/1;\n", "lib.sig")
        assert str(info.value) == f"lib.sig:1:6: {name!r} is reserved and cannot be declared"


STG = """\
strategy absorb
  priority: 1
  left:   lseg(?p, ?q, ?l1)
  right:  listrep(p, ?l2)
  action:
    left_erase(lseg(p, q, l1));
    right_erase(listrep(p, l2));
    exist_add(l3);
    right_add(l2 == app(l1, l3));
    right_add(listrep(q, l3));

strategy inst
  priority: 0
  right:  exists x, ?x == ?y
  action: instantiate(x -> y);
"""

# Every item keyword, the instantiation in a strategy of its own.
ALL_ITEMS_STG = """\
strategy every_item
  priority: -3
  left:   lseg(?p, ?q, ?l1)
  right:  exists l2, listrep(p, ?l2)
  check: left_absent(p == q); right_absent(q == 0); infer(0 <= p);
  action:
    left_erase(lseg(p, q, l1));
    right_erase(listrep(p, l2));
    forall_add(u);
    exist_add(l3);
    left_add(data_at(p, u));
    right_add(l2 == app(l1, l3));
    right_add(listrep(q, l3));

strategy inst
  right:  exists x, ?x == ?y
  action: instantiate(x -> y);
"""


class TestStrategies:
    def test_parse_shape(self):
        prog = parse_strategies(STG, SIG)
        absorb, inst = prog.strategies
        assert absorb.name == "absorb" and absorb.priority == 1
        assert [p.side for p in absorb.patterns] == ["left", "right"]
        assert absorb.patterns[0].atom.binders == ("p", "q", "l1")
        assert "instantiate" not in [op.keyword for op in absorb.action] and len(absorb.action) == 5
        assert inst.patterns[0].exists_binders == ("x",)
        assert [op.keyword for op in inst.action] == ["instantiate"]

    def test_default_priority(self):
        prog = parse_strategies("strategy s\n  right: ?x == x\n  action: right_erase(x == x);\n", SIG)
        assert prog.strategies[0].priority == 50
        assert "priority" not in print_strategy(prog.strategies[0])

    def test_checks(self):
        text = (
            "strategy s\n  left: data_at(?p, ?v)\n"
            "  check: left_absent(p != p); infer(0 <= p);\n"
            "  action: left_add(p != p);\n"
        )
        s = parse_strategies(text, SIG).strategies[0]
        assert s.checks[0].keyword == "left_absent" and s.checks[1].keyword == "infer"

    def test_exists_only_on_right(self):
        text = "strategy s\n  left: exists x, ?x == x\n  action: left_erase(x == x);\n"
        with pytest.raises(ParseError):
            parse_strategies(text, SIG)

    def test_instantiate_cannot_be_combined(self):
        text = (
            "strategy s\n  right: exists x, ?x == ?y\n"
            "  action: right_erase(x == y); instantiate(x -> y);\n"
        )
        with pytest.raises(FrontendError):
            parse_strategies(text, SIG)

    def test_unbound_action_variable(self):
        text = "strategy s\n  left: listrep(?p, ?l)\n  action: left_add(listrep(p, z));\n"
        with pytest.raises(FrontendError):
            parse_strategies(text, SIG)

    def test_rebinding_rejected(self):
        text = "strategy s\n  left: lseg(?p, ?p, ?l)\n  action: left_erase(lseg(p, p, l));\n"
        with pytest.raises(FrontendError):
            parse_strategies(text, SIG)

    def test_introduced_name_must_be_new(self):
        text = (
            "strategy s\n  left: listrep(?p, ?l)\n"
            "  action: exist_add(p); left_erase(listrep(p, l));\n"
        )
        with pytest.raises(FrontendError):
            parse_strategies(text, SIG)

    def test_duplicate_strategy_names(self):
        text = STG + "\nstrategy absorb\n  right: ?x == x\n  action: right_erase(x == x);\n"
        with pytest.raises(FrontendError):
            parse_strategies(text, SIG)

    def test_program_round_trip(self):
        prog = parse_strategies(STG, SIG)
        printed = print_program(prog)
        assert parse_strategies(printed, SIG) == prog

    def test_every_item_keyword_round_trips(self):
        prog = parse_strategies(ALL_ITEMS_STG, SIG)
        assert {i.keyword for s in prog.strategies for i in s.checks + s.action} == set(ITEMS)
        back = parse_strategies(print_program(prog), SIG)
        assert back == prog
        conditions = [soundness_of(s) for s in prog.strategies]
        assert conditions[0] is not None and conditions[1] is None
        assert [soundness_of(s) for s in back.strategies] == conditions

    def test_pattern_marks_first_occurrence(self):
        prog = parse_strategies(STG, SIG)
        text = print_strategy(prog.strategies[0])
        assert "lseg(?p, ?q, ?l1)" in text
        assert "listrep(p, ?l2)" in text


class TestOnePassScope:
    """Binders are checked as the strategy is read, at the offending token."""

    SLL = parse_signature("spatial listrep/2;\nspatial lseg/3;\nfunc app/2;\n")

    @pytest.mark.parametrize(
        "pattern",
        ["right: (?x == ?y)", "left: (?x < ?y || y < x)"],
        ids=["parenthesised", "disjunction"],
    )
    def test_a_backtracked_binder_is_forgotten(self, pattern):
        prog = parse_strategies(f"strategy s\n  {pattern}\n  action: left_add(x == y);\n", self.SLL, "lib.stg")
        assert prog.strategies[0].patterns[0].atom.binders == ("x", "y")
        assert parse_strategies(print_program(prog), self.SLL) == prog

    @pytest.mark.parametrize(
        "text, where, message",
        [
            (
                "strategy s\n  left: lseg(?p, q, ?q)\n  action: left_erase(lseg(p, q, q));\n",
                "2:18", "variable 'q' has no earlier binding occurrence",
            ),
            (
                "strategy s\n  left: listrep(?p, ?l)\n  action:\n    exist_add(lseg);\n",
                "4:15", "declared symbol 'lseg' cannot be a binder",
            ),
            (
                "strategy s\n  left: listrep(?p, ?l)\n  action:\n    exist_add(emp);\n",
                "4:15", "keyword 'emp' cannot be a binder",
            ),
            (
                "strategy s\n  left: listrep(?lseg, ?l)\n  action: left_erase(listrep(lseg, l));\n",
                "2:18", "declared symbol 'lseg' cannot be a binder",
            ),
            (
                "strategy s\n  left: listrep(?p, ?l)\n  right: data_at(p + 4 * ?emp, ?v)\n  action: left_erase(listrep(p, l));\n",
                "3:27", "keyword 'emp' cannot be a binder",
            ),
            (
                "strategy s\n  right: exists y, lseg(?x, ?z, ?l) listrep(?y, ?m)\n  action: right_erase(listrep(y, m));\n",
                "2:17", "exists binder 'y' is not `?`-bound by the pattern it opens",
            ),
            (
                "strategy s\n  check: infer(0 <= p);\n  left: listrep(?p, ?l)\n  action: left_erase(listrep(p, l));\n",
                "2:21", "variable 'p' has no earlier binding occurrence",
            ),
        ],
        ids=[
            "bare-before-binder", "exist_add-symbol", "exist_add-keyword", "binder-symbol", "binder-in-a-product",
            "exists-binder", "section-order",
        ],
    )
    def test_rejected_at_the_token(self, text, where, message):
        with pytest.raises(FrontendError) as info:
            parse_strategies(text, self.SLL, "lib.stg")
        assert str(info.value) == f"lib.stg:{where}: {message}"

    def test_duplicate_name_after_a_prior_program(self):
        prior = parse_strategies(STG, SIG, "a.stg")
        text = "strategy inst\n  right: ?x == x\n  action: right_erase(x == x);\n"
        with pytest.raises(FrontendError) as info:
            parse_strategies(text, SIG, "b.stg", prior)
        assert str(info.value) == "b.stg:1:10: strategy 'inst' is already defined"
        prog = parse_strategies(text.replace("inst", "other"), SIG, "b.stg", prior)
        assert [s.name for s in prog.strategies] == ["absorb", "inst", "other"]


class TestNestingLimit:
    # name -> (parse, head, opener, body, closer, tail, column of the
    # opening token within the opener)
    CASES = {
        "formula parentheses": (parse_entailments, "forall x, ", "(", "0 < x", ")", " |-- emp", 0),
        "term parentheses": (parse_entailments, "forall x, 0 < ", "(", "x", ")", " |-- emp", 0),
        "negation": (parse_entailments, "forall x, ", "!(", "0 < x", ")", " |-- emp", 1),
        "function arguments": (parse_entailments, "forall x l, 0 < ", "nth(", "x", ", l)", " |-- emp", 3),
        "prefix minus": (parse_entailments, "forall x, 0 < ", "- ", "x", "", " |-- emp", 0),
        "product operand": (parse_entailments, "forall x, 0 < ", "x * (", "x", ")", " |-- emp", 4),
        "quantifiers": (parse_assertion, "", "forall x, ", "emp", "", "", 0),
        "wands": (parse_assertion, "", "emp -* ", "emp", "", "", 4),
    }

    def nested(self, case, depth):
        parse, head, opener, body, closer, tail, at = self.CASES[case]
        text = head + opener * depth + body + closer * depth + tail
        return parse, text, len(head) + (depth - 1) * len(opener) + at + 1

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_limit_accepted(self, case):
        parse, text, _ = self.nested(case, MAX_NESTING)
        parse(text, SIG, "deep.sle")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_level_more_rejected_at_its_opening_token(self, case):
        parse, text, col = self.nested(case, MAX_NESTING + 1)
        with pytest.raises(FrontendError) as info:
            parse(text, SIG, "deep.sle")
        assert str(info.value) == f"deep.sle:1:{col}: nesting deeper than {MAX_NESTING} levels"


class TestChainLimit:
    # name -> (head, operand, operator, tail, height of an operand, nesting
    # depth of the chain)
    CASES = {
        "sum": ("forall x, 0 < ", "x", " + ", " |-- emp", 1, 0),
        "difference": ("forall x, 0 < ", "x", " - ", " |-- emp", 1, 0),
        "product": ("forall x, 0 < ", "x", " * ", " |-- emp", 1, 0),
        "parenthesised sum": ("forall x, 0 < (", "x", " + ", ") |-- emp", 1, 1),
        "conjunction": ("forall x, (", "0 < x", " && ", ") |-- emp", 2, 1),
        "disjunction": ("forall x, (", "0 < x", " || ", ") |-- emp", 2, 1),
        "equivalence": ("forall x, (", "0 < x", " <-> ", ") |-- emp", 2, 1),
    }

    def chain(self, case, extra):
        """The longest chain the bound admits, plus extra operands, and the
        column of its last operator."""
        head, operand, op, tail, h, depth = self.CASES[case]
        n = MAX_DEPTH + 1 - h - depth + extra
        text = head + op.join([operand] * n) + tail
        col = len(head) + (n - 1) * len(operand) + (n - 2) * len(op) + len(op) - len(op.lstrip()) + 1
        return text, col

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_limit_accepted(self, case):
        text, _ = self.chain(case, 0)
        [e] = parse_entailments(text, SIG, "long.sle")
        assert core.height(e.lhs) <= MAX_DEPTH + 2

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_operand_more_rejected_at_its_operator(self, case):
        text, col = self.chain(case, 1)
        with pytest.raises(FrontendError) as info:
            parse_entailments(text, SIG, "long.sle")
        assert str(info.value) == f"long.sle:1:{col}: operator chain deeper than {MAX_DEPTH} levels"

    def test_nesting_counts_toward_the_bound(self):
        text, _ = self.chain("sum", 0)
        with pytest.raises(FrontendError, match="operator chain deeper"):
            parse_entailments(text.replace("0 < ", "0 < nth(").replace(" |--", ", l) |--"), SIG)

    @pytest.mark.parametrize("op", [" + ", " && "])
    def test_long_chain_in_a_strategy(self, op):
        operand = "x" if op == " + " else "0 < x"
        chain = op.join([operand] * 2000)
        text = f"strategy s\n  left: ?x == x\n  check: infer(({chain}) == 0);\n  action: left_erase(x == x);\n"
        with pytest.raises(FrontendError, match="operator chain deeper"):
            parse_strategies(text, SIG)


class TestOperatorTable:
    def test_rejected_product_is_not_retried(self, monkeypatch):
        # A `*` whose right operand is not a term is tried once as a product,
        # however many operator levels are open around it.
        from sepstrat.frontend import _Parser

        calls = 0
        primary = _Parser._primary

        def counting(self):
            nonlocal calls
            calls += 1
            return primary(self)

        monkeypatch.setattr(_Parser, "_primary", counting)
        depth = 12
        text = "forall x, 0 < " + "x + x * (" * depth + "emp" + ")" * depth + " |-- emp"
        with pytest.raises(ParseError, match="expected a relational operator"):
            parse_entailments(text, SIG)
        assert calls < 20 * depth

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("x - y - z + w", Arith("+", Arith("-", Arith("-", Var("x"), Var("y")), Var("z")), Var("w"))),
            ("x * y + z * w", Arith("+", Arith("*", Var("x"), Var("y")), Arith("*", Var("z"), Var("w")))),
        ],
    )
    def test_term_levels(self, text, expected):
        assert parse_term(text, SIG) == expected

    def test_pure_levels(self):
        a, b, c, d = (Rel("<", IntLit(0), Var(v)) for v in "xyzw")
        f = parse_pure("(0 < x && 0 < y || 0 < z -> 0 < w <-> 0 < x -> 0 < y -> 0 < z)", SIG)
        right = Bin("->", a, Bin("->", b, c))
        assert f == Bin("<->", Bin("->", Bin("||", Bin("&&", a, b), c), d), right)

    def test_assertion_levels(self):
        from sepstrat.core import AndA, ForallA, PureA, SepConj, SpatialA, Wand

        a = parse_assertion("emp * emp && emp -* forall x, emp -* emp * emp", SIG)
        e = SpatialA(Emp())
        assert a == Wand(AndA((SepConj((e, e)), e)), ForallA(("x",), Wand(e, SepConj((e, e)))))
        assert isinstance(parse_assertion("x == 0 && emp", SIG).parts[0], PureA)

    @pytest.mark.parametrize("text, col", [("\u00b2", 1), ("x + \u00b2", 5), ("x * \u0663", 5)])
    def test_only_ascii_digits_are_numbers(self, text, col):
        with pytest.raises(ParseError) as info:
            parse_term(text, SIG, "u.sle")
        assert str(info.value) == f"u.sle:1:{col}: unexpected character {text[-1]!r}"

    def test_unicode_digit_in_signature(self):
        with pytest.raises(ParseError) as info:
            parse_signature("spatial p/\u00b2;", "u.sig")
        assert str(info.value) == "u.sig:1:11: unexpected character '\u00b2'"


class TestAssertions:
    CASES = [
        "emp",
        "data_at(p, v0) * data_at(q, v1)",
        "lseg(p, q, l1) |-- emp * (forall l2 l3, (l2 == app(l1, l3) && listrep(q, l3)) -* listrep(p, l2))",
    ]

    def test_wand_round_trip(self):
        text = "emp * (forall v1, v1 == v0 -* data_at(p, v1))"
        a = parse_assertion(text, SIG)
        assert print_node(a) == text

    def test_nested_quantifiers(self):
        text = "exists p, data_at(p, v) * (forall w, w == v -* data_at(p, w))"
        a = parse_assertion(text, SIG)
        assert print_node(a) == text


# ---------------------------------------------------------------------------
# Round-trip properties


@given(gen.terms())
@settings(max_examples=80)
@example(Arith("-", IntLit(0), IntLit(0)))
@example(Arith("*", Arith("-", IntLit(0), IntLit(3)), Var("x")))
def test_term_round_trip(t):
    assert parse_term(print_node(t), SIG) == t


@given(gen.pure_formulas())
@settings(max_examples=80)
def test_pure_round_trip(f):
    assert parse_pure(print_node(f), SIG) == f


@given(gen.heaps())
@settings(max_examples=80)
def test_heap_round_trip(h):
    assert parse_heap(print_heap(h), SIG) == h


@given(gen.entailments())
@settings(max_examples=80)
def test_entailment_round_trip(e):
    assert parse_entailment(print_entailment(e), SIG) == e


# ---------------------------------------------------------------------------
# One table of call atoms per parse


def _documents():
    """(id, library, text, whether it repeats an atom by design) of the
    perfbench seed 1 and 7 batches and of every corpus goal file."""
    wl = load_perfbench("workloads")
    for workload, make in wl.WORKLOADS.items():
        for seed in (1, 7):
            batch = make(seed)
            yield f"{workload}-{seed}", batch.library, batch.text, True
    for path in sorted(CORPUS.glob("*.sle")):
        yield path.name, path.name.split("_")[0], path.read_text(), False


@pytest.mark.parametrize("lib,text,repeats", [d[1:] for d in _documents()], ids=[d[0] for d in _documents()])
def test_atom_table_gives_the_nodes_of_separate_parses(lib, text, repeats, request, monkeypatch):
    sig, _ = request.getfixturevalue(lib)
    calls = []
    real = frontend._Parser._call

    def counting(p):
        calls.append(p.pos)
        return real(p)

    monkeypatch.setattr(frontend._Parser, "_call", counting)
    tabled = parse_entailments(text, sig)
    read = len(calls)
    # nodes compare by identity, so each conjunct is the very node a
    # separate parse of its chunk builds
    assert tabled == [parse_entailment(chunk, sig) for _, chunk in frontend._chunks(text)]
    # the table is read for a repeated atom, which a separate parse parses again
    assert read < len(calls) - read if repeats else read <= len(calls) - read


def test_atom_table_is_read_at_depth_0_only():
    # the second goal holds the first one's atom so deep that the atom's own
    # `(` passes the nesting bound, which a read of the table would skip
    deep = "(" * MAX_NESTING + "neg(x, x, x)" + ")" * MAX_NESTING
    text = f"forall x, neg(x, x, x) |-- emp\n\nforall x, {deep} |-- emp\n"
    col = len("forall x, ") + MAX_NESTING + len("neg") + 1
    with pytest.raises(FrontendError) as info:
        parse_entailments(text, SIG, "deep.sle")
    assert str(info.value) == f"deep.sle:3:{col}: nesting deeper than {MAX_NESTING} levels"


# ---------------------------------------------------------------------------
# Printed text cached on the nodes

def _nodes(x):
    """x and every node below it, parents before children."""
    out = [x]
    for c in core._children(x):
        out.extend(_nodes(c))
    return out


def _forget(nodes):
    """Drop the printed text the printer kept on these nodes."""
    for n in nodes:
        try:
            object.__delattr__(n, "_text")
        except AttributeError:  # never printed
            pass


def _parse_back(n, sig):
    """The node that n's printed text parses to; a spatial atom's text is
    parsed as a heap, which drops emp."""
    text = print_node(n)
    if isinstance(n, SpatialAtom):
        spatials = parse_heap(text, sig).spatials
        return Emp() if spatials == () else spatials[0]
    parse = {Term: parse_term, PureFormula: parse_pure, Assertion: parse_assertion}
    return next(f for family, f in parse.items() if isinstance(n, family))(text, sig)


def _check_cached_text(nodes, sig):
    """Each node's text, kept or not, in either printing order, is the text
    printed with nothing kept, and parses back to the node itself."""
    uncached = {}
    for n in nodes:
        _forget(nodes)
        uncached[n] = print_node(n)
    for order in (nodes, nodes[::-1]):  # parents first, then children first
        _forget(nodes)
        for n in order:
            assert print_node(n) == uncached[n]  # first call, computed or cached
            assert print_node(n) == uncached[n]  # repeated call, cached
    for n in nodes:
        assert _parse_back(n, sig) is n


class TestPrinterFamilies:
    @pytest.mark.parametrize("value", [3, "x", None])
    def test_a_printer_rejects_values_that_are_not_nodes(self, value):
        with pytest.raises(TypeError, match="print_node: unsupported value"):
            print_node(value)


@given(gen.entailments())
@settings(max_examples=80)
@example(parse_entailment("forall x, 0 < x + 1 * (x - 2) && x == 0 - x && 0 - 0 == 0 |-- emp", SIG))
def test_cached_text_is_the_uncached_text(e):
    _check_cached_text([n for h in (e.lhs, e.rhs) for n in _nodes(h) if type(n) is not SymbolicHeap], SIG)


@pytest.mark.parametrize("lib", ["sll", "array", "common"])
def test_cached_assertion_text_is_the_uncached_text(lib, request):
    # the soundness conditions hold every assertion form: `-*`, flat `&&`
    # and `*` chains, and quantifiers, with their operands inside them
    sig, prog = request.getfixturevalue(lib)
    conditions = [c for c in map(soundness_of, prog.strategies) if c is not None]
    assert conditions
    for c in conditions:
        for a in (c.hypothesis, c.conclusion):
            _check_cached_text(_nodes(a), sig)


# ---------------------------------------------------------------------------
# The lexer against the per-character loop it replaced


_PUNCT = re.compile(r"\|--|<->|->|-\*|==|!=|<=|>=|&&|\|\||[(),;:*+\-/!?<>]")  # longest first
_DIGITS = "0123456789"


def oracle_lex(text: str, path: str, start_line: int = 1) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) of each token and of the eof token: one
    character class at a time, as the lexer once read its input."""
    toks = []
    i = 0
    line = start_line
    col = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        m = _PUNCT.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {c!r}", path, line, col)
        toks.append(("punct", m.group(), line, col))
        col += len(m.group())
        i += len(m.group())
    toks.append(("eof", "", line, col))
    return toks


def lex(text: str, path: str, start_line: int = 1) -> list[tuple[str, str, int, int]]:
    """The lexer's tokens, both eofs included, each with its kind as the
    parser reads it and the position a diagnostic at it would report."""
    toks = frontend._lex(text, path, start_line)
    return [(frontend._kind(t), t, *frontend._position(text, start_line, i)) for i, t in enumerate(toks)]


def _lexed(lexer, text: str, start_line: int):
    """The tokens, or the error text."""
    try:
        return lexer(text, "f.sle", start_line)
    except ParseError as exc:
        return str(exc)


# Characters the two readings could disagree on: ASCII of every class,
# letters and digits outside ASCII (`é`, titlecase `ǅ`, superscript `²`,
# Arabic-Indic `٣`, Roman numeral `Ⅻ`), whitespace the lexer does not skip.
_LEX_ALPHABET = "ax_'09 \t\r\n\f/|-<>=!&*+(),;:?" + "\u00e9\u01c5\u00b2\u0663\u216b"
_LEX_PIECES = ["//", "|--", "<->", "->", "-*", "&&", "||", "// c", "lseg", "x1'"]


@given(
    st.lists(st.one_of(st.sampled_from(_LEX_ALPHABET), st.sampled_from(_LEX_PIECES), st.characters()), max_size=30),
    st.integers(1, 5),
)
@settings(max_examples=400)
@example(["x", " ", "//", " c"], 1)  # a comment at the end: its characters are not columns
@example(["a", "\t", "\r", "b", "\n", "\u00e9", "\u01c5", "\u00b2"], 3)
@example(["x", "\f"], 1)
@example(["\u0663"], 2)
@example(["\u216b"], 1)
def test_lexer_matches_the_per_character_oracle(pieces, start_line):
    text = "".join(pieces)
    got = _lexed(lex, text, start_line)
    want = _lexed(oracle_lex, text, start_line)
    if isinstance(want, list):  # the lexer pads its list with a second eof
        want.append(want[-1])
    assert got == want


@given(gen.programs())
@settings(max_examples=60)
def test_strategy_round_trip(prog):
    assert parse_strategies(print_program(prog), SIG) == prog
