from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from sepstrat.core import alpha_equivalent, normalize, occurring_vars
from sepstrat.frontend import (
    Item,
    Pattern,
    PatternAtom,
    Strategy,
    parse_assertion,
    parse_heap,
    parse_strategies,
    print_node,
)
from sepstrat.soundness import (
    SoundnessAnalysis,
    analyze,
    condition_of,
    inject_virtual_ops,
    soundness_of,
)

SIG = gen.test_signature()


def stg(text):
    return parse_strategies(text, SIG).strategies[0]


def sp(text):
    return parse_heap(text, SIG).spatials[0]

def pu(text):
    return parse_heap(text, SIG).pures[0]


ALIGN_CELL = stg(
    "strategy s\n"
    "  left:  data_at(?p, ?v0)\n"
    "  right: data_at(p, ?v1)\n"
    "  action:\n"
    "    left_erase(data_at(p, v0));\n"
    "    right_erase(data_at(p, v1));\n"
    "    right_add(v1 == v0);\n"
)

ABSORB = stg(
    "strategy absorb\n"
    "  priority: 1\n"
    "  left:   lseg(?p, ?q, ?l1)\n"
    "  right:  listrep(p, ?l2)\n"
    "  action:\n"
    "    left_erase(lseg(p, q, l1));\n"
    "    right_erase(listrep(p, l2));\n"
    "    exist_add(l3);\n"
    "    right_add(l2 == app(l1, l3));\n"
    "    right_add(listrep(q, l3));\n"
)

LOAD_CELL = stg(
    "strategy load\n"
    "  left:  store_array(?p, ?x, ?y, ?l)\n"
    "  right: data_at(p + 4 * ?i, ?v)\n"
    "  check: infer(x <= i);\n"
    "         infer(i < y);\n"
    "  action:\n"
    "    left_erase(store_array(p, x, y, l));\n"
    "    right_erase(data_at(p + 4 * i, v));\n"
    "    left_add(store_array_hole(p, x, y, i, l));\n"
    "    right_add(v == nth(i - x, l));\n"
)

INSTANTIATE = stg(
    "strategy inst\n  right: exists x, ?x == ?y\n  action: instantiate(x -> y);\n"
)


class TestInject:
    def test_cell_alignment_sequence(self):
        d0, d1 = sp("data_at(p, v0)"), sp("data_at(p, v1)")
        assert inject_virtual_ops(ALIGN_CELL) == [
            Item("left_erase", d0),
            Item("left_add", d0),
            Item("right_erase", d1),
            Item("right_add", d1),
            Item("left_erase", d0),
            Item("right_erase", d1),
            Item("right_add", pu("v1 == v0")),
        ]

    def test_assumes_come_first(self):
        ops = inject_virtual_ops(LOAD_CELL)
        assert ops[:2] == [Item("infer", pu("x <= i")), Item("infer", pu("i < y"))]
        arr = sp("store_array(p, x, y, l)")
        cell = sp("data_at(p + 4 * i, v)")
        assert ops[2:6] == [
            Item("left_erase", arr), Item("left_add", arr), Item("right_erase", cell), Item("right_add", cell)
        ]
        assert ops[6:] == list(LOAD_CELL.action)

    def test_pairs_only_without_action(self):
        s = Strategy(
            name="bare",
            priority=50,
            patterns=(Pattern("left", PatternAtom(sp("listrep(p, l1)"), ("p", "l1"))),),
            checks=(),
            action=(),
        )
        f = sp("listrep(p, l1)")
        assert inject_virtual_ops(s) == [Item("left_erase", f), Item("left_add", f)]

    def test_instantiate_has_no_ops(self):
        with pytest.raises(ValueError):
            inject_virtual_ops(INSTANTIATE)


class TestAnalyze:
    def test_cell_alignment_six_tuple(self):
        a = analyze(inject_virtual_ops(ALIGN_CELL))
        assert a == SoundnessAnalysis(
            vl_forall=(),
            sc=(),
            l_minus=(sp("data_at(p, v0)"),),
            l_plus=(),
            r_plus=(pu("v1 == v0"),),
            r_minus=(sp("data_at(p, v1)"),),
            v=("v1",),
        )

    def test_absorb_six_tuple(self):
        a = analyze(inject_virtual_ops(ABSORB))
        assert a.l_minus == (sp("lseg(p, q, l1)"),)
        assert a.l_plus == ()
        assert a.r_minus == (sp("listrep(p, l2)"),)
        assert a.r_plus == (pu("l2 == app(l1, l3)"), sp("listrep(q, l3)"))
        assert a.sc == () and a.vl_forall == ()
        assert a.v == ("l2", "l3")

    def test_full_cancellation(self):
        f = sp("data_at(p, v0)")
        assert analyze([Item("left_add", f), Item("left_erase", f)]) == SoundnessAnalysis((), (), (), (), (), (), ())

    def test_assume_feeds_sc_and_blocks_v(self):
        # i occurs in the assumption, so it cannot be wand-bound
        ops = [Item("infer", pu("0 <= i")), Item("right_add", pu("v == i"))]
        a = analyze(ops)
        assert a.sc == (pu("0 <= i"),)
        assert a.v == ("v",)

    def test_forall_add_collects_and_blocks(self):
        ops = [Item("forall_add", "u"), Item("right_add", pu("u == v"))]
        a = analyze(ops)
        assert a.vl_forall == ("u",) and a.v == ("v",)

    def test_erase_of_unadded_goes_to_minus(self):
        f = sp("listrep(p, l1)")
        a = analyze([Item("left_erase", f), Item("left_add", f)])
        assert a.l_minus == (f,) and a.l_plus == (f,)

    def test_cancellation_is_per_side(self):
        f = pu("x == y")
        a = analyze([Item("left_add", f), Item("right_erase", f)])
        assert a.l_plus == (f,) and a.r_minus == (f,)


_sides = st.sampled_from(["left", "right"])


@st.composite
def op_sequences(draw):
    ops = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            ops.append(Item("infer", draw(gen.pure_atoms())))
        elif kind == 1:
            ops.append(Item("forall_add", draw(st.sampled_from(gen.VAR_NAMES))))
        elif kind == 2:
            ops.append(Item("exist_add", draw(st.sampled_from(gen.VAR_NAMES))))
        else:
            f = draw(st.one_of(gen.pure_atoms(), gen.spatial_atoms()))
            side = draw(_sides)
            add = draw(st.booleans())
            ops.append(Item(f"{side}_{'add' if add else 'erase'}", f))
    return ops


def _as_multisets(a: SoundnessAnalysis):
    return (
        a.vl_forall,
        Counter(a.sc),
        Counter(a.l_minus),
        Counter(a.l_plus),
        Counter(a.r_plus),
        Counter(a.r_minus),
        frozenset(a.v),
    )


@given(op_sequences(), st.one_of(gen.pure_atoms(), gen.spatial_atoms()), _sides)
@settings(max_examples=120)
def test_add_erase_pair_cancels(ops, f, side):
    add, erase = Item(f"{side}_add", f), Item(f"{side}_erase", f)
    assert _as_multisets(analyze(ops + [add, erase])) == _as_multisets(analyze(ops))


class TestConditions:
    def test_absorb_raw_condition(self):
        c = soundness_of(ABSORB)
        assert alpha_equivalent(c.hypothesis, parse_assertion("lseg(p, q, l1)", SIG))
        assert alpha_equivalent(
            c.conclusion,
            parse_assertion(
                "emp * (forall l2 l3, (listrep(q, l3) && l2 == app(l1, l3)) -* listrep(p, l2))",
                SIG,
            ),
        )
        assert c.free_vars == ("p", "q", "l1")

    def test_cell_alignment_normalized(self):
        c = soundness_of(ALIGN_CELL)
        assert alpha_equivalent(normalize(c.hypothesis), parse_assertion("data_at(p, v0)", SIG))
        assert alpha_equivalent(
            normalize(c.conclusion),
            parse_assertion("forall v1, v1 == v0 -* data_at(p, v1)", SIG),
        )

    def test_instantiate_has_no_condition(self):
        assert soundness_of(INSTANTIATE) is None

    def test_assumptions_become_hypotheses(self):
        c = soundness_of(LOAD_CELL)
        assert alpha_equivalent(
            c.hypothesis,
            parse_assertion("x <= i && i < y && store_array(p, x, y, l)", SIG),
        )
        assert alpha_equivalent(
            c.conclusion,
            parse_assertion(
                "store_array_hole(p, x, y, i, l)"
                " * (forall v, v == nth(i - x, l) -* data_at(p + 4 * i, v))",
                SIG,
            ),
        )
        assert c.free_vars == ("x", "i", "y", "p", "l")

    def test_free_vars_exclude_bound_names(self):
        for s in (ABSORB, ALIGN_CELL, LOAD_CELL):
            c = soundness_of(s)
            a = analyze(inject_virtual_ops(s))
            assert not set(c.free_vars) & set(a.v)
            assert not set(c.free_vars) & set(a.vl_forall)
            assert len(set(c.free_vars)) == len(c.free_vars)

    def test_stable_under_print_parse_round_trip(self):
        from sepstrat.frontend import print_strategy

        for s in (ABSORB, ALIGN_CELL, LOAD_CELL):
            again = parse_strategies(print_strategy(s), SIG).strategies[0]
            assert soundness_of(again) == soundness_of(s)


class TestGoldens:
    @pytest.mark.parametrize("lib", ["sll", "array", "common"])
    def test_condition_file_is_byte_stable(self, lib, tmp_path):
        from conftest import CORPUS, GOLDENS
        from sepstrat.cli import main

        out = tmp_path / "conditions.txt"
        rc = main(
            [
                "soundness",
                "--sig",
                str(CORPUS / f"{lib}.sig"),
                "--strategies",
                str(CORPUS / f"{lib}.stg"),
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        assert out.read_text() == (GOLDENS / f"soundness_{lib}.txt").read_text()


class TestCorpusInvariants:
    @pytest.mark.parametrize("lib", ["sll", "array", "common"])
    def test_v_disjointness(self, lib, request):
        _, prog = request.getfixturevalue(lib)
        checked = 0
        for s in prog.strategies:
            if s.action[0].keyword == "instantiate":
                continue
            a = analyze(inject_virtual_ops(s))
            blocked = set(a.vl_forall)
            for f in a.sc + a.l_minus + a.l_plus:
                blocked |= set(occurring_vars(f))
            assert not set(a.v) & blocked
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("lib", ["sll", "array", "common"])
    def test_every_strategy_classified(self, lib, request):
        _, prog = request.getfixturevalue(lib)
        for s in prog.strategies:
            if s.action[0].keyword != "instantiate":
                c = soundness_of(s)
                assert c is not None and condition_of(analyze(inject_virtual_ops(s))) == c
            else:
                assert soundness_of(s) is None

    def test_printed_conditions_parse_back(self, sll, array, common):
        # Hypotheses and conclusions use `-*`, flat `&&` and `*` chains and
        # quantifiers: the assertion grammar, read back node for node.
        checked = 0
        for sig, prog in (sll, array, common):
            for s in prog.strategies:
                c = soundness_of(s)
                for a in (c.hypothesis, c.conclusion) if c is not None else ():
                    assert parse_assertion(print_node(a), sig) is a
                    checked += 1
        assert checked == 20
