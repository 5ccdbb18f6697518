from __future__ import annotations

import copy
import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import helpers
from conftest import CORPUS, load_entailments, load_library
from sepstrat import engine, frontend, matcher, smt
from sepstrat.core import DataAt, Entailment, Eq, IntLit, Rel, SymbolicHeap, Var, well_formed
from sepstrat.engine import (
    ReductionTrace,
    ReplayError,
    TRACE_SCHEMA_VERSION,
    TraceStep,
    Verdict,
    apply_action,
    document_to_json,
    replay_document,
    run,
    run_checks,
    step,
    trace_to_dict,
    traces_to_document,
)
from sepstrat.frontend import (
    Item,
    parse_entailment,
    parse_strategies,
    print_node,
)
from sepstrat.matcher import match_strategy
from sepstrat.smt import ProofStatus

SIG = gen.test_signature()


def stg(text):
    return parse_strategies(text, SIG).strategies[0]


def ent(text):
    return parse_entailment(text, SIG)


def first_binding(s, e):
    return next(iter(match_strategy(s, e))).bindings


def arrays_goal(sig, k, bound):
    """k arrays a_j read at i_j, with 0 <= i_1, i_{j+1} == i_j + 1 and
    i_bound < n: every read past i_bound has an unprovable i_j < n, so the
    goal is stuck when bound < k and frames the holes when bound == k."""
    idx = range(1, k + 1)
    universals = " ".join(["n"] + [f"a{j} l{j} i{j}" for j in idx])
    pures = ["0 <= i1"] + [f"i{j + 1} == i{j} + 1" for j in idx[:-1]] + [f"i{bound} < n"]
    arrays = " * ".join(f"store_array(a{j}, 0, n, l{j})" for j in idx)
    reads = " * ".join(f"data_at(a{j} + 4 * i{j}, v{j})" for j in reversed(idx))
    values = " ".join(f"v{j}" for j in idx)
    return parse_entailment(
        f"forall {universals}, {' && '.join(pures)} && {arrays} |-- exists {values}, {reads}", sig
    )


@pytest.fixture
def infer_calls(monkeypatch):
    """Every (hypotheses, goal) that reaches smt.infer, in call order."""
    calls = []
    real = smt.infer

    def counting(hyps, goal, contexts=None):
        calls.append((tuple(hyps), goal))
        return real(hyps, goal, contexts)

    monkeypatch.setattr(smt, "infer", counting)
    return calls


class TestRunChecks:
    ABSENT = stg(
        "strategy s\n  left: data_at(?p, ?v)\n  check: left_absent(p != p);\n"
        "  action: left_add(p != p);\n"
    )

    def test_absence_holds(self):
        e = ent("forall p v, data_at(p, v) |-- emp")
        assert run_checks(self.ABSENT, first_binding(self.ABSENT, e), e) == []

    def test_absence_fails_on_structural_presence(self):
        e = ent("forall p v, p != p && data_at(p, v) |-- emp")
        assert run_checks(self.ABSENT, first_binding(self.ABSENT, e), e) is None

    def test_absence_is_structural_not_semantic(self):
        # q != p is logically the same fact but not structurally equal
        s = stg(
            "strategy s\n  left: data_at(?p, ?v)\n  left: data_at(?q, ?w)\n"
            "  check: left_absent(p != q);\n  action: left_add(p != q);\n"
        )
        e = ent("forall p q v w, q != p && data_at(p, v) * data_at(q, w) |-- emp")
        b = {"p": Var("p"), "q": Var("q"), "v": Var("v"), "w": Var("w")}
        assert run_checks(s, b, e) == []

    def test_right_absent(self):
        s = stg(
            "strategy s\n  left: data_at(?p, ?v)\n  check: right_absent(v == 0);\n"
            "  action: left_erase(data_at(p, v));\n"
        )
        free = ent("forall p v, data_at(p, v) |-- emp")
        assert run_checks(s, first_binding(s, free), free) == []
        present = ent("forall p v, data_at(p, v) |-- v == 0")
        assert run_checks(s, first_binding(s, present), present) is None

    def test_infer_records_condition(self):
        s = stg(
            "strategy s\n  left: data_at(?p, ?v)\n  check: infer(0 <= v);\n"
            "  action: left_erase(data_at(p, v));\n"
        )
        e = ent("forall p v, 1 <= v && data_at(p, v) |-- emp")
        conds = run_checks(s, first_binding(s, e), e)
        assert len(conds) == 1
        c = conds[0]
        assert c.status is ProofStatus.PROVEN
        assert c.goal == ent("forall v, 0 <= v |-- emp").lhs.pures[0]
        assert c.strategy == "s" and c.step_index == -1

    def test_infer_failure_rejects(self):
        s = stg(
            "strategy s\n  left: data_at(?p, ?v)\n  check: infer(v < 0);\n"
            "  action: left_erase(data_at(p, v));\n"
        )
        e = ent("forall p v, data_at(p, v) |-- emp")
        assert run_checks(s, first_binding(s, e), e) is None


class TestApplyAction:
    def test_erase_removes_first_occurrence_only(self):
        s = stg(
            "strategy s\n  left: data_at(?p, ?v)\n"
            "  action: left_erase(data_at(p, v));\n"
        )
        e = ent("forall p v, data_at(p, v) * data_at(p, v) |-- emp")
        e2, _ = apply_action(s, first_binding(s, e), e)
        assert len(e2.lhs.spatials) == 1

    def test_erase_missing_fails(self):
        s = stg(
            "strategy s\n  right: ?x == ?y\n"
            "  action: right_erase(x == y); right_erase(x == y);\n"
        )
        e = ent("forall a b, emp |-- a == b")
        assert apply_action(s, first_binding(s, e), e) is None

    def test_adds_append_in_order(self):
        s = stg(
            "strategy s\n  left: data_at(?p, ?v)\n"
            "  action: right_add(v == 0); right_add(v == 1); left_add(0 <= p);\n"
        )
        e = ent("forall p v, data_at(p, v) |-- emp")
        e2, _ = apply_action(s, first_binding(s, e), e)
        assert e2.rhs.pures == ent("forall v, v == 0 && v == 1 |-- emp").lhs.pures
        assert e2.lhs.pures[-1] == ent("forall p, 0 <= p |-- emp").lhs.pures[0]

    def test_fresh_names_avoid_entailment_names(self):
        s = stg(
            "strategy s\n  left: data_at(?p, ?w)\n"
            "  action: exist_add(v); right_add(v == w); left_erase(data_at(p, w));\n"
        )
        plain = ent("forall p w, data_at(p, w) |-- emp")
        e2, sigma = apply_action(s, first_binding(s, plain), plain)
        assert e2.existentials == ("v",) and sigma["v"] == Var("v")

        taken = ent("forall p v, data_at(p, v) |-- emp")
        e2, sigma = apply_action(s, first_binding(s, taken), taken)
        assert e2.existentials == ("v'1",) and sigma["v"] == Var("v'1")

    def test_forall_add(self):
        s = stg(
            "strategy s\n  left: data_at(?p, ?w)\n"
            "  action: forall_add(u); left_add(u == u);\n"
        )
        e = ent("forall p w, data_at(p, w) |-- emp")
        e2, _ = apply_action(s, first_binding(s, e), e)
        assert e2.universals == ("p", "w", "u")

    def test_seeded_fresh_name_is_respected(self):
        s = stg(
            "strategy s\n  left: data_at(?p, ?w)\n"
            "  action: exist_add(v); right_add(v == w);\n"
        )
        e = ent("forall p w, data_at(p, w) |-- emp")
        b = dict(first_binding(s, e))
        b["v"] = Var("fresh")
        e2, sigma = apply_action(s, b, e)
        assert e2.existentials == ("fresh",) and sigma["v"] == Var("fresh")

    def test_seeded_fresh_name_collision_fails(self):
        s = stg(
            "strategy s\n  left: data_at(?p, ?w)\n"
            "  action: exist_add(v); right_add(v == w);\n"
        )
        e = ent("forall p w, data_at(p, w) |-- emp")
        b = dict(first_binding(s, e))
        b["v"] = Var("p")
        assert apply_action(s, b, e) is None

    def test_emp_is_not_a_legal_operand(self):
        from sepstrat.frontend import ParseError

        with pytest.raises(ParseError, match="emp"):
            stg("strategy s\n  left: data_at(?p, ?w)\n  action: left_add(emp);\n")

    def test_emp_add_in_constructed_action_is_dropped(self):
        import dataclasses

        from sepstrat.core import Emp

        s = stg("strategy s\n  left: data_at(?p, ?w)\n  action: left_add(0 <= p);\n")
        s = dataclasses.replace(s, action=(*s.action, Item("left_add", Emp())))
        e = ent("forall p w, data_at(p, w) |-- emp")
        e2, _ = apply_action(s, first_binding(s, e), e)
        assert len(e2.lhs.spatials) == 1 and len(e2.lhs.pures) == 1


class TestInstantiate:
    INST = stg(
        "strategy s\n  right: exists x, ?x == ?y\n  action: instantiate(x -> y);\n"
    )

    def test_substitutes_and_drops_binder(self):
        e = ent("forall v, emp |-- exists w, w == v && listrep(w, v)")
        e2, _ = apply_action(self.INST, first_binding(self.INST, e), e)
        assert e2 == ent("forall v, emp |-- v == v && listrep(v, v)")

    def test_rejects_non_variable_target(self):
        e = ent("forall v, emp |-- exists w, w == v")
        assert apply_action(self.INST, {"x": IntLit(3), "y": Var("v")}, e) is None

    def test_rejects_universal_target(self):
        e = ent("forall v, emp |-- exists w, w == v")
        assert apply_action(self.INST, {"x": Var("v"), "y": Var("v")}, e) is None

    def test_rejects_self_reference(self):
        e = ent("forall v, emp |-- exists w, w == w + 0")
        assert apply_action(self.INST, {"x": Var("w"), "y": Var("w")}, e) is None

    def test_rejects_escaping_variables(self):
        e = ent("forall v, emp |-- exists w, w == v")
        assert apply_action(self.INST, {"x": Var("w"), "y": Var("zz")}, e) is None

    def test_other_existentials_may_appear(self):
        e = ent("forall v, emp |-- exists w u, w == u")
        e2, _ = apply_action(self.INST, {"x": Var("w"), "y": Var("u")}, e)
        assert e2 == ent("forall v, emp |-- exists u, u == u")


class TestStep:
    def test_priority_order(self):
        prog = parse_strategies(
            "strategy late\n  priority: 9\n  right: ?x == ?y\n  action: right_erase(x == y);\n"
            "\n"
            "strategy early\n  priority: 1\n  right: ?x == ?y\n  action: right_erase(x == y);\n",
            SIG,
        )
        ts = step(prog, ent("forall a, emp |-- a == a"))
        assert ts.strategy == "early"

    def test_declaration_order_breaks_ties(self):
        prog = parse_strategies(
            "strategy first\n  right: ?x == ?y\n  action: right_erase(x == y);\n"
            "\n"
            "strategy second\n  right: ?x == ?y\n  action: right_erase(x == y);\n",
            SIG,
        )
        assert step(prog, ent("forall a, emp |-- a == a")).strategy == "first"

    def test_candidate_retry_within_strategy(self):
        # the first match fails its action (erase of a missing conjunct after
        # a double-erase); the second candidate succeeds
        prog = parse_strategies(
            "strategy pick\n  right: ?x == ?y\n"
            "  check: left_absent(x != y);\n"
            "  action: right_erase(x == y);\n",
            SIG,
        )
        e = ent("forall a b, a != a && emp |-- a == a && b == b")
        ts = step(prog, e)
        assert ts is not None
        assert ts.substitution == (("x", Var("b")), ("y", Var("b")))

    def test_none_when_nothing_applies(self):
        prog = parse_strategies(
            "strategy s\n  left: listrep(?p, ?l)\n  action: left_erase(listrep(p, l));\n",
            SIG,
        )
        assert step(prog, ent("forall a, emp |-- a == a")) is None


class TestRun:
    def test_rejects_bad_arguments(self):
        prog = parse_strategies("strategy s\n  right: ?x == ?y\n  action: right_erase(x == y);\n", SIG)
        with pytest.raises(ValueError):
            run(prog, ent("forall a, emp |-- a == a"), max_steps=0)
        from sepstrat.core import Eq

        unbound = Entailment((), SymbolicHeap((Eq(Var("zz"), Var("zz")),), ()), (), SymbolicHeap((), ()))
        with pytest.raises(ValueError):
            run(prog, unbound)

    def test_purified_immediately(self):
        prog = parse_strategies("strategy s\n  right: ?x == ?y\n  action: right_erase(x == y);\n", SIG)
        tr = run(prog, ent("forall a, emp |-- a == a"))
        assert tr.verdict is Verdict.PURIFIED and len(tr.steps) == 1
        assert tr.final == ent("forall a, emp |-- emp")
        assert tr.frame is None

    def test_side_condition_step_indices(self, array):
        sig, prog = array
        e = load_entailments("array_basic", sig)[0]
        tr = run(prog, e)
        seen = 0
        for i, ts in enumerate(tr.steps):
            for c in ts.side_conditions:
                assert c.step_index == i
                seen += 1
        assert seen >= 2

    def test_final_property_without_steps(self, sll):
        sig, prog = sll
        e = load_entailments("sll_cycle_guard", sig)[0]
        tr = run(prog, e)
        assert tr.verdict is Verdict.STUCK and tr.steps == () and tr.final == e


class TestVerdicts:
    def test_step_limit_probe(self, common):
        sig, prog = common
        cells = load_entailments("common_cells", sig)[0]
        limited = run(prog, cells, max_steps=5)
        assert limited.verdict is Verdict.STEP_LIMIT
        assert len(limited.steps) == 5 and limited.frame is None

        exact = run(prog, cells, max_steps=20)
        assert exact.verdict is Verdict.FRAME_INFERRED
        assert len(exact.steps) == 20
        assert exact.frame == exact.final.lhs

    def test_step_refuses_a_store_at_another_entailment(self, common):
        sig, prog = common
        cells = load_entailments("common_cells", sig)[0]
        store = matcher.MatchStore(list(prog.strategies), cells)
        nxt = step(prog, cells, store=store)
        assert nxt is not None
        with pytest.raises(ValueError, match="not at the given entailment"):
            step(prog, nxt.entailment_after, store=store)

    def test_purified_wins_over_step_limit(self, common):
        sig, prog = common
        e = parse_entailment("forall v, emp |-- exists a b, a == v && b == v", sig)
        tr = run(prog, e, max_steps=1)
        # a second instantiation is still available, but the entailment is
        # already spatial-free
        assert tr.verdict is Verdict.PURIFIED and len(tr.steps) == 1

    def test_run_continues_past_purification(self, common):
        sig, prog = common
        e = parse_entailment("forall v, emp |-- exists a b, a == v && b == v", sig)
        tr = run(prog, e)
        assert tr.verdict is Verdict.PURIFIED
        assert [ts.strategy for ts in tr.steps] == ["com_inst_eq", "com_inst_eq"]
        assert tr.final == parse_entailment("forall v, emp |-- v == v && v == v", sig)


def stepped(prog, e, max_steps=1000):
    """run() rebuilt from calls of the public step, each with its own solver
    contexts."""
    steps = []
    cur = e
    while len(steps) < max_steps and (ts := step(prog, cur)) is not None:
        steps.append(ts)
        cur = ts.entailment_after
    if not cur.lhs.spatials and not cur.rhs.spatials:
        verdict = Verdict.PURIFIED
    elif len(steps) == max_steps and step(prog, cur) is not None:
        verdict = Verdict.STEP_LIMIT
    elif not cur.rhs.spatials:
        verdict = Verdict.FRAME_INFERRED
    else:
        verdict = Verdict.STUCK
    frame = cur.lhs if verdict is Verdict.FRAME_INFERRED else None
    return ReductionTrace(input=e, steps=tuple(steps), verdict=verdict, frame=frame)


def trace_json(tr):
    return document_to_json(traces_to_document([tr]))


class TestInferMemo:
    def test_run_solves_each_distinct_query_once(self, array, infer_calls, monkeypatch):
        sig, prog = array
        e = arrays_goal(sig, 4, 2)
        decided = []  # the goals each context decides rather than looks up
        real = smt.Context._decide

        def counting(ctx, goal):
            decided.append(goal)
            return real(ctx, goal)

        monkeypatch.setattr(smt.Context, "_decide", counting)
        tr = run(prog, e)
        assert tr.verdict is Verdict.STUCK
        solved = set(infer_calls)
        assert len(decided) == len(solved) < len(infer_calls)
        # stepping with fresh contexts per step decides the same queries again
        infer_calls.clear()
        decided.clear()
        assert trace_json(stepped(prog, e)) == trace_json(tr)
        assert set(infer_calls) == solved and len(decided) > len(solved)

    def test_no_state_survives_a_run(self, array, infer_calls):
        sig, prog = array
        e = arrays_goal(sig, 4, 2)
        first = trace_json(run(prog, e))
        solved = len(infer_calls)
        assert trace_json(run(prog, e)) == first
        assert len(infer_calls) == 2 * solved

    def test_hypothesis_rows_are_linearized_once_per_run(self, array, infer_calls, monkeypatch):
        # all 32 queries share one antecedent: its rows are built once, and
        # each query linearizes only its own goal
        sig, prog = array
        e = arrays_goal(sig, 16, 16)
        rows = []
        real = smt._le_row

        def counting(l, r, cc):
            rows.append((l, r))
            return real(l, r, cc)

        monkeypatch.setattr(smt, "_le_row", counting)
        assert run(prog, e).verdict is Verdict.FRAME_INFERRED
        assert len(infer_calls) == 32 and {h for h, _ in infer_calls} == {e.lhs.pures}
        hyp_rows = [(f.left, f.right) for f in e.lhs.pures]
        assert all(rows.count(lr) == 1 for lr in hyp_rows)
        assert len(rows) <= len(hyp_rows) + len(infer_calls)

    def test_contexts_live_for_one_run_or_one_trace(self, array, monkeypatch):
        sig, prog = array
        caches = []
        real = smt.infer

        def recording(hyps, goal, contexts=None):
            caches.append(contexts)
            return real(hyps, goal, contexts)

        monkeypatch.setattr(smt, "infer", recording)
        traces = [run(prog, arrays_goal(sig, 3, 3)), run(prog, arrays_goal(sig, 3, 1))]
        assert None not in caches and len({id(c) for c in caches}) == 2
        caches.clear()
        replay_document(traces_to_document(traces), sig, prog)
        assert None not in caches and len({id(c) for c in caches}) == 2

    @pytest.mark.parametrize(
        "lib,name,max_steps",
        [
            ("sll", "sll_basic", 1000),
            ("sll", "sll_cycle_guard", 1000),
            ("array", "array_basic", 1000),
            ("array", "array_frame", 1000),
            ("array", "array_obligations", 1000),
            ("array", "array_obligations", 2),
            ("common", "common_cells", 1000),
            ("common", "common_cells", 5),
        ],
    )
    def test_run_matches_stepping_on_corpus(self, lib, name, max_steps, request):
        sig, prog = request.getfixturevalue(lib)
        for e in load_entailments(name, sig):
            assert trace_json(run(prog, e, max_steps)) == trace_json(stepped(prog, e, max_steps))

    @pytest.mark.parametrize("k,bound", [(5, 5), (5, 2), (6, 1)])
    def test_run_matches_stepping_on_generated_arrays(self, array, k, bound):
        sig, prog = array
        e = arrays_goal(sig, k, bound)
        tr = run(prog, e)
        assert tr.verdict is (Verdict.FRAME_INFERRED if bound == k else Verdict.STUCK)
        assert trace_json(tr) == trace_json(stepped(prog, e))


class TestConservation:
    def test_each_step_rewrites_only_declared_conjuncts(self, sll):
        sig, prog = sll
        e = load_entailments("sll_basic", sig)[0]
        tr = run(prog, e)
        strategies = {s.name: s for s in prog.strategies}
        cur = e
        for ts in tr.steps:
            s = strategies[ts.strategy]
            erased = sum(1 for op in s.action if op.keyword in ("left_erase", "right_erase"))
            added = sum(1 for op in s.action if op.keyword in ("left_add", "right_add"))
            before = len(cur.lhs.spatials) + len(cur.rhs.spatials) + len(cur.lhs.pures) + len(cur.rhs.pures)
            nxt = ts.entailment_after
            after = len(nxt.lhs.spatials) + len(nxt.rhs.spatials) + len(nxt.lhs.pures) + len(nxt.rhs.pures)
            assert after == before - erased + added
            cur = nxt


class TestTraceDocuments:
    def doc_for(self, lib, name):
        sig, prog = lib
        ents = load_entailments(name, sig)
        return traces_to_document([run(prog, e) for e in ents]), sig, prog

    def test_schema_shape(self, sll):
        doc, _, _ = self.doc_for(sll, "sll_basic")
        assert doc["schema_version"] == TRACE_SCHEMA_VERSION
        (tr,) = doc["traces"]
        assert set(tr) == {"input", "steps", "verdict", "frame"}
        assert tr["verdict"] == "purified" and tr["frame"] is None
        st = tr["steps"][0]
        assert set(st) == {"strategy", "substitution", "side_conditions", "entailment_after"}
        assert all(isinstance(v, str) for v in st["substitution"].values())

    def test_side_conditions_serialized(self, array):
        doc, _, _ = self.doc_for(array, "array_basic")
        conds = [c for tr in doc["traces"] for st in tr["steps"] for c in st["side_conditions"]]
        assert conds and all(c["status"] == "proven" for c in conds)

    def test_json_round_trip(self, sll):
        import json

        doc, _, _ = self.doc_for(sll, "sll_basic")
        assert json.loads(document_to_json(doc)) == doc

    def test_frame_recorded(self, common):
        doc, _, _ = self.doc_for(common, "common_cells")
        (tr,) = doc["traces"]
        assert tr["verdict"] == "frame_inferred"
        assert tr["frame"].startswith("p1 != p2")


class TestReplay:
    def replayable(self, lib, name):
        sig, prog = lib
        ents = load_entailments(name, sig)
        doc = traces_to_document([run(prog, e) for e in ents])
        return doc, sig, prog

    @pytest.mark.parametrize(
        "lib,name",
        [
            ("sll", "sll_basic"),
            ("sll", "sll_cycle_guard"),
            ("array", "array_basic"),
            ("array", "array_frame"),
            ("array", "array_obligations"),
            ("common", "common_cells"),
        ],
    )
    def test_replays_clean(self, lib, name, request):
        doc, sig, prog = self.replayable(request.getfixturevalue(lib), name)
        replay_document(doc, sig, prog)

    def test_schema_version_checked(self, sll):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        doc["schema_version"] = 99
        with pytest.raises(ReplayError, match="schema_version"):
            replay_document(doc, sig, prog)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_is_the_integer_one(self, sll, version):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        doc["schema_version"] = version
        with pytest.raises(ReplayError, match=f"unsupported schema_version {version!r}"):
            replay_document(doc, sig, prog)

    def test_unknown_strategy(self, sll):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        doc["traces"][0]["steps"][0]["strategy"] = "ghost"
        with pytest.raises(ReplayError, match="unknown strategy"):
            replay_document(doc, sig, prog)

    def test_tampered_substitution(self, sll):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        st = doc["traces"][0]["steps"][0]
        var = next(iter(st["substitution"]))
        st["substitution"][var] = "q + 1"
        with pytest.raises(ReplayError, match="substitution"):
            replay_document(doc, sig, prog)

    def test_substitution_with_a_stray_key(self, sll):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        doc["traces"][0]["steps"][0]["substitution"]["zz"] = "p"
        with pytest.raises(ReplayError, match="step 0: recorded substitution differs from the one sll_align_lseg makes"):
            replay_document(doc, sig, prog)

    def test_substitution_without_its_fresh_name(self, sll):
        # replay would pick the same name for l3 again, so only the comparison
        # of the substitutions sees the dropped key
        doc, sig, prog = self.replayable(sll, "sll_basic")
        st = doc["traces"][0]["steps"][1]
        assert st["strategy"] == "sll_absorb_lseg" and st["substitution"]["l3"] == "l3'1"
        del st["substitution"]["l3"]
        with pytest.raises(ReplayError, match="step 1: recorded substitution differs from the one sll_absorb_lseg makes"):
            replay_document(doc, sig, prog)

    def test_substitution_without_a_pattern_binder(self, sll):
        # q is bound to the variable q, so the patterns and the action read
        # the same without the key: only the binder check sees it missing
        doc, sig, prog = self.replayable(sll, "sll_basic")
        st = doc["traces"][0]["steps"][0]
        assert st["substitution"]["q"] == "q"
        del st["substitution"]["q"]
        with pytest.raises(ReplayError, match="step 0: recorded substitution does not match sll_align_lseg"):
            replay_document(doc, sig, prog)

    def test_two_patterns_need_two_occurrences(self, common):
        # com_ptr_neq with q = p and v1 = v0 asks for data_at(p, a) twice
        sig, prog = common
        e = parse_entailment("forall p q a b, data_at(p, a) * data_at(q, b) |-- emp", sig)
        doc = traces_to_document([run(prog, e)])
        st = doc["traces"][0]["steps"][0]
        assert st["strategy"] == "com_ptr_neq"
        st["substitution"].update(q="p", v1="a")
        with pytest.raises(ReplayError, match="step 0: recorded substitution does not match com_ptr_neq"):
            replay_document(doc, sig, prog)
        doc["traces"][0]["input"] = "forall p q a b, data_at(p, a) * data_at(p, a) |-- emp"
        with pytest.raises(ReplayError, match="step 0: entailment diverges"):  # two occurrences match
            replay_document(doc, sig, prog)

    def test_exists_binder_bound_to_a_universal(self, common):
        sig, prog = common
        e = parse_entailment("forall v, emp |-- exists a, a == v", sig)
        doc = traces_to_document([run(prog, e)])
        tr = doc["traces"][0]
        assert tr["steps"][0]["strategy"] == "com_inst_eq"
        replay_document(doc, sig, prog)
        tr["input"] = "forall v a, emp |-- a == v"
        with pytest.raises(ReplayError, match="step 0: recorded substitution does not match com_inst_eq"):
            replay_document(doc, sig, prog)

    @pytest.mark.parametrize("loop_at", [None, 5])
    def test_replay_builds_no_store_per_step(self, sll, monkeypatch, loop_at):
        # a purified chain needs no store; a stuck one builds one, to show
        # that no step applies at its end
        sig, prog = sll
        k = 24
        universals = " ".join([f"x{i}" for i in range(k + 1)] + [f"l{i}" for i in range(1, k + 2)])
        segs = [f"lseg(x{i - 1}, x{i if i != loop_at else i - 1}, l{i})" for i in range(1, k + 1)]
        e = parse_entailment(f"forall {universals}, {' * '.join(segs)} * listrep(x{k}, l{k + 1}) |-- exists L, listrep(x0, L)", sig)
        tr = run(prog, e)
        assert tr.verdict is (Verdict.PURIFIED if loop_at is None else Verdict.STUCK)
        assert len(tr.steps) >= (k if loop_at is None else loop_at - 1)
        doc = traces_to_document([tr])
        calls = []
        for name in ("__init__", "advance"):
            real = getattr(matcher.MatchStore, name)

            def counting(self, *args, _name=name, _real=real):
                calls.append(_name)
                return _real(self, *args)

            monkeypatch.setattr(matcher.MatchStore, name, counting)
        replay_document(doc, sig, prog)
        assert calls == ([] if loop_at is None else ["__init__", "advance"])

    def test_step_whose_absent_formula_is_present(self, common):
        # the recorded com_ptr_neq step matches, but its left_absent check
        # fails once the input already holds the disequality it adds
        sig, prog = common
        e = parse_entailment("forall p q a b, data_at(p, a) * data_at(q, b) |-- emp", sig)
        doc = traces_to_document([run(prog, e)])
        tr = doc["traces"][0]
        assert tr["steps"][0]["strategy"] == "com_ptr_neq"
        tr["input"] = tr["steps"][0]["entailment_after"]
        with pytest.raises(ReplayError, match="checks of com_ptr_neq no longer pass"):
            replay_document(doc, sig, prog)

    def test_tampered_entailment(self, sll):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        tr = doc["traces"][0]
        tr["steps"][1]["entailment_after"] = tr["input"]
        with pytest.raises(ReplayError, match="diverges"):
            replay_document(doc, sig, prog)

    def test_tampered_side_condition(self, array):
        doc, sig, prog = self.replayable(array, "array_basic")
        for tr in doc["traces"]:
            for st in tr["steps"]:
                if st["side_conditions"]:
                    st["side_conditions"][0]["goal"] = "1 < 0"
                    with pytest.raises(ReplayError, match="side condition"):
                        replay_document(doc, sig, prog)
                    return
        pytest.fail("no side conditions found")

    def test_tampered_verdict(self, sll):
        doc, sig, prog = self.replayable(sll, "sll_cycle_guard")
        doc["traces"][0]["verdict"] = "purified"
        with pytest.raises(ReplayError, match="purified"):
            replay_document(doc, sig, prog)

    def test_tampered_frame(self, common):
        doc, sig, prog = self.replayable(common, "common_cells")
        doc["traces"][0]["frame"] = "emp"
        with pytest.raises(ReplayError, match="frame"):
            replay_document(doc, sig, prog)

    def test_truncated_trace_relabelled_stuck(self, sll):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        tr = doc["traces"][0]
        tr["steps"] = tr["steps"][:1]
        tr["verdict"] = "stuck"
        with pytest.raises(ReplayError, match="stuck but a step still applies"):
            replay_document(doc, sig, prog)

    def test_step_limit_replays(self, common):
        sig, prog = common
        (e,) = load_entailments("common_cells", sig)
        tr = run(prog, e, max_steps=5)
        assert tr.verdict is Verdict.STEP_LIMIT
        replay_document(traces_to_document([tr]), sig, prog)

    def test_finished_trace_relabelled_step_limit(self, sll):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        doc["traces"][0]["verdict"] = "step_limit"
        with pytest.raises(ReplayError, match="step_limit but no step applies"):
            replay_document(doc, sig, prog)

    def test_unknown_verdict(self, sll):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        doc["traces"][0]["verdict"] = "bogus"
        with pytest.raises(ReplayError, match="unknown verdict 'bogus'"):
            replay_document(doc, sig, prog)

    @pytest.mark.parametrize("key", ["input", "strategy", "substitution", "entailment_after"])
    def test_missing_key(self, sll, key):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        tr = doc["traces"][0]
        del (tr if key == "input" else tr["steps"][0])[key]
        with pytest.raises(ReplayError, match=f"missing '{key}'"):
            replay_document(doc, sig, prog)

    def test_reformatted_entailment_rejected(self, sll):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        st = doc["traces"][0]["steps"][0]
        spaced = st["entailment_after"].replace(" |-- ", "  |--  ")
        assert parse_entailment(spaced, sig) == parse_entailment(st["entailment_after"], sig)
        st["entailment_after"] = spaced
        with pytest.raises(ReplayError, match="diverges"):
            replay_document(doc, sig, prog)

    def test_parses_each_input_once(self, array, monkeypatch):
        sig, prog = array
        ents = [e for name in ("array_basic", "array_frame", "array_obligations")
                for e in load_entailments(name, sig)]
        doc = traces_to_document([run(prog, e) for e in ents])
        assert sum(len(tr["steps"]) for tr in doc["traces"]) > len(doc["traces"]) > 1
        calls = []

        def spy(text, sig):
            calls.append(text)
            return parse_entailment(text, sig)

        monkeypatch.setattr(engine, "parse_entailment", spy)
        replay_document(doc, sig, prog)
        assert calls == [tr["input"] for tr in doc["traces"]]

    def test_parses_each_distinct_substitution_text_once(self, common, monkeypatch):
        doc, sig, prog = self.replayable(common, "common_cells")
        texts = [v for tr in doc["traces"] for st in tr["steps"] for v in st["substitution"].values()]
        assert len(texts) > len(set(texts))
        calls = []

        def spy(text, sig):
            calls.append(text)
            return frontend.parse_term(text, sig)

        monkeypatch.setattr(engine, "parse_term", spy)
        replay_document(doc, sig, prog)
        assert sorted(calls) == sorted(set(texts))

    @pytest.mark.parametrize("value", [5, None, ["p"], {"p": "p"}, "p +", ""])
    def test_unparsable_substitution_value(self, common, value):
        # the value replaces one that an earlier step already recorded, so the
        # memo of parsed texts holds that text when the bad value is read
        doc, sig, prog = self.replayable(common, "common_cells")
        first, later = doc["traces"][0]["steps"][:2]
        var = next(x for x in later["substitution"] if x in first["substitution"])
        later["substitution"][var] = value
        with pytest.raises(ReplayError, match="trace 0 step 1: cannot parse recorded step"):
            replay_document(doc, sig, prog)

    def test_negated_literal_index_replays(self, array):
        # i - x with i = x = 0 once printed as -0, which re-parses as 0
        sig, prog = array
        e = parse_entailment(
            "forall a l n, 0 < n && store_array(a, 0, n, l) |-- exists v, data_at(a + 4 * 0, v)",
            sig,
        )
        tr = run(prog, e)
        assert tr.verdict is Verdict.FRAME_INFERRED
        doc = traces_to_document([tr])
        assert "nth(0 - 0, l)" in doc["traces"][0]["steps"][0]["entailment_after"]
        replay_document(doc, sig, prog)

    def test_replay_solves_every_recorded_side_condition(self, array, infer_calls):
        # array_frame records the same query for both arrays; replay asks it twice
        sig, prog = array
        ents = load_entailments("array_frame", sig) + [arrays_goal(sig, 3, 3), arrays_goal(sig, 3, 1)]
        repeated = False
        for e in ents:
            tr = run(prog, e)
            doc = traces_to_document([tr])
            recorded = [c["goal"] for st in doc["traces"][0]["steps"] for c in st["side_conditions"]]
            before = [tr.input] + [ts.entailment_after for ts in tr.steps]
            queries = [(b.lhs.pures, c.goal) for b, ts in zip(before, tr.steps) for c in ts.side_conditions]
            repeated |= len(set(queries)) < len(queries)
            infer_calls.clear()
            step(prog, tr.final)
            final_check = len(infer_calls)
            infer_calls.clear()
            replay_document(doc, sig, prog)
            assert [print_node(g) for _, g in infer_calls[: len(recorded)]] == recorded
            assert len(infer_calls) == len(recorded) + final_check
        assert repeated

    def test_stuck_needs_spatial_conjuncts_on_the_right(self, common):
        sig, prog = common
        tr = {"input": "forall p v, data_at(p, v) |-- 0 <= 1", "steps": [], "verdict": "stuck", "frame": None}
        with pytest.raises(ReplayError, match="stuck but no spatial conjunct is left on the right"):
            replay_document({"schema_version": 1, "traces": [tr]}, sig, prog)

    def test_step_limit_needs_spatial_conjuncts(self, common):
        sig, prog = common
        e = parse_entailment("forall v, emp |-- exists a b, a == v && b == v", sig)
        tr = run(prog, e, max_steps=1)
        assert tr.verdict is Verdict.PURIFIED and step(prog, tr.final) is not None
        doc = traces_to_document([tr])
        doc["traces"][0]["verdict"] = "step_limit"
        with pytest.raises(ReplayError, match="step_limit but no spatial conjuncts remain"):
            replay_document(doc, sig, prog)

    def test_frame_inferred_needs_no_step_left(self, common):
        sig, prog = common
        tr = {
            "input": "forall p q v w, data_at(p, v) * data_at(q, w) |-- emp",
            "steps": [],
            "verdict": "frame_inferred",
            "frame": "data_at(p, v) * data_at(q, w)",
        }
        with pytest.raises(ReplayError, match="frame_inferred but a step still applies"):
            replay_document({"schema_version": 1, "traces": [tr]}, sig, prog)

    @pytest.mark.parametrize("lib,name", [("common", "common_cells"), ("sll", "sll_cycle_guard"), ("sll", "sll_basic")])
    def test_frame_only_on_frame_inferred(self, lib, name, request):
        doc, sig, prog = self.replayable(request.getfixturevalue(lib), name)
        tr = doc["traces"][0]
        if tr["verdict"] == "frame_inferred":
            tr["verdict"] = "step_limit"
        else:
            tr["frame"] = "garbage"
        with pytest.raises(ReplayError, match=f"a {tr['verdict']} trace records a frame"):
            replay_document(doc, sig, prog)

    @pytest.mark.parametrize(
        "path,value,match",
        [
            ((), [], "document: not a JSON object"),
            (("traces",), 5, "document: 'traces' is not an array"),
            (("traces", 0), [], "trace 0: not a JSON object"),
            (("traces", 0, "steps"), 5, "trace 0: 'steps' is not an array"),
            (("traces", 0, "steps", 0), "x", "trace 0 step 0: not a JSON object"),
            (("traces", 0, "steps", 0, "substitution"), ["p"], "step 0: 'substitution' is not an object"),
            (("traces", 0, "steps", 0, "side_conditions"), {}, "step 0: 'side_conditions' is not an array"),
            (("traces", 0, "steps", 0, "side_conditions", 0), "0 <= i", "trace 0 step 0: not a JSON object"),
        ],
    )
    def test_malformed_document(self, array, path, value, match):
        doc, sig, prog = self.replayable(array, "array_basic")
        if path:
            *parents, last = path
            target = doc
            for key in parents:
                target = target[key]
            target[last] = value
        else:
            doc = value
        with pytest.raises(ReplayError, match=match):
            replay_document(doc, sig, prog)

    def test_replay_does_not_mutate_document(self, sll):
        doc, sig, prog = self.replayable(sll, "sll_basic")
        snapshot = copy.deepcopy(doc)
        replay_document(doc, sig, prog)
        assert doc == snapshot


# ---------------------------------------------------------------------------
# The match store against a naive oracle: the same strategy order, the
# brute-force matcher's matches in its order, run_checks and apply_action on
# every candidate, nothing kept from one step to the next.


def oracle_run(prog, e, max_steps):
    order = [s for _, _, s in sorted((s.priority, i, s) for i, s in enumerate(prog.strategies))]

    def oracle_step(cur):
        for s in order:
            for m in helpers.brute_match(s, cur):
                conditions = run_checks(s, m.bindings, cur)
                if conditions is None:
                    continue
                applied = apply_action(s, m.bindings, cur)
                if applied is None:
                    continue
                e2, sigma = applied
                return TraceStep(s.name, tuple(sigma.items()), tuple(conditions), e2)
        return None

    steps = []
    cur = e
    while len(steps) < max_steps and (ts := oracle_step(cur)) is not None:
        conditions = tuple(dataclasses.replace(c, step_index=len(steps)) for c in ts.side_conditions)
        steps.append(dataclasses.replace(ts, side_conditions=conditions))
        cur = ts.entailment_after
    if not cur.lhs.spatials and not cur.rhs.spatials:
        verdict = Verdict.PURIFIED
    elif len(steps) == max_steps and oracle_step(cur) is not None:
        verdict = Verdict.STEP_LIMIT
    elif not cur.rhs.spatials:
        verdict = Verdict.FRAME_INFERRED
    else:
        verdict = Verdict.STUCK
    frame = cur.lhs if verdict is Verdict.FRAME_INFERRED else None
    return ReductionTrace(input=e, steps=tuple(steps), verdict=verdict, frame=frame)


# Test-only strategies: instantiation through an `exists` binder rewrites the
# consequent in place; t_neq is held back by left_absent until t_drop erases
# the pure that blocks it, which makes the two loop; t_align is held back by
# right_absent; t_split erases a cell and adds two in one step, which t_neq
# then pairs.
CELLS = parse_strategies(
    """
strategy t_inst
  priority: 0
  right: exists x, ?x == ?y
  action: instantiate(x -> y);

strategy t_align
  priority: 1
  left:  data_at(?p, ?v0)
  right: data_at(p, ?v1)
  check: right_absent(v1 == v0);
  action:
    left_erase(data_at(p, v0));
    right_erase(data_at(p, v1));
    right_add(v1 == v0);

strategy t_neq
  priority: 1
  left: data_at(?p, ?v0)
        data_at(?q, ?v1)
  check: left_absent(p != q);
  action: left_add(p != q);

strategy t_drop
  priority: 2
  left:  ?p != ?q
  right: data_at(q, ?w)
  action: left_erase(p != q);

strategy t_split
  priority: 3
  left:  data_at(?p, ?v)
  right: data_at(?q, ?w)
  action:
    left_erase(data_at(p, v));
    left_add(data_at(q, v));
    left_add(data_at(p, q));
""",
    SIG,
)

LIBRARIES = {lib: parse_strategies((CORPUS / f"{lib}.stg").read_text(), SIG) for lib in ("sll", "array", "common")}

POINTERS = ("p", "q", "r")
VALUES = ("a", "b")
WITNESSES = ("w", "x")


@st.composite
def cell_goals(draw):
    """Entailments over a few names, so conjuncts repeat often."""
    ptr = st.sampled_from(POINTERS).map(Var)
    val = st.sampled_from(VALUES).map(Var)
    term = st.sampled_from(POINTERS + VALUES + WITNESSES).map(Var)
    cell = st.builds(DataAt, ptr, val)
    lhs = SymbolicHeap(
        tuple(draw(st.lists(st.builds(Rel, st.just("!="), ptr, ptr), max_size=3))),
        tuple(draw(st.lists(cell, max_size=4))),
    )
    rhs = SymbolicHeap(
        tuple(draw(st.lists(st.builds(Eq, term, term), max_size=3))),
        tuple(draw(st.lists(st.builds(DataAt, ptr, term), max_size=3))),
    )
    return Entailment(POINTERS + VALUES, lhs, WITNESSES, rhs)


class TestMatchStore:
    @given(cell_goals())
    @settings(max_examples=150, deadline=None)
    def test_run_matches_the_oracle_on_repeated_cells(self, e):
        assert well_formed(e)
        assert trace_json(run(CELLS, e, 12)) == trace_json(oracle_run(CELLS, e, 12))

    @pytest.mark.parametrize("lib", ["sll", "array", "common"])
    @given(e=gen.entailments(max_conjuncts=5))
    @settings(max_examples=60, deadline=None)
    def test_run_matches_the_oracle_on_the_corpus_libraries(self, lib, e):
        prog = LIBRARIES[lib]
        assert trace_json(run(prog, e, 12)) == trace_json(oracle_run(prog, e, 12))

    def test_erasing_a_pure_releases_a_held_match(self):
        # t_align stays held by b == b on the right; t_neq fires for (q, p),
        # then for (p, q) each time t_drop has erased p != q
        e = ent("forall p q a b, p != q && data_at(p, a) * data_at(q, b) |-- b == b && data_at(q, b)")
        tr = run(CELLS, e, 12)
        assert [ts.strategy for ts in tr.steps] == ["t_neq", "t_drop"] * 6
        assert [ts.substitution[:2] for ts in tr.steps[:3]] == [
            (("p", Var("q")), ("v0", Var("b"))),
            (("p", Var("p")), ("q", Var("q"))),
            (("p", Var("p")), ("v0", Var("a"))),
        ]
        assert tr.verdict is Verdict.STEP_LIMIT
        assert trace_json(tr) == trace_json(oracle_run(CELLS, e, 12))


def cells_goal(k):
    """k data_at cells, each demanded on the right (the common_cells shape)."""
    idx = range(1, k + 1)
    universals = " ".join(f"p{i} v{i}" for i in idx)
    lhs = " * ".join(f"data_at(p{i}, v{i})" for i in idx)
    rhs = " * ".join(f"data_at(p{i}, w{i})" for i in idx)
    witnesses = " ".join(f"w{i}" for i in idx)
    return f"forall {universals}, {lhs} |-- exists {witnesses}, {rhs}"


def sll_chain(k):
    """Segments x0 -> ... -> xk and a trailing list against one listrep."""
    universals = " ".join([f"x{i}" for i in range(k + 1)] + [f"l{i}" for i in range(1, k + 2)])
    segs = [f"lseg(x{i - 1}, x{i}, l{i})" for i in range(1, k + 1)]
    lhs = " * ".join(segs + [f"listrep(x{k}, l{k + 1})"])
    return f"forall {universals}, {lhs} |-- exists r, listrep(x0, r)"


@pytest.mark.parametrize(
    "lib,goal,small,large",
    [("common", cells_goal, 8, 16), ("sll", sll_chain, 20, 80)],
)
def test_match_work_per_step_does_not_grow_with_the_heap(lib, goal, small, large, monkeypatch):
    sig, prog = load_library(lib)
    calls = 0
    real = matcher._match

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(matcher, "_match", counting)
    per_step = {}
    for k in (small, large):
        calls = 0
        tr = run(prog, parse_entailment(goal(k), sig))
        assert tr.verdict is Verdict.PURIFIED
        per_step[k] = calls / len(tr.steps)
    assert per_step[large] <= 1.5 * per_step[small], per_step


def test_print_work_per_step_does_not_grow_with_the_heap(common):
    # every conjunct's text is computed once and kept on its node, so a step
    # prints only what it adds, whatever the size of the entailment
    sig, prog = common
    per_step = {}
    for k in (8, 16):
        tr = run(prog, parse_entailment(cells_goal(k), sig))
        assert tr.verdict is Verdict.PURIFIED
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is frontend._print.__code__:
                calls += 1

        sys.setprofile(count)  # counts without adding a frame per call
        try:
            document_to_json(traces_to_document([tr]))
        finally:
            sys.setprofile(None)
        per_step[k] = calls / len(tr.steps)
    assert per_step[16] <= 1.5 * per_step[8], per_step


def test_held_matches_reach_no_check(common, monkeypatch):
    # com_ptr_neq's pairs that already have their disequality are held back
    # by the store, so every candidate that reaches run_checks is applied
    sig, prog = common
    calls = 0
    real = engine.run_checks

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(engine, "run_checks", counting)
    for goal, pairs in ((cells_goal(8), 8 * 7), (cells_goal(8).replace(", ", ", p2 != p1 && ", 1), 8 * 7 - 1)):
        calls = 0
        tr = run(prog, parse_entailment(goal, sig))
        assert tr.verdict is Verdict.PURIFIED and len(tr.steps) == pairs + 2 * 8
        assert calls == len(tr.steps)


def test_instantiate_rejoins_only_the_rewritten_conjunct(monkeypatch):
    # instantiate rewrites consequent conjuncts in place; the store reads that
    # as a rewrite, so the conjuncts after the rewritten one keep their matches
    t_inst, t_align = CELLS.by_name("t_inst"), CELLS.by_name("t_align")
    calls = 0
    real = matcher._match

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(matcher, "_match", counting)
    per_size = {}
    for n in (2, 8):
        qs = " ".join(f"q{i}" for i in range(n))
        cells = " * ".join(f"data_at(q{i}, b)" for i in range(n))
        e = ent(f"forall p a b {qs}, data_at(p, a) |-- exists x, x == a && data_at(p, x) * {cells}")
        e2, _ = apply_action(t_inst, first_binding(t_inst, e), e)
        store = matcher.MatchStore((t_align,), e)
        assert [m.bindings["v1"] for m in store.matches(t_align, held=True)] == [Var("x")]
        calls = 0
        store.advance(e2)
        per_size[n] = calls
        [m] = store.matches(t_align, held=True)
        assert m.bindings["v1"] == Var("a") and m.used_conjuncts[1] == ("right", "spatial", 0)
    assert per_size[8] == per_size[2], per_size
