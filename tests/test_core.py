from __future__ import annotations

import copy
import dataclasses
import gc
import importlib
import inspect
import pickle
import pkgutil
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepstrat

from sepstrat.core import (
    _KIDS,
    RESERVED,
    AndA,
    Apply,
    Arith,
    DataAt,
    Emp,
    Entailment,
    Eq,
    ExistsA,
    ForallA,
    IntLit,
    PredS,
    PureA,
    PureFormula,
    Rel,
    SepConj,
    Signature,
    SpatialA,
    SpatialAtom,
    SymbolicHeap,
    Term,
    TrueF,
    Var,
    Wand,
    alpha_equivalent,
    free_vars,
    fresh_name,
    height,
    normalize,
    occurring_vars,
    rebuild,
    substitute,
    well_formed,
    well_formed_report,
)
from sepstrat.core import _NODES, Assertion
from sepstrat.frontend import parse_heap, parse_term, print_heap, print_node

import gen


def heap(pures=(), spatials=()):
    return SymbolicHeap(tuple(pures), tuple(spatials))


class TestConstruction:
    def test_emp_dropped_from_spatials(self):
        h = heap(spatials=[Emp(), DataAt(Var("p"), Var("v")), Emp()])
        assert h.spatials == (DataAt(Var("p"), Var("v")),)

    def test_true_kept_in_pures(self):
        h = heap(pures=[TrueF(), Eq(Var("x"), Var("x"))])
        assert len(h.pures) == 2

    def test_sequences_coerced_to_tuples(self):
        e = Entailment(["x"], heap(), ["y"], heap())
        assert e.universals == ("x",) and e.existentials == ("y",)


class TestSignature:
    def test_declare_and_lookup(self):
        sig = Signature()
        sig.declare("lseg", "spatial", 3)
        assert sig.entries["lseg"] == ("spatial", 3)

    def test_duplicate_rejected(self):
        sig = Signature()
        sig.declare("f", "func", 1)
        with pytest.raises(ValueError):
            sig.declare("f", "func", 2)

    @pytest.mark.parametrize("name", sorted(RESERVED))
    def test_reserved_rejected(self, name):
        for kind in ("spatial", "pure", "func"):
            with pytest.raises(ValueError, match="is reserved and cannot be declared"):
                Signature().declare(name, kind, 1)


def _defined_subclasses(base):
    """Subclasses reachable by name from their module: `slots=True` leaves
    the class it replaces behind in `__subclasses__`."""
    return [c for c in base.__subclasses__() if getattr(sys.modules[c.__module__], c.__qualname__, None) is c]


class TestNodeShapes:
    NODE_CLASSES = [c for base in (Term, PureFormula, SpatialAtom, Assertion) for c in _defined_subclasses(base)]

    def test_every_node_class_has_an_entry(self):
        assert set(_KIDS) == set(self.NODE_CLASSES) | {SymbolicHeap}

    @pytest.mark.parametrize("cls", NODE_CLASSES + [SymbolicHeap], ids=lambda c: c.__name__)
    def test_children_are_the_node_fields_in_declaration_order(self, cls):
        node_types = ("Term", "PureFormula", "SpatialAtom", "Assertion")
        nodes = [f.name for f in dataclasses.fields(cls) if any(t in f.type for t in node_types)]
        assert nodes == list(_KIDS[cls])

    def test_height_counts_nodes_on_the_longest_path(self):
        assert height(Var("x")) == 1
        assert height(Eq(Var("x"), Arith("+", Var("x"), IntLit(1)))) == 3
        assert height(SymbolicHeap((), (PredS("listrep", (Var("p"), Var("l"))),))) == 3


@given(gen.syntax)
@settings(max_examples=150)
def test_rebuild_from_own_children_is_identity(x):
    assert rebuild(x, [getattr(x, name) for name in _KIDS[type(x)]]) == x


@given(gen.syntax)
@settings(max_examples=150)
def test_free_vars_are_the_occurring_vars(x):
    assert free_vars(x) == set(occurring_vars(x))


@given(gen.syntax)
@settings(max_examples=150)
def test_identity_substitution(x):
    assert substitute(x, {v: Var(v) for v in free_vars(x)}) == x


class TestVars:
    def test_free_vars_of_heap(self):
        h = heap(
            pures=[Eq(Var("x"), Apply("app", (Var("y"), IntLit(1))))],
            spatials=[PredS("listrep", (Var("p"), Var("y")))],
        )
        assert free_vars(h) == {"x", "y", "p"}

    def test_occurring_vars_first_occurrence_order(self):
        f = Eq(Apply("app", (Var("b"), Var("a"))), Var("b"))
        assert occurring_vars(f) == ["b", "a"]

    def test_occurring_vars_respects_binders(self):
        a = ForallA(("v",), Wand(PureA(Eq(Var("v"), Var("w"))), SpatialA(Emp())))
        assert occurring_vars(a) == ["w"]

    def test_fresh_name(self):
        assert fresh_name("l", set()) == "l"
        assert fresh_name("l", {"l"}) == "l'1"
        assert fresh_name("l", {"l", "l'1"}) == "l'2"


class TestSubstitute:
    def test_simultaneous_swap(self):
        f = Eq(Var("x"), Var("y"))
        assert substitute(f, {"x": Var("y"), "y": Var("x")}) == Eq(Var("y"), Var("x"))

    def test_untouched_without_free_occurrence(self):
        f = PredS("listrep", (Var("p"), Var("l")))
        assert substitute(f, {"q": IntLit(0)}) == f

    def test_binder_shadows(self):
        a = ExistsA(("x",), PureA(Eq(Var("x"), Var("y"))))
        got = substitute(a, {"x": IntLit(1)})
        assert got == a

    def test_capture_renames_binder(self):
        a = ForallA(("v",), PureA(Eq(Var("v"), Var("y"))))
        got = substitute(a, {"y": Var("v")})
        assert isinstance(got, ForallA)
        assert got.vars == ("v'1",)
        assert got.body == PureA(Eq(Var("v'1"), Var("v")))


class TestWellFormed:
    def e(self, text_univ, lhs, text_exist, rhs):
        return Entailment(tuple(text_univ), lhs, tuple(text_exist), rhs)

    def test_closed_entailment_ok(self):
        e = self.e(["p"], heap(spatials=[PredS("listrep", (Var("p"), Var("l")))]), [], heap())
        assert not well_formed(e)  # l is unbound
        e2 = self.e(["p", "l"], heap(spatials=[PredS("listrep", (Var("p"), Var("l")))]), [], heap())
        assert well_formed(e2)

    def test_existential_may_not_appear_left(self):
        e = self.e(["p"], heap(pures=[Eq(Var("p"), Var("x"))]), ["x"], heap())
        assert not well_formed(e)

    def test_overlapping_prefixes_rejected(self):
        e = self.e(["x"], heap(), ["x"], heap())
        report = well_formed_report(e)
        assert report and any("x" in r for r in report)

    def test_duplicate_binder_rejected(self):
        e = self.e(["x", "x"], heap(), [], heap())
        assert well_formed_report(e)


class TestNormalize:
    def test_flattens_nested_conjunctions(self):
        a = SepConj((SepConj((SpatialA(Emp()), SpatialA(DataAt(Var("p"), Var("v"))))),))
        assert normalize(a) == SpatialA(DataAt(Var("p"), Var("v")))

    def test_drops_units_and_collapses(self):
        a = AndA((PureA(TrueF()), PureA(Eq(Var("x"), IntLit(0)))))
        assert normalize(a) == PureA(Eq(Var("x"), IntLit(0)))

    def test_empty_conjunctions_become_units(self):
        assert normalize(SepConj(())) == SpatialA(Emp())
        assert normalize(AndA(())) == PureA(TrueF())

    def test_empty_binder_dropped(self):
        a = ForallA((), PureA(TrueF()))
        assert normalize(a) == PureA(TrueF())

    def test_wand_units_preserved(self):
        w = Wand(SpatialA(Emp()), PureA(Eq(Var("x"), Var("x"))))
        assert normalize(w) == w


class TestAlphaEquivalent:
    def test_renamed_binders_equal(self):
        a = ExistsA(("x",), PureA(Eq(Var("x"), Var("c"))))
        b = ExistsA(("y",), PureA(Eq(Var("y"), Var("c"))))
        assert alpha_equivalent(a, b)

    def test_free_variables_matter(self):
        a = PureA(Eq(Var("x"), IntLit(0)))
        b = PureA(Eq(Var("y"), IntLit(0)))
        assert not alpha_equivalent(a, b)

    def test_conjunct_order_ignored_by_default(self):
        x, y = PureA(Eq(Var("x"), IntLit(0))), SpatialA(DataAt(Var("p"), Var("v")))
        assert alpha_equivalent(AndA((x, y)), AndA((y, x)))
        assert not alpha_equivalent(AndA((x, y)), AndA((y, x)), ignore_conjunct_order=False)

    def test_binder_order_is_positional(self):
        a = ForallA(("x", "y"), PureA(Rel("<", Var("x"), Var("y"))))
        b = ForallA(("y", "x"), PureA(Rel("<", Var("y"), Var("x"))))
        assert alpha_equivalent(a, b)


@given(gen.entailments())
@settings(max_examples=60)
def test_generated_entailments_are_well_formed(e):
    assert well_formed(e)


@given(gen.heaps(), st.sampled_from(gen.VAR_NAMES))
@settings(max_examples=60)
def test_substitute_closes_over_variable(h, x):
    got = substitute(h, {x: IntLit(5)})
    assert x not in free_vars(got)


@given(gen.heaps())
@settings(max_examples=60)
def test_substitution_rename_round_trip(h):
    fresh = fresh_name("w", free_vars(h))
    for x in sorted(free_vars(h)):
        there = substitute(h, {x: Var(fresh)})
        back = substitute(there, {fresh: Var(x)})
        assert back == h


@given(gen.entailments())
@settings(max_examples=60)
def test_alpha_equivalence_reflexive(e):
    a = SepConj((SpatialA(s) for s in e.lhs.spatials)) if e.lhs.spatials else SpatialA(Emp())
    assert alpha_equivalent(a, a)


def _as_assertion(h: SymbolicHeap):
    parts = [PureA(p) for p in h.pures] + [SpatialA(s) for s in h.spatials]
    return AndA(tuple(parts)) if parts else PureA(TrueF())


@given(gen.heaps())
@settings(max_examples=60)
def test_normalize_idempotent(h):
    a = _as_assertion(h)
    assert normalize(normalize(a)) == normalize(a)


# ---------------------------------------------------------------------------
# Hash-consing

nodes = st.one_of(gen.terms(), gen.pure_formulas(), gen.spatial_atoms(), gen.assertions())
SIG = gen.test_signature()


def _built_afresh(x):
    """x built again bottom up through the constructors, tuple fields passed
    as lists."""
    kids = []
    for name in _KIDS[type(x)]:
        c = getattr(x, name)
        kids.append([_built_afresh(y) for y in c] if type(c) is tuple else _built_afresh(c))
    return rebuild(x, kids)


class TestInterning:
    @given(nodes)
    @settings(max_examples=150)
    def test_structurally_equal_nodes_are_one_object(self, x):
        assert _built_afresh(x) is x
        assert rebuild(x, [getattr(x, name) for name in _KIDS[type(x)]]) is x

    @given(gen.terms(), gen.heaps())
    @settings(max_examples=150)
    def test_parsing_the_printed_node_returns_it(self, t, h):
        assert parse_term(print_node(t), SIG) is t
        back = parse_heap(print_heap(h), SIG)
        conjuncts = h.pures + h.spatials
        assert len(back.pures + back.spatials) == len(conjuncts)
        assert all(a is b for a, b in zip(back.pures + back.spatials, conjuncts))

    @given(nodes)
    @settings(max_examples=100)
    def test_copies_are_the_canonical_node(self, x):
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
        assert dataclasses.replace(x) is x

    def test_unused_nodes_leave_the_table(self):
        name = "node_built_by_this_test_only"
        x = Apply(name, (Var(name),))
        assert (Var, name) in _NODES and (Apply, name, x.args) in _NODES
        del x
        gc.collect()
        assert (Var, name) not in _NODES
        assert not [k for k in list(_NODES.keys()) if k[0] is Apply and k[1] == name]

    @given(nodes, st.dictionaries(st.sampled_from(gen.VAR_NAMES), gen.terms(), max_size=4))
    @settings(max_examples=150)
    def test_substitution_disjoint_from_the_free_variables_returns_the_node(self, x, m):
        m = {v: t for v, t in m.items() if v not in free_vars(x)}
        assert substitute(x, m) is x

    def test_deep_terms_hash_and_compare_without_recursion(self):
        def chain(depth):
            t = Var("n")
            for _ in range(depth):
                t = Arith("+", t, IntLit(0))
            return t

        deep = chain(600)
        assert hash(deep) == hash(chain(600))
        assert deep == chain(600) and deep != chain(599)
        assert free_vars(deep) == {"n"}

    def test_free_variables_are_cached(self):
        f = Eq(Apply("app", (Var("x"), Var("y"))), Var("x"))
        assert free_vars(f) is free_vars(f) and isinstance(free_vars(f), frozenset)
        assert free_vars(ForallA(("x",), PureA(f))) == {"y"}


def test_one_exception_class_per_kind_of_error():
    """Bad input is a FrontendError, text the grammar does not fit the
    ParseError subset of it, a bad trace a ReplayError; the CLI and the
    solver each keep one private class.  A check of its own raises one of
    these rather than a new class."""
    defined = set()
    for info in pkgutil.iter_modules(sepstrat.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"sepstrat.{info.name}")
        defined |= {
            name
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        }
    assert defined == {"FrontendError", "ParseError", "ReplayError", "_CliError", "_Budget"}
