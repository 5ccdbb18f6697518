"""Core syntax of symbolic-heap entailments and assertion-level formulas.

Terms, pure formulas, spatial atoms, symbolic heaps, entailments and the
assertion language (with separating conjunction, magic wand and quantifiers)
are immutable dataclasses.  Conjunct collections have multiset semantics but
keep insertion order so that matching and printing stay deterministic.

Term, pure-formula, spatial-atom and assertion nodes are hash-consed
(Filliâtre & Conchon 2006, "Type-safe modular hash-consing"): their
constructors return one shared object per structure, so `==` and `hash` on
nodes are object identity, O(1) whatever the depth.  Each node also carries
its free variables, computed once when it is first built, and its printed
text, which the frontend's printers compute the first time they print it.
Symbolic heaps and entailments stay plain value dataclasses over such nodes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from typing import AbstractSet, Callable, Mapping, Union

ARITH_OPS = ("+", "-", "*")
REL_OPS = ("!=", "<", "<=", ">", ">=")
BIN_OPS = ("&&", "||", "->", "<->")

SPATIAL = "spatial"
PURE = "pure"
FUNC = "func"

# The words the grammar gives a fixed job: strategy sections, built-in
# symbols and binders, check and action items (each with its section), and
# declaration kinds.  None of them may be declared in a signature.
SECTION_KEYWORDS = frozenset({"strategy", "priority", "left", "right", "check", "action"})
STRUCTURAL_KEYWORDS = frozenset({"forall", "exists", "emp", "true", "data_at", "field_addr"})
ITEMS = dict.fromkeys(("left_absent", "right_absent", "infer"), "check") | dict.fromkeys(
    ("left_add", "right_add", "left_erase", "right_erase", "forall_add", "exist_add", "instantiate"), "action"
)
DECLARATION_KINDS = (SPATIAL, PURE, FUNC)
RESERVED = SECTION_KEYWORDS | STRUCTURAL_KEYWORDS | frozenset(ITEMS) | frozenset(DECLARATION_KINDS)


class FrontendError(Exception):
    """An error in some input text, reported at its path:line:col."""

    def __init__(self, message: str, path: str = "<input>", line: int = 0, col: int = 0) -> None:
        super().__init__(message)
        self.message = message
        self.path = path
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.message}"


# ---------------------------------------------------------------------------
# Hash-consing

# Every live node, keyed by (class, field values).  Values are held weakly, so
# a node leaves the table with its last user; the key holds the children,
# which the node holds anyway.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

_NO_VARS: frozenset[str] = frozenset()


class _Interned(type):
    """Metaclass of the node classes: calling a node class returns the one
    node with those field values, building it only on the first call."""

    def __call__(cls, *args, **kwargs):
        if kwargs:  # dataclasses.replace and other keyword callers
            made = super().__call__(*args, **kwargs)
            args = tuple(getattr(made, name) for name in cls.__match_args__)
        if cls._tuple_fields:
            args = list(args)
            for i in cls._tuple_fields:
                args[i] = tuple(args[i])
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            node = super().__call__(*args)
            object.__setattr__(node, "_fv", _own_free_vars(node))
            object.__setattr__(node, "_text", None)
            _NODES[key] = node
        return node


class _Node(metaclass=_Interned):
    """Base of the four node kinds.  `_fv` holds the node's free variables;
    `_text`, None until a frontend printer fills it, its printed text;
    `__weakref__` lets the table hold it weakly."""

    __slots__ = ("__weakref__", "_fv", "_text")
    _tuple_fields: tuple[int, ...] = ()  # positions of the tuple-valued fields

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, so they
        # return the canonical node
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# The child fields of every node class, in printing order.  A child field
# holds one node or a tuple of nodes; every field annotated with one of
# _LABELS is a label (operator, symbol, literal, binder names) that traversals
# copy or compare.  Recursive traversals loop over children rather than use
# comprehensions, which are frames of their own before Python 3.12: one frame
# per tree level lets them reach the depth the parser admits (frontend.MAX_DEPTH).
_KIDS: dict[type, tuple[str, ...]] = {}
_LABELS = ("str", "int", "tuple[str, ...]")


def _shaped(cls):
    """Enter the dataclass cls's child fields in _KIDS."""
    _KIDS[cls] = tuple(f.name for f in fields(cls) if f.type not in _LABELS)
    return cls


def _node(cls):
    """Declare a hash-consed node class: a frozen, slotted dataclass whose
    equality and hash are those of object identity."""
    cls = dataclass(frozen=True, slots=True, eq=False)(cls)
    cls._tuple_fields = tuple(i for i, f in enumerate(fields(cls)) if str(f.type).startswith("tuple"))
    return _shaped(cls)


# ---------------------------------------------------------------------------
# Terms


class Term(_Node):
    __slots__ = ()


@_node
class IntLit(Term):
    value: int


@_node
class Var(Term):
    name: str


@_node
class FieldAddr(Term):
    base: Term
    field: str


@_node
class Apply(Term):
    fn: str
    args: tuple[Term, ...]


@_node
class Arith(Term):
    op: str  # one of ARITH_OPS
    left: Term
    right: Term


# ---------------------------------------------------------------------------
# Pure formulas


class PureFormula(_Node):
    __slots__ = ()


@_node
class TrueF(PureFormula):
    pass


@_node
class Eq(PureFormula):
    left: Term
    right: Term


@_node
class Rel(PureFormula):
    op: str  # one of REL_OPS
    left: Term
    right: Term


@_node
class Not(PureFormula):
    inner: PureFormula


@_node
class Bin(PureFormula):
    op: str  # one of BIN_OPS
    left: PureFormula
    right: PureFormula


@_node
class PredP(PureFormula):
    name: str
    args: tuple[Term, ...]


# ---------------------------------------------------------------------------
# Spatial atoms


class SpatialAtom(_Node):
    __slots__ = ()


@_node
class Emp(SpatialAtom):
    pass


@_node
class DataAt(SpatialAtom):
    addr: Term
    value: Term


@_node
class PredS(SpatialAtom):
    name: str
    args: tuple[Term, ...]


# ---------------------------------------------------------------------------
# Heaps and entailments


@_shaped
@dataclass(frozen=True, slots=True)
class SymbolicHeap:
    """Pure and spatial conjunct multisets; emp conjuncts are dropped eagerly."""

    pures: tuple[PureFormula, ...] = ()
    spatials: tuple[SpatialAtom, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pures", tuple(self.pures))
        spatials = tuple(self.spatials)
        if Emp in map(type, spatials):  # a scan in C; the filter is rarely needed
            spatials = tuple(s for s in spatials if type(s) is not Emp)
        object.__setattr__(self, "spatials", spatials)


@dataclass(frozen=True, slots=True)
class Entailment:
    universals: tuple[str, ...]
    lhs: SymbolicHeap
    existentials: tuple[str, ...]
    rhs: SymbolicHeap

    def __post_init__(self) -> None:
        object.__setattr__(self, "universals", tuple(self.universals))
        object.__setattr__(self, "existentials", tuple(self.existentials))


# ---------------------------------------------------------------------------
# Assertions


class Assertion(_Node):
    __slots__ = ()


@_node
class PureA(Assertion):
    formula: PureFormula


@_node
class SpatialA(Assertion):
    atom: SpatialAtom


@_node
class SepConj(Assertion):
    parts: tuple[Assertion, ...]


@_node
class AndA(Assertion):
    parts: tuple[Assertion, ...]


@_node
class Wand(Assertion):
    left: Assertion
    right: Assertion


@_node
class ForallA(Assertion):
    vars: tuple[str, ...]
    body: Assertion


@_node
class ExistsA(Assertion):
    vars: tuple[str, ...]
    body: Assertion


@dataclass(frozen=True, slots=True)
class SoundnessCondition:
    hypothesis: Assertion
    conclusion: Assertion
    free_vars: tuple[str, ...]


Syntax = Union[Term, PureFormula, SpatialAtom, SymbolicHeap, Assertion]


# ---------------------------------------------------------------------------
# Node shapes

# Every field of every node class in declaration order, as (name, is a child).
_FIELDS = {cls: tuple((f.name, f.name in kids) for f in fields(cls)) for cls, kids in _KIDS.items()}


def _children(x: Syntax) -> list[Syntax]:
    """The child nodes of x in printing order, tuple fields spliced in."""
    out: list[Syntax] = []
    for name in _KIDS[type(x)]:
        c = getattr(x, name)
        if type(c) is tuple:
            out.extend(c)
        else:
            out.append(c)
    return out


def rebuild(x: Syntax, kids: list) -> Syntax:
    """A node like x whose child fields, in _KIDS order, take the values kids."""
    it = iter(kids)
    return type(x)(*[next(it) if kid else getattr(x, name) for name, kid in _FIELDS[type(x)]])


def height(x: Syntax) -> int:
    """Nodes on the longest downward path from x, counted without recursion."""
    h, level = 0, [x]
    while level:
        h += 1
        level = [k for y in level for k in _children(y)]
    return h


# ---------------------------------------------------------------------------
# Signature


@dataclass
class Signature:
    """Declared predicate and function symbols: name -> (kind, arity), each
    entered through `declare`."""

    entries: dict[str, tuple[str, int]]

    def __init__(self) -> None:
        self.entries = {}

    def declare(self, name: str, kind: str, arity: int) -> None:
        if kind not in DECLARATION_KINDS:
            raise ValueError(f"unknown declaration kind {kind!r}")
        if arity < 0:
            raise ValueError("arity must be non-negative")
        if name in RESERVED:
            raise ValueError(f"{name!r} is reserved and cannot be declared")
        if name in self.entries:
            raise ValueError(f"{name} is already declared")
        self.entries[name] = (kind, arity)

    def kind_of(self, name: str) -> str | None:
        e = self.entries.get(name)
        return e[0] if e else None


# ---------------------------------------------------------------------------
# Free variables


def _occurs(x: Syntax, out: dict[str, None]) -> None:
    """Add x's free variables to out, an ordered set, in first-occurrence order."""
    cls = type(x)
    if cls is Var:
        out[x.name] = None
    elif cls is ForallA or cls is ExistsA:
        inner: dict[str, None] = {}
        _occurs(x.body, inner)
        for v in x.vars:
            inner.pop(v, None)
        out.update(inner)
    else:
        for y in _children(x):
            _occurs(y, out)


def _own_free_vars(x: Syntax) -> frozenset[str]:
    """The free variables of a new node, from its children's cached ones."""
    cls = type(x)
    if cls is Var:
        return frozenset((x.name,))
    if cls is ForallA or cls is ExistsA:
        return x.body._fv.difference(x.vars)
    fv = _NO_VARS
    for y in _children(x):
        if not y._fv <= fv:
            fv = fv | y._fv if fv else y._fv
    return fv


def free_vars(x: Syntax) -> frozenset[str]:
    """The free variables of x.  For a node this is the node's own cached
    set, shared by every caller."""
    if type(x) is SymbolicHeap:
        return _NO_VARS.union(*[f._fv for f in x.pures], *[a._fv for a in x.spatials])
    return x._fv


def occurring_vars(x: Syntax) -> list[str]:
    """Free variables in first-occurrence order (left-to-right traversal)."""
    out: dict[str, None] = {}
    _occurs(x, out)
    return list(out)


# ---------------------------------------------------------------------------
# Fresh names


def fresh_name(base: str, avoid: AbstractSet[str]) -> str:
    """Return base, or base with the smallest prime-suffix not in avoid."""
    name, k = base, 0
    while name in avoid:
        k += 1
        name = f"{base}'{k}"
    return name


# ---------------------------------------------------------------------------
# Substitution


def substitute(x: Syntax, mapping: Mapping[str, Term]) -> Syntax:
    """Simultaneous substitution of terms for free variables in a term, pure
    formula, spatial atom or heap (conjunct by conjunct): `builder(x)` run on
    the mapping.  A node with no free variable in the mapping is returned as
    it is; an assertion raises TypeError."""
    if type(x) is SymbolicHeap:
        return SymbolicHeap([substitute(f, mapping) for f in x.pures], [substitute(a, mapping) for a in x.spatials])
    if isinstance(x, Assertion):
        raise TypeError(f"substitute: unsupported assertion {x!r}")
    return x if x._fv.isdisjoint(mapping) else builder(x)(mapping)


def builder(x: Syntax) -> Callable[[Mapping[str, Term]], Syntax]:
    """A term, pure formula or spatial atom compiled into a function of a
    binding that substitutes it, made directly through the interning
    constructors: a variable the binding lacks stays, and a closed subtree is
    x's own.  Variables are looked up in printing order.  An operator chain
    is built and run with one frame per level."""
    cls = type(x)
    if isinstance(x, Assertion):
        raise TypeError(f"builder: unsupported assertion {x!r}")
    if not x._fv:
        return lambda b: x
    if cls is Var:
        return lambda b: b.get(x.name, x)
    parts = []  # per field: a builder of its value
    for name, kid in _FIELDS[cls]:
        v = getattr(x, name)
        if type(v) is tuple:  # a call's arguments, nested no deeper than the parser's MAX_NESTING
            parts.append(lambda b, kids=[builder(y) for y in v]: [g(b) for g in kids])
        else:
            parts.append(builder(v) if kid else lambda b, v=v: v)
    if len(parts) == 3:
        p, q, r = parts
        return lambda b: cls(p(b), q(b), r(b))
    if len(parts) == 2:
        p, q = parts
        return lambda b: cls(p(b), q(b))
    (p,) = parts
    return lambda b: cls(p(b))


# ---------------------------------------------------------------------------
# Well-formedness


def well_formed_report(e: Entailment) -> list[str]:
    """Diagnostics for a closed entailment; empty means well formed."""
    problems: list[str] = []
    if len(set(e.universals)) != len(e.universals):
        problems.append("duplicate universal binder")
    if len(set(e.existentials)) != len(e.existentials):
        problems.append("duplicate existential binder")
    overlap = set(e.universals) & set(e.existentials)
    if overlap:
        problems.append(f"binder declared both forall and exists: {', '.join(sorted(overlap))}")
    u = set(e.universals)
    loose_l = free_vars(e.lhs) - u
    if loose_l:
        problems.append(f"antecedent uses unbound variables: {', '.join(sorted(loose_l))}")
    loose_r = free_vars(e.rhs) - u - set(e.existentials)
    if loose_r:
        problems.append(f"consequent uses unbound variables: {', '.join(sorted(loose_r))}")
    return problems


def well_formed(e: Entailment) -> bool:
    return not well_formed_report(e)


# ---------------------------------------------------------------------------
# Normalization


def normalize(a: Assertion) -> Assertion:
    """Drop conjunction units, flatten nested conjunctions, prune empty binders.

    Idempotent and free-variable preserving.  An empty separating conjunction
    collapses to emp, an empty plain conjunction to true.
    """
    match a:
        case PureA() | SpatialA():
            return a
        case SepConj(parts) | AndA(parts):
            unit = SpatialA(Emp()) if isinstance(a, SepConj) else PureA(TrueF())
            flat: list[Assertion] = []
            for p in parts:
                q = normalize(p)
                if isinstance(q, type(a)):
                    flat.extend(q.parts)
                else:
                    flat.append(q)
            kept = [p for p in flat if p != unit]
            if not kept:
                return unit
            if len(kept) == 1:
                return kept[0]
            return type(a)(tuple(kept))
        case Wand(l, r):
            return Wand(normalize(l), normalize(r))
        case ForallA(vs, body) | ExistsA(vs, body):
            body2 = normalize(body)
            return body2 if not vs else type(a)(vs, body2)
    raise TypeError(f"normalize: unsupported value {a!r}")


# ---------------------------------------------------------------------------
# Alpha-equivalence


def _canon(x: Syntax, env: dict[str, int], ignore_order: bool) -> tuple:
    """A key equal for two nodes exactly when they are alpha-equivalent."""
    cls = type(x)
    if cls is Var:
        return ("bv", env[x.name]) if x.name in env else ("fv", x.name)
    if cls is ForallA or cls is ExistsA:
        env = dict(env)
        for v in x.vars:
            env[v] = len(env)
        return (cls.__name__, len(x.vars), _canon(x.body, env, ignore_order))
    key: list = [cls.__name__]
    for name, kid in _FIELDS[cls]:
        c = getattr(x, name)
        if not kid:
            key.append(c)
        elif type(c) is tuple:
            parts = []
            for y in c:
                parts.append(_canon(y, env, ignore_order))
            key.append(tuple(sorted(parts) if ignore_order and cls in (SepConj, AndA) else parts))
        else:
            key.append(_canon(c, env, ignore_order))
    return tuple(key)


def alpha_equivalent(a: Assertion, b: Assertion, *, ignore_conjunct_order: bool = True) -> bool:
    """Equality up to positional renaming of bound variables.

    With ignore_conjunct_order, operands of SepConj and AndA compare as
    multisets.  Binder lists compare positionally.
    """
    return _canon(a, {}, ignore_conjunct_order) == _canon(b, {}, ignore_conjunct_order)
