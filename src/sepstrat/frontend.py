"""Concrete syntax: signatures, entailments, strategies, assertions.

A lexer that turns a text into its token strings with one regular
expression call, and recursive-descent parsers over those strings; a
token's line and column are recovered from its index only when a diagnostic
is raised.  Terms, pure formulas and assertions are parsed by one
precedence-climbing loop over OPERATORS, which the printer reads too.  The signature drives the
classification of `*` (separating conjunction after a complete atom,
multiplication inside a term) and of identifier applications (spatial
predicate, pure predicate, or function).  Printers are exact inverses on
the AST values this package produces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (
    DECLARATION_KINDS,
    ITEMS,
    RESERVED,
    SECTION_KEYWORDS,
    STRUCTURAL_KEYWORDS,
    AndA,
    Apply,
    Arith,
    Assertion,
    Bin,
    DataAt,
    Emp,
    Entailment,
    Eq,
    ExistsA,
    FieldAddr,
    ForallA,
    FrontendError,
    IntLit,
    Not,
    PredP,
    PredS,
    PureA,
    PureFormula,
    Rel,
    SepConj,
    Signature,
    SoundnessCondition,
    SpatialA,
    SpatialAtom,
    SymbolicHeap,
    Term,
    TrueF,
    Var,
    Wand,
    well_formed_report,
)
from . import core

DEFAULT_PRIORITY = 50

# How deeply constructs may nest: parentheses, prefix minus signs, the right
# operands of `->` and `-*`, and assertion quantifiers.  The parser recurses
# once per level, and the bound keeps it well inside Python's recursion limit.
MAX_NESTING = 100

# How tall the tree of an operator chain (`+`, `-`, `*`, `&&`, `||`, `<->`)
# may grow, counting one more level for each construct the chain is nested
# in.  The parser builds a chain in a loop, one tree level per operator, but
# every later traversal recurses once per level, so the tree is bounded too.
MAX_DEPTH = 850

# The operators of the three expression grammars, op -> (level,
# associativity, node); a higher level binds tighter.
#   "left":   a chain builds node(op, l, r) left-nested, one tree level per
#             operator, and its height counts toward MAX_DEPTH;
#   "right":  node(op, l, r) takes everything that follows at its level or
#             tighter as its right operand, one level toward MAX_NESTING;
#   "flat":   a chain builds one node(operands) over all of its operands;
#   "prefix": a quantifier node(binders, body), whose body is everything
#             that follows at its level, one level toward MAX_NESTING.
OPERATORS = {
    "term": {"+": (1, "left", Arith), "-": (1, "left", Arith), "*": (2, "left", Arith)},
    "pure": {"<->": (1, "left", Bin), "->": (2, "right", Bin), "||": (3, "left", Bin), "&&": (4, "left", Bin)},
    "assertion": {
        "forall": (1, "prefix", ForallA),
        "exists": (1, "prefix", ExistsA),
        "-*": (1, "right", lambda _, l, r: Wand(l, r)),
        "&&": (2, "flat", AndA),
        "*": (3, "flat", SepConj),
    },
}
_TERM, _PURE, _ASSERTION = OPERATORS["term"], OPERATORS["pure"], OPERATORS["assertion"]
_NO_OP = (0, None, None)  # what any other token is: below every level
# Above every level: no operator reaches it, and an operand printed at it is
# parenthesised unless atomic.
_ATOM = 1 + max(level for ops in OPERATORS.values() for level, _, _ in ops.values())

# The node an application of a declared symbol builds, by the symbol's kind.
_CALLS = {"spatial": PredS, "pure": PredP, "func": Apply}

# ---------------------------------------------------------------------------
# Errors


class ParseError(FrontendError):
    """The text does not fit the grammar where it was read, so `attempt` may
    try another reading.  Every other input error is a FrontendError, which
    no other reading avoids and backtracking never retries past."""


# ---------------------------------------------------------------------------
# Strategy AST


@dataclass(frozen=True, slots=True)
class PatternAtom:
    """One pattern conjunct; binders lists the `?`-introduced variables in
    occurrence order (the binding occurrence is the variable's first
    occurrence within the atom)."""

    formula: PureFormula | SpatialAtom
    binders: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Pattern:
    side: str  # "left" | "right"
    atom: PatternAtom
    exists_binders: tuple[str, ...] = ()


class Item(NamedTuple):
    """One check or action item, by its `.stg` keyword.  arg is a pure
    formula for a check, a conjunct for `*_add`/`*_erase`, a name for
    `forall_add`/`exist_add`, and a (variable, term) pair for
    `instantiate`."""

    keyword: str
    arg: object


@dataclass(frozen=True, slots=True)
class Strategy:
    name: str
    priority: int
    patterns: tuple[Pattern, ...]
    checks: tuple[Item, ...]
    action: tuple[Item, ...]  # one `instantiate` item, or operations
    # its `matcher.Plan` once `matcher.plan_of` builds it; a copy starts without
    compiled: object = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Program:
    strategies: tuple[Strategy, ...]
    named: dict[str, Strategy] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the first definition of a name wins
        object.__setattr__(self, "named", {s.name: s for s in reversed(self.strategies)})

    def by_name(self, name: str) -> Strategy | None:
        return self.named.get(name) if isinstance(name, str) else None


# ---------------------------------------------------------------------------
# Lexer


# One alternative per token, tried in this order at each position: a comment,
# a number, an identifier, a punctuation (longest first), and any other
# character but white space, which `_lex` reports as unexpected.  Numbers are
# ASCII digits only, since `int` rejects digits like `²` that `str.isdigit`
# accepts; an identifier is a letter or `_` and then letters, digits, `_` and
# `'`, where `\w` is `str.isalnum` or `_`, so its first character is checked
# for `str.isalpha`.
_TOKEN = re.compile(r"//[^\n]*|[0-9]+|\w[\w']*|\|--|<->|->|-\*|==|!=|<=|>=|&&|\|\||[^ \t\r\n]")
_PUNCTS = frozenset("|-- <-> -> -* == != <= >= && || ( ) , ; : * + - / ! ? < >".split())


def _lex(text: str, path: str, start_line: int = 1) -> tuple[str, ...]:
    """The token texts of text, comments dropped, then "" twice for the end,
    so that looking one token past the end still reads it.  Positions are
    left to `_position`, which only a diagnostic needs."""
    toks = _TOKEN.findall(text)
    if "//" in text:
        toks = [t for t in toks if t[:2] != "//"]
    bad = [t for t in set(toks) if t not in _PUNCTS and not (t[0].isalpha() or t[0] in "_0123456789")]
    if bad:
        i = min(map(toks.index, bad))
        raise ParseError(f"unexpected character {toks[i][0]!r}", path, *_position(text, start_line, i))
    return (*toks, "", "")


def _position(text: str, start_line: int, index: int) -> tuple[int, int]:
    """The (line, col) of token number index of `_lex(text, ...)`, read by
    the same regular expression; past the last token, the end of text, where
    a comment that ends the text takes no columns."""
    at = len(text)
    for m in _TOKEN.finditer(text):
        if not m.group().startswith("//"):
            if not index:
                at = m.start()
                break
            index -= 1
        elif m.end() == len(text):
            at = m.start()
    return start_line + text.count("\n", 0, at), at - text.rfind("\n", 0, at)


# The kind of a token of `_lex` by its first character: an ASCII digit starts
# a number, a letter or `_` an identifier (so does every character outside
# ASCII that `_lex` lets through), anything else is punctuation; "" is the end.
_KINDS = dict.fromkeys("0123456789", "int") | dict.fromkeys("".join(_PUNCTS), "punct") | {"": "eof"}


def _kind(tok: str) -> str:
    return _KINDS.get(tok[:1], "ident")


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive descent over `_lex`'s token texts, each of a kind read from
    its text (`_kind`) and named by its index: `err` keeps the index on the
    error it builds, and `_parse_all` turns it into a position only when the
    error leaves the parser, so an error that `attempt` catches costs none."""

    def __init__(self, text: str, sig: Signature, path: str, start_line: int = 1, atoms: dict | None = None) -> None:
        self.sig = sig
        self.path = path
        self.toks = _lex(text, path, start_line)
        self.atoms = atoms  # the call atoms parsed so far, by their tokens (`_tabled_call`)
        self.pos = 0
        # Pattern mode: `?x` term primaries are legal and get recorded here.
        self.pattern_mode = False
        self.binder_acc: list[str] = []
        # The names bound so far in the strategy being read; None outside one.
        self.scope: set[str] | None = None
        self.depth = 0

    # -- token plumbing

    def next(self) -> int:
        """Consume the next token, unless it is the end; its index."""
        i = self.pos
        if self.toks[i]:
            self.pos = i + 1
        return i

    def at(self, text: str) -> bool:
        return self.toks[self.pos] == text

    def expect(self, kind: str, text: str | None = None, message: str | None = None) -> int:
        """Consume the next token, which must be of this kind (and text)."""
        i = self.pos
        t = self.toks[i]
        if (t != text) if text is not None else (_kind(t) != kind):
            want = repr(text) if text else "an identifier"
            raise self.err(ParseError, message or f"expected {want}, found {t or 'end of input'!r}")
        self.pos = i + 1
        return i

    def eat_punct(self, text: str) -> int:
        i = self.expect("punct", text)
        if text == "(":
            self.descend(i)
        elif text == ")":
            self.depth -= 1
        return i

    def descend(self, at: int) -> None:
        """Enter one more nesting level, opened by token at; undone by `depth -= 1`."""
        if self.depth == MAX_NESTING:
            raise self.err(FrontendError, f"nesting deeper than {MAX_NESTING} levels", at)
        self.depth += 1

    def chained(self, left, h: int, right, op: int) -> int:
        """Height of the node that token op builds from left, of height h (0
        when not yet known), and right; an error when it passes MAX_DEPTH."""
        h = 1 + max(h or core.height(left), core.height(right))
        if h + self.depth > MAX_DEPTH:
            raise self.err(FrontendError, f"operator chain deeper than {MAX_DEPTH} levels", op)
        return h

    def attempt(self, parse, *args):
        """parse(*args), or None with the position and the `?` binders
        restored when it raises a ParseError."""
        save = self.pos, self.depth, len(self.binder_acc)
        try:
            return parse(*args)
        except ParseError:
            self.pos, self.depth, n = save
            if self.scope is not None:
                self.scope.difference_update(self.binder_acc[n:])
            del self.binder_acc[n:]
            return None

    def expect_eof(self) -> None:
        if self.toks[self.pos]:
            raise self.err(ParseError, f"unexpected trailing input {self.toks[self.pos]!r}")

    def err(self, cls: type[FrontendError], message: str, at: int | None = None) -> FrontendError:
        """An error at token index at, the next token by default."""
        exc = cls(message, self.path)
        exc.token = self.pos if at is None else at
        return exc

    def binder(self, i: int) -> str:
        """The name token i binds: no declared symbol and no keyword; inside
        a strategy, a name not bound yet, which it now is."""
        name = self.toks[i]
        if self.sig.kind_of(name) is not None:
            raise self.err(FrontendError, f"declared symbol {name!r} cannot be a binder", i)
        if name in STRUCTURAL_KEYWORDS:
            raise self.err(FrontendError, f"keyword {name!r} cannot be a binder", i)
        if self.scope is not None:
            if name in self.scope:
                raise self.err(FrontendError, f"variable {name!r} is already bound", i)
            self.scope.add(name)
        return name

    def bound(self, i: int) -> str:
        """The variable token i names, which inside a strategy must be bound."""
        name = self.toks[i]
        if self.scope is not None and name not in self.scope:
            raise self.err(FrontendError, f"variable {name!r} has no earlier binding occurrence", i)
        return name

    def integer(self, i: int) -> int:
        """The value of `int` token i; Python's digit limit on `int` becomes
        a diagnostic at the token."""
        try:
            return int(self.toks[i])
        except ValueError:
            raise self.err(ParseError, f"integer literal of {len(self.toks[i])} digits is too long", i) from None

    # -- expressions: terms, pure formulas and assertions

    def _climb(self, grammar: str, floor: int = 1):
        """Precedence climbing (Pratt 1973) over OPERATORS[grammar]: an
        operand, then every operator of level floor or tighter after it."""
        ops = OPERATORS[grammar]
        start = self.pos
        left = self._primary() if grammar == "term" else self._operand(grammar, floor)
        h = 0  # the height of left, 0 while unknown
        # An operator from this level up that a right operand's own loop left
        # unconsumed was refused there (a `*` that separates heap conjuncts),
        # so the expression ends before it here too, without a second try.
        limit = _ATOM
        while True:
            i = self.pos
            op = self.toks[i]
            level, assoc, node = ops.get(op, _NO_OP)
            if assoc == "prefix" or not floor <= level < limit:
                return left
            self.pos = i + 1
            if assoc == "flat":
                parts = [left, self._climb(grammar, level + 1)]
                while self.at(op):
                    self.pos += 1
                    parts.append(self._climb(grammar, level + 1))
                left, h = node(tuple(parts)), 0
            elif assoc == "right":
                self.descend(i)
                right = self._climb(grammar, level)
                self.depth -= 1
                left, h = node(op, left, right), 0
            else:
                if grammar == "term" and op == "*":
                    # A product only when a term follows: otherwise the `*` is
                    # the separating conjunction after the atom this term ends.
                    right = self.attempt(self._climb, grammar, level + 1) if self._starts_term() else None
                    if right is None:
                        self.pos = i
                        return left
                else:
                    right = self._climb(grammar, level + 1)
                # A term or pure node is no taller than the tokens it spans,
                # so a chain needs its height only once it spans enough.
                if self.pos - start + self.depth > MAX_DEPTH:
                    h = self.chained(left, h, right, i)
                left, limit = node(op, left, right), level + 1

    def _operand(self, grammar: str, floor: int):
        """A pure or assertion operand, which may be a quantifier."""
        level, assoc, node = OPERATORS[grammar].get(self.toks[self.pos], _NO_OP)
        if assoc == "prefix" and level >= floor:
            self.descend(self.next())
            binders = self._binder_list()
            body = self._climb(grammar, level)
            self.depth -= 1
            return node(binders, body)
        if grammar == "pure":
            return self._pure_atom()
        return self._assert_atom()

    def _parenthesised(self, grammar: str):
        self.eat_punct("(")
        inner = self._climb(grammar)
        self.eat_punct(")")
        return inner

    def parse_term(self) -> Term:
        return self._climb("term")

    def parse_assertion(self) -> Assertion:
        return self._climb("assertion")

    # -- term operands

    def _starts_term(self) -> bool:
        tok = self.toks[self.pos]
        kind = _kind(tok)
        if kind == "ident":
            if tok in ("emp", "true", "data_at", "forall", "exists") or tok in SECTION_KEYWORDS:
                return False
            return self.sig.kind_of(tok) not in ("spatial", "pure")
        return kind == "int" or tok in ("(", "-") or tok == "?" and self.pattern_mode

    def _primary(self) -> Term:
        i = self.pos
        t = self.toks[i]
        kind = _kind(t)
        if kind == "ident":
            if t == "field_addr":
                return self._call()
            if self.toks[i + 1] == "(":
                kind = self.sig.kind_of(t)
                if kind is None:
                    raise self.err(FrontendError, f"undeclared symbol {t!r} applied to arguments")
                if kind != "func":
                    raise self.err(ParseError, f"{kind} predicate {t!r} cannot appear inside a term")
                return self._call()
            if self.sig.kind_of(t) is not None:
                raise self.err(ParseError, f"declared symbol {t!r} used without arguments")
            if t in STRUCTURAL_KEYWORDS:
                raise self.err(ParseError, f"keyword {t!r} cannot be used as a variable")
            self.pos = i + 1
            return Var(self.bound(i))
        if kind == "int":
            self.pos = i + 1
            return IntLit(self.integer(i))
        if t == "-":
            self.descend(self.next())
            inner = self._primary()
            self.depth -= 1
            if isinstance(inner, IntLit):
                return IntLit(-inner.value)
            return Arith("-", IntLit(0), inner)
        if t == "(":
            return self._parenthesised("term")
        if t == "?":
            if not self.pattern_mode:
                raise self.err(ParseError, "`?` binders are only allowed in strategy patterns")
            self.next()
            name = self.binder(self.expect("ident"))
            self.binder_acc.append(name)
            return Var(name)
        raise self.err(ParseError, f"expected a term, found {t or 'end of input'!r}")

    def _call(self) -> Term | PureFormula | SpatialAtom:
        """The `name(args)` form that the next token starts: `data_at`,
        `field_addr`, or an application of a declared symbol, whose arity is
        checked.  The caller has classified the token."""
        name = self.toks[self.pos]
        self.pos += 1
        open_tok = self.eat_punct("(")
        if name in ("data_at", "field_addr"):
            first = self.parse_term()
            self.eat_punct(",")
            second = self.toks[self.expect("ident")] if name == "field_addr" else self.parse_term()
            self.eat_punct(")")
            return FieldAddr(first, second) if name == "field_addr" else DataAt(first, second)
        args: list[Term] = []
        if not self.at(")"):
            args.append(self.parse_term())
            while self.toks[self.pos] == ",":
                self.pos += 1
                args.append(self.parse_term())
        self.eat_punct(")")
        kind, arity = self.sig.entries[name]
        if arity != len(args):
            raise self.err(FrontendError, f"{name} expects {arity} argument(s), got {len(args)}", open_tok)
        return _CALLS[kind](name, tuple(args))

    # -- atom layer (heap conjuncts, pure operands)

    def parse_atom(self) -> PureFormula | SpatialAtom:
        t = self.toks[self.pos]
        if t == "emp":
            self.pos += 1
            return Emp()
        if t == "true":
            self.pos += 1
            return TrueF()
        if t == "data_at" or self.sig.kind_of(t) in ("spatial", "pure"):
            return self._call() if self.atoms is None or self.depth or self.scope is not None else self._tabled_call()
        if t == "!":
            self.next()
            return Not(self._parenthesised("pure"))
        if t == "(":
            f = self.attempt(self._relational)
            return self._parenthesised("pure") if f is None else f
        return self._relational()

    def _tabled_call(self) -> PureFormula | SpatialAtom:
        """`_call` through self.atoms, keyed by the tokens from the name to the
        `)` that closes its `(`.  An atom is entered once it parses in full; at
        depth 0 outside strategies its parse depends on those tokens alone."""
        toks, i = self.toks, self.pos
        try:
            j = toks.index(")", i) + 1
            key = toks[i:j]
            while key.count("(") > key.count(")"):  # a call nested in it
                j = toks.index(")", j) + 1
                key = toks[i:j]
        except ValueError:  # unclosed: `_call` reports it
            return self._call()
        atom = self.atoms.get(key)
        if atom is None:  # a parse in full consumes exactly the tokens of key
            atom = self.atoms[key] = self._call()
        else:
            self.pos = j
        return atom

    def _relational(self) -> PureFormula:
        left = self.parse_term()
        t = self.toks[self.pos]
        if t == "==":
            self.pos += 1
            return Eq(left, self.parse_term())
        if t in core.REL_OPS:
            self.pos += 1
            return Rel(t, left, self.parse_term())
        raise self.err(ParseError, f"expected a relational operator, found {t or 'end of input'!r}")

    def _pure_atom(self) -> PureFormula:
        a = self.parse_atom()
        if not isinstance(a, PureFormula):
            raise self.err(ParseError, "expected a pure formula, found a spatial atom")
        return a

    def _assert_atom(self) -> Assertion:
        if self.at("("):
            inner = self.attempt(self._parenthesised, "assertion")
            if inner is not None:
                return inner
        a = self.parse_atom()
        return PureA(a) if isinstance(a, PureFormula) else SpatialA(a)

    # -- heap conjunctions and entailments

    def parse_heap(self) -> SymbolicHeap:
        pures: list[PureFormula] = []
        spatials: list[SpatialAtom] = []
        while True:
            a = self.parse_atom()
            if isinstance(a, PureFormula):
                pures.append(a)
            elif not isinstance(a, Emp):
                spatials.append(a)
            if self.toks[self.pos] not in ("*", "&&"):
                return SymbolicHeap(tuple(pures), tuple(spatials))
            self.pos += 1

    def _binder_list(self) -> tuple[str, ...]:
        names: list[str] = []
        while _kind(self.toks[self.pos]) == "ident":
            names.append(self.binder(self.pos))
            self.pos += 1
        if not names:
            raise self.err(ParseError, "expected at least one binder name")
        self.eat_punct(",")
        return tuple(names)

    def parse_entailment(self) -> Entailment:
        start = self.pos
        universals: tuple[str, ...] = ()
        if self.at("forall"):
            self.next()
            universals = self._binder_list()
        lhs = self.parse_heap()
        self.eat_punct("|--")
        existentials: tuple[str, ...] = ()
        if self.at("exists"):
            self.next()
            existentials = self._binder_list()
        rhs = self.parse_heap()
        e = Entailment(universals, lhs, existentials, rhs)
        problems = well_formed_report(e)
        if problems:
            raise self.err(FrontendError, "; ".join(problems), start)
        return e

    # -- strategies

    def _pattern_formula(self) -> PatternAtom:
        self.pattern_mode = True
        self.binder_acc = []
        try:
            f = self.parse_atom()
        finally:
            self.pattern_mode = False
        if isinstance(f, Emp):
            raise self.err(ParseError, "emp cannot be a pattern")
        return PatternAtom(f, tuple(self.binder_acc))

    def parse_strategy(self, defined: list[Strategy]) -> Strategy:
        """One strategy, read in one pass: a variable is bound by its `?`
        or by `forall_add`/`exist_add` before any bare use, in text order.
        Its name must differ from those of the defined strategies."""
        self.expect("ident", "strategy")
        name_tok = self.expect("ident")
        name = self.toks[name_tok]
        if name in RESERVED or self.sig.kind_of(name) is not None:
            raise self.err(ParseError, f"{name!r} cannot be a strategy name", name_tok)
        if any(s.name == name for s in defined):
            raise self.err(FrontendError, f"strategy {name!r} is already defined", name_tok)
        self.scope = set()
        priority: int | None = None
        patterns: list[Pattern] = []
        checks: list[Item] = []
        action: tuple[Item, ...] | None = None
        while True:
            t = self.toks[self.pos]
            if not t or t == "strategy":
                break
            if t not in SECTION_KEYWORDS:
                raise self.err(ParseError, f"expected a strategy section, found {t!r}")
            if action is not None:
                raise self.err(ParseError, "the action section must be the last section of a strategy")
            section = self.next()
            self.eat_punct(":")
            if t == "priority":
                if priority is not None:
                    raise self.err(ParseError, "duplicate priority section", section)
                neg = self.at("-")
                if neg:
                    self.next()
                p = self.integer(self.expect("int", message="expected an integer priority"))
                priority = -p if neg else p
            elif t in ("left", "right"):
                patterns.extend(self._parse_pattern_group(t))
            elif t == "check":
                checks.extend(self._parse_items("check"))
            else:
                action = tuple(self._parse_items("action"))
        if not patterns:
            raise self.err(ParseError, f"strategy {name} has no patterns", name_tok)
        if action is None:
            raise self.err(ParseError, f"strategy {name} has no action", name_tok)
        self.scope = None
        priority = DEFAULT_PRIORITY if priority is None else priority
        return Strategy(name, priority, tuple(patterns), tuple(checks), action)

    def _parse_pattern_group(self, side: str) -> list[Pattern]:
        """The patterns of one section; each `exists x,` binder must be
        `?`-bound by the pattern it opens."""
        exists_toks: list[int] = []
        while self.at("exists"):
            tok = self.next()
            if side != "right":
                raise self.err(ParseError, "exists binders are only allowed on right patterns", tok)
            exists_toks.append(self.expect("ident"))
            self.eat_punct(",")
        names = tuple(self.toks[i] for i in exists_toks)
        atoms: list[PatternAtom] = [self._pattern_formula()]
        for i, name in zip(exists_toks, names):
            if name not in atoms[0].binders:
                raise self.err(FrontendError, f"exists binder {name!r} is not `?`-bound by the pattern it opens", i)
        while self.toks[self.pos] and self.toks[self.pos] not in SECTION_KEYWORDS:
            atoms.append(self._pattern_formula())
        return [Pattern(side, atoms[0], names), *(Pattern(side, a) for a in atoms[1:])]

    def _parse_items(self, section: str) -> list[Item]:
        """The `keyword(...);` items of a check or action section."""
        items: list[Item] = []
        while ITEMS.get(self.toks[self.pos]) == section:
            t = self.next()
            keyword = self.toks[t]
            self.eat_punct("(")
            if keyword == "instantiate":
                var = self.bound(self.expect("ident"))
                self.eat_punct("->")
                arg = (var, self.parse_term())
            elif keyword in ("forall_add", "exist_add"):
                arg = self.binder(self.expect("ident"))
            else:
                arg = self.parse_atom()
                if section == "check" and not isinstance(arg, PureFormula):
                    raise self.err(ParseError, "checks take a pure formula", t)
                if isinstance(arg, Emp):
                    raise self.err(ParseError, "emp cannot be added or erased", t)
            items.append(Item(keyword, arg))
            self.eat_punct(")")
            self.eat_punct(";")
            if len(items) > 1 and "instantiate" in (keyword, items[0].keyword):
                raise self.err(FrontendError, "instantiate cannot be combined with other operations", t)
        if not items:
            raise self.err(ParseError, f"expected at least one {section} item")
        return items

    def parse_program(self, prior: Program | None = None) -> Program:
        """prior's strategies, then the ones read here."""
        strategies = list(prior.strategies) if prior else []
        while self.toks[self.pos]:
            strategies.append(self.parse_strategy(strategies))
        return Program(tuple(strategies))

    def parse_signature(self) -> Signature:
        """self.sig, with the declarations read here added."""
        while self.toks[self.pos]:
            decl = self.next()
            kind = self.toks[decl]
            if kind not in DECLARATION_KINDS:
                raise self.err(ParseError, f"expected 'spatial', 'pure' or 'func', found {kind!r}", decl)
            name_tok = self.expect("ident", message="expected a symbol name")
            self.expect("punct", "/", "expected '/' before the arity")
            arity = self.expect("int", message="expected a numeric arity")
            self.expect("punct", ";", "expected ';' after the declaration")
            try:  # a reserved or already declared name
                self.sig.declare(self.toks[name_tok], kind, self.integer(arity))
            except ValueError as exc:
                raise self.err(FrontendError, str(exc), name_tok) from None
        return self.sig


# ---------------------------------------------------------------------------
# File-level parse functions


def parse_signature(text: str, path: str = "<input>") -> Signature:
    return _parse_all(_Parser.parse_signature, text, Signature(), path)


def _chunks(text: str) -> list[tuple[int, str]]:
    """Split on blank lines (comment-only lines count as blank); returns
    (start line, chunk text) pairs."""
    out: list[tuple[int, str]] = []
    cur: list[str] = []
    start = 1
    for idx, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("//", 1)[0].strip()
        if stripped:
            if not cur:
                start = idx
            cur.append(line)
        else:
            if cur:
                out.append((start, "\n".join(cur)))
                cur = []
    if cur:
        out.append((start, "\n".join(cur)))
    return out


def _parse_all(rule, text: str, sig: Signature, path: str, start_line: int = 1, atoms: dict | None = None):
    """rule applied to the start of text, which it must consume in full; an
    error leaves with the position of the token it names."""
    p = _Parser(text, sig, path, start_line, atoms)
    try:
        x = rule(p)
        p.expect_eof()
    except FrontendError as exc:
        exc.line, exc.col = _position(text, start_line, exc.token)
        raise
    return x


def parse_entailments(text: str, sig: Signature, path: str = "<input>") -> list[Entailment]:
    """text's blank-line separated entailments, through one table of call atoms."""
    atoms: dict = {}
    return [_parse_all(_Parser.parse_entailment, chunk, sig, path, line, atoms) for line, chunk in _chunks(text)]


def parse_strategies(text: str, sig: Signature, path: str = "<input>", prior: Program | None = None) -> Program:
    """The strategies of text after those of prior, whose names they may not
    reuse."""
    return _parse_all(lambda p: p.parse_program(prior), text, sig, path)


def parse_entailment(text: str, sig: Signature, path: str = "<input>", atoms: dict | None = None) -> Entailment:
    """atoms, when given, is the table of call atoms (`_tabled_call`) of
    one document's parses, which gives the nodes and the diagnostics of a
    parse without it."""
    return _parse_all(_Parser.parse_entailment, text, sig, path, 1, atoms)


def parse_heap(text: str, sig: Signature, path: str = "<input>") -> SymbolicHeap:
    return _parse_all(_Parser.parse_heap, text, sig, path)


def parse_term(text: str, sig: Signature, path: str = "<input>") -> Term:
    return _parse_all(_Parser.parse_term, text, sig, path)


def parse_pure(text: str, sig: Signature, path: str = "<input>") -> PureFormula:
    f = _parse_all(_Parser.parse_atom, text, sig, path)
    if not isinstance(f, PureFormula):
        raise ParseError("expected a pure formula", path, *_position(text, 1, 0))
    return f


def parse_assertion(text: str, sig: Signature, path: str = "<input>") -> Assertion:
    return _parse_all(_Parser.parse_assertion, text, sig, path)


# ---------------------------------------------------------------------------
# Printer: a node is parenthesised when its OPERATORS level is below ctx, the
# level its position asks for.  Nodes are hash-consed, so a node's text is a
# function of the node alone: the printer keeps it on the node the first time
# it prints it.

# The assertion operator each assertion node class is printed with.
_ASSERTION_OPS = {AndA: "&&", SepConj: "*", Wand: "-*", ForallA: "forall", ExistsA: "exists"}


def print_node(x: Term | PureFormula | SpatialAtom | Assertion) -> str:
    """x's text: the one kept on x, or else computed and kept."""
    return getattr(x, "_text", None) or _print(x)


def _print(x, ctx: int = 0) -> str:
    s = getattr(x, "_text", None)
    if s is None:
        match x:
            case IntLit(v):
                s = str(v)
            case Var(name):
                s = name
            case TrueF():
                s = "true"
            case Emp():
                s = "emp"
            case Apply(name, args) | PredP(name, args) | PredS(name, args):
                s = f"{name}({', '.join(_print(a) for a in args)})"
            case FieldAddr(base, fld):
                s = f"field_addr({_print(base)}, {fld})"
            case DataAt(addr, value):
                s = f"data_at({_print(addr)}, {_print(value)})"
            case Arith(op, l, r):
                level = _level(x)
                if level == _TERM[op][0]:
                    s = f"{_print(l, level)} {op} {_print(r, level + 1)}"
                else:  # 0 - r, printed as the prefix minus -r
                    s = "-" + _print(r, _ATOM)
            case Eq(l, r):
                s = f"{_print(l)} == {_print(r)}"
            case Rel(op, l, r):
                s = f"{_print(l)} {op} {_print(r)}"
            case Not(inner):
                s = f"!({_print(inner)})"
            case Bin(op, l, r):
                # A left-nested chain of a left-associative operator prints flat,
                # inside one pair of parentheses, as the parser builds it back.
                operands = [r]
                flat = _PURE[op][1] == "left"
                while flat and type(l) is Bin and l.op == op:
                    operands.append(l.right)
                    l = l.left
                operands.append(l)
                s = f"({f' {op} '.join(_print(o) for o in reversed(operands))})"
            case PureA(inner) | SpatialA(inner):
                s = _print(inner)
            case AndA(parts) | SepConj(parts):
                op = _ASSERTION_OPS[type(x)]
                s = f" {op} ".join(_print(p, _ASSERTION[op][0] + 1) for p in parts)
            case Wand(l, r):  # operands are parenthesised unless atomic
                s = f"{_print(l, _ATOM)} -* {_print(r, _ATOM)}"
            case ForallA(vs, body) | ExistsA(vs, body):
                op = _ASSERTION_OPS[type(x)]
                s = f"{op} {' '.join(vs)}, {_print(body, _ASSERTION[op][0])}"
            case _:
                raise TypeError(f"print_node: unsupported value {x!r}")
        object.__setattr__(x, "_text", s)
    # a cached text at ctx 0 returns without computing a level
    return f"({s})" if ctx and ctx > _level(x) else s


def _level(x) -> int:
    """The OPERATORS level x is printed at; atoms are never parenthesised."""
    match x:
        case Arith("-", IntLit(0), r) if not isinstance(r, IntLit):
            return _TERM["*"][0]  # a prefix minus binds as tightly as a product
        case Arith(op):
            return _TERM[op][0]
    op = _ASSERTION_OPS.get(type(x))
    return _ATOM if op is None else _ASSERTION[op][0]


def print_heap(h: SymbolicHeap) -> str:
    """The conjuncts' kept texts, printing only a conjunct not printed yet."""
    pures = " && ".join([p._text or print_node(p) for p in h.pures])
    spatials = " * ".join([s._text or print_node(s) for s in h.spatials])
    if pures and spatials:
        return f"{pures} && {spatials}"
    return pures or spatials or "emp"


def print_entailment(e: Entailment) -> str:
    lhs = print_heap(e.lhs)
    rhs = print_heap(e.rhs)
    fa = f"forall {' '.join(e.universals)}, " if e.universals else ""
    ex = f"exists {' '.join(e.existentials)}, " if e.existentials else ""
    return f"{fa}{lhs} |-- {ex}{rhs}"


class _FirstOccurrence(dict):
    """A substitution that applies each of its entries once: `core.builder`
    looks variables up with `get` in printing order, and this `get` pops."""

    def get(self, name, default=None):
        return self.pop(name, default)


def _print_pattern_atom(p: PatternAtom) -> str:
    marked = _FirstOccurrence({b: Var(f"?{b}") for b in p.binders})
    return print_node(core.substitute(p.formula, marked))


def print_strategy(s: Strategy) -> str:
    lines = [f"strategy {s.name}"]
    if s.priority != DEFAULT_PRIORITY:
        lines.append(f"priority: {s.priority}")
    for p in s.patterns:
        ex = "".join(f"exists {b}, " for b in p.exists_binders)
        lines.append(f"{p.side}: {ex}{_print_pattern_atom(p.atom)}")
    if s.checks:
        lines.append("check: " + " ".join(map(_print_item, s.checks)))
    if [op.keyword for op in s.action] == ["instantiate"]:
        lines.append("action: " + _print_item(s.action[0]))
    else:
        lines.append("action:")
        lines.extend("  " + _print_item(op) for op in s.action)
    return "\n".join(lines) + "\n"


def _print_item(item: Item) -> str:
    arg = item.arg
    if item.keyword == "instantiate":
        arg = f"{arg[0]} -> {print_node(arg[1])}"
    elif not isinstance(arg, str):
        arg = print_node(arg)
    return f"{item.keyword}({arg});"


def print_program(prog: Program) -> str:
    return "\n".join(print_strategy(s) for s in prog.strategies)


def print_condition(name: str, cond: SoundnessCondition | None) -> str:
    if cond is None:
        return f"soundness {name} : instantiate - always sound\n"
    lines = [f"soundness {name} :"]
    lines.append(f"  {print_node(cond.hypothesis)} |-- {print_node(cond.conclusion)}")
    lines.append(f"  free: {' '.join(cond.free_vars)}" if cond.free_vars else "  free:")
    return "\n".join(lines) + "\n"


def print_signature(sig: Signature) -> str:
    lines = [f"{kind} {name}/{arity};" for name, (kind, arity) in sig.entries.items()]
    return "\n".join(lines) + ("\n" if lines else "")
