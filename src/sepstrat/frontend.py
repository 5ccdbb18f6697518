"""Concrete syntax: signatures, entailments, strategies, assertions.

A lexer driven by one regular expression, and recursive-descent parsers.
Terms, pure formulas and assertions are parsed by one precedence-climbing
loop over OPERATORS, which the printer reads too.  The signature drives the
classification of `*` (separating conjunction after a complete atom,
multiplication inside a term) and of identifier applications (spatial
predicate, pure predicate, or function).  Printers are exact inverses on
the AST values this package produces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    AndA,
    Apply,
    Arith,
    Assertion,
    Bin,
    DataAt,
    DuplicateDeclarationError,
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

SECTION_KEYWORDS = frozenset({"strategy", "priority", "left", "right", "check", "action"})
STRUCTURAL_KEYWORDS = frozenset({"forall", "exists", "emp", "true", "data_at", "field_addr"})
DECLARATION_KINDS = ("spatial", "pure", "func")


# ---------------------------------------------------------------------------
# Errors


class ParseError(FrontendError):
    pass


class _TooDeep(ParseError):
    """Nesting beyond MAX_NESTING or a tree beyond MAX_DEPTH; backtracking
    never retries past it."""


class UnknownIdentifierError(FrontendError):
    pass


class ArityMismatchError(FrontendError):
    pass


class IllFormedEntailmentError(FrontendError):
    pass


class ScopeError(FrontendError):
    pass


class MixedInstantiateError(FrontendError):
    pass


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


@dataclass(frozen=True, slots=True)
class Item:
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


@dataclass(frozen=True, slots=True)
class Program:
    strategies: tuple[Strategy, ...]

    def by_name(self, name: str) -> Strategy | None:
        for s in self.strategies:
            if s.name == name:
                return s
        return None


# The section, "check" or "action", of each item keyword.
ITEMS = dict.fromkeys(("left_absent", "right_absent", "infer"), "check") | dict.fromkeys(
    ("left_add", "right_add", "left_erase", "right_erase", "forall_add", "exist_add", "instantiate"), "action"
)

# Names that may not be declared in a signature: built-ins plus every word the
# grammar gives a fixed job.
UNDECLARABLE = STRUCTURAL_KEYWORDS | SECTION_KEYWORDS | frozenset(ITEMS) | frozenset(DECLARATION_KINDS)


# ---------------------------------------------------------------------------
# Lexer


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind  # "ident" | "int" | "punct" | "eof"
        self.text = text
        self.line = line
        self.col = col


# One alternative per token class, tried in this order at each position.  A
# comment does not move the column.  Numbers are ASCII digits only, since
# `int` rejects digits like `²` that `str.isdigit` accepts; an identifier is
# a letter or `_` and then letters, digits, `_` and `'`, where `\w` is
# `str.isalnum` or `_`, so its first character is checked for `str.isalpha`.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>//[^\n]*)|(?P<int>[0-9]+)|(?P<ident>\w[\w']*)"
    r"|(?P<punct>\|--|<->|->|-\*|==|!=|<=|>=|&&|\|\||[(),;:*+\-/!?<>])"  # longest first
)


def _lex(text: str, path: str, start_line: int = 1) -> list[Token]:
    """The tokens of text, then two eof tokens, so that looking one token
    past the end still reads eof."""
    toks: list[Token] = []
    match = _TOKEN.match
    i = 0
    line = start_line
    line_start = 0  # where column 1 of the line is
    n = len(text)
    while i < n:
        m = match(text, i)
        kind = m and m.lastgroup
        if kind == "newline":
            line += 1
            line_start = i + 1
        elif kind == "comment":
            line_start += m.end() - i  # only a newline or the end follows
        elif kind != "space":
            if kind is None or kind == "ident" and not (text[i].isalpha() or text[i] == "_"):
                raise ParseError(f"unexpected character {text[i]!r}", path, line, i - line_start + 1)
            toks.append(Token(kind, m.group(), line, i - line_start + 1))
        i = m.end()
    eof = Token("eof", "", line, n - line_start + 1)
    toks += (eof, eof)
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str, sig: Signature, path: str, start_line: int = 1) -> None:
        self.sig = sig
        self.path = path
        self.toks = _lex(text, path, start_line)
        self.pos = 0
        # Pattern mode: `?x` term primaries are legal and get recorded here.
        self.pattern_mode = False
        self.binder_acc: list[str] = []
        self.depth = 0

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def at_ident(self, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == "ident" and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None, message: str | None = None) -> Token:
        """Consume the next token, which must be of this kind (and text)."""
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = repr(text) if text else "an identifier"
            raise self.err(ParseError, message or f"expected {want}, found {t.text or 'end of input'!r}", t)
        return self.next()

    def eat_punct(self, text: str) -> Token:
        tok = self.expect("punct", text)
        if text == "(":
            self.descend(tok)
        elif text == ")":
            self.depth -= 1
        return tok

    def descend(self, tok: Token) -> None:
        """Enter one more nesting level, opened by tok; undone by `depth -= 1`."""
        if self.depth == MAX_NESTING:
            raise _TooDeep(f"nesting deeper than {MAX_NESTING} levels", self.path, tok.line, tok.col)
        self.depth += 1

    def chained(self, left, h: int, right, op: Token) -> int:
        """Height of the node that op builds from left, of height h (0 when
        not yet known), and right; an error when it passes MAX_DEPTH."""
        h = 1 + max(h or core.height(left), core.height(right))
        if h + self.depth > MAX_DEPTH:
            raise _TooDeep(f"operator chain deeper than {MAX_DEPTH} levels", self.path, op.line, op.col)
        return h

    def attempt(self, parse, *args):
        """parse(*args), or None with the position restored when it fails;
        a _TooDeep error is never retried."""
        save = self.pos, self.depth
        try:
            return parse(*args)
        except _TooDeep:
            raise
        except ParseError:
            self.pos, self.depth = save
            return None

    def expect_eof(self) -> None:
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected trailing input {t.text!r}", self.path, t.line, t.col)

    def err(self, cls: type[FrontendError], message: str, tok: Token | None = None) -> FrontendError:
        t = tok or self.peek()
        return cls(message, self.path, t.line, t.col)

    def integer(self, tok: Token) -> int:
        """The value of an `int` token; Python's digit limit on `int`
        becomes a diagnostic at the token."""
        try:
            return int(tok.text)
        except ValueError:
            raise self.err(ParseError, f"integer literal of {len(tok.text)} digits is too long", tok) from None

    # -- expressions: terms, pure formulas and assertions

    def _climb(self, grammar: str, floor: int = 1):
        """Precedence climbing (Pratt 1973) over OPERATORS[grammar]: an
        operand, then every operator of level floor or tighter after it."""
        ops = OPERATORS[grammar]
        left = self._operand(grammar, floor)
        h = 0  # the height of left, 0 while unknown
        # An operator from this level up that a right operand's own loop left
        # unconsumed was refused there (a `*` that separates heap conjuncts),
        # so the expression ends before it here too, without a second try.
        limit = _ATOM
        while True:
            tok = self.peek()
            level, assoc, node = ops.get(tok.text, _NO_OP)
            if assoc == "prefix" or not floor <= level < limit:
                return left
            self.next()
            if assoc == "flat":
                parts = [left, self._climb(grammar, level + 1)]
                while self.at_punct(tok.text):
                    self.next()
                    parts.append(self._climb(grammar, level + 1))
                left, h = node(tuple(parts)), 0
            elif assoc == "right":
                self.descend(tok)
                right = self._climb(grammar, level)
                self.depth -= 1
                left, h = node(tok.text, left, right), 0
            else:
                if grammar == "term" and tok.text == "*":
                    # A product only when a term follows: otherwise the `*` is
                    # the separating conjunction after the atom this term ends.
                    right = self.attempt(self._climb, grammar, level + 1) if self._starts_term(self.peek()) else None
                    if right is None:
                        self.pos -= 1
                        return left
                else:
                    right = self._climb(grammar, level + 1)
                h = self.chained(left, h, right, tok)
                left, limit = node(tok.text, left, right), level + 1

    def _operand(self, grammar: str, floor: int):
        level, assoc, node = OPERATORS[grammar].get(self.peek().text, _NO_OP)
        if assoc == "prefix" and level >= floor:
            self.descend(self.next())
            binders = self._binder_list()
            body = self._climb(grammar, level)
            self.depth -= 1
            return node(binders, body)
        if grammar == "term":
            return self._primary()
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

    def _starts_term(self, tok: Token) -> bool:
        if tok.kind == "int":
            return True
        if tok.kind == "punct":
            if tok.text in ("(", "-"):
                return True
            return tok.text == "?" and self.pattern_mode
        if tok.kind == "ident":
            name = tok.text
            if name in ("emp", "true", "data_at", "forall", "exists"):
                return False
            if name in SECTION_KEYWORDS:
                return False
            kind = self.sig.kind_of(name)
            return kind not in ("spatial", "pure")
        return False

    def _primary(self) -> Term:
        t = self.peek()
        if t.kind == "int":
            return IntLit(self.integer(self.next()))
        if t.kind == "punct" and t.text == "-":
            self.descend(self.next())
            inner = self._primary()
            self.depth -= 1
            if isinstance(inner, IntLit):
                return IntLit(-inner.value)
            return Arith("-", IntLit(0), inner)
        if t.kind == "punct" and t.text == "(":
            return self._parenthesised("term")
        if t.kind == "punct" and t.text == "?":
            if not self.pattern_mode:
                raise self.err(ParseError, "`?` binders are only allowed in strategy patterns")
            self.next()
            name = self.expect("ident").text
            self.binder_acc.append(name)
            return Var(name)
        if t.kind == "ident":
            name = t.text
            if name == "field_addr":
                return self._call(t)
            if self.peek(1).kind == "punct" and self.peek(1).text == "(":
                kind = self.sig.kind_of(name)
                if kind is None:
                    raise self.err(UnknownIdentifierError, f"undeclared symbol {name!r} applied to arguments", t)
                if kind != "func":
                    raise self.err(ParseError, f"{kind} predicate {name!r} cannot appear inside a term", t)
                return self._call(t)
            if self.sig.kind_of(name) is not None:
                raise self.err(ParseError, f"declared symbol {name!r} used without arguments", t)
            if name in STRUCTURAL_KEYWORDS:
                raise self.err(ParseError, f"keyword {name!r} cannot be used as a variable", t)
            self.next()
            return Var(name)
        raise self.err(ParseError, f"expected a term, found {t.text or 'end of input'!r}")

    def _call(self, tok: Token) -> Term | PureFormula | SpatialAtom:
        """The `name(args)` form that tok, the next token, starts: `data_at`,
        `field_addr`, or an application of a declared symbol, whose arity is
        checked.  The caller has classified tok."""
        self.next()
        name = tok.text
        open_tok = self.eat_punct("(")
        if name in ("data_at", "field_addr"):
            first = self.parse_term()
            self.eat_punct(",")
            second = self.expect("ident").text if name == "field_addr" else self.parse_term()
            self.eat_punct(")")
            return FieldAddr(first, second) if name == "field_addr" else DataAt(first, second)
        args: list[Term] = []
        if not self.at_punct(")"):
            args.append(self.parse_term())
            while self.at_punct(","):
                self.next()
                args.append(self.parse_term())
        self.eat_punct(")")
        arity = self.sig.arity_of(name)
        if arity is not None and arity != len(args):
            raise self.err(ArityMismatchError, f"{name} expects {arity} argument(s), got {len(args)}", open_tok)
        return _CALLS[self.sig.kind_of(name)](name, tuple(args))

    # -- atom layer (heap conjuncts, pure operands)

    def parse_atom(self) -> PureFormula | SpatialAtom:
        t = self.peek()
        if t.kind == "ident":
            name = t.text
            if name == "emp":
                self.next()
                return Emp()
            if name == "true":
                self.next()
                return TrueF()
            if name == "data_at" or self.sig.kind_of(name) in ("spatial", "pure"):
                return self._call(t)
        if t.kind == "punct" and t.text == "!":
            self.next()
            return Not(self._parenthesised("pure"))
        if t.kind == "punct" and t.text == "(":
            f = self.attempt(self._relational)
            return self._parenthesised("pure") if f is None else f
        return self._relational()

    def _relational(self) -> PureFormula:
        left = self.parse_term()
        t = self.peek()
        if t.kind == "punct" and t.text == "==":
            self.next()
            return Eq(left, self.parse_term())
        if t.kind == "punct" and t.text in core.REL_OPS:
            self.next()
            return Rel(t.text, left, self.parse_term())
        raise self.err(ParseError, f"expected a relational operator, found {t.text or 'end of input'!r}")

    def _pure_atom(self) -> PureFormula:
        a = self.parse_atom()
        if not isinstance(a, PureFormula):
            raise self.err(ParseError, "expected a pure formula, found a spatial atom")
        return a

    def _assert_atom(self) -> Assertion:
        if self.at_punct("("):
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
            elif isinstance(a, Emp):
                pass
            else:
                spatials.append(a)
            if self.at_punct("*") or self.at_punct("&&"):
                self.next()
                continue
            return SymbolicHeap(tuple(pures), tuple(spatials))

    def _binder_list(self) -> tuple[str, ...]:
        names: list[str] = []
        while self.at_ident():
            t = self.peek()
            if self.sig.kind_of(t.text) is not None:
                raise self.err(ParseError, f"declared symbol {t.text!r} cannot be a binder", t)
            if t.text in STRUCTURAL_KEYWORDS:
                raise self.err(ParseError, f"keyword {t.text!r} cannot be a binder", t)
            names.append(self.next().text)
        if not names:
            raise self.err(ParseError, "expected at least one binder name")
        self.eat_punct(",")
        return tuple(names)

    def parse_entailment(self) -> Entailment:
        start = self.peek()
        universals: tuple[str, ...] = ()
        if self.at_ident("forall"):
            self.next()
            universals = self._binder_list()
        lhs = self.parse_heap()
        self.eat_punct("|--")
        existentials: tuple[str, ...] = ()
        if self.at_ident("exists"):
            self.next()
            existentials = self._binder_list()
        rhs = self.parse_heap()
        e = Entailment(universals, lhs, existentials, rhs)
        problems = well_formed_report(e)
        if problems:
            raise self.err(IllFormedEntailmentError, "; ".join(problems), start)
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

    def _at_section_start(self) -> bool:
        t = self.peek()
        return t.kind == "eof" or (t.kind == "ident" and t.text in SECTION_KEYWORDS)

    def parse_strategy(self) -> Strategy:
        self.expect("ident", "strategy")
        name_tok = self.expect("ident")
        name = name_tok.text
        if name in UNDECLARABLE or self.sig.kind_of(name) is not None:
            raise self.err(ParseError, f"{name!r} cannot be a strategy name", name_tok)
        priority: int | None = None
        patterns: list[Pattern] = []
        checks: list[Item] = []
        action: tuple[Item, ...] | None = None
        while True:
            t = self.peek()
            if t.kind == "eof" or (t.kind == "ident" and t.text == "strategy"):
                break
            if t.kind != "ident" or t.text not in SECTION_KEYWORDS:
                raise self.err(ParseError, f"expected a strategy section, found {t.text or 'end of input'!r}")
            if action is not None:
                raise self.err(ParseError, "the action section must be the last section of a strategy")
            self.next()
            self.eat_punct(":")
            if t.text == "priority":
                if priority is not None:
                    raise self.err(ParseError, "duplicate priority section", t)
                neg = self.at_punct("-")
                if neg:
                    self.next()
                p = self.integer(self.expect("int", message="expected an integer priority"))
                priority = -p if neg else p
            elif t.text in ("left", "right"):
                patterns.extend(self._parse_pattern_group(t.text))
            elif t.text == "check":
                checks.extend(self._parse_items("check"))
            else:
                action = tuple(self._parse_items("action"))
        if not patterns:
            raise self.err(ParseError, f"strategy {name} has no patterns", name_tok)
        if action is None:
            raise self.err(ParseError, f"strategy {name} has no action", name_tok)
        s = Strategy(
            name=name,
            priority=DEFAULT_PRIORITY if priority is None else priority,
            patterns=tuple(patterns),
            checks=tuple(checks),
            action=action,
        )
        self._scope_check(s, name_tok)
        return s

    def _parse_pattern_group(self, side: str) -> list[Pattern]:
        exists_binders: list[str] = []
        while self.at_ident("exists"):
            tok = self.next()
            if side != "right":
                raise self.err(ParseError, "exists binders are only allowed on right patterns", tok)
            exists_binders.append(self.expect("ident").text)
            self.eat_punct(",")
        atoms: list[PatternAtom] = [self._pattern_formula()]
        while not self._at_section_start():
            atoms.append(self._pattern_formula())
        group_binders = {b for a in atoms for b in a.binders}
        for b in exists_binders:
            if b not in group_binders:
                raise self.err(ScopeError, f"exists binder {b!r} has no `?` occurrence in its pattern group")
        patterns = [Pattern(side, atoms[0], tuple(exists_binders))]
        patterns.extend(Pattern(side, a) for a in atoms[1:])
        return patterns

    def _parse_items(self, section: str) -> list[Item]:
        """The `keyword(...);` items of a check or action section."""
        items: list[Item] = []
        while ITEMS.get(self.peek().text) == section:
            t = self.next()
            self.eat_punct("(")
            if t.text == "instantiate":
                var = self.expect("ident").text
                self.eat_punct("->")
                arg = (var, self.parse_term())
            elif t.text in ("forall_add", "exist_add"):
                arg = self.expect("ident").text
            else:
                arg = self.parse_atom()
                if section == "check" and not isinstance(arg, PureFormula):
                    raise self.err(ParseError, "checks take a pure formula", t)
                if isinstance(arg, Emp):
                    raise self.err(ParseError, "emp cannot be added or erased", t)
            items.append(Item(t.text, arg))
            self.eat_punct(")")
            self.eat_punct(";")
            if len(items) > 1 and "instantiate" in (t.text, items[0].keyword):
                raise self.err(MixedInstantiateError, "instantiate cannot be combined with other operations", t)
        if not items:
            raise self.err(ParseError, f"expected at least one {section} item")
        return items

    def _scope_check(self, s: Strategy, tok: Token) -> None:
        bound: set[str] = set()

        def fail(message: str) -> FrontendError:
            return self.err(ScopeError, message, tok)

        def check_formula(f: PureFormula | SpatialAtom | Term, where: str) -> None:
            for v in core.occurring_vars(f):
                if v not in bound:
                    raise fail(f"variable {v!r} in {where} of strategy {s.name} has no earlier binding occurrence")

        for p in s.patterns:
            fresh_here: set[str] = set()
            for b in p.atom.binders:
                if b in bound or b in fresh_here:
                    raise fail(f"pattern variable {b!r} is `?`-bound more than once in strategy {s.name}")
                fresh_here.add(b)
            # Bare occurrences before the `?` occurrence inside one atom are
            # caught by occurrence order: the binder's own first occurrence is
            # the `?` one, so anything earlier must already be bound.
            seen_here: set[str] = set()
            for v in core.occurring_vars(p.atom.formula):
                if v in bound or v in seen_here:
                    continue
                if v in p.atom.binders:
                    seen_here.add(v)
                    continue
                raise fail(f"variable {v!r} in a pattern of strategy {s.name} has no earlier binding occurrence")
            bound.update(p.atom.binders)
            for b in p.exists_binders:
                if b not in bound:
                    raise fail(f"exists binder {b!r} of strategy {s.name} is never `?`-bound")
        for c in s.checks:
            check_formula(c.arg, "a check")
        for op in s.action:
            match op:
                case Item("instantiate", (var, term)):
                    if var not in bound:
                        raise fail(f"instantiated variable {var!r} of strategy {s.name} is unbound")
                    check_formula(term, "the instantiation term")
                case Item("forall_add" | "exist_add", name):
                    if name in bound:
                        raise fail(f"fresh name {name!r} in strategy {s.name} is already bound")
                    bound.add(name)
                case _:
                    check_formula(op.arg, "an action operation")

    def parse_program(self) -> Program:
        strategies: list[Strategy] = []
        names: set[str] = set()
        while self.peek().kind != "eof":
            t = self.peek()
            if not self.at_ident("strategy"):
                raise self.err(ParseError, f"expected 'strategy', found {t.text or 'end of input'!r}")
            s = self.parse_strategy()
            if s.name in names:
                raise self.err(DuplicateDeclarationError, f"duplicate strategy name {s.name!r}", t)
            names.add(s.name)
            strategies.append(s)
        return Program(tuple(strategies))


# ---------------------------------------------------------------------------
# File-level parse functions


def parse_signature(text: str, path: str = "<input>") -> Signature:
    sig = Signature()
    p = _Parser(text, sig, path)
    while p.peek().kind != "eof":
        decl = p.next()
        if decl.kind != "ident" or decl.text not in DECLARATION_KINDS:
            raise p.err(ParseError, f"expected 'spatial', 'pure' or 'func', found {decl.text!r}", decl)
        name = p.expect("ident", message="expected a symbol name")
        p.expect("punct", "/", "expected '/' before the arity")
        arity = p.expect("int", message="expected a numeric arity")
        p.expect("punct", ";", "expected ';' after the declaration")
        if name.text in UNDECLARABLE:
            raise p.err(DuplicateDeclarationError, f"{name.text!r} is reserved and cannot be declared", name)
        try:
            sig.declare(name.text, decl.text, p.integer(arity))
        except DuplicateDeclarationError as exc:
            raise p.err(DuplicateDeclarationError, exc.message, name) from None
    return sig


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


def _parse_all(rule, text: str, sig: Signature, path: str, start_line: int = 1):
    """rule applied to the start of text, which it must consume in full."""
    p = _Parser(text, sig, path, start_line)
    x = rule(p)
    p.expect_eof()
    return x


def parse_entailments(text: str, sig: Signature, path: str = "<input>") -> list[Entailment]:
    return [_parse_all(_Parser.parse_entailment, chunk, sig, path, line) for line, chunk in _chunks(text)]


def parse_strategies(text: str, sig: Signature, path: str = "<input>") -> Program:
    return _parse_all(_Parser.parse_program, text, sig, path)


def parse_entailment(text: str, sig: Signature, path: str = "<input>") -> Entailment:
    return _parse_all(_Parser.parse_entailment, text, sig, path)


def parse_heap(text: str, sig: Signature, path: str = "<input>") -> SymbolicHeap:
    return _parse_all(_Parser.parse_heap, text, sig, path)


def parse_term(text: str, sig: Signature, path: str = "<input>") -> Term:
    return _parse_all(_Parser.parse_term, text, sig, path)


def parse_pure(text: str, sig: Signature, path: str = "<input>") -> PureFormula:
    f = _parse_all(_Parser.parse_atom, text, sig, path)
    if not isinstance(f, PureFormula):
        raise ParseError("expected a pure formula", path, 1, 1)
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
    pures = " && ".join(print_node(p) for p in h.pures)
    spatials = " * ".join(print_node(s) for s in h.spatials)
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
    """A substitution that applies each of its entries once: `substitute`
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
