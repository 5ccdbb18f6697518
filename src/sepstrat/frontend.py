"""Concrete syntax: signatures, entailments, strategies, assertions.

Hand-rolled lexer and recursive-descent parsers.  The signature drives the
classification of `*` (separating conjunction after a complete atom,
multiplication inside a term) and of identifier applications (spatial
predicate, pure predicate, or function).  Printers are exact inverses on the
AST values this package produces.
"""

from __future__ import annotations

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

SECTION_KEYWORDS = frozenset({"strategy", "priority", "left", "right", "check", "action"})
CHECK_KEYWORDS = frozenset({"left_absent", "right_absent", "infer"})
OP_KEYWORDS = frozenset(
    {"left_add", "right_add", "left_erase", "right_erase", "forall_add", "exist_add", "instantiate"}
)
STRUCTURAL_KEYWORDS = frozenset({"forall", "exists", "emp", "true", "data_at", "field_addr"})

# Names that may not be declared in a signature: built-ins plus every word the
# grammar gives a fixed job.
UNDECLARABLE = (
    STRUCTURAL_KEYWORDS
    | SECTION_KEYWORDS
    | CHECK_KEYWORDS
    | OP_KEYWORDS
    | frozenset({"spatial", "pure", "func"})
)


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


class Check:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class LeftAbsent(Check):
    formula: PureFormula


@dataclass(frozen=True, slots=True)
class RightAbsent(Check):
    formula: PureFormula


@dataclass(frozen=True, slots=True)
class Infer(Check):
    formula: PureFormula


class Operation:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class LeftAdd(Operation):
    formula: PureFormula | SpatialAtom


@dataclass(frozen=True, slots=True)
class RightAdd(Operation):
    formula: PureFormula | SpatialAtom


@dataclass(frozen=True, slots=True)
class LeftErase(Operation):
    formula: PureFormula | SpatialAtom


@dataclass(frozen=True, slots=True)
class RightErase(Operation):
    formula: PureFormula | SpatialAtom


@dataclass(frozen=True, slots=True)
class ForallAdd(Operation):
    name: str


@dataclass(frozen=True, slots=True)
class ExistAdd(Operation):
    name: str


class Action:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class OpSeq(Action):
    ops: tuple[Operation, ...]


@dataclass(frozen=True, slots=True)
class Instantiate(Action):
    var: str
    term: Term


@dataclass(frozen=True, slots=True)
class Strategy:
    name: str
    priority: int
    patterns: tuple[Pattern, ...]
    checks: tuple[Check, ...]
    action: Action


@dataclass(frozen=True, slots=True)
class Program:
    strategies: tuple[Strategy, ...]

    def by_name(self, name: str) -> Strategy | None:
        for s in self.strategies:
            if s.name == name:
                return s
        return None


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "ident" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


_PUNCTS_3 = ("|--", "<->")
_PUNCTS_2 = ("->", "-*", "==", "!=", "<=", ">=", "&&", "||")
_PUNCTS_1 = "(),;:*+-/!?<>"


def _lex(text: str, path: str, start_line: int = 1) -> list[Token]:
    toks: list[Token] = []
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
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        matched = None
        for p in _PUNCTS_3:
            if text.startswith(p, i):
                matched = p
                break
        if matched is None:
            for p in _PUNCTS_2:
                if text.startswith(p, i):
                    matched = p
                    break
        if matched is None and c in _PUNCTS_1:
            matched = c
        if matched is None:
            raise ParseError(f"unexpected character {c!r}", path, line, col)
        toks.append(Token("punct", matched, line, col))
        col += len(matched)
        i += len(matched)
    toks.append(Token("eof", "", line, col))
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
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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

    def eat_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            t = self.peek()
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", self.path, t.line, t.col)
        tok = self.next()
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

    def eat_ident(self, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != "ident" or (text is not None and t.text != text):
            want = repr(text) if text else "an identifier"
            raise ParseError(f"expected {want}, found {t.text or 'end of input'!r}", self.path, t.line, t.col)
        return self.next()

    def expect_eof(self) -> None:
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected trailing input {t.text!r}", self.path, t.line, t.col)

    def err(self, cls: type[FrontendError], message: str, tok: Token | None = None) -> FrontendError:
        t = tok or self.peek()
        return cls(message, self.path, t.line, t.col)

    # -- term layer

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

    def parse_term(self) -> Term:
        return self._additive()

    def _additive(self) -> Term:
        t = self._multiplicative()
        h = 0
        while self.at_punct("+") or self.at_punct("-"):
            op = self.next()
            r = self._multiplicative()
            h = self.chained(t, h, r, op)
            t = Arith(op.text, t, r)
        return t

    def _multiplicative(self) -> Term:
        t = self._primary()
        h = 0
        while self.at_punct("*") and self._starts_term(self.peek(1)):
            save = self.pos, self.depth
            op = self.next()
            try:
                r = self._primary()
            except _TooDeep:
                raise
            except ParseError:
                self.pos, self.depth = save
                return t
            h = self.chained(t, h, r, op)
            t = Arith("*", t, r)
        return t

    def _primary(self) -> Term:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text))
        if t.kind == "punct" and t.text == "-":
            self.descend(self.next())
            inner = self._primary()
            self.depth -= 1
            if isinstance(inner, IntLit):
                return IntLit(-inner.value)
            return Arith("-", IntLit(0), inner)
        if t.kind == "punct" and t.text == "(":
            self.eat_punct("(")
            inner = self.parse_term()
            self.eat_punct(")")
            return inner
        if t.kind == "punct" and t.text == "?":
            if not self.pattern_mode:
                raise self.err(ParseError, "`?` binders are only allowed in strategy patterns")
            self.next()
            name = self.eat_ident().text
            self.binder_acc.append(name)
            return Var(name)
        if t.kind == "ident":
            name = t.text
            if name == "field_addr":
                self.next()
                self.eat_punct("(")
                base = self.parse_term()
                self.eat_punct(",")
                fld = self.eat_ident().text
                self.eat_punct(")")
                return FieldAddr(base, fld)
            if self.peek(1).kind == "punct" and self.peek(1).text == "(":
                kind = self.sig.kind_of(name)
                if kind is None:
                    raise self.err(UnknownIdentifierError, f"undeclared symbol {name!r} applied to arguments", t)
                if kind != "func":
                    raise self.err(ParseError, f"{kind} predicate {name!r} cannot appear inside a term", t)
                self.next()
                args = self._args(name)
                return Apply(name, tuple(args))
            if self.sig.kind_of(name) is not None:
                raise self.err(ParseError, f"declared symbol {name!r} used without arguments", t)
            if name in STRUCTURAL_KEYWORDS:
                raise self.err(ParseError, f"keyword {name!r} cannot be used as a variable", t)
            self.next()
            return Var(name)
        raise self.err(ParseError, f"expected a term, found {t.text or 'end of input'!r}")

    def _args(self, name: str) -> list[Term]:
        open_tok = self.eat_punct("(")
        args: list[Term] = []
        if not self.at_punct(")"):
            args.append(self.parse_term())
            while self.at_punct(","):
                self.next()
                args.append(self.parse_term())
        self.eat_punct(")")
        arity = self.sig.arity_of(name)
        if arity is not None and arity != len(args):
            raise ArityMismatchError(
                f"{name} expects {arity} argument(s), got {len(args)}",
                self.path,
                open_tok.line,
                open_tok.col,
            )
        return args

    # -- atom layer (heap conjuncts)

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
            if name == "data_at":
                self.next()
                self.eat_punct("(")
                addr = self.parse_term()
                self.eat_punct(",")
                value = self.parse_term()
                self.eat_punct(")")
                return DataAt(addr, value)
            kind = self.sig.kind_of(name)
            if kind == "spatial":
                self.next()
                return PredS(name, tuple(self._args(name)))
            if kind == "pure":
                self.next()
                return PredP(name, tuple(self._args(name)))
        if t.kind == "punct" and t.text == "!":
            self.next()
            self.eat_punct("(")
            inner = self.parse_pure_expr()
            self.eat_punct(")")
            return Not(inner)
        if t.kind == "punct" and t.text == "(":
            save = self.pos, self.depth
            try:
                return self._relational()
            except _TooDeep:
                raise
            except ParseError:
                self.pos, self.depth = save
            self.eat_punct("(")
            inner = self.parse_pure_expr()
            self.eat_punct(")")
            return inner
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

    # -- pure-formula expressions (inside `!(...)` and `(p OP p)`)

    def parse_pure_expr(self) -> PureFormula:
        return self._pure_iff()

    def _pure_iff(self) -> PureFormula:
        l = self._pure_impl()
        h = 0
        while self.at_punct("<->"):
            tok = self.next()
            r = self._pure_impl()
            h = self.chained(l, h, r, tok)
            l = Bin("<->", l, r)
        return l

    def _pure_impl(self) -> PureFormula:
        l = self._pure_or()
        if self.at_punct("->"):
            self.descend(self.next())
            r = self._pure_impl()
            self.depth -= 1
            return Bin("->", l, r)
        return l

    def _pure_or(self) -> PureFormula:
        l = self._pure_and()
        h = 0
        while self.at_punct("||"):
            tok = self.next()
            r = self._pure_and()
            h = self.chained(l, h, r, tok)
            l = Bin("||", l, r)
        return l

    def _pure_and(self) -> PureFormula:
        l = self._pure_atom()
        h = 0
        while self.at_punct("&&"):
            tok = self.next()
            r = self._pure_atom()
            h = self.chained(l, h, r, tok)
            l = Bin("&&", l, r)
        return l

    def _pure_atom(self) -> PureFormula:
        a = self.parse_atom()
        if not isinstance(a, PureFormula):
            raise self.err(ParseError, "expected a pure formula, found a spatial atom")
        return a

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
            raise IllFormedEntailmentError("; ".join(problems), self.path, start.line, start.col)
        return e

    # -- assertion layer

    def parse_assertion(self) -> Assertion:
        if self.at_ident("forall") or self.at_ident("exists"):
            tok = self.next()
            self.descend(tok)
            vs = self._binder_list()
            body = self.parse_assertion()
            self.depth -= 1
            return (ForallA if tok.text == "forall" else ExistsA)(vs, body)
        return self._assert_wand()

    def _assert_wand(self) -> Assertion:
        l = self._assert_and()
        if self.at_punct("-*"):
            self.descend(self.next())
            r = self._assert_wand_rhs()
            self.depth -= 1
            return Wand(l, r)
        return l

    def _assert_wand_rhs(self) -> Assertion:
        if self.at_ident("forall") or self.at_ident("exists"):
            return self.parse_assertion()
        return self._assert_wand()

    def _assert_and(self) -> Assertion:
        parts = [self._assert_sep()]
        while self.at_punct("&&"):
            self.next()
            parts.append(self._assert_sep())
        return parts[0] if len(parts) == 1 else AndA(tuple(parts))

    def _assert_sep(self) -> Assertion:
        parts = [self._assert_atom()]
        while self.at_punct("*"):
            self.next()
            parts.append(self._assert_atom())
        return parts[0] if len(parts) == 1 else SepConj(tuple(parts))

    def _assert_atom(self) -> Assertion:
        if self.at_punct("("):
            save = self.pos, self.depth
            self.eat_punct("(")
            try:
                inner = self.parse_assertion()
                self.eat_punct(")")
                return inner
            except _TooDeep:
                raise
            except ParseError:
                self.pos, self.depth = save
        a = self.parse_atom()
        if isinstance(a, PureFormula):
            return PureA(a)
        return SpatialA(a)

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
        self.eat_ident("strategy")
        name_tok = self.eat_ident()
        name = name_tok.text
        if name in UNDECLARABLE or self.sig.kind_of(name) is not None:
            raise self.err(ParseError, f"{name!r} cannot be a strategy name", name_tok)
        priority: int | None = None
        patterns: list[Pattern] = []
        checks: list[Check] = []
        action: Action | None = None
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
                p = self.next()
                if p.kind != "int":
                    raise ParseError("expected an integer priority", self.path, p.line, p.col)
                priority = -int(p.text) if neg else int(p.text)
            elif t.text in ("left", "right"):
                patterns.extend(self._parse_pattern_group(t.text))
            elif t.text == "check":
                checks.extend(self._parse_checks())
            else:
                action = self._parse_action()
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
            exists_binders.append(self.eat_ident().text)
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

    def _parse_checks(self) -> list[Check]:
        checks: list[Check] = []
        while True:
            t = self.peek()
            if t.kind != "ident" or t.text not in CHECK_KEYWORDS:
                break
            self.next()
            self.eat_punct("(")
            f = self.parse_atom()
            if not isinstance(f, PureFormula):
                raise self.err(ParseError, "checks take a pure formula", t)
            self.eat_punct(")")
            self.eat_punct(";")
            if t.text == "left_absent":
                checks.append(LeftAbsent(f))
            elif t.text == "right_absent":
                checks.append(RightAbsent(f))
            else:
                checks.append(Infer(f))
        if not checks:
            raise self.err(ParseError, "expected at least one check item")
        return checks

    def _parse_action(self) -> Action:
        items: list[Operation] = []
        instantiate: Instantiate | None = None
        count = 0
        while True:
            t = self.peek()
            if t.kind != "ident" or t.text not in OP_KEYWORDS:
                break
            self.next()
            count += 1
            self.eat_punct("(")
            if t.text == "instantiate":
                var = self.eat_ident().text
                self.eat_punct("->")
                term = self.parse_term()
                instantiate = Instantiate(var, term)
            elif t.text in ("forall_add", "exist_add"):
                name = self.eat_ident().text
                items.append(ForallAdd(name) if t.text == "forall_add" else ExistAdd(name))
            else:
                f = self.parse_atom()
                if isinstance(f, Emp):
                    raise self.err(ParseError, "emp cannot be added or erased", t)
                cls = {"left_add": LeftAdd, "right_add": RightAdd, "left_erase": LeftErase, "right_erase": RightErase}[t.text]
                items.append(cls(f))
            self.eat_punct(")")
            self.eat_punct(";")
            if instantiate is not None and count > 1:
                raise self.err(MixedInstantiateError, "instantiate cannot be combined with other operations", t)
        if count == 0:
            raise self.err(ParseError, "expected at least one action item")
        if instantiate is not None:
            return instantiate
        return OpSeq(tuple(items))

    def _scope_check(self, s: Strategy, tok: Token) -> None:
        bound: set[str] = set()

        def check_formula(f: PureFormula | SpatialAtom | Term, where: str) -> None:
            for v in core.occurring_vars(f):
                if v not in bound:
                    raise ScopeError(
                        f"variable {v!r} in {where} of strategy {s.name} has no earlier binding occurrence",
                        self.path,
                        tok.line,
                        tok.col,
                    )

        for p in s.patterns:
            fresh_here: set[str] = set()
            for b in p.atom.binders:
                if b in bound or b in fresh_here:
                    raise ScopeError(
                        f"pattern variable {b!r} is `?`-bound more than once in strategy {s.name}",
                        self.path,
                        tok.line,
                        tok.col,
                    )
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
                raise ScopeError(
                    f"variable {v!r} in a pattern of strategy {s.name} has no earlier binding occurrence",
                    self.path,
                    tok.line,
                    tok.col,
                )
            bound.update(p.atom.binders)
            for b in p.exists_binders:
                if b not in bound:
                    raise ScopeError(
                        f"exists binder {b!r} of strategy {s.name} is never `?`-bound",
                        self.path,
                        tok.line,
                        tok.col,
                    )
        for c in s.checks:
            check_formula(c.formula, "a check")
        if isinstance(s.action, Instantiate):
            if s.action.var not in bound:
                raise ScopeError(
                    f"instantiated variable {s.action.var!r} of strategy {s.name} is unbound",
                    self.path,
                    tok.line,
                    tok.col,
                )
            check_formula(s.action.term, "the instantiation term")
        else:
            for op in s.action.ops:
                match op:
                    case ForallAdd(name) | ExistAdd(name):
                        if name in bound:
                            raise ScopeError(
                                f"fresh name {name!r} in strategy {s.name} is already bound",
                                self.path,
                                tok.line,
                                tok.col,
                            )
                        bound.add(name)
                    case LeftAdd(f) | RightAdd(f) | LeftErase(f) | RightErase(f):
                        check_formula(f, "an action operation")

    def parse_program(self) -> Program:
        strategies: list[Strategy] = []
        names: set[str] = set()
        while self.peek().kind != "eof":
            t = self.peek()
            if not self.at_ident("strategy"):
                raise self.err(ParseError, f"expected 'strategy', found {t.text or 'end of input'!r}")
            s = self.parse_strategy()
            if s.name in names:
                raise DuplicateDeclarationError(f"duplicate strategy name {s.name!r}", self.path, t.line, t.col)
            names.add(s.name)
            strategies.append(s)
        return Program(tuple(strategies))


# ---------------------------------------------------------------------------
# File-level parse functions


def parse_signature(text: str, path: str = "<input>") -> Signature:
    sig = Signature()
    toks = _lex(text, path)
    pos = 0

    def peek() -> Token:
        return toks[pos]

    while peek().kind != "eof":
        t = toks[pos]
        if t.kind != "ident" or t.text not in ("spatial", "pure", "func"):
            raise ParseError(f"expected 'spatial', 'pure' or 'func', found {t.text or 'end of input'!r}", path, t.line, t.col)
        kind = t.text
        pos += 1
        name_tok = toks[pos]
        if name_tok.kind != "ident":
            raise ParseError("expected a symbol name", path, name_tok.line, name_tok.col)
        name = name_tok.text
        pos += 1
        slash = toks[pos]
        if not (slash.kind == "punct" and slash.text == "/"):
            raise ParseError("expected '/' before the arity", path, slash.line, slash.col)
        pos += 1
        nat = toks[pos]
        if nat.kind != "int":
            raise ParseError("expected a numeric arity", path, nat.line, nat.col)
        pos += 1
        semi = toks[pos]
        if not (semi.kind == "punct" and semi.text == ";"):
            raise ParseError("expected ';' after the declaration", path, semi.line, semi.col)
        pos += 1
        if name in UNDECLARABLE:
            raise DuplicateDeclarationError(f"{name!r} is reserved and cannot be declared", path, name_tok.line, name_tok.col)
        try:
            sig.declare(name, kind, int(nat.text))
        except DuplicateDeclarationError as exc:
            raise DuplicateDeclarationError(exc.message, path, name_tok.line, name_tok.col) from None
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


def parse_entailments(text: str, sig: Signature, path: str = "<input>") -> list[Entailment]:
    out: list[Entailment] = []
    for start_line, chunk in _chunks(text):
        p = _Parser(chunk, sig, path, start_line)
        e = p.parse_entailment()
        p.expect_eof()
        out.append(e)
    return out


def parse_strategies(text: str, sig: Signature, path: str = "<input>") -> Program:
    p = _Parser(text, sig, path)
    return p.parse_program()


def parse_entailment(text: str, sig: Signature, path: str = "<input>") -> Entailment:
    p = _Parser(text, sig, path)
    e = p.parse_entailment()
    p.expect_eof()
    return e


def parse_heap(text: str, sig: Signature, path: str = "<input>") -> SymbolicHeap:
    p = _Parser(text, sig, path)
    h = p.parse_heap()
    p.expect_eof()
    return h


def parse_term(text: str, sig: Signature, path: str = "<input>") -> Term:
    p = _Parser(text, sig, path)
    t = p.parse_term()
    p.expect_eof()
    return t


def parse_pure(text: str, sig: Signature, path: str = "<input>") -> PureFormula:
    p = _Parser(text, sig, path)
    f = p.parse_atom()
    p.expect_eof()
    if not isinstance(f, PureFormula):
        raise ParseError("expected a pure formula", path, 1, 1)
    return f


def parse_assertion(text: str, sig: Signature, path: str = "<input>") -> Assertion:
    p = _Parser(text, sig, path)
    a = p.parse_assertion()
    p.expect_eof()
    return a


# ---------------------------------------------------------------------------
# Printers


def print_term(t: Term) -> str:
    return _pt(t, 0)


def _pt(t: Term, level: int) -> str:
    # levels: 0 additive, 1 multiplicative, 2 primary
    match t:
        case IntLit(v):
            return str(v)
        case Var(name):
            return name
        case FieldAddr(base, fld):
            return f"field_addr({_pt(base, 0)}, {fld})"
        case Apply(fn, args):
            return f"{fn}({', '.join(_pt(a, 0) for a in args)})"
        case Arith("-", IntLit(0), r) if not isinstance(r, IntLit):
            s = "-" + _pt(r, 2)
            return f"({s})" if level > 1 else s
        case Arith(op, l, r):
            if op == "*":
                s = f"{_pt(l, 1)} * {_pt(r, 2)}"
                return f"({s})" if level > 1 else s
            s = f"{_pt(l, 0)} {op} {_pt(r, 1)}"
            return f"({s})" if level > 0 else s
    raise TypeError(f"print_term: unsupported value {t!r}")


def print_pure(f: PureFormula) -> str:
    match f:
        case TrueF():
            return "true"
        case Eq(l, r):
            return f"{print_term(l)} == {print_term(r)}"
        case Rel(op, l, r):
            return f"{print_term(l)} {op} {print_term(r)}"
        case Not(inner):
            return f"!({print_pure(inner)})"
        case Bin(op, l, r):
            # A left-nested chain of `&&`, `||` or `<->` prints flat, inside
            # one pair of parentheses, as the parser builds it back.
            operands = [r]
            while op != "->" and type(l) is Bin and l.op == op:
                operands.append(l.right)
                l = l.left
            operands.append(l)
            return f"({f' {op} '.join(print_pure(x) for x in reversed(operands))})"
        case PredP(name, args):
            return f"{name}({', '.join(print_term(a) for a in args)})"
    raise TypeError(f"print_pure: unsupported value {f!r}")


def print_spatial(s: SpatialAtom) -> str:
    match s:
        case Emp():
            return "emp"
        case DataAt(addr, value):
            return f"data_at({print_term(addr)}, {print_term(value)})"
        case PredS(name, args):
            return f"{name}({', '.join(print_term(a) for a in args)})"
    raise TypeError(f"print_spatial: unsupported value {s!r}")


def print_conjunct(f: PureFormula | SpatialAtom) -> str:
    if isinstance(f, PureFormula):
        return print_pure(f)
    return print_spatial(f)


def print_heap(h: SymbolicHeap) -> str:
    pures = " && ".join(print_pure(p) for p in h.pures)
    spatials = " * ".join(print_spatial(s) for s in h.spatials)
    if pures and spatials:
        return f"{pures} && {spatials}"
    return pures or spatials or "emp"


def print_entailment(e: Entailment) -> str:
    lhs = print_heap(e.lhs)
    rhs = print_heap(e.rhs)
    fa = f"forall {' '.join(e.universals)}, " if e.universals else ""
    ex = f"exists {' '.join(e.existentials)}, " if e.existentials else ""
    return f"{fa}{lhs} |-- {ex}{rhs}"


def print_assertion(a: Assertion) -> str:
    return _pa(a, 0)


def _pa(a: Assertion, level: int) -> str:
    # levels: 0 quantifier, 1 wand, 2 conjunction, 3 separating conjunction,
    # 4 atom; wand operands are printed fully parenthesized unless atomic.
    match a:
        case PureA(f):
            return print_pure(f)
        case SpatialA(s):
            return print_spatial(s)
        case SepConj(parts):
            body = " * ".join(_pa(p, 4) for p in parts)
            return f"({body})" if level > 3 else body
        case AndA(parts):
            body = " && ".join(_pa(p, 3) for p in parts)
            return f"({body})" if level > 2 else body
        case Wand(l, r):
            body = f"{_pa(l, 4)} -* {_pa(r, 4)}"
            return f"({body})" if level > 1 else body
        case ForallA(vs, inner):
            body = f"forall {' '.join(vs)}, {_pa(inner, 0)}"
            return f"({body})" if level > 0 else body
        case ExistsA(vs, inner):
            body = f"exists {' '.join(vs)}, {_pa(inner, 0)}"
            return f"({body})" if level > 0 else body
    raise TypeError(f"print_assertion: unsupported value {a!r}")


class _FirstOccurrence(dict):
    """A substitution that applies each of its entries once: `substitute`
    looks variables up with `get` in printing order, and this `get` pops."""

    def get(self, name, default=None):
        return self.pop(name, default)


def _print_pattern_atom(p: PatternAtom) -> str:
    marked = _FirstOccurrence({b: Var(f"?{b}") for b in p.binders})
    return print_conjunct(core.substitute(p.formula, marked))


def print_strategy(s: Strategy) -> str:
    lines = [f"strategy {s.name}"]
    if s.priority != DEFAULT_PRIORITY:
        lines.append(f"priority: {s.priority}")
    for p in s.patterns:
        ex = "".join(f"exists {b}, " for b in p.exists_binders)
        lines.append(f"{p.side}: {ex}{_print_pattern_atom(p.atom)}")
    if s.checks:
        items = []
        for c in s.checks:
            kw = {LeftAbsent: "left_absent", RightAbsent: "right_absent", Infer: "infer"}[type(c)]
            items.append(f"{kw}({print_pure(c.formula)});")
        lines.append("check: " + " ".join(items))
    if isinstance(s.action, Instantiate):
        lines.append(f"action: instantiate({s.action.var} -> {print_term(s.action.term)});")
    else:
        lines.append("action:")
        for op in s.action.ops:
            match op:
                case LeftAdd(f):
                    lines.append(f"  left_add({print_conjunct(f)});")
                case RightAdd(f):
                    lines.append(f"  right_add({print_conjunct(f)});")
                case LeftErase(f):
                    lines.append(f"  left_erase({print_conjunct(f)});")
                case RightErase(f):
                    lines.append(f"  right_erase({print_conjunct(f)});")
                case ForallAdd(name):
                    lines.append(f"  forall_add({name});")
                case ExistAdd(name):
                    lines.append(f"  exist_add({name});")
    return "\n".join(lines) + "\n"


def print_program(prog: Program) -> str:
    return "\n".join(print_strategy(s) for s in prog.strategies)


def print_condition(name: str, cond: SoundnessCondition | None) -> str:
    if cond is None:
        return f"soundness {name} : instantiate - always sound\n"
    lines = [f"soundness {name} :"]
    lines.append(f"  {print_assertion(cond.hypothesis)} |-- {print_assertion(cond.conclusion)}")
    lines.append(f"  free: {' '.join(cond.free_vars)}" if cond.free_vars else "  free:")
    return "\n".join(lines) + "\n"


def print_signature(sig: Signature) -> str:
    lines = [f"{kind} {name}/{arity};" for name, (kind, arity) in sig.entries.items()]
    return "\n".join(lines) + ("\n" if lines else "")
