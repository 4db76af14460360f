"""Syntax of the non-contingency language: AST nodes, parser, printer, metrics.

Concrete syntax: ``~`` negation, ``&`` conjunction, ``|`` disjunction, ``->``
implication (right associative), ``<->`` biconditional, ``D`` non-contingency,
``N`` contingency (the dual of ``D``), ``B`` necessity, and the constants
``top`` / ``bot``.  Prefix operators bind tightest, then ``&``, ``|``, ``->``,
``<->``.  Atoms are lowercase identifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple


class ParseError(ValueError):
    """Malformed formula text; carries the byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = frozenset(expected)


@dataclass(frozen=True)
class Formula:
    """Base class for all formula nodes."""

    def __str__(self) -> str:
        return _show(self)

    def __reduce__(self):
        # Unpickle through the constructor: a node whose fields are restored
        # into its __dict__ instead is ~10% slower to evaluate, which parallel
        # sweeps would pay in every worker.
        return type(self), tuple(vars(self).values())


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Delta(Formula):
    child: Formula


@dataclass(frozen=True)
class Box(Formula):
    child: Formula


# Sugar kinds: present after parsing, removed by expand_sugar.

@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Nabla(Formula):
    child: Formula


CORE_KINDS = (Atom, Top, Not, And, Delta, Box)

_UNARY_OPS = {Not: "~", Delta: "D", Nabla: "N", Box: "B"}
_BINARY_OPS = {Iff: ("<->", 1, "right"), Imp: ("->", 2, "right"),
               Or: ("|", 3, "left"), And: ("&", 4, "left")}
_PREC_UNARY = 5
_PREC_ATOM = 6


def _prec(f: Formula) -> int:
    cls = type(f)
    if cls in _BINARY_OPS:
        return _BINARY_OPS[cls][1]
    if cls in _UNARY_OPS:
        return _PREC_UNARY
    return _PREC_ATOM


def _show(f: Formula) -> str:
    cls = type(f)
    if cls is Atom:
        return f.name
    if cls is Top:
        return "top"
    if cls is Bot:
        return "bot"
    if cls in _UNARY_OPS:
        op = _UNARY_OPS[cls]
        body = _show(f.child)
        if _prec(f.child) < _PREC_UNARY:
            return f"{op}({body})"
        if op == "~":
            return f"~{body}"
        return f"{op} {body}"
    sym, prec, assoc = _BINARY_OPS[cls]
    ls, rs = _show(f.left), _show(f.right)
    lp, rp = _prec(f.left), _prec(f.right)
    if lp < prec or (lp == prec and assoc == "right"):
        ls = f"({ls})"
    if rp < prec or (rp == prec and assoc == "left"):
        rs = f"({rs})"
    return f"{ls} {sym} {rs}"


_TOKEN_RE = re.compile(r"(<->)|(->)|([~&|()])|([A-Z])|([a-z][A-Za-z0-9]*)")
_WS_RE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        pos = _WS_RE.match(text, pos).end()
        if pos >= len(text):
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) or m.group(2) or m.group(3):
            tokens.append((m.group(0), m.group(0), pos))
        elif m.group(4):
            if m.group(4) not in "DNB":
                raise ParseError(f"unknown operator {m.group(4)!r}", pos,
                                 ("D", "N", "B"))
            tokens.append((m.group(4), m.group(4), pos))
        else:
            word = m.group(5)
            kind = word if word in ("top", "bot") else "atom"
            tokens.append((kind, word, pos))
        pos = m.end()
    tokens.append(("$", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> None:
        if self.peek() != kind:
            _, text, offset = self.tokens[self.i]
            raise ParseError(f"unexpected token {text or 'end of input'!r}",
                             offset, (kind,))
        self.i += 1

    def formula(self) -> Formula:
        left = self.imp()
        if self.peek() == "<->":
            self.next()
            return Iff(left, self.formula())
        return left

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek() == "->":
            self.next()
            return Imp(left, self.imp())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind = self.peek()
        if kind == "~":
            self.next()
            return Not(self.unary())
        if kind == "D":
            self.next()
            return Delta(self.unary())
        if kind == "N":
            self.next()
            return Nabla(self.unary())
        if kind == "B":
            self.next()
            return Box(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        kind, text, offset = self.next()
        if kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        if kind == "top":
            return Top()
        if kind == "bot":
            return Bot()
        if kind == "atom":
            return Atom(text)
        raise ParseError(f"unexpected token {text or 'end of input'!r}", offset,
                         ("(", "~", "D", "N", "B", "top", "bot", "atom"))


def parse(text: str) -> Formula:
    """Parse formula text into an AST, keeping sugar kinds intact."""
    if not text.strip():
        raise ParseError("empty formula", 0)
    p = _Parser(text)
    try:
        f = p.formula()
    except RecursionError:
        offset = p.tokens[min(p.i, len(p.tokens) - 1)][2]
        raise ParseError("formula nested too deeply", offset) from None
    if p.peek() != "$":
        _, tok, offset = p.tokens[p.i]
        raise ParseError(f"trailing input {tok!r}", offset, ("$",))
    return f


def expand_sugar(f: Formula) -> Formula:
    """Rewrite to the core kinds (Atom, Top, Not, And, Delta, Box)."""
    cls = type(f)
    if cls in (Atom, Top):
        return f
    if cls is Bot:
        return Not(Top())
    if cls is Not:
        return Not(expand_sugar(f.child))
    if cls is And:
        return And(expand_sugar(f.left), expand_sugar(f.right))
    if cls is Or:
        return Not(And(Not(expand_sugar(f.left)), Not(expand_sugar(f.right))))
    if cls is Imp:
        return Not(And(expand_sugar(f.left), Not(expand_sugar(f.right))))
    if cls is Iff:
        left, right = expand_sugar(f.left), expand_sugar(f.right)
        return And(Not(And(left, Not(right))), Not(And(right, Not(left))))
    if cls is Delta:
        return Delta(expand_sugar(f.child))
    if cls is Nabla:
        return Not(Delta(expand_sugar(f.child)))
    if cls is Box:
        return Box(expand_sugar(f.child))
    raise TypeError(f"not a formula: {f!r}")


class Metrics(NamedTuple):
    vars: frozenset[str]
    modal_depth: int


def metrics(f: Formula) -> Metrics:
    """Atoms occurring in ``f`` and the maximum nesting of D/N/B."""
    cls = type(f)
    if cls is Atom:
        return Metrics(frozenset((f.name,)), 0)
    if cls in (Top, Bot):
        return Metrics(frozenset(), 0)
    if cls is Not:
        return metrics(f.child)
    if cls in (And, Or, Imp, Iff):
        lm, rm = metrics(f.left), metrics(f.right)
        return Metrics(lm.vars | rm.vars, max(lm.modal_depth, rm.modal_depth))
    if cls in (Delta, Nabla, Box):
        cm = metrics(f.child)
        return Metrics(cm.vars, cm.modal_depth + 1)
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield every node of ``f``, parents before children."""
    yield f
    cls = type(f)
    if cls in (Not, Delta, Nabla, Box):
        yield from subformulas(f.child)
    elif cls in (And, Or, Imp, Iff):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
