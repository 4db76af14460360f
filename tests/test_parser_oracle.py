"""Differential tests of the explicit-stack parser and the walk-based printer
against the code they replaced.

The oracles below are the earlier recursive-descent parser (with its
two-regex tokenizer) and the recursive printer, kept here and nowhere else.
Within the oracles' recursion depth the library must build the same trees,
print the same text and raise the same ``ParseError`` (message, offset and
expected set) on valid, mutated and malformed texts.
"""

import random
import re

import pytest

from delta_lab.formula import (And, Atom, Bot, Box, Delta, Iff, Imp, Nabla,
                               Not, Or, ParseError, Top, _key, parse)
from delta_lab.generators import random_formula

# ---------------------------------------------------------------------------
# Oracle: the recursive-descent parser.

_TOKEN_RE = re.compile(r"(<->)|(->)|([~&|()])|([A-Z])|([a-z][A-Za-z0-9]*)")
_WS_RE = re.compile(r"\s*")


def oracle_tokenize(text):
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


class _OracleParser:
    def __init__(self, text):
        self.tokens = oracle_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        if self.peek() != kind:
            _, text, offset = self.tokens[self.i]
            raise ParseError(f"unexpected token {text or 'end of input'!r}",
                             offset, (kind,))
        self.i += 1

    def formula(self):
        left = self.imp()
        if self.peek() == "<->":
            self.next()
            return Iff(left, self.formula())
        return left

    def imp(self):
        left = self.disj()
        if self.peek() == "->":
            self.next()
            return Imp(left, self.imp())
        return left

    def disj(self):
        f = self.conj()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek() == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self):
        prefix = {"~": Not, "D": Delta, "N": Nabla, "B": Box}.get(self.peek())
        if prefix is not None:
            self.next()
            return prefix(self.unary())
        return self.primary()

    def primary(self):
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


def oracle_parse(text):
    if not text.strip():
        raise ParseError("empty formula", 0)
    p = _OracleParser(text)
    f = p.formula()
    if p.peek() != "$":
        _, tok, offset = p.tokens[p.i]
        raise ParseError(f"trailing input {tok!r}", offset, ("$",))
    return f


# ---------------------------------------------------------------------------
# Oracle: the recursive printer.

_UNARY_OPS = {Not: "~", Delta: "D", Nabla: "N", Box: "B"}
_BINARY_OPS = {Iff: ("<->", 1, "right"), Imp: ("->", 2, "right"),
               Or: ("|", 3, "left"), And: ("&", 4, "left")}


def _prec(f):
    cls = type(f)
    if cls in _BINARY_OPS:
        return _BINARY_OPS[cls][1]
    return 5 if cls in _UNARY_OPS else 6


def oracle_show(f):
    cls = type(f)
    if cls is Atom:
        return f.name
    if cls is Top:
        return "top"
    if cls is Bot:
        return "bot"
    if cls in _UNARY_OPS:
        op = _UNARY_OPS[cls]
        body = oracle_show(f.child)
        if _prec(f.child) < 5:
            return f"{op}({body})"
        return f"~{body}" if op == "~" else f"{op} {body}"
    sym, prec, assoc = _BINARY_OPS[cls]
    ls, rs = oracle_show(f.left), oracle_show(f.right)
    lp, rp = _prec(f.left), _prec(f.right)
    if lp < prec or (lp == prec and assoc == "right"):
        ls = f"({ls})"
    if rp < prec or (rp == prec and assoc == "left"):
        rs = f"({rs})"
    return f"{ls} {sym} {rs}"


def tree(f):
    """``f`` as nested tuples, compared without the library's ``==``."""
    cls = type(f)
    if cls in _UNARY_OPS:
        return cls.__name__, tree(f.child)
    if cls in _BINARY_OPS:
        return cls.__name__, tree(f.left), tree(f.right)
    return (cls.__name__,) + tuple(vars(f).values())


def outcome(parser, text):
    """The tree ``parser`` builds from ``text``, or its error triple."""
    try:
        return tree(parser(text))
    except ParseError as exc:
        return "ParseError", str(exc), exc.offset, exc.expected


# ---------------------------------------------------------------------------

def _seeded_formulas(count):
    rnd = random.Random(11)
    for i in range(count):
        yield random_formula(1 + i % 4, ["p", "q", "r"][:1 + i % 3],
                             rnd.getrandbits(32), include_box=i % 2 == 0,
                             size=1 + i % 24)


def _spelled(f, rnd):
    """A text for ``f`` with every inner node parenthesised at random and
    random spacing, so the parser sees more than the printer's layout."""
    cls = type(f)
    gap = lambda: rnd.choice(("", " ", "  ", "\t"))  # noqa: E731
    if cls in _UNARY_OPS:
        body = _spelled(f.child, rnd)
        if _prec(f.child) < 5 or rnd.random() < 0.3:
            body = f"({gap()}{body}{gap()})"
        return f"{_UNARY_OPS[cls]}{gap() or ' '}{body}"
    if cls in _BINARY_OPS:
        sym, prec, assoc = _BINARY_OPS[cls]
        ls, rs = _spelled(f.left, rnd), _spelled(f.right, rnd)
        lp, rp = _prec(f.left), _prec(f.right)
        if lp < prec or lp == prec and assoc == "right" or rnd.random() < 0.3:
            ls = f"({ls})"
        if rp < prec or rp == prec and assoc == "left" or rnd.random() < 0.3:
            rs = f"({rs})"
        return f"{ls}{gap()}{sym}{gap()}{rs}"
    return oracle_show(f)


def test_tree_and_text_match_the_oracles_on_seeded_formulas():
    rnd = random.Random(5)
    for f in _seeded_formulas(5000):
        text = str(f)
        assert text == oracle_show(f)
        assert tree(parse(text)) == tree(oracle_parse(text)) == tree(f), text
        spelled = _spelled(f, rnd)
        assert tree(parse(spelled)) == tree(oracle_parse(spelled)) == tree(f), \
            spelled


# Tokens a mutation may insert: every kind the grammar has, plus characters
# and capitals it refuses.
_INSERTS = ("p", "q", "top", "bot", "~", "D", "N", "B", "&", "|", "->", "<->",
            "(", ")", "X", "@", "-", "<", ">")


def _mutants(text, rnd):
    words = [word for _, word, _ in oracle_tokenize(text)[:-1]]
    for _ in range(3):
        out = list(words)
        how = rnd.choice(("delete", "insert", "swap"))
        at = rnd.randrange(len(out))
        if how == "delete":
            del out[at]
        elif how == "insert":
            out.insert(rnd.randrange(len(out) + 1), rnd.choice(_INSERTS))
        else:
            other = rnd.randrange(len(out))
            out[at], out[other] = out[other], out[at]
        yield rnd.choice((" ", "")).join(out)


def test_parse_errors_match_the_oracle_on_mutated_texts():
    rnd = random.Random(7)
    errors = 0
    for f in _seeded_formulas(3000):
        for text in _mutants(str(f), rnd):
            want = outcome(oracle_parse, text)
            assert outcome(parse, text) == want, text
            errors += want[0] == "ParseError"
    assert errors > 4500  # most mutants are malformed


def test_equality_agrees_with_the_flat_key():
    # ``==`` walks both trees; the flat key it replaced is its oracle, on
    # equal copies, on seeded neighbours and on parsable token mutants
    rnd = random.Random(3)
    formulas = list(_seeded_formulas(2000))
    unequal = 0
    for f, neighbour in zip(formulas, formulas[1:] + formulas[:1]):
        others = [parse(str(f)), neighbour]
        for text in _mutants(str(f), rnd):
            if outcome(parse, text)[0] != "ParseError":
                others.append(parse(text))
        for g in others:
            want = _key(f) == _key(g)
            assert (f == g) is want and (g == f) is want, (str(f), str(g))
            assert (f != g) is not want
            unequal += not want
    assert unequal > 2000


@pytest.mark.parametrize("text", [
    "", "   ", "p &", "(p", "p p", "X p", "p @ q", "(p p)", ")", "p)", "(p))",
    "&p", "p & & q", "~", "(", "p -> ", "D", "p <- q", "p - > q", "top bot",
    "((p) q)", "p & q", "p & (q | ) ", "N N", "p -> -> q",
])
def test_parse_errors_match_the_oracle_on_malformed_texts(text):
    assert outcome(parse, text) == outcome(oracle_parse, text)
