"""Syntax of the non-contingency language: AST nodes, parser, printer, metrics.

Concrete syntax: ``~`` negation, ``&`` conjunction, ``|`` disjunction, ``->``
implication (right associative), ``<->`` biconditional, ``D`` non-contingency,
``N`` contingency (the dual of ``D``), ``B`` necessity, and the constants
``top`` / ``bot``.  Prefix operators bind tightest, then ``&``, ``|``, ``->``,
``<->``.  Atoms are lowercase identifiers.

Nothing here recurses, so there is no depth limit.  ``parse`` keeps pending
operators on an explicit stack.  Everything else reads one traversal,
``postorder``, most of it folded by ``walk``; ``hash`` and pickling use
its flat key, and ``==`` walks both trees in step.  The sugar kinds are
defined over the core kinds once, in ``SUGAR``, which ``to_core`` applies
for ``expand_sugar`` and for ``semantics.compile_formula``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, TypeVar

T = TypeVar("T")


class ParseError(ValueError):
    """Malformed formula text; carries the byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = frozenset(expected)


class Formula:
    """Base class for all formula nodes: hashed and pickled by their flat
    key, equal when their trees are."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return _same(self, other)

    def __hash__(self) -> int:
        return hash(_key(self))

    def __str__(self) -> str:
        return walk(self, _show)

    def __repr__(self) -> str:
        # Pre-order over nodes and literal pieces, joined once: linear in
        # the text's length at any depth.
        pieces = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                pieces.append(item)
                continue
            pieces.append(type(item).__qualname__ + "(")
            todo = []
            for name, value in vars(item).items():
                todo.append((", " if todo else "") + name + "=")
                todo.append(value if isinstance(value, Formula) else repr(value))
            todo.append(")")
            stack += reversed(todo)
        return "".join(pieces)

    def __reduce__(self):
        # Unpickle through the constructors: a node whose fields are restored
        # into its __dict__ instead is ~10% slower to evaluate, which parallel
        # sweeps would pay in every worker.
        return _build, (_key(self),)


_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Atom(Formula):
    name: str


@_node
class Top(Formula):
    pass


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Delta(Formula):
    child: Formula


@_node
class Box(Formula):
    child: Formula


# Sugar kinds: present after parsing, removed by expand_sugar.

@_node
class Bot(Formula):
    pass


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Imp(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Nabla(Formula):
    child: Formula


# Every other kind, proofsys.Meta included, is a leaf.
_UNARY = frozenset((Not, Delta, Nabla, Box))
_BINARY = frozenset((And, Or, Imp, Iff))
_INNER = _UNARY | _BINARY


def arity(f: Formula) -> int:
    """The number of children of ``f``."""
    cls = type(f)
    return 2 if cls in _BINARY else 1 if cls in _UNARY else 0


# ---------------------------------------------------------------------------
# The one traversal.

def postorder(f: Formula) -> list[Formula]:
    """Every node of ``f``, each after its children, left to right."""
    order = []
    stack = [f]
    while stack:
        node = stack.pop()
        order.append(node)
        cls = type(node)
        if cls in _BINARY:
            stack += (node.left, node.right)
        elif cls in _UNARY:
            stack.append(node.child)
    order.reverse()
    return order


def walk(f: Formula, visit: Callable[..., T]) -> T:
    """``visit(node, *results of its children)`` for every node of ``f`` in
    post-order; the root's result."""
    vals: list = []
    for node in postorder(f):
        cls = type(node)
        if cls in _BINARY:
            right = vals.pop()
            vals[-1] = visit(node, vals[-1], right)
        elif cls in _UNARY:
            vals[-1] = visit(node, vals[-1])
        else:
            vals.append(visit(node))
    return vals[0]


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield every node of ``f``, parents before children."""
    return reversed(postorder(f))


def _key(f: Formula) -> tuple:
    """Flat post-order key: inner nodes' classes, leaves' (class, *fields)."""
    key = []
    for node in postorder(f):
        cls = type(node)
        key.append(cls if cls in _INNER else (cls, *vars(node).values()))
    return tuple(key)


def _same(a: Formula, b: Formula) -> bool:
    """Whether ``a`` and ``b`` have equal flat keys, by one paired walk that
    skips shared subtrees and stops at the first difference: down the left
    children, with the right pairs kept on a stack."""
    stack = []
    while True:
        if a is not b:
            cls = type(a)
            if cls is not type(b):
                return False
            if cls in _BINARY:
                stack += (a.right, b.right)
                a, b = a.left, b.left
                continue
            if cls in _UNARY:
                a, b = a.child, b.child
                continue
            if vars(a) != vars(b):
                return False
        if not stack:
            return True
        b = stack.pop()
        a = stack.pop()


def _build(key: tuple) -> Formula:
    """The formula whose flat key is ``key``, built through the constructors."""
    vals: list[Formula] = []
    for item in key:
        if item in _BINARY:
            right = vals.pop()
            vals[-1] = item(vals[-1], right)
        elif item in _UNARY:
            vals[-1] = item(vals[-1])
        else:
            vals.append(item[0](*item[1:]))
    return vals[0]


# ---------------------------------------------------------------------------
# Printing.

_UNARY_OPS = {Not: "~", Delta: "D", Nabla: "N", Box: "B"}
_BINARY_OPS = {Iff: ("<->", 1, "right"), Imp: ("->", 2, "right"),
               Or: ("|", 3, "left"), And: ("&", 4, "left")}
_CONSTANTS = {Top: "top", Bot: "bot"}
# How tightly each inner kind binds; a leaf binds tightest, at 6.
_PREC = {**dict.fromkeys(_UNARY_OPS, 5),
         **{cls: prec for cls, (_, prec, _) in _BINARY_OPS.items()}}


def _show(f: Formula, *parts: str) -> str:
    cls = type(f)
    if cls in _BINARY_OPS:
        sym, prec, assoc = _BINARY_OPS[cls]
        ls, rs = parts
        lp, rp = _PREC.get(type(f.left), 6), _PREC.get(type(f.right), 6)
        if lp < prec or (lp == prec and assoc == "right"):
            ls = f"({ls})"
        if rp < prec or (rp == prec and assoc == "left"):
            rs = f"({rs})"
        return f"{ls} {sym} {rs}"
    if cls in _UNARY_OPS:
        op, body = _UNARY_OPS[cls], parts[0]
        if type(f.child) in _BINARY_OPS:
            return f"{op}({body})"
        return f"~{body}" if op == "~" else f"{op} {body}"
    if cls is Atom:
        return f.name
    if cls in _CONSTANTS:
        return _CONSTANTS[cls]
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Parsing.

# Operators, D/N/B, words, other capitals, anything else; whitespace matches
# none of them, so ``finditer`` skips it.
_TOKEN_RE = re.compile(r"(<->|->|[~&|()DNB])|([a-z][A-Za-z0-9]*)|([A-Z])|(\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        word, group, pos = m.group(), m.lastindex, m.start()
        if group == 1:
            tokens.append((word, word, pos))
        elif group == 2:
            tokens.append((word if word in _LEAF_WORDS else "atom", word, pos))
        elif group == 3:
            raise ParseError(f"unknown operator {word!r}", pos,
                             ("D", "N", "B"))
        else:
            raise ParseError(f"unexpected character {word!r}", pos)
    tokens.append(("$", "", len(text)))
    return tokens


_PREFIX = {sym: cls for cls, sym in _UNARY_OPS.items()}
_INFIX = {sym: cls for cls, (sym, _, _) in _BINARY_OPS.items()}
_LEAF_WORDS = {word: cls for cls, word in _CONSTANTS.items()}
# How tightly each pending entry binds; None is an open parenthesis.
_BINDS = {None: 0, **_PREC}
# A token applies the pending operators that bind more tightly than its
# threshold.  A left-associative operator's threshold is just below its own
# binding, so it also applies an equal operator before it; a token that is
# no infix operator has threshold 0 and applies all down to a parenthesis.
_THRESHOLD = {sym: prec - (assoc == "left") / 2
              for sym, prec, assoc in _BINARY_OPS.values()}
_OPERAND_START = ("(", "~", "D", "N", "B", "top", "bot", "atom")


def parse(text: str) -> Formula:
    """Parse formula text into an AST, keeping sugar kinds intact."""
    if not text.strip():
        raise ParseError("empty formula", 0)
    tokens = iter(_tokenize(text))
    out: list[Formula] = []
    pending: list[type | None] = []  # operators whose operands are not all read
    # Both loops draw from one iterator: the outer reads up to an operand, the
    # inner from there to the next infix operator.
    for kind, word, offset in tokens:
        if kind in _PREFIX:
            pending.append(_PREFIX[kind])
            continue
        if kind == "(":
            pending.append(None)
            continue
        if kind == "atom":
            out.append(Atom(word))
        elif kind in _LEAF_WORDS:
            out.append(_LEAF_WORDS[kind]())
        else:
            raise ParseError(f"unexpected token {word or 'end of input'!r}",
                             offset, _OPERAND_START)
        for kind, word, offset in tokens:
            threshold = _THRESHOLD.get(kind, 0)
            while pending and _BINDS[pending[-1]] > threshold:
                op = pending.pop()
                if op in _UNARY:
                    out[-1] = op(out[-1])
                else:
                    right = out.pop()
                    out[-1] = op(out[-1], right)
            if kind in _INFIX:
                pending.append(_INFIX[kind])
                break
            if pending and kind == ")":
                pending.pop()
            elif pending:
                raise ParseError(
                    f"unexpected token {word or 'end of input'!r}", offset,
                    (")",))
            elif kind == "$":
                return out[0]
            else:
                raise ParseError(f"trailing input {word!r}", offset, ("$",))


# ---------------------------------------------------------------------------
# Sugar and metrics.

# The sugar kinds over the core kinds (Atom, Top, Not, And, Delta, Box).
# ``make(kind, *args)`` builds a core kind from the children's rewrites.
SUGAR: dict[type, Callable] = {
    Bot: lambda make: make(Not, make(Top)),
    Or: lambda make, a, b: make(Not, make(And, make(Not, a), make(Not, b))),
    Imp: lambda make, a, b: make(Not, make(And, a, make(Not, b))),
    Iff: lambda make, a, b: make(And, make(Not, make(And, a, make(Not, b))),
                                 make(Not, make(And, b, make(Not, a)))),
    Nabla: lambda make, a: make(Not, make(Delta, a)),
}
_CORE = frozenset((Top, Not, And, Delta, Box))


def to_core(f: Formula, make: Callable[..., T]) -> T:
    """Fold ``f`` into the core kinds: ``make(kind, *args)`` for each core
    node, where an Atom's argument is its name and an inner node's are its
    children's results, with each sugar node rewritten by its ``SUGAR`` rule."""

    def visit(node: Formula, *parts: T) -> T:
        cls = type(node)
        if cls is Atom:
            return make(Atom, node.name)
        if cls in _CORE:
            return make(cls, *parts)
        if cls not in SUGAR:
            raise TypeError(f"not a formula: {node!r}")
        return SUGAR[cls](make, *parts)

    return walk(f, visit)


def expand_sugar(f: Formula) -> Formula:
    """Rewrite to the core kinds (Atom, Top, Not, And, Delta, Box)."""
    return to_core(f, lambda kind, *args: kind(*args))


class Metrics(NamedTuple):
    vars: frozenset[str]
    modal_depth: int


def metrics(f: Formula) -> Metrics:
    """Atoms occurring in ``f`` and the maximum nesting of D/N/B."""
    depth = walk(f, lambda node, *parts: max(parts, default=0)
                 + (type(node) in (Delta, Nabla, Box)))
    return Metrics(frozenset(node.name for node in postorder(f)
                             if type(node) is Atom), depth)
