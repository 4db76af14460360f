import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_lab.formula import (And, Atom, Bot, Box, Delta, Formula, Iff, Imp,
                               Nabla, Not, Or, ParseError, Top, expand_sugar,
                               metrics, parse)
from delta_lab.generators import random_formula

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_parse_delta_atom():
    assert parse("D p") == Delta(p)


def test_parse_nabla_is_kept_then_expanded():
    f = parse("N p")
    assert f == Nabla(p)
    assert expand_sugar(f) == Not(Delta(p))


def test_parse_equivalence_axiom_shape():
    assert parse("D p <-> D ~p") == Iff(Delta(p), Delta(Not(p)))


def test_parse_precedence():
    assert parse("p & q | r") == Or(And(p, q), r)
    assert parse("p -> q -> r") == Imp(p, Imp(q, r))
    assert parse("~p & q") == And(Not(p), q)
    assert parse("D p & q") == And(Delta(p), q)
    assert parse("B p -> p") == Imp(Box(p), p)


def test_parse_constants_and_parens():
    assert parse("top") == Top()
    assert parse("bot") == Bot()
    assert parse("D(p -> q)") == Delta(Imp(p, q))


@pytest.mark.parametrize("text, offset", [
    ("", 0),
    ("   ", 0),
    ("p &", 3),
    ("(p", 2),
    ("p p", 2),
    ("X p", 0),
    ("p @ q", 2),
])
def test_parse_errors_carry_offset(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset


def test_expand_sugar_classical_definitions():
    assert expand_sugar(Imp(p, q)) == Not(And(p, Not(q)))
    assert expand_sugar(Bot()) == Not(Top())
    assert expand_sugar(Or(p, q)) == Not(And(Not(p), Not(q)))


def test_expand_sugar_core_only_and_idempotent():
    core_kinds = (Atom, Top, Not, And, Delta, Box)
    for seed in range(200):
        f = random_formula(3, ["p", "q"], seed, include_box=True)
        g = expand_sugar(f)
        stack = [g]
        while stack:
            node = stack.pop()
            assert isinstance(node, core_kinds)
            if isinstance(node, (Not, Delta, Box)):
                stack.append(node.child)
            elif isinstance(node, And):
                stack.extend((node.left, node.right))
        assert expand_sugar(g) == g


def test_metrics_examples():
    assert metrics(p) == (frozenset({"p"}), 0)
    assert metrics(Delta(Delta(p))) == (frozenset({"p"}), 2)
    got = metrics(parse("D p -> D(p->q) | D(~p->r)"))
    assert got.vars == frozenset({"p", "q", "r"})
    assert got.modal_depth == 1


def test_metrics_constants_add_no_variables():
    for seed in range(100):
        f = random_formula(2, ["p", "q"], seed)
        assert metrics(expand_sugar(f)).vars == metrics(f).vars


def test_roundtrip_parse_print():
    for seed in range(500):
        f = random_formula(4, ["p", "q", "r"], seed, include_box=True)
        assert parse(str(f)) == f
        assert pickle.loads(pickle.dumps(f)) == f


def test_print_parse_print_fixed_point():
    for text in ("D p <-> D ~p", "((p))", "D ( p -> q )", "~ ~ p"):
        once = str(parse(text))
        assert str(parse(once)) == once


# ---------------------------------------------------------------------------
# Properties.

_LEAVES = st.one_of(st.sampled_from(["p", "q", "r2"]).map(Atom),
                    st.just(Top()), st.just(Bot()))
_FORMULAS = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        *(st.builds(kind, sub) for kind in (Not, Delta, Nabla, Box)),
        *(st.builds(kind, sub, sub) for kind in (And, Or, Imp, Iff))),
    max_leaves=24)


@st.composite
def _deep_formulas(draw):
    """A formula 10,000 deep: a drawn cycle of kinds wrapped around a leaf,
    with each binary node's other side a leaf."""
    kinds = draw(st.lists(st.sampled_from(
        [Not, Delta, Nabla, Box, And, Or, Imp, Iff]), min_size=1, max_size=4))
    sides = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    leaf = draw(_LEAVES)
    f = draw(_LEAVES)
    for i in range(10_000):
        kind = kinds[i % len(kinds)]
        if kind in (Not, Delta, Nabla, Box):
            f = kind(f)
        else:
            f = kind(f, leaf) if sides[i % len(sides)] else kind(leaf, f)
    return f


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="pqrDNBX ~&|()-<>@topbt\t", max_size=40))
def test_any_text_parses_or_raises_parse_error(text):
    try:
        f = parse(text)
    except ParseError:
        return
    assert isinstance(f, Formula)


def _round_trips(f, g):
    assert parse(str(f)) == f
    assert pickle.loads(pickle.dumps(f)) == f
    if f == g:
        assert hash(f) == hash(g)
    copy = parse(str(f))
    assert copy == f and hash(copy) == hash(f)


@settings(max_examples=300, deadline=None)
@given(_FORMULAS, _FORMULAS)
def test_print_pickle_and_hash_agree_with_equality(f, g):
    _round_trips(f, g)
    assert (f == g) == (str(f) == str(g))


@settings(max_examples=8, deadline=None)
@given(_deep_formulas(), _deep_formulas())
def test_print_pickle_and_hash_agree_with_equality_when_deep(f, g):
    _round_trips(f, g)
