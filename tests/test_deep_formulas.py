"""Formulas 10,000 deep, far past the default recursion limit, through every
operation on formulas: syntax, schema matching, evaluation, tautology and
proof checking, and a parallel countermodel search."""

import pickle
import sys

import pytest

from delta_lab.cli import main
from delta_lab.formula import (And, Delta, Iff, Not, _key, expand_sugar,
                               metrics, parse, subformulas)
from delta_lab.generators import frame_at
from delta_lab.model import NeighborhoodModel
from delta_lab.proofsys import (SCHEMAS, AxiomSystem, ProofLine, check_proof,
                                instantiate, is_taut_instance, match_schema)
from delta_lab.semantics import SemanticsKind, delta_holds, extension, \
    frame_valid

DEPTH = 10_000
NEW = SemanticsKind.NEW

# Each shape's text, its node count and a shallow formula equivalent to it
# on every model.
SHAPES = {
    "left & chain": (" & ".join(["p"] * (DEPTH + 1)), 2 * DEPTH + 1, "p"),
    "right -> chain": (" -> ".join(["p"] * (DEPTH + 1)), 2 * DEPTH + 1, "top"),
    "~/D prefix chain": ("~D" * (DEPTH // 2) + "p", DEPTH + 1, None),
    "nested parentheses": ("(p & " * DEPTH + "p" + ")" * DEPTH, 2 * DEPTH + 1,
                           "p"),
}

MODEL = NeighborhoodModel.from_names(
    ["s", "t", "u"], {"s": [(), ("s", "t")], "t": [("t",)], "u": [("s",)]},
    {"p": ["s", "u"]})


@pytest.fixture(scope="module", params=SHAPES)
def shape(request):
    text, nodes, shallow = SHAPES[request.param]
    return parse(text), text, nodes, shallow


def test_deeper_than_the_recursion_limit():
    assert DEPTH > 5 * sys.getrecursionlimit()


def test_syntax(shape):
    f, text, nodes, _ = shape
    again = parse(text)
    assert again is not f and again == f and hash(again) == hash(f)
    assert parse(str(f)) == f
    assert repr(f).startswith(type(f).__name__ + "(")
    assert pickle.loads(pickle.dumps(f)) == f
    assert f != parse(text + " & q")
    assert sum(1 for _ in subformulas(f)) == nodes
    core = expand_sugar(f)
    assert expand_sugar(core) == core
    assert (core == f) == ("->" not in text)
    got = metrics(f)
    assert got.vars == {"p"}
    assert got.modal_depth == (DEPTH // 2 if "D" in text else 0)


def test_equality_agrees_with_the_flat_key(shape):
    f, text, _, _ = shape
    last = text.rindex("p")
    variants = (text, text[:last] + "q" + text[last + 1:],
                text.replace("p", "q", 1), text + " & p")
    for other in map(parse, variants):
        want = _key(f) == _key(other)
        assert (f == other) is want and (other == f) is want
    assert f == parse(variants[0])
    # a shared subtree is skipped, and the rest still compared
    assert And(f, f) == And(f, parse(text)) != And(f, Not(f))


def test_schema_matching(shape):
    f = shape[0]
    instance = Iff(Delta(f), Delta(Not(f)))
    assert instantiate(SCHEMAS["ΔEqu"], {"phi": f}) == instance
    binding = match_schema(SCHEMAS["ΔEqu"], instance)
    assert binding == {"phi": f}
    assert match_schema(SCHEMAS["ΔEqu"], Iff(Delta(f), Delta(Not(Not(f))))) \
        is None


def _prefix_chain_extension(m, kind) -> int:
    """The ~/D chain's extension, one state-by-state step per operator."""
    ext = m.atom_mask("p")
    for _ in range(DEPTH // 2):
        ext = m.full & ~sum(1 << s for s in range(len(m.states))
                            if delta_holds(m, s, ext, kind))
    return ext


def test_evaluation(shape):
    f, text, _, shallow = shape
    if shallow is None:
        assert extension(MODEL, f, NEW) == _prefix_chain_extension(MODEL, NEW)
        shallow = "~D~D p"  # equivalent on every one-state frame
    else:
        assert extension(MODEL, f, NEW) == extension(MODEL, parse(shallow), NEW)
    for code in range(4):
        frame = frame_at(1, code)
        assert frame_valid(frame, f, NEW) == \
            frame_valid(frame, parse(shallow), NEW)


def test_proof_checking(shape):
    text = shape[1]
    assert is_taut_instance(parse(f"({text}) -> ({text})"))
    assert is_taut_instance(parse(f"({text}) -> ({text}) & top"))
    lines = [(f"({text}) -> ({text})", "TAUT"),
             (f"(({text}) -> ({text})) -> top", "TAUT"),
             ("top", "MP 1 2"),
             (f"D({text}) <-> D ~({text})", "ΔEqu"),
             (f"({text}) <-> ({text})", "TAUT"),
             (f"D({text}) <-> D({text})", "REΔ 5")]
    script = [ProofLine(parse(formula), by) for formula, by in lines]
    assert check_proof(AxiomSystem.K, script).ok
    script[5] = ProofLine(parse(f"D({text}) <-> D({text} & q)"), "REΔ 5")
    assert check_proof(AxiomSystem.K, script).line == 6


def test_parallel_countermodel_matches_serial(capsys):
    text = SHAPES["left & chain"][0] + " -> D p"
    outs = []
    for jobs in ("1", "2"):
        assert main(["--jobs", jobs, "countermodel", "--formula", text,
                     "--class", "c", "--max-states", "2"]) == 1
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "falsified" in outs[0]
