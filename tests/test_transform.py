import pytest

from delta_lab.bisim import logical_equiv_partition
from delta_lab.formula import parse
from delta_lab.generators import (GenSpec, enum_kripke_frames, random_formula,
                                  random_kripke, random_model, state_names)
from delta_lab.model import BudgetError, FrameProperty, KripkeModel, \
    NeighborhoodModel, classify, has_property
from delta_lab.semantics import SemanticsKind, extension
from delta_lab.transform import c_variation, qf_to_kripke, qf_variation

NEW, OLD, KRIPKE = (SemanticsKind.NEW, SemanticsKind.OLD,
                    SemanticsKind.KRIPKE)
QF = frozenset({FrameProperty.N, FrameProperty.I, FrameProperty.C,
                FrameProperty.WS})


def test_c_variation_forced_complements():
    m = NeighborhoodModel.from_names(["a", "b"], {"a": [["a"]], "b": []})
    out = c_variation(m)
    assert out.neighborhoods[0] == frozenset({0b01, 0b10})
    assert out.neighborhoods[1] == frozenset()


def test_c_variation_fixes_c_models():
    m = NeighborhoodModel.from_names(
        ["a", "b"], {"a": [[], ["a", "b"]], "b": [["a"], ["b"]]}, {"p": ["a"]})
    assert has_property(m, FrameProperty.C)
    assert c_variation(m) == m


def test_c_variation_idempotent_and_c_producing():
    for seed in range(60):
        m = random_model(GenSpec(4, seed=seed, mode="random"), ["p"])
        cm = c_variation(m)
        assert has_property(cm, FrameProperty.C)
        assert c_variation(cm) == cm


def test_c_variation_preserves_old_truth():
    formulas = [random_formula(4, ["p", "q"], seed) for seed in range(60)]
    for seed in range(40):
        m = random_model(GenSpec(4, seed=seed, mode="random"), ["p", "q"])
        cm = c_variation(m)
        for f in formulas:
            assert extension(m, f, OLD) == extension(cm, f, NEW)


def test_qf_variation_edge_relations():
    k = KripkeModel.from_names(["a", "b"], {"a": [], "b": ["a", "b"]})
    out = qf_variation(k)
    assert out.neighborhoods[0] == frozenset(range(4))   # empty R sees all
    assert out.neighborhoods[1] == frozenset({0, 0b11})  # total R keeps 0 and S


def test_qf_variation_refuses_by_the_member_rule():
    # the n·2^n members of up to n states each that the families could hold
    # decide, as for random frames: empty relations reach that bound
    for succ in (0, (1 << 16) - 1):
        out = qf_variation(KripkeModel(state_names(16), (succ,) * 16))
        assert sum(map(len, out.neighborhoods)) == \
            16 * (1 << 16 if succ == 0 else 2)
    for succ in (0, (1 << 17) - 1):
        with pytest.raises(BudgetError, match=r"17·2\^17"):
            qf_variation(KripkeModel(state_names(17), (succ,) * 17))


def test_qf_variation_worked_example():
    k = KripkeModel.from_names(["a", "b"], {"a": ["a", "b"], "b": []},
                               {"p": ["a"]})
    out = qf_variation(k)
    assert out.neighborhoods[0] == frozenset({0, 0b11})
    assert out.neighborhoods[1] == frozenset(range(4))
    assert not extension(out, parse("D p"), NEW) & 0b01
    assert not extension(k, parse("D p"), KRIPKE) & 0b01


def test_qf_variation_is_quasi_filter_and_pointwise():
    formulas = [random_formula(3, ["p", "q"], seed) for seed in range(40)]
    for seed in range(40):
        k = random_kripke(GenSpec(4, seed=seed, mode="random"), ["p", "q"])
        out = qf_variation(k)
        assert "quasi-filter" in classify(out)
        for f in formulas:
            assert extension(k, f, KRIPKE) == extension(out, f, NEW)


def test_qf_to_kripke_examples():
    both = NeighborhoodModel.from_names(
        ["a", "b"], {"a": [[], ["a", "b"]], "b": [[], ["a", "b"]]})
    k = qf_to_kripke(both)
    assert k.succ == (0b11, 0b11)

    powerset = NeighborhoodModel.from_names(
        ["a", "b"], {"a": [[], ["a"], ["b"], ["a", "b"]],
                     "b": [[], ["a"], ["b"], ["a", "b"]]})
    assert qf_to_kripke(powerset).succ == (0, 0)

    single = NeighborhoodModel.from_names(["a"], {"a": [[], ["a"]]})
    assert qf_to_kripke(single).succ == (0,)


def test_qf_to_kripke_rejects_non_quasi_filter():
    missing_c = NeighborhoodModel.from_names(["a"], {"a": [["a"]]})
    with pytest.raises(ValueError, match=r"\(c\)"):
        qf_to_kripke(missing_c)
    missing_n = NeighborhoodModel.from_names(["a"], {"a": []})
    with pytest.raises(ValueError, match=r"\(n\)"):
        qf_to_kripke(missing_n)
    # (n), (c), (ws) hold but {a, c} ∩ {b, c} = {c} is missing
    only_i = NeighborhoodModel.from_names(["a", "b", "c"], dict.fromkeys(
        "abc", [[], ["a", "b", "c"], ["a"], ["b", "c"], ["b"], ["a", "c"]]))
    with pytest.raises(ValueError) as err:
        qf_to_kripke(only_i)
    assert str(err.value) == "not a quasi-filter model: property (i) fails"
    # a Boolean subalgebra with two atoms of two states each
    only_ws = NeighborhoodModel.from_names(["a", "b", "c", "d"], dict.fromkeys(
        "abcd", [[], ["a", "b"], ["c", "d"], ["a", "b", "c", "d"]]))
    with pytest.raises(ValueError) as err:
        qf_to_kripke(only_ws)
    assert str(err.value) == "not a quasi-filter model: property (ws) fails"


def test_qf_to_kripke_pointwise_equivalence():
    formulas = [random_formula(3, ["p"], seed) for seed in range(40)]
    for seed in range(40):
        m = random_model(GenSpec(3, QF, seed=seed, mode="random"), ["p"])
        k = qf_to_kripke(m)
        for f in formulas:
            assert extension(m, f, NEW) == extension(k, f, KRIPKE)


def test_round_trip_theory_partition_self_pairs():
    for seed in range(30):
        m = random_model(GenSpec(3, QF, seed=seed, mode="random"), ["p", "q"])
        back = qf_variation(qf_to_kripke(m))
        part = logical_equiv_partition([m, back], ["p", "q"], NEW)
        pairs = part.cross_pairs(0, 1)
        assert all((s, s) in pairs for s in m.states)


def test_exhaustive_small_kripke_pointwise():
    formulas = [random_formula(3, ["p"], seed) for seed in range(15)]
    for frame in enum_kripke_frames(GenSpec(2)):
        for mask in range(4):
            k = frame.with_valuation({"p": mask})
            out = qf_variation(k)
            for f in formulas:
                assert extension(k, f, KRIPKE) == extension(out, f, NEW)
