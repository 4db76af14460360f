import pytest

from delta_lab.formula import And, Atom, parse
from delta_lab.model import BudgetError
from delta_lab.proofsys import (SCHEMAS, AxiomSystem, ProofLine,
                                audit_soundness, check_proof,
                                countermodel_search, filter_equ_witness,
                                is_taut_instance, match_schema,
                                sample_scripts, schema_instance)

E, M, R, K = AxiomSystem.E, AxiomSystem.M, AxiomSystem.R, AxiomSystem.K


def lines(*pairs):
    return [ProofLine(parse(text), by) for text, by in pairs]


def test_match_schema_examples():
    assert match_schema(SCHEMAS["ΔEqu"], parse("D(p&q) <-> D ~(p&q)")) == {
        "phi": And(Atom("p"), Atom("q"))}
    assert match_schema(SCHEMAS["ΔDis"],
                        parse("D p -> D(p -> q) | D(~p -> r)")) == {
        "phi": Atom("p"), "psi": Atom("q"), "chi": Atom("r")}
    assert match_schema(SCHEMAS["ΔTop"], parse("D p")) is None


def test_match_schema_requires_consistent_binding():
    assert match_schema(SCHEMAS["ΔEqu"], parse("D p <-> D ~q")) is None


def test_taut_examples():
    assert is_taut_instance(parse("D p -> D p"))
    assert is_taut_instance(parse("D p | ~D p"))
    assert not is_taut_instance(parse("D p -> p"))


def test_taut_distinguishes_distinct_modal_subformulas():
    assert not is_taut_instance(parse("D p -> D q"))
    assert is_taut_instance(parse("D(p & q) -> D(p & q)"))


def test_taut_atom_budget():
    # the default valuation budget, MAX_BITS = 24 atoms, bounds the skeleton
    text = " & ".join(f"D p{i}" for i in range(24))
    assert is_taut_instance(parse(f"({text}) -> D p0"))
    text = " & ".join(f"D p{i}" for i in range(25))
    with pytest.raises(BudgetError, match="25 atoms"):
        is_taut_instance(parse(f"({text}) -> D p0"))


def test_check_proof_examples():
    assert check_proof(E, lines(("D p <-> D ~p", "ΔEqu"))).ok
    bad = check_proof(E, lines(("D top", "ΔTop")))
    assert not bad.ok and bad.line == 1 and "not part of E" in bad.reason
    assert check_proof(E, lines(("p <-> p", "TAUT"),
                                ("D p <-> D p", "REΔ 1"))).ok


def test_check_proof_mp_and_bad_references():
    ok = check_proof(K, lines(("D top", "ΔTop"),
                              ("D top -> (D top | D p)", "TAUT"),
                              ("D top | D p", "MP 1 2")))
    assert ok.ok
    swapped = check_proof(K, lines(("D top", "ΔTop"),
                                   ("D top -> (D top | D p)", "TAUT"),
                                   ("D top | D p", "MP 2 1")))
    assert not swapped.ok and swapped.line == 3
    forward = check_proof(K, lines(("D top | D p", "MP 1 2"),
                                   ("D top", "ΔTop")))
    assert not forward.ok and forward.line == 1
    unknown = check_proof(K, lines(("D top", "by magic")))
    assert not unknown.ok and "unknown justification" in unknown.reason


def test_check_proof_re_delta_shape():
    bad = check_proof(E, lines(("p -> p", "TAUT"), ("D p <-> D p", "REΔ 1")))
    assert not bad.ok and "biconditional" in bad.reason


def test_sample_scripts_check_in_k():
    scripts = sample_scripts()
    assert len(scripts) == 3
    for name, script in scripts.items():
        assert check_proof(K, script).ok, name


def test_schema_instance_fresh_atoms():
    assert schema_instance("ΔEqu") == parse("D p <-> D ~p")
    assert schema_instance("ΔDis") == parse("D p -> D(p -> q) | D(~p -> r)")


@pytest.mark.parametrize("system", [E, M, R, K])
def test_audit_small_frames_fully_valid(system):
    report = audit_soundness(system, max_states=2)
    assert report.ok
    assert all(audit.frames_checked > 0 for audit in report.axioms)


def test_audit_reports_negative_witness():
    report = audit_soundness(R, max_states=1)
    assert report.negative_witness is not None
    frame, check = report.negative_witness
    assert frame.neighborhoods == (frozenset({0b1}),)
    assert not check.valid


def test_filter_witness_at_one_state():
    found = filter_equ_witness(1)
    assert found is not None
    frame, check = found
    assert frame.neighborhoods == (frozenset({0b1}),)
    assert not check.valid
    from delta_lab.semantics import SemanticsKind, evaluate

    model = frame.with_valuation(check.valuation)
    assert not evaluate(model, check.state, schema_instance("ΔEqu"),
                        SemanticsKind.NEW)
    # the direct construction, valuing the atom at the un-complemented
    # neighborhood, falsifies it as well
    direct = frame.with_valuation({"p": 0b1})
    assert not evaluate(direct, "s0", schema_instance("ΔEqu"),
                        SemanticsKind.NEW)


def test_countermodel_examples():
    found = countermodel_search(parse("D p -> p"), "quasi-filter", 1)
    assert found is not None
    model, state = found
    assert model.neighborhoods == (frozenset({0, 0b1}),)
    assert model.valuation["p"] == 0
    assert state == "s0"

    found = countermodel_search(parse("D top"), "c", 2)
    assert found is not None
    model, _ = found
    assert frozenset() in model.neighborhoods

    assert countermodel_search(parse("D p <-> D ~p"), "c", 2) is None


def test_accepted_conclusions_have_no_countermodel_in_class():
    for name, script in sample_scripts().items():
        assert check_proof(K, script).ok
        conclusion = script[-1].formula
        assert countermodel_search(conclusion, "quasi-filter", 2) is None, name
