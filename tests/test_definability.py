import random
from functools import partial

import pytest

from delta_lab import generators
from delta_lab.definability import (DefinabilityClaim, DefinesResult,
                                    builtin_claim, builtin_table, check_frame,
                                    defines)
from delta_lab.formula import parse
from delta_lab.generators import GenSpec, enum_frames
from delta_lab.model import (FRAME_CLASSES, BudgetError, FrameProperty,
                             NeighborhoodModel)
from delta_lab.semantics import SemanticsKind

FP = FrameProperty

EXPECTED = {
    "n": ("D top", "c"),
    "i": ("D p & D q -> D(p & q)", "c"),
    "s": ("D(p & q) -> D p & D q", "c"),
    "c": ("D p <-> D ~p", "all"),
    "d": ("N p", "c"),
    "t": ("D p -> p", "c"),
    "b": ("p -> D N p", "c"),
    "4": ("D p -> D D p", "c"),
    "5": ("N p -> D N p", "c"),
    "ws": ("D p -> D(p -> q) | D(~p -> r)", "all"),
}


def test_builtin_table_contents():
    table = builtin_table()
    assert len(table) == 10
    by_prop = {claim.prop.value: claim for claim in table}
    assert set(by_prop) == set(EXPECTED)
    for letter, (text, background) in EXPECTED.items():
        claim = by_prop[letter]
        assert claim.formula == parse(text), letter
        assert claim.background == background, letter
        assert claim.semantics is SemanticsKind.NEW
    assert "r" not in by_prop  # no defining formula is shipped for (r)


def test_t_claim_uses_c_background():
    claim = builtin_claim("t")
    assert claim.background == "c"
    assert claim.formula == parse("D p -> p")


def test_c_claim_confirmed_exhaustively_two_states():
    result = defines(builtin_claim("c"), max_states=2)
    assert result.confirmed
    assert result.frames_checked == 4 + 256


def test_all_claims_confirmed_exhaustively_one_state():
    for claim in builtin_table():
        assert defines(claim, max_states=1).confirmed, claim.prop


def test_d_claim_background_sensitivity():
    # Over all frames the claim fails: one-state frames exist that have (d)
    # yet make contingency refutable.
    wrong = DefinabilityClaim(FP.D, parse("N p"), "all")
    result = defines(wrong, max_states=1)
    assert not result.confirmed
    counter = result.counterexample
    assert counter.direction == "property-without-validity"
    assert counter.witness is not None and not counter.witness.valid
    # the singleton-neighborhood frame is such a mismatch as well
    singleton = NeighborhoodModel.from_names(["s"], {"s": [["s"]]})
    found = check_frame(wrong, singleton)
    assert found is not None
    assert found.direction == "property-without-validity"


def test_check_frame_single():
    frame = NeighborhoodModel.from_names(["s"], {"s": [["s"]]})
    # neither (c) nor its formula hold here, so the biconditional stands
    assert check_frame(builtin_claim("c"), frame) is None
    # (d) holds but contingency is refutable
    wrong = DefinabilityClaim(FP.D, parse("N p"), "all")
    assert check_frame(wrong, frame) is not None


def test_counterexamples_persist_at_larger_bounds():
    wrong = DefinabilityClaim(FP.D, parse("N p"), "all")
    small = defines(wrong, max_states=1)
    large = defines(wrong, max_states=2)
    assert not small.confirmed and not large.confirmed
    assert large.counterexample.frame == small.counterexample.frame


def test_defines_accepts_explicit_frame_stream():
    frames = list(enum_frames(GenSpec(1, frozenset({FP.C}))))
    result = defines(builtin_claim("c"), frames=frames)
    assert result.confirmed and result.frames_checked == len(frames)


# --- wrong claims: the run masks keep every counterexample -----------------

def _untagged_frames(background: str, max_states: int) -> list:
    return [NeighborhoodModel(frame.states, frame.neighborhoods)
            for n in range(1, max_states + 1)
            for frame in generators._product_frames(
                n, FRAME_CLASSES[background])]


def _wrong_claims():
    """Every property letter paired with every builtin formula, under both
    neighborhood semantics, over the c-frames."""
    formulas = [claim.formula for claim in builtin_table()]
    for prop in FrameProperty:
        for i, f in enumerate(formulas):
            kind = (SemanticsKind.NEW, SemanticsKind.OLD)[i % 2]
            yield DefinabilityClaim(prop, f, "c", kind)


def _swept(claim, max_states, jobs, pool):
    check = partial(check_frame, claim)
    checked, counter = generators.sweep(FRAME_CLASSES[claim.background],
                                        max_states, check, jobs, pool)
    return DefinesResult(counter is None, checked, counter)


def test_every_pairing_keeps_its_counterexample_up_to_two_states():
    copies = _untagged_frames("c", 2)
    refuted = 0
    with generators.worker_pool(2) as pool:
        for claim in _wrong_claims():
            want = defines(claim, frames=copies)
            assert defines(claim, 2) == want, claim
            assert _swept(claim, 2, 2, pool) == want, claim
            refuted += not want
    assert refuted > 60


def test_seeded_pairings_keep_their_counterexamples_at_three_states():
    copies = _untagged_frames("c", 3)
    claims = list(_wrong_claims())
    # a seeded sample, and every pairing of (i) and (ws), the only letters
    # whose wrong pairings may first fail at 3 states
    sample = random.Random(5).sample(claims, 12) + [
        claim for claim in claims if claim.prop in (FrameProperty.I,
                                                    FrameProperty.WS)]
    late = 0
    with generators.worker_pool(2) as pool:
        for claim in sample:
            want = defines(claim, frames=copies)
            assert defines(claim, 3) == want, claim
            assert _swept(claim, 3, 2, pool) == want, claim
            late += not want and want.frames_checked > 18
    assert late >= 2


def test_budget_below_the_sweep_is_refused_alike():
    claim = builtin_claim("ws")  # three atoms: 2^6 valuations at 2 states
    copies = _untagged_frames("all", 2)
    with pytest.raises(BudgetError) as per_frame:
        defines(claim, frames=copies, max_bits=5)
    for jobs in (1, 2):
        with pytest.raises(BudgetError) as swept:
            defines(claim, 2, max_bits=5, jobs=jobs)
        assert str(swept.value) == str(per_frame.value)
