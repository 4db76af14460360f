"""The one-bit path of a swept frame's check.

A frame of a product run is answered by one bit of the verdict mask that its
run keeps for the check reading it: ``definability.check_frame`` keeps
``valid ^ props`` under (claim, max_bits), ``semantics.frame_valid`` the
validity mask under (formula, semantics, max_bits).  A bit that answers is
the only shortcut: every other frame is evaluated on its own.  Every result
here is compared with untagged copies of the same frames, which are
evaluated on their own and read no table or verdict of the sweep, and each
kept verdict is shown to answer only its own key.
"""

import re
from dataclasses import replace
from functools import partial

import pytest

from delta_lab import definability, semantics
from delta_lab.cli import main
from delta_lab.definability import (DefinesResult, builtin_claim,
                                    builtin_table, check_frame, defines)
from delta_lab.formula import parse
from delta_lab.generators import (_product_frames, _sweep_range, first_hit,
                                  sweep, worker_pool)
from delta_lab.model import (_RUN, FRAME_CLASSES, BudgetError,
                             NeighborhoodModel, frame_class)
from delta_lab.proofsys import (SCHEMAS, AuditReport, AxiomAudit,
                                AxiomSystem, _counterexample, audit_soundness,
                                countermodel_search, schema_instance)
from delta_lab.semantics import SemanticsKind, frame_valid

NEW, OLD = SemanticsKind.NEW, SemanticsKind.OLD

# a depth-1 and a depth-2 countermodel formula: each is falsified in some
# shipped classes and valid on every frame of others up to 3 states
DEPTH_ONE, DEPTH_TWO = "D p & D q -> D(p & q)", "D p -> D D p"


def _copy(frame: NeighborhoodModel) -> NeighborhoodModel:
    return NeighborhoodModel(frame.states, frame.neighborhoods)


def _copies(props, max_states: int) -> list[NeighborhoodModel]:
    return [_copy(frame) for n in range(1, max_states + 1)
            for frame in _product_frames(n, props)]


def _claims():
    """Every builtin claim under both neighborhood semantics."""
    return [variant for claim in builtin_table()
            for variant in (claim, replace(claim, semantics=OLD))]


def _checks():
    """A check for every claim of ``_claims``, every audit schema instance
    and the two countermodel formulas, as the sweeps make them."""
    checks = [partial(check_frame, claim) for claim in _claims()]
    checks += [partial(_counterexample, schema_instance(name), 24)
               for name in SCHEMAS]
    checks += [partial(_counterexample, parse(text), 24)
               for text in (DEPTH_ONE, DEPTH_TWO)]
    return checks


def _max_states(name: str) -> int:
    return 2 if name == "all" else 3


def _ranges():
    """(class, size, start, stop) of every shipped class at 1-3 states, the
    16.7M frames of ``all`` at 3 states as three runs of 256 from a start
    mid-run, and more ranges that start mid-run."""
    for name in FRAME_CLASSES:
        for n in (1, 2, 3):
            if name == "all" and n == 3:
                yield name, n, 300, 300 + 3 * 256
            else:
                yield name, n, 0, None
    yield "c", 3, 1000, 1300          # runs of 256
    yield "filter", 3, 5, 300         # runs of 64
    yield "quasi-filter", 3, 63, 125  # one run of 125


# --- the fast path against untagged copies ---------------------------------

def test_every_swept_check_matches_untagged_copies():
    settled = 0
    for name, n, start, stop in _ranges():
        frames = list(_product_frames(n, FRAME_CLASSES[name], start, stop))
        copies = [_copy(frame) for frame in frames]
        for check in _checks():
            got = [check(frame) for frame in frames]
            want = [check(copy) for copy in copies]
            assert got == want, (name, n, start, check)
            settled += got.count(None)
    assert settled > 100_000


def _swept(claim, props, max_states, jobs, pool):
    checked, counter = sweep(props, max_states, partial(check_frame, claim),
                             jobs, pool)
    return DefinesResult(counter is None, checked, counter)


def test_definability_results_match_untagged_copies():
    refuted = 0
    with worker_pool(2) as pool:
        for name, props in FRAME_CLASSES.items():
            copies = _copies(props, _max_states(name))
            for claim in _claims():
                want = defines(claim, frames=copies)
                for jobs in (1, 2):
                    got = _swept(claim, props, _max_states(name), jobs, pool)
                    assert got == want, (name, claim, jobs)
                refuted += not want
        # and each claim over its own background, through ``defines``
        for claim in _claims():
            states = _max_states(claim.background)
            want = defines(claim, frames=_copies(
                FRAME_CLASSES[claim.background], states))
            for jobs in (1, 2):
                assert defines(claim, states, jobs=jobs) == want, claim
    assert refuted > 15


def _untagged_report(system: AxiomSystem, max_states: int) -> AuditReport:
    """``audit_soundness`` over untagged copies of the same frames."""
    copies = _copies(frame_class(system.frame_class), max_states)
    audits = []
    for name in system.schema_names:
        instance = schema_instance(name)
        checked, counter = first_hit(copies,
                                     partial(_counterexample, instance, 24))
        audits.append(AxiomAudit(name, instance, counter is None, checked,
                                 counter))
    negative = first_hit(_copies(frame_class("filter"), max_states),
                         partial(_counterexample, schema_instance("ΔEqu"),
                                 24))[1]
    return AuditReport(system, max_states, tuple(audits), negative)


def test_audit_reports_match_untagged_copies():
    for system in AxiomSystem:
        want = _untagged_report(system, 3)
        for jobs in (1, 2):
            assert audit_soundness(system, 3, jobs=jobs) == want, system


def test_countermodels_match_untagged_copies():
    for text in (DEPTH_ONE, DEPTH_TWO):
        f = parse(text)
        check = partial(_counterexample, f, 24)
        found = exhausted = 0
        for name, props in FRAME_CLASSES.items():
            states = _max_states(name)
            copies = _copies(props, states)
            checked, hit = first_hit(copies, check)
            want = None if hit is None else (
                hit[0].with_valuation(hit[1].valuation), hit[1].state)
            for jobs in (1, 2):
                assert sweep(props, states, check, jobs) == (checked, hit), \
                    (text, name, jobs)
                assert countermodel_search(f, name, states, jobs=jobs) == \
                    want, (text, name, jobs)
            found += want is not None
            exhausted += want is None and checked == len(copies)
        # a model is found in some classes; others are searched to the end
        assert found >= 2 and exhausted >= 1, text


def test_ranges_from_mid_run_match_untagged_copies_in_workers():
    with worker_pool(2) as pool:
        for name, n, start, stop in _ranges():
            props = FRAME_CLASSES[name]
            copies = [_copy(frame)
                      for frame in _product_frames(n, props, start, stop)]
            stop = start + len(copies)
            for check in _checks():
                want = first_hit(copies, check)
                assert _sweep_range(check, n, props, start, stop) == want
                got = pool.submit(_sweep_range, check, n, props, start, stop)
                assert got.result() == want, (name, n, start, check)


def test_every_other_frame_is_evaluated_on_its_own(monkeypatch):
    # a set bit of the run's validity mask answers; every other swept frame
    # takes the untagged path, so its FrameCheck is made by exactly one
    # ``_program_valid`` call and equals the untagged copy's.  Every shipped
    # class at 1-3 states (quasi-filter at 1 state is a run of one frame,
    # with no mask), and three runs of ``all`` at 3 states from a start
    # mid-run: 256 frames at 2 atoms do not fit one pass at depth 2
    made = []
    real = semantics._program_valid

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(semantics, "_program_valid", recording)
    formulas = [parse(text) for text in (
        DEPTH_ONE, DEPTH_TWO, "D p -> p", "p -> D N p", "D D (p & q) | q")]
    invalid = unmasked = 0
    for name, n, start, stop in list(_ranges())[:-3]:
        frames = list(_product_frames(n, FRAME_CLASSES[name], start, stop))
        for f in formulas:
            for kind in (NEW, OLD):
                for frame in frames:
                    made.clear()
                    got = frame_valid(frame, f, kind)
                    own = list(made)
                    assert got == frame_valid(_copy(frame), f, kind), \
                        (name, n, str(f), kind, frame)
                    run, _ = vars(frame)[_RUN]
                    if got and run.valid_verdict[3] is not None:
                        assert own == [], (name, n, str(f), kind)
                        continue
                    assert len(own) == 1 and own[0] is got, \
                        (name, n, str(f), kind)
                    invalid += not got
                    unmasked += run.valid_verdict[3] is None
    assert invalid > 10_000 and unmasked > 1000


# --- a kept verdict answers only its own key --------------------------------

def _small_runs() -> list[NeighborhoodModel]:
    """Tagged frames of a few runs: ``all`` at 2 states (one run of 256)
    and c at 3 states from a start mid-run (runs of 256)."""
    return (list(_product_frames(2, frozenset()))
            + list(_product_frames(3, FRAME_CLASSES["c"], 1000, 1100)))


def _interleaved(first, second):
    """``second`` on every frame of fresh ``_small_runs``, each call right
    after ``first`` on the same frame, so each finds the other's verdict on
    its run."""
    out = []
    for frame in _small_runs():
        first(frame)
        out.append(second(frame))
    return out


def test_another_claim_recomputes_on_a_run_that_holds_a_verdict():
    copies = [_copy(frame) for frame in _small_runs()]
    claims = _claims()
    told_apart = 0
    for a, b in zip(claims, claims[1:] + claims[:1]):
        want = [check_frame(b, copy) for copy in copies]
        got = _interleaved(partial(check_frame, a), partial(check_frame, b))
        assert got == want, (a, b)
        told_apart += want != [check_frame(a, copy) for copy in copies]
    assert told_apart > 10


def test_another_formula_or_semantics_recomputes_on_a_run():
    copies = [_copy(frame) for frame in _small_runs()]
    formulas = [parse(text) for text in ("D p -> p", "p -> D N p",
                                         "D p <-> D ~p")]
    told_apart = 0
    for f, g in zip(formulas, formulas[1:] + formulas[:1]):
        for kind, other in ((NEW, OLD), (OLD, NEW)):
            want = [frame_valid(copy, f, kind) for copy in copies]
            for first, before in (
                    (partial(frame_valid, f=g, kind=kind), (g, kind)),
                    (partial(frame_valid, f=f, kind=other), (f, other))):
                got = _interleaved(first,
                                   partial(frame_valid, f=f, kind=kind))
                assert got == want, (str(f), kind, str(before[0]), before[1])
                told_apart += [check.valid for check in want] != [
                    frame_valid(copy, *before).valid for copy in copies]
    assert told_apart >= 10


def test_a_smaller_budget_is_refused_on_a_run_that_holds_a_verdict():
    # three states, one atom: 2^3 valuations
    frames = list(_product_frames(3, FRAME_CLASSES["c"]))[:256]
    refusal = ("valuation sweep needs 2^3 cases, budget is 2^{}; "
               "--budget (max_bits=) lifts it")
    valid = 0
    for letter in ("t", "4"):  # a depth-1 and a depth-2 claim
        claim = builtin_claim(letter)
        for frame in frames:
            copy = _copy(frame)
            want = check_frame(claim, copy), frame_valid(copy, claim.formula,
                                                         NEW)
            assert (check_frame(claim, frame),
                    frame_valid(frame, claim.formula, NEW)) == want
            valid += want[1].valid
            for bits in (2, 1, 0):
                message = re.escape(refusal.format(bits))
                with pytest.raises(BudgetError, match=message):
                    check_frame(claim, frame, max_bits=bits)
                with pytest.raises(BudgetError, match=message):
                    frame_valid(frame, claim.formula, NEW, bits)
            # a larger budget answers alike
            assert (check_frame(claim, frame, max_bits=3),
                    frame_valid(frame, claim.formula, NEW, 3)) == want
    assert valid > 16


def test_a_refused_budget_is_one_error_line_from_the_cli(capsys):
    for jobs in ("1", "2"):
        assert main(["--budget", "2", "--jobs", jobs, "definability",
                     "--builtin", "4", "--max-states", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: valuation sweep needs 2^3 cases, budget is "
                       "2^2; --budget (max_bits=) lifts it\n")


def test_claim_and_formula_verdicts_are_kept_apart(monkeypatch):
    # a check_frame and a frame_valid call on every frame, alternately: each
    # keeps its own verdict, so each builds it once per run; the claim's
    # verdict reads two validity masks, its formula's and its property's
    # correspondent's
    claimed, masks = [], []

    def counting(calls, real, *args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(definability, "_run_props",
                        partial(counting, claimed, definability._run_props))
    for name in ("_run_mask", "_local_mask"):
        monkeypatch.setattr(semantics, name, partial(
            counting, masks, getattr(semantics, name)))
    frames = list(_product_frames(3, FRAME_CLASSES["c"]))
    runs = {id(vars(frame)[_RUN][0]) for frame in frames}
    claim = builtin_claim("4")
    g = parse("D p -> p")  # (t)'s formula, state-local
    got = []
    for frame in frames:
        assert check_frame(claim, frame) is None
        got.append(frame_valid(frame, g, NEW))
    assert len(runs) == len(claimed) == 16
    # per run, one validity mask each for the claim's formula, the
    # correspondent of (4) and g
    assert len(masks) == 3 * 16
    assert got == [frame_valid(_copy(frame), g, NEW) for frame in frames]
    assert sum(not check for check in got) > 1000
