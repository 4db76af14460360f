"""Hilbert-style axiom systems over the non-contingency language.

Four systems are provided.  E is the minimal one: tautology instances, the
equivalence axiom for negated arguments, and the replacement rule; M adds
distribution of non-contingency over conjunction, R adds the converse, and K
instead adds the unit, conjunction, and disjunction axioms matching Kripke
reasoning.  Modus ponens is a rule of every system.  Soundness is audited by
exhaustive frame sweeps at small sizes, and non-theoremhood by bounded
countermodel search.

A ``TAUT`` line is checked row by row over its propositional skeleton, one
atom per distinct maximal modal subformula, under the default valuation
budget ``semantics.MAX_BITS``: a skeleton of more than 24 atoms is refused
with ``BudgetError``.  Proof checking has no budget parameter, so the CLI's
``proof-check`` uses that default and does not read ``--budget``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Sequence

from .formula import (And, Atom, Delta, Formula, Iff, Imp, Not, Or, Top,
                      arity, parse, subformulas, walk)
from .generators import plan, sweep, worker_pool
from .model import NeighborhoodModel, frame_class
from .semantics import (MAX_BITS, FrameCheck, SemanticsKind, frame_valid,
                        taut_valid)

if TYPE_CHECKING:
    from concurrent.futures import Executor


@dataclass(frozen=True, eq=False, repr=False)
class Meta(Formula):
    """Schema metavariable; only ever appears inside schema patterns."""
    name: str


_PHI, _PSI, _CHI = Meta("phi"), Meta("psi"), Meta("chi")

SCHEMAS: dict[str, Formula] = {
    "ΔEqu": Iff(Delta(_PHI), Delta(Not(_PHI))),
    "ΔM": Imp(Delta(And(_PHI, _PSI)), And(Delta(_PHI), Delta(_PSI))),
    "ΔC": Imp(And(Delta(_PHI), Delta(_PSI)), Delta(And(_PHI, _PSI))),
    "ΔTop": Delta(Top()),
    "ΔCon": Imp(And(Delta(_PHI), Delta(_PSI)), Delta(And(_PHI, _PSI))),
    "ΔDis": Imp(Delta(_PHI),
                Or(Delta(Imp(_PHI, _PSI)), Delta(Imp(Not(_PHI), _CHI)))),
}


class AxiomSystem(Enum):
    E = "E"
    M = "M"
    R = "R"
    K = "K"

    @property
    def schema_names(self) -> tuple[str, ...]:
        return {
            AxiomSystem.E: ("ΔEqu",),
            AxiomSystem.M: ("ΔEqu", "ΔM"),
            AxiomSystem.R: ("ΔEqu", "ΔM", "ΔC"),
            AxiomSystem.K: ("ΔEqu", "ΔTop", "ΔCon", "ΔDis"),
        }[self]

    @property
    def frame_class(self) -> str:
        return {
            AxiomSystem.E: "c",
            AxiomSystem.M: "cs",
            AxiomSystem.R: "csi",
            AxiomSystem.K: "quasi-filter",
        }[self]


def match_schema(schema: Formula, f: Formula) -> dict[str, Formula] | None:
    """Substitution of metavariables making the schema equal ``f``, or None."""
    binding: dict[str, Formula] = {}
    # Both node sequences run parents before children; where the schema has
    # a metavariable, ``f``'s sequence skips the subtree it binds.
    got = subformulas(f)
    for pat in subformulas(schema):
        node = next(got)
        if type(pat) is Meta:
            if binding.setdefault(pat.name, node) != node:
                return None
            skip = arity(node)
            while skip:
                skip += arity(next(got)) - 1
        elif type(pat) is not type(node) or not arity(pat) and pat != node:
            return None
    return binding


def instantiate(schema: Formula, binding: dict[str, Formula]) -> Formula:
    def visit(node: Formula, *parts: Formula) -> Formula:
        if type(node) is Meta:
            return binding[node.name]
        return type(node)(*parts) if parts else node

    return walk(schema, visit)


def is_taut_instance(f: Formula) -> bool:
    """Propositional tautology after abstracting each maximal modal subformula
    to a fresh atom (equal subformulas share one atom).  Refused with
    ``BudgetError`` above the default valuation budget ``MAX_BITS`` atoms."""
    return taut_valid(f, MAX_BITS)


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    by: str


@dataclass(frozen=True)
class ProofVerdict:
    ok: bool
    line: int | None = None  # 1-based first invalid line
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _parse_refs(parts: list[str], count: int, upto: int) -> list[int] | str:
    if len(parts) != count:
        return "wrong number of line references"
    refs = []
    for part in parts:
        if not part.isdigit() or not 1 <= int(part) <= upto:
            return f"bad line reference {part!r}"
        refs.append(int(part))
    return refs


def check_proof(system: AxiomSystem,
                script: Sequence[ProofLine]) -> ProofVerdict:
    """Validate every line as a tautology instance, a schema instance of the
    system, modus ponens, or replacement from an earlier biconditional."""
    if not script:
        raise ValueError("empty proof script")
    for no, line in enumerate(script, start=1):
        reason = _check_line(system, script, no, line)
        if reason is not None:
            return ProofVerdict(False, no, reason)
    return ProofVerdict(True)


def _check_line(system: AxiomSystem, script: Sequence[ProofLine], no: int,
                line: ProofLine) -> str | None:
    by = line.by.strip()
    if by == "TAUT":
        if not is_taut_instance(line.formula):
            return "not a tautology instance"
        return None
    if by in SCHEMAS:
        if by not in system.schema_names:
            return f"schema {by} is not part of {system.value}"
        if match_schema(SCHEMAS[by], line.formula) is None:
            return f"not an instance of {by}"
        return None
    parts = by.split()
    if parts and parts[0] == "MP":
        refs = _parse_refs(parts[1:], 2, no - 1)
        if isinstance(refs, str):
            return refs
        minor, major = script[refs[0] - 1].formula, script[refs[1] - 1].formula
        if major != Imp(minor, line.formula):
            return "major premise is not (minor -> conclusion)"
        return None
    if parts and parts[0] == "REΔ":
        refs = _parse_refs(parts[1:], 1, no - 1)
        if isinstance(refs, str):
            return refs
        premise = script[refs[0] - 1].formula
        if not isinstance(premise, Iff):
            return "premise is not a biconditional"
        if line.formula != Iff(Delta(premise.left), Delta(premise.right)):
            return "conclusion does not apply Δ to both sides of the premise"
        return None
    return f"unknown justification {by!r}"


def parse_script(raw) -> list[ProofLine]:
    """Proof lines from a decoded JSON array of {"formula": ..., "by": ...};
    anything else is a ``ValueError`` that names the line and the rule."""
    if not isinstance(raw, list):
        raise ValueError("must be a JSON array")
    out = []
    for n, line in enumerate(raw, 1):
        if not isinstance(line, dict):
            raise ValueError(f"line {n} must be a JSON object")
        for key in ("formula", "by"):
            if key not in line:
                raise ValueError(f"line {n}: missing key {key!r}")
            if not isinstance(line[key], str):
                raise ValueError(f"line {n}: {key!r} must be a string")
        out.append(ProofLine(parse(line["formula"]), line["by"]))
    return out


def sample_scripts() -> dict[str, list[ProofLine]]:
    """The derivations shipped with the package, all checkable in system K."""
    from importlib import resources

    out = {}
    root = resources.files(__package__) / "proofs"
    for entry in sorted(root.iterdir()):
        if entry.name.endswith(".json"):
            raw = json.loads(entry.read_text(encoding="utf-8"))
            out[entry.name.removesuffix(".json")] = parse_script(raw)
    return out


# ---------------------------------------------------------------------------
# Bounded audits.

_FRESH = ("p", "q", "r")


def schema_instance(name: str) -> Formula:
    """The schema with distinct fresh atoms substituted for metavariables."""
    binding = {meta: Atom(_FRESH[i])
               for i, meta in enumerate(("phi", "psi", "chi"))}
    return instantiate(SCHEMAS[name], binding)


@dataclass(frozen=True)
class AxiomAudit:
    name: str
    formula: Formula
    valid: bool
    frames_checked: int
    counterexample: tuple[NeighborhoodModel, FrameCheck] | None = None


@dataclass(frozen=True)
class AuditReport:
    system: AxiomSystem
    max_states: int
    axioms: tuple[AxiomAudit, ...]
    negative_witness: tuple[NeighborhoodModel, FrameCheck] | None

    @property
    def ok(self) -> bool:
        return all(a.valid for a in self.axioms)


def _counterexample(f: Formula, max_bits: int, frame: NeighborhoodModel,
                    ) -> tuple[NeighborhoodModel, FrameCheck] | None:
    """The frame and its falsifying valuation for ``f``, or None if valid.
    The frame is an untagged copy: a swept frame's handle holds its whole
    walk."""
    result = frame_valid(frame, f, SemanticsKind.NEW, max_bits)
    return None if result.valid else (replace(frame), result)


def audit_soundness(system: AxiomSystem, max_states: int = 2,
                    max_bits: int = MAX_BITS, jobs: int = 1) -> AuditReport:
    """Sweep every frame of the system's class up to ``max_states`` against a
    fresh-atom instance of each axiom schema.  The report also carries the
    standing negative result: the smallest filter frame (monotone, closed
    under intersections, containing the unit, but not under complements)
    falsifying the ΔEqu instance, showing the equivalence axiom is unsound on
    filters.  ``jobs`` is passed to ``generators.sweep``, and every sweep
    shares one pool; the report is the same for every value."""
    props = frame_class(system.frame_class)
    # both classes are planned before the pool starts
    plan(props, max_states)
    plan(frame_class("filter"), max_states)
    audits = []
    with worker_pool(jobs) as pool:
        for name in system.schema_names:
            instance = schema_instance(name)
            checked, counter = sweep(
                props, max_states,
                partial(_counterexample, instance, max_bits), jobs, pool)
            audits.append(AxiomAudit(name, instance, counter is None, checked,
                                     counter))
        negative = filter_equ_witness(max_states, max_bits, jobs, pool)
    return AuditReport(system, max_states, tuple(audits), negative)


def filter_equ_witness(max_states: int = 1, max_bits: int = MAX_BITS,
                       jobs: int = 1, pool: Executor | None = None,
                       ) -> tuple[NeighborhoodModel, FrameCheck] | None:
    """First filter frame with at most ``max_states`` states falsifying the
    ΔEqu instance, if any.  ``jobs`` and ``pool`` are passed to
    ``generators.sweep``."""
    check = partial(_counterexample, schema_instance("ΔEqu"), max_bits)
    return sweep(frame_class("filter"), max_states, check, jobs, pool)[1]


def countermodel_search(f: Formula, class_name: str, max_states: int = 2,
                        max_bits: int = MAX_BITS, jobs: int = 1,
                        ) -> tuple[NeighborhoodModel, str] | None:
    """A model of the class with at most ``max_states`` states and a state
    falsifying ``f``, or None if the bounded search is exhausted.  Never a
    validity claim.  ``jobs`` is passed to ``generators.sweep``; the model
    found is the same for every value."""
    found = sweep(frame_class(class_name), max_states,
                  partial(_counterexample, f, max_bits), jobs)[1]
    if found is None:
        return None
    frame, result = found
    return frame.with_valuation(result.valuation), result.state
