"""Model conversions between presentations.

``c_variation`` closes every neighborhood family under complements so the new
semantics on the output matches the old semantics on the input.
``qf_variation`` turns a Kripke model into the pointwise-equivalent
quasi-filter model: N(s) = Q_R(s) = {X : R(s) ⊆ X or X ∩ R(s) = ∅}.
``qf_to_kripke`` inverts that move for finite quasi-filter models, reading
R(s) back as the states t with {t} ∉ N(s).  Both go through the normal form
in ``model`` (``qf_family``, ``qf_relation``), and ``qf_to_kripke`` is gated
by the O(|N(s)|) per state recogniser in ``model.first_failing``.  All three
keep state names, ordering and valuation.

``qf_variation`` is bounded by ``generators.check_members``, the rule that
bounds random frames: Q_R has 2^n members when R(s) is empty, so its families
could hold n·2^n members of up to n states each.  It builds up to 16 states
and refuses from 17 with ``BudgetError``.
"""

from __future__ import annotations

from dataclasses import replace

from .generators import check_members
from .model import (KripkeModel, NeighborhoodModel, first_failing, qf_family,
                    qf_relation)


def c_variation(m: NeighborhoodModel) -> NeighborhoodModel:
    """Close each family under complements: X is kept iff X or S\\X was present."""
    if not isinstance(m, NeighborhoodModel):
        raise ValueError("c-variation needs a neighborhood model")
    full = m.full
    fams = tuple(fam | frozenset(full & ~x for x in fam)
                 for fam in m.neighborhoods)
    return replace(m, neighborhoods=fams)


def qf_variation(k: KripkeModel) -> NeighborhoodModel:
    """Neighborhoods of s are the X with R(s) inside X or disjoint from X.
    Refused by ``check_members``, from 17 states."""
    if not isinstance(k, KripkeModel):
        raise ValueError("qf-variation needs a Kripke model")
    check_members(k.n, "qf-variation")
    fams = tuple(qf_family(r, k.full) for r in k.succ)
    return NeighborhoodModel(k.states, fams, dict(k.valuation))


def qf_to_kripke(m: NeighborhoodModel) -> KripkeModel:
    """Extract the pointwise-equivalent Kripke model of a finite quasi-filter
    model: s sees t iff {t} is not a neighborhood of s.  (n) puts S in N(s),
    so every t lies in some neighborhood of s.

    Rejects models outside the quasi-filter class, naming the failing
    property; the construction is only correct under (n), (i), (c), (ws).
    """
    if not isinstance(m, NeighborhoodModel):
        raise ValueError("qf-to-kripke needs a neighborhood model")
    prop = first_failing(m, "quasi-filter")
    if prop is not None:
        raise ValueError(f"not a quasi-filter model: property ({prop.value}) fails")
    succ = tuple(qf_relation(fam, m.full) for fam in m.neighborhoods)
    return KripkeModel(m.states, succ, dict(m.valuation))
