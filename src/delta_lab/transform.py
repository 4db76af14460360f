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
"""

from __future__ import annotations

from dataclasses import replace

from .model import (BudgetError, KripkeModel, NeighborhoodModel, first_failing,
                    qf_family, qf_relation)

#: Largest state count for which ``qf_variation`` builds families: Q_R has
#: up to 2^n members per state.
MAX_SUBSET_STATES = 16


def c_variation(m: NeighborhoodModel) -> NeighborhoodModel:
    """Close each family under complements: X is kept iff X or S\\X was present."""
    if not isinstance(m, NeighborhoodModel):
        raise ValueError("c-variation needs a neighborhood model")
    full = m.full
    fams = tuple(fam | frozenset(full & ~x for x in fam)
                 for fam in m.neighborhoods)
    return replace(m, neighborhoods=fams)


def qf_variation(k: KripkeModel) -> NeighborhoodModel:
    """Neighborhoods of s are the X with R(s) inside X or disjoint from X."""
    if not isinstance(k, KripkeModel):
        raise ValueError("qf-variation needs a Kripke model")
    if k.n > MAX_SUBSET_STATES:
        raise BudgetError(
            f"qf-variation builds up to 2^{k.n} neighborhoods per state, "
            f"limit is 2^{MAX_SUBSET_STATES}")
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
