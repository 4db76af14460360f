"""Model conversions between presentations.

``c_variation`` closes every neighborhood family under complements so the new
semantics on the output matches the old semantics on the input.
``qf_variation`` turns a Kripke model into the pointwise-equivalent
quasi-filter model.  ``qf_to_kripke`` inverts that move for finite
quasi-filter models.  All three keep state names, ordering and valuation.
"""

from __future__ import annotations

from dataclasses import replace

from .model import BudgetError, KripkeModel, NeighborhoodModel, first_failing

#: Largest state count for which per-state subset sweeps stay exact here.
MAX_SUBSET_STATES = 16


def c_variation(m: NeighborhoodModel) -> NeighborhoodModel:
    """Close each family under complements: X is kept iff X or S\\X was present."""
    full = m.full
    fams = tuple(fam | frozenset(full & ~x for x in fam)
                 for fam in m.neighborhoods)
    return replace(m, neighborhoods=fams)


def qf_variation(k: KripkeModel) -> NeighborhoodModel:
    """Neighborhoods of s are the X with R(s) inside X or disjoint from X."""
    if k.n > MAX_SUBSET_STATES:
        raise BudgetError(
            f"qf-variation sweeps 2^{k.n} subsets per state, limit is 2^{MAX_SUBSET_STATES}")
    fams = []
    for r in k.succ:
        fams.append(frozenset(x for x in range(k.full + 1)
                              if r & x == r or r & x == 0))
    return NeighborhoodModel(k.states, tuple(fams), dict(k.valuation))


def qf_to_kripke(m: NeighborhoodModel) -> KripkeModel:
    """Extract the pointwise-equivalent Kripke model of a finite quasi-filter
    model: s sees t iff t lies in some neighborhood of s and {t} is not one.

    Rejects models outside the quasi-filter class, naming the failing
    property; the construction is only correct under (n), (i), (c), (ws).
    """
    prop = first_failing(m, "quasi-filter")
    if prop is not None:
        raise ValueError(f"not a quasi-filter model: property ({prop.value}) fails")
    succ = []
    for fam in m.neighborhoods:
        reachable = 0
        for x in fam:
            reachable |= x
        singled = sum(1 << t for t in range(m.n) if (1 << t) in fam)
        succ.append(reachable & ~singled)
    return KripkeModel(m.states, tuple(succ), dict(m.valuation))
