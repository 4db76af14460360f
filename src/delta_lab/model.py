"""Finite neighborhood and Kripke structures plus frame-property checkers.

States are named; every set of states is a bitmask over the model's fixed
state ordering, so subset sweeps are integer loops.  A frame is a model with
an empty valuation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping


class BudgetError(RuntimeError):
    """An exact sweep would exceed its configured size budget."""


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` as bitmasks, including 0 and ``mask``."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


class FrameProperty(Enum):
    """The neighborhood frame properties checked per state."""

    N = "n"      # contains the unit
    R = "r"      # contains its core
    I = "i"      # closed under intersections
    S = "s"      # closed under supersets (monotonicity)
    C = "c"      # closed under complements
    D = "d"      # complement-free
    T = "t"      # every neighborhood contains its state
    B = "b"
    FOUR = "4"
    FIVE = "5"
    WS = "ws"    # closed under supersets or co-supersets

    @classmethod
    def from_letter(cls, letter: str) -> "FrameProperty":
        for prop in cls:
            if prop.value == letter:
                return prop
        raise ValueError(f"unknown frame property {letter!r}")


# Properties whose clause reads only one state's neighborhood family.
LOCAL_PROPERTIES = frozenset(
    p for p in FrameProperty
    if p not in (FrameProperty.B, FrameProperty.FOUR, FrameProperty.FIVE))

# Composite model classes and the frame classes used in sweeps.
MODEL_CLASSES: dict[str, frozenset[FrameProperty]] = {
    "c-model": frozenset({FrameProperty.C}),
    "monotonic-c": frozenset({FrameProperty.C, FrameProperty.S}),
    "csi": frozenset({FrameProperty.C, FrameProperty.S, FrameProperty.I}),
    "filter": frozenset({FrameProperty.S, FrameProperty.I, FrameProperty.N}),
    "quasi-filter": frozenset({FrameProperty.N, FrameProperty.I,
                               FrameProperty.C, FrameProperty.WS}),
}

FRAME_CLASSES: dict[str, frozenset[FrameProperty]] = {
    "all": frozenset(),
    "c": MODEL_CLASSES["c-model"],
    "cs": MODEL_CLASSES["monotonic-c"],
    "csi": MODEL_CLASSES["csi"],
    "filter": MODEL_CLASSES["filter"],
    "quasi-filter": MODEL_CLASSES["quasi-filter"],
}


def frame_class(name: str) -> frozenset[FrameProperty]:
    """Resolve a frame-class name, a composite class name, or a property list
    like ``"n,i,c"`` to a property set."""
    if name in FRAME_CLASSES:
        return FRAME_CLASSES[name]
    if name in MODEL_CLASSES:
        return MODEL_CLASSES[name]
    return frozenset(FrameProperty.from_letter(part.strip())
                     for part in name.split(",") if part.strip())


@dataclass(frozen=True)
class NeighborhoodModel:
    """States, a neighborhood family per state, and a valuation.

    ``neighborhoods[i]`` is the set of neighborhoods of state ``i``, each a
    bitmask over the state ordering.  ``valuation`` maps atom names to
    bitmasks.  Treat instances as immutable: share them freely.
    """

    states: tuple[str, ...]
    neighborhoods: tuple[frozenset[int], ...]
    valuation: dict[str, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def full(self) -> int:
        return (1 << len(self.states)) - 1

    def index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise ValueError(f"unknown state {name!r}") from None

    def complement(self, mask: int) -> int:
        return self.full & ~mask

    def atom_mask(self, atom: str) -> int:
        return self.valuation.get(atom, 0)

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(sorted(self.states[i] for i in bits(mask)))

    def frame(self) -> "NeighborhoodModel":
        return replace(self, valuation={})

    def with_valuation(self, valuation: Mapping[str, int]) -> "NeighborhoodModel":
        return replace(self, valuation=dict(valuation))

    @classmethod
    def from_names(cls, states: Iterable[str],
                   neighborhoods: Mapping[str, Iterable[Iterable[str]]],
                   valuation: Mapping[str, Iterable[str]] | None = None,
                   ) -> "NeighborhoodModel":
        order = tuple(states)
        pos = {name: i for i, name in enumerate(order)}
        if len(pos) != len(order):
            raise ValueError("duplicate state names")

        def to_mask(group: Iterable[str]) -> int:
            out = 0
            for name in group:
                if name not in pos:
                    raise ValueError(f"unknown state {name!r}")
                out |= 1 << pos[name]
            return out

        fams = []
        for name in order:
            fams.append(frozenset(to_mask(x) for x in neighborhoods.get(name, ())))
        val = {p: to_mask(group) for p, group in (valuation or {}).items()}
        return cls(order, tuple(fams), val)


@dataclass(frozen=True)
class KripkeModel:
    """States, a successor bitmask per state, and a valuation."""

    states: tuple[str, ...]
    succ: tuple[int, ...]
    valuation: dict[str, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def full(self) -> int:
        return (1 << len(self.states)) - 1

    def index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise ValueError(f"unknown state {name!r}") from None

    def complement(self, mask: int) -> int:
        return self.full & ~mask

    def atom_mask(self, atom: str) -> int:
        return self.valuation.get(atom, 0)

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(sorted(self.states[i] for i in bits(mask)))

    def frame(self) -> "KripkeModel":
        return replace(self, valuation={})

    def with_valuation(self, valuation: Mapping[str, int]) -> "KripkeModel":
        return replace(self, valuation=dict(valuation))

    @classmethod
    def from_names(cls, states: Iterable[str],
                   successors: Mapping[str, Iterable[str]],
                   valuation: Mapping[str, Iterable[str]] | None = None,
                   ) -> "KripkeModel":
        order = tuple(states)
        pos = {name: i for i, name in enumerate(order)}
        if len(pos) != len(order):
            raise ValueError("duplicate state names")

        def to_mask(group: Iterable[str]) -> int:
            out = 0
            for name in group:
                if name not in pos:
                    raise ValueError(f"unknown state {name!r}")
                out |= 1 << pos[name]
            return out

        succ = tuple(to_mask(successors.get(name, ())) for name in order)
        val = {p: to_mask(group) for p, group in (valuation or {}).items()}
        return cls(order, succ, val)


def _all_supersets_in(family: frozenset[int], x: int, full: int) -> bool:
    rest = full & ~x
    return all((x | extra) in family for extra in submasks(rest))


def family_satisfies(prop: FrameProperty, family: frozenset[int],
                     full: int, state: int) -> bool:
    """Clause of a local property for one state's neighborhood family."""
    if prop is FrameProperty.N:
        return full in family
    if prop is FrameProperty.R:
        core = full  # intersection of the empty family is the whole domain
        for x in family:
            core &= x
        return core in family
    if prop is FrameProperty.I:
        return all((x & y) in family for x in family for y in family)
    if prop is FrameProperty.S:
        return all(_all_supersets_in(family, x, full) for x in family)
    if prop is FrameProperty.C:
        return all((full & ~x) in family for x in family)
    if prop is FrameProperty.D:
        return all((full & ~x) not in family for x in family)
    if prop is FrameProperty.T:
        return all(x >> state & 1 for x in family)
    if prop is FrameProperty.WS:
        # forall Y,Z: X|Y in N or (S\X)|Z in N  <=>  all supersets of X are
        # in N, or all supersets of S\X are (a missing witness on each side
        # would otherwise violate the disjunction at that (Y,Z) pair).
        return all(_all_supersets_in(family, x, full)
                   or _all_supersets_in(family, full & ~x, full)
                   for x in family)
    raise ValueError(f"property ({prop.value}) is not per-family")


def has_property(m: NeighborhoodModel, prop: FrameProperty) -> bool:
    """Whether every state's neighborhood family satisfies ``prop``."""
    full = m.full
    if prop in LOCAL_PROPERTIES:
        return all(family_satisfies(prop, fam, full, s)
                   for s, fam in enumerate(m.neighborhoods))
    if prop is FrameProperty.B:
        for s in range(m.n):
            for x in range(1 << m.n):
                if not x >> s & 1:
                    continue
                derived = mask_of(u for u in range(m.n)
                                  if (full & ~x) not in m.neighborhoods[u])
                if derived not in m.neighborhoods[s]:
                    return False
        return True
    if prop is FrameProperty.FOUR:
        for s in range(m.n):
            for x in m.neighborhoods[s]:
                derived = mask_of(u for u in range(m.n)
                                  if x in m.neighborhoods[u])
                if derived not in m.neighborhoods[s]:
                    return False
        return True
    if prop is FrameProperty.FIVE:
        for s in range(m.n):
            for x in range(1 << m.n):
                if x in m.neighborhoods[s]:
                    continue
                derived = mask_of(u for u in range(m.n)
                                  if x not in m.neighborhoods[u])
                if derived not in m.neighborhoods[s]:
                    return False
        return True
    raise ValueError(f"unknown frame property {prop!r}")


def classify(m: NeighborhoodModel) -> set[str]:
    """The composite classes whose defining property sets all hold of ``m``."""
    verdicts = {}

    def check(prop: FrameProperty) -> bool:
        if prop not in verdicts:
            verdicts[prop] = has_property(m, prop)
        return verdicts[prop]

    return {name for name, props in MODEL_CLASSES.items()
            if all(check(p) for p in props)}


def validate(m: NeighborhoodModel | KripkeModel) -> list[str]:
    """All structural violations; an empty list means the model is valid."""
    problems = []
    if not m.states:
        problems.append("empty state set")
    if len(set(m.states)) != len(m.states):
        problems.append("duplicate state names")
    full = m.full
    if isinstance(m, NeighborhoodModel):
        if len(m.neighborhoods) != len(m.states):
            problems.append("neighborhood function is not total on states")
        for i, fam in enumerate(m.neighborhoods):
            for x in fam:
                if x & ~full:
                    problems.append(
                        f"neighborhood of {m.states[i]!r} contains an unknown state")
    else:
        if len(m.succ) != len(m.states):
            problems.append("successor map is not total on states")
        for i, r in enumerate(m.succ):
            if r & ~full:
                problems.append(
                    f"successors of {m.states[i]!r} reference an unknown state")
    for atom, mask in m.valuation.items():
        if mask & ~full:
            problems.append(f"valuation of {atom!r} references an unknown state")
    return problems
