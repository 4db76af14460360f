"""Finite neighborhood and Kripke structures plus frame-property checkers.

States are named; every set of states is a bitmask over the model's fixed
state ordering, so subset sweeps are integer loops.  A frame is a model with
an empty valuation.  Both model types share one base class, ``Model``.

Property checks are polynomial in the families' size: (s) asks X ∪ {i} ∈ N
for each X ∈ N and i ∉ X; (ws) reads N's upward core, built largest first by
the same one-step rule; (b), (4), (5) read which states hold each set as a
neighborhood.  ``has_property`` computes each verdict once per model, and
``first_failing`` its answer once per (model, class).  A local property's
verdict on a family is computed once and kept in a table per (property,
size), or per (property, size, state) for (t), keyed by the family object
itself, which sweep frames share.

A frame of ``generators``' product sweep belongs to a *run*, the frames that
differ only in the last state's family F_j.  ``_run_props`` answers for the
whole run with a mask whose bit j is frame j's verdict.  A local property
ANDs the head states' verdicts with a mask of the last state's verdicts over
the list, kept for every run of the sweep.  (b), (4) and (5) are written
once, as a bit-parallel loop over their clauses (s, x): sel[y] has bit j set
iff y ∈ F_j, each clause reads holders[z] (the states that have z as a
neighborhood), and its two candidate holder sets, with or without the last
state, pick the frames of sel[z] and the rest, in O(n·2^n) per run.
``has_property`` on one frame runs the same code on its run of one.

Quasi-filter normal form: a family N has (n), (i), (c), (ws) iff N = Q_R =
{X : R ⊆ X or X ∩ R = ∅} for R = {t : {t} ∉ N}.  (n), (c), (i) make N a
Boolean subalgebra of 2^S; (ws) on each atom leaves at most one atom with two
or more states, and R is that atom (∅ if there is none); every Q_R has all
four properties.  So ``first_failing(m, "quasi-filter")`` tests each family
against its Q_R in O(|N(s)|) and walks the properties only on a rejected
model, to name the one that fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar


_M = TypeVar("_M", bound="Model")

#: Instance ``__dict__`` key of a model's memoised verdicts: property ->
#: bool, and composite class name -> ``first_failing``'s answer.
_VERDICTS = "_verdicts"
_UNKNOWN = object()
#: Instance ``__dict__`` key of a swept frame's (run, index) handle.
_RUN = "_run"


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

    # Identity hashing, in C: members are singletons, and ``Enum``'s own
    # ``__hash__`` hashes the name in Python on every verdict lookup.
    __hash__ = object.__hash__

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

# Each composite class's properties in declaration order, the order in
# which ``first_failing`` checks them.
_DECLARED_ORDER = {name: tuple(p for p in FrameProperty if p in props)
                   for name, props in MODEL_CLASSES.items()}

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


class Model:
    """What both model types share: states in a fixed order, one relation
    entry per state, and a valuation from atoms to bitmasks.  Property
    verdicts live in the instance ``__dict__``, outside ``==`` and pickling.
    So does the ``_run`` handle that ``generators`` gives each frame of a
    product sweep: the frame's run (the frames that differ only in the last
    state's family) and its index there, which ``definability.check_frame``
    and ``semantics.frame_valid`` read to answer from the run's masks.
    ``replace`` and ``with_valuation`` build untagged models.
    """

    states: tuple[str, ...]
    valuation: dict[str, int]

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

    def frame(self: _M) -> _M:
        return replace(self, valuation={})

    def with_valuation(self: _M, valuation: Mapping[str, int]) -> _M:
        return replace(self, valuation=dict(valuation))

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop(_VERDICTS, None)
        state.pop(_RUN, None)
        return state

    @classmethod
    def from_names(cls: type[_M], states: Iterable[str],
                   relation: Mapping[str, Any],
                   valuation: Mapping[str, Iterable[str]] | None = None) -> _M:
        """A model from state names; ``_entry`` turns each state's entry in
        ``relation`` (empty if missing) into its relation value."""
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

        to_mask(relation)  # refuses an entry keyed by an unknown state
        rel = tuple(cls._entry(relation.get(name, ()), to_mask) for name in order)
        val = {p: to_mask(group) for p, group in (valuation or {}).items()}
        return cls(order, rel, val)


@dataclass(frozen=True)
class NeighborhoodModel(Model):
    """States, a neighborhood family per state, and a valuation.

    ``neighborhoods[i]`` is the set of neighborhoods of state ``i``, each a
    bitmask over the state ordering.  ``valuation`` maps atom names to
    bitmasks.  Treat instances as immutable: share them freely.
    """

    states: tuple[str, ...]
    neighborhoods: tuple[frozenset[int], ...]
    valuation: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def _entry(groups: Iterable[Iterable[str]],
               to_mask: Callable[[Iterable[str]], int]) -> frozenset[int]:
        return frozenset(map(to_mask, groups))


@dataclass(frozen=True)
class KripkeModel(Model):
    """States, a successor bitmask per state, and a valuation."""

    states: tuple[str, ...]
    succ: tuple[int, ...]
    valuation: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def _entry(group: Iterable[str],
               to_mask: Callable[[Iterable[str]], int]) -> int:
        return to_mask(group)


def _steps_in(family: set[int] | frozenset[int], x: int, full: int) -> bool:
    """Whether every one-state extension X ∪ {i} of ``x`` lies in ``family``."""
    return all((x | 1 << i) in family for i in bits(full & ~x))


def _upward_core(family: frozenset[int], full: int) -> set[int]:
    """The members all of whose supersets are members.  Largest first, a
    member is in the core iff each of its one-state extensions is."""
    core: set[int] = set()
    for x in sorted(family, key=int.bit_count, reverse=True):
        if _steps_in(core, x, full):
            core.add(x)
    return core


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
        # Upward closed iff closed under adding one state at a time.
        return all(_steps_in(family, x, full) for x in family)
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
        core = _upward_core(family, full)
        return all(x in core or (full & ~x) in core for x in family)
    raise ValueError(f"property ({prop.value}) is not per-family")


def qf_relation(family: frozenset[int], full: int) -> int:
    """R of a family: the states t whose singleton {t} is not a member.  On
    a quasi-filter family it is the successor set of the Kripke reading."""
    return sum(1 << t for t in bits(full) if 1 << t not in family)


def qf_family(r: int, full: int) -> frozenset[int]:
    """Q_R = {X : R ⊆ X or X ∩ R = ∅}: each subset of S∖R taken with and
    without R.  Members go in ascending order, as a filter over all subsets
    would add them, so the frozenset iterates in that filter's order."""
    low = list(submasks(full & ~r))
    low.reverse()
    if r:
        low = sorted(low + [y | r for y in low])
    return frozenset(low)


def is_qf_family(family: frozenset[int], full: int) -> bool:
    """Whether ``family`` equals Q_R for R = ``qf_relation(family, full)``,
    in O(|family|): every member meets R in ∅ or R, and the count is
    |Q_R| = 2^(|S∖R| + 1), or 2^|S| when R = ∅."""
    r = qf_relation(family, full)
    size = 1 << (full.bit_count() - r.bit_count() + (r != 0))
    return len(family) == size and all(x & r in (0, r) for x in family)


def _verdicts_of(m: Model) -> dict:
    verdicts = m.__dict__.get(_VERDICTS)
    if verdicts is None:
        verdicts = m.__dict__[_VERDICTS] = {}
    return verdicts


def has_property(m: NeighborhoodModel, prop: FrameProperty) -> bool:
    """Whether every state's neighborhood family satisfies ``prop``.

    Each verdict is computed once per model instance and kept on it."""
    verdicts = _verdicts_of(m)
    verdict = verdicts.get(prop)
    if verdict is None:
        verdict = verdicts[prop] = _holds(m, prop)
    return verdict


# Verdicts of local properties across models: (property, full, state for
# (t) and -1 otherwise) -> {family: verdict}, found by the family's cached
# hash.  Sweep frames share their family objects, so a family's verdict is
# computed once per sweep rather than once per frame.  The table is kept
# across models because bisimulation's fresh random models repeat
# value-equal families: without it a bisim workload round makes 955
# ``family_satisfies`` calls instead of 51-101, and its median round takes
# 80 ms instead of 69 ms (seed 1, 2 vCPU, Python 3.11).  The tables are
# emptied when they hold ``_LOCAL_LIMIT`` entries in all, which covers every
# 3-state family (256, or 768 for (t)); the families that random larger
# models leave in them stay alive, so the limit is small.
_local_verdicts: dict[tuple[FrameProperty, int, int],
                      dict[frozenset[int], bool]] = {}
_local_size = 0
_LOCAL_LIMIT = 1 << 10


def _local_table(prop: FrameProperty, full: int, state: int
                 ) -> dict[frozenset[int], bool]:
    key = (prop, full, state)
    table = _local_verdicts.get(key)
    if table is None:
        table = _local_verdicts[key] = {}
    return table


def _local_verdict(table: dict[frozenset[int], bool], prop: FrameProperty,
                   family: frozenset[int], full: int, state: int) -> bool:
    """``family_satisfies``, kept in ``table`` (a table of
    ``_local_verdicts``)."""
    global _local_size
    if _local_size >= _LOCAL_LIMIT:
        for other in _local_verdicts.values():
            other.clear()
        _local_size = 0
    verdict = table[family] = family_satisfies(prop, family, full, state)
    _local_size += 1
    return verdict


def _verdicts(prop: FrameProperty, full: int, state: int,
              families: tuple[frozenset[int], ...]) -> int:
    """Bit j set iff ``families[j]`` satisfies the local property at
    ``state``, each verdict read from or kept in ``_local_verdicts``."""
    table = _local_table(prop, full, state if prop is FrameProperty.T else -1)
    mask = 0
    for j, fam in enumerate(families):
        verdict = table.get(fam)
        if verdict is None:
            verdict = _local_verdict(table, prop, fam, full, state)
        if verdict:
            mask |= 1 << j
    return mask


def _all_hold(prop: FrameProperty, fams: tuple[frozenset[int], ...],
              full: int) -> bool:
    """Whether ``fams[s]`` satisfies the local property at s for every s,
    with the verdicts of ``_local_verdicts``."""
    at_state = prop is FrameProperty.T
    table = None if at_state else _local_table(prop, full, -1)
    for s, fam in enumerate(fams):
        if at_state:
            table = _local_table(prop, full, s)
        verdict = table.get(fam)
        if verdict is None:
            verdict = _local_verdict(table, prop, fam, full, s)
        if not verdict:
            return False
    return True


def _holds(m: NeighborhoodModel, prop: FrameProperty) -> bool:
    """The verdict on one frame.  (b), (4) and (5) read it as a run of one,
    with the last state's family as the whole list."""
    fams = m.neighborhoods
    if prop in LOCAL_PROPERTIES:
        return _all_hold(prop, fams, m.full)
    return not fams or _mask(prop, fams[:-1], fams[-1:], {}) == 1


def _run_props(run, prop: FrameProperty) -> int:
    """Bit j set iff frame j of a ``generators._Run`` has ``prop``."""
    return _mask(prop, run.head, run.families, run.shared)


# Key of the per-subset selectors in a run's ``shared`` dict.
_SEL = "sel"


def _mask(prop: FrameProperty, head: tuple[frozenset[int], ...],
          families: tuple[frozenset[int], ...], shared: dict) -> int:
    """Bit j set iff the frame with the families ``head`` at states 0..n−2
    and ``families[j]`` at state n−1 has ``prop``.  ``shared`` keeps what
    depends on ``families`` alone, for every head that shares the list: the
    last state's verdicts of a local property, under the property, and the
    selectors of (b), (4) and (5)."""
    full = (1 << len(head) + 1) - 1
    if prop in LOCAL_PROPERTIES:
        if not _all_hold(prop, head, full):
            return 0
        last = shared.get(prop)
        if last is None:
            last = shared[prop] = _verdicts(prop, full, len(head), families)
        return last
    sel = shared.get(_SEL)
    if sel is None:
        # sel[y]: bit j set iff y ∈ families[j]
        sel = shared[_SEL] = [0] * (full + 1)
        for j, fam in enumerate(families):
            for y in fam:
                sel[y] |= 1 << j
    return _clauses(prop, head, sel, full, (1 << len(families)) - 1)


def _clauses(prop: FrameProperty, head: tuple[frozenset[int], ...],
             sel: list[int], full: int, ones: int) -> int:
    """(b), (4) or (5) over a run, bit-parallel: ``ones`` has a bit per
    frame and ``sel[y]`` the frames whose last family holds y.  Each clause
    (s, x) asks whether a set built from holders[z], the states that have z
    as a neighborhood, is in N(s).  The head's holders are fixed; frame j
    adds the last state iff z ∈ F_j, so the clause reads target ``t1`` on
    the frames of ``sel[z]`` and ``t0`` on the rest."""
    if prop not in (FrameProperty.B, FrameProperty.FOUR, FrameProperty.FIVE):
        raise ValueError(f"unknown frame property {prop!r}")
    top = 1 << len(head)
    holders = [0] * (full + 1)
    for u, fam in enumerate(head):
        for x in fam:
            holders[x] |= 1 << u
    # rows[s][y]: the frames whose N(s) holds y
    rows = [[ones if y in fam else 0 for y in range(full + 1)]
            for fam in head]
    rows.append(sel)
    ok = ones
    for s, row in enumerate(rows):
        for x in range(full + 1):
            if prop is FrameProperty.B:
                # s ∈ x → S ∖ holders[S ∖ x] ∈ N(s)
                when = ones if x >> s & 1 else 0
                z = full ^ x
                t0 = full ^ holders[z]
                t1 = t0 ^ top
            elif prop is FrameProperty.FOUR:
                # x ∈ N(s) → holders[x] ∈ N(s)
                when, z = row[x], x
                t0 = holders[x]
                t1 = t0 | top
            else:
                # x ∉ N(s) → S ∖ holders[x] ∈ N(s)
                when, z = ones ^ row[x], x
                t0 = full ^ holders[x]
                t1 = t0 ^ top
            if when:
                has = sel[z]
                ok &= ((ones ^ when) | (has & row[t1])
                       | ((ones ^ has) & row[t0]))
                if not ok:
                    return 0
    return ok


def classify(m: NeighborhoodModel) -> set[str]:
    """The composite classes whose defining property sets all hold of ``m``."""
    return {name for name, props in MODEL_CLASSES.items()
            if all(has_property(m, p) for p in props)}


def first_failing(m: NeighborhoodModel, class_name: str
                  ) -> FrameProperty | None:
    """The first property of the composite class, in ``FrameProperty``
    declaration order, that fails on ``m``; None if ``m`` is in the class.
    The answer is kept with ``m``'s verdicts, under the class name.

    A quasi-filter model is first recognised by its normal form, which sets
    all four verdicts at once; only a rejected model walks the properties,
    to name the one that fails."""
    verdicts = _verdicts_of(m)
    failing = verdicts.get(class_name, _UNKNOWN)
    if failing is _UNKNOWN:
        props = _DECLARED_ORDER[class_name]
        if class_name == "quasi-filter" and all(
                is_qf_family(fam, m.full) for fam in m.neighborhoods):
            verdicts.update(dict.fromkeys(props, True))
        failing = verdicts[class_name] = next(
            (p for p in props if not has_property(m, p)), None)
    return failing


def validate(m: Model) -> list[str]:
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
                    problems.append(f"neighborhood of {_entry(m, i)} "
                                    f"contains an unknown state")
    else:
        if len(m.succ) != len(m.states):
            problems.append("successor map is not total on states")
        for i, r in enumerate(m.succ):
            if r & ~full:
                problems.append(f"successors of {_entry(m, i)} "
                                f"reference an unknown state")
    for atom, mask in m.valuation.items():
        if mask & ~full:
            problems.append(f"valuation of {atom!r} references an unknown state")
    return problems


def _entry(m: Model, i: int) -> str:
    """Relation entry i by its state's name, or by its index if it is past
    the last state."""
    return repr(m.states[i]) if i < len(m.states) else f"entry {i}"
