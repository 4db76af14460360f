"""Finite neighborhood and Kripke structures plus frame-property checkers.

States are named; every set of states is a bitmask over the model's fixed
state ordering, so subset sweeps are integer loops.  A frame is a model with
an empty valuation.  Both model types share one base class, ``Model``.

Property checks are polynomial in the families' size: (s) asks X ∪ {i} ∈ N
for each X ∈ N and i ∉ X; (ws) reads N's upward core, built largest first by
the same one-step rule.  Models keep no verdicts: a verdict is a function of
the families, cached per family value.  A local property's verdict on a
family is kept in a table per (property, size), or per (property, size,
state) for (t), and a composite class's in a table per (class, size).
Sweep frames share their family objects, and fresh models repeat
value-equal families.

(b), (4) and (5) read more than one state's family.  Each is the frame
condition that a modal axiom defines on neighborhood frames, where □φ holds
at s iff φ's extension is in N(s) (Chellas, *Modal Logic: An
Introduction*, 1980, ch. 7-9; Pacuit, *Neighborhood Semantics for Modal
Logic*, 2017), so each is decided as the frame validity of that axiom, its
*correspondent* (``CORRESPONDENTS``), under ``new``, by ``semantics``' one
evaluator.  □ is ``B``, which reads N(s) under both neighborhood semantics.

A frame of ``generators``' product sweep belongs to a *run*, the frames that
share the leading states' families and vary the r trailing states, frame j
taking entry d_t of trailing list t for the mixed-radix digits d_t of j.
``_mask`` answers a local property for the whole run with a mask whose bit
j is frame j's verdict, from ``_local_mask``: the head states' verdicts
ANDed with the trailing states' mask over their lists, kept for every run
of the sweep.  ``semantics`` reads the same rule for formulas of modal
depth at most 1, through the columns of its walk memos, and builds the
trailing states' selectors of its deeper passes with it, one V-bit block
per frame where a verdict takes one bit; the mask of (b), (4) or (5) is
the run's validity mask of its correspondent (``semantics._run_props``).
A single frame is a run of one with no trailing state: ``has_property``
reads a local property from the same ``_mask`` as a swept run does.

Quasi-filter normal form: a family N has (n), (i), (c), (ws) iff N = Q_R =
{X : R ⊆ X or X ∩ R = ∅} for R = {t : {t} ∉ N}.  (n), (c), (i) make N a
Boolean subalgebra of 2^S; (ws) on each atom leaves at most one atom with two
or more states, and R is that atom (∅ if there is none); every Q_R has all
four properties.  So ``first_failing(m, "quasi-filter")`` tests each family
against its Q_R in O(|N(s)|) and walks the properties only on a rejected
model, to name the one that fails.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import (Any, Callable, Hashable, Iterable, Iterator, Mapping,
                    TypeVar)

from .formula import Formula, parse


_M = TypeVar("_M", bound="Model")

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


# The modal axioms whose frame validity under ``new`` is (b), (4) and (5):
# p → □◇p, □p → □□p and ◇p → □◇p, with ◇ = ~□~ and □ written ``B``.
CORRESPONDENTS: dict[FrameProperty, Formula] = {
    FrameProperty.B: parse("p -> B ~B ~p"),
    FrameProperty.FOUR: parse("B p -> B B p"),
    FrameProperty.FIVE: parse("~B p -> B ~B p"),
}

# Properties whose clause reads only one state's neighborhood family.
LOCAL_PROPERTIES = frozenset(FrameProperty) - CORRESPONDENTS.keys()

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
    entry per state, and a valuation from atoms to bitmasks.  A model keeps
    no verdicts: ``has_property`` and ``first_failing`` read them from
    tables keyed by family value.  The one entry of the instance
    ``__dict__`` besides the fields, outside ``==`` and pickling, is the
    ``_run`` handle that ``generators`` gives each frame of a product
    sweep: the frame's run (the frames that differ only in the trailing
    states' families) and its index there, which
    ``definability.check_frame`` and ``semantics.frame_valid`` read to
    answer from the run's masks.  A swept frame's dict holds only its
    handle until a field is read: ``__getattr__``, reached only for a name
    missing from the instance dict, then writes all three fields from the
    run, so a frame that a run mask answers builds none of them.
    Pickling, ``copy``, ``replace`` and ``with_valuation`` build untagged
    models.
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

    def __getattr__(self, name: str) -> Any:
        fields = self.__dict__
        handle = fields.get(_RUN)
        if handle is None or name not in {"states", "neighborhoods",
                                          "valuation"}:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}", name=name, obj=self)
        run, index = handle
        fields["states"] = run.names
        fields["neighborhoods"] = run.head + run.tails[index]
        fields["valuation"] = {}
        return fields[name]

    def __getstate__(self) -> dict:
        self.states  # a swept frame writes its fields on the first read
        state = dict(self.__dict__)
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


def has_property(m: NeighborhoodModel, prop: FrameProperty) -> bool:
    """Whether ``m`` has ``prop``.  A local property reads the mask of ``m``
    as a run of one frame, with no trailing state, from each family's cached
    verdict.  (b), (4) and (5) are the frame validity of their
    correspondent under ``new``, a one-atom sweep of 2^n valuations, under
    the default valuation budget ``semantics.MAX_BITS``: a frame of more
    than 24 states is refused with ``BudgetError``."""
    if prop in LOCAL_PROPERTIES:
        return _mask(prop, m.neighborhoods, (), {}) == 1
    from . import semantics  # it imports this module
    return semantics._program_valid(
        m, semantics._CORRESPONDENTS[prop], semantics.SemanticsKind.NEW,
        semantics.MAX_BITS).valid


@functools.lru_cache(maxsize=1 << 10)
def _family_verdict(prop: FrameProperty, family: frozenset[int], full: int,
                    state: int) -> bool:
    """``family_satisfies``, kept across models; ``state`` is -1 but for
    (t).  Sweep frames share their family objects, whose hashes are cached,
    so a family's verdict is computed once per sweep rather than once per
    frame: without the cache the sweep workload's per-row best times sum
    3-4% higher (2 vCPU, Python 3.11.7, both versions in one process,
    against 0.4% between two copies of one).  The bound covers every
    3-state family (256, or 768 for (t)); the families that random larger
    models leave in it stay alive, so the bound is small."""
    return family_satisfies(prop, family, full, state)


def _local_mask(holds: Callable[[frozenset[int], int], Any],
                head: tuple[frozenset[int], ...],
                lists: tuple[tuple[frozenset[int], ...], ...], shared: dict,
                key: Hashable, width: int = 1) -> int:
    """The run mask of a local verdict: block j, the ``width`` bits from
    bit j·width, is all ones iff ``holds(fam, s)`` is true for every state
    s and its family in frame j, the head's and the trailing states' (entry
    d_t of list t, for the mixed-radix digits d_t of j with the last list
    least significant), and all zeros otherwise.  A property or a formula
    takes one bit per frame (``width`` 1); ``semantics._passes`` builds its
    selectors with one V-bit block per frame.  The trailing states' mask
    depends on the lists alone, so ``shared`` keeps it under ``key`` for
    every head that shares them; the head's verdicts are fixed for the run.
    The mask is built from the last list up: the frames of an entry of list
    t repeat the mask of the lists after it, ``size`` bits, once for each
    entry that holds."""
    tail = shared.get(key)
    if tail is None:
        tail, size = (1 << width) - 1, width
        s = len(head) + len(lists)
        for fams in reversed(lists):
            s -= 1
            tail *= sum(1 << i * size for i, fam in enumerate(fams)
                        if holds(fam, s))
            size *= len(fams)
        shared[key] = tail
    for s, fam in enumerate(head):
        if not holds(fam, s):
            return 0
    return tail


def _mask(prop: FrameProperty, head: tuple[frozenset[int], ...],
          lists: tuple[tuple[frozenset[int], ...], ...], shared: dict) -> int:
    """Bit j set iff the frame with the families ``head`` at the leading
    states and frame j's entries of ``lists`` at the trailing ones has the
    local property ``prop``; with no lists, the one frame ``head``.
    ``shared`` keeps the trailing states' verdicts under the property, for
    every head that shares the lists."""
    full = (1 << len(head) + len(lists)) - 1
    at_state = prop is FrameProperty.T
    return _local_mask(
        lambda fam, s: _family_verdict(prop, fam, full, s if at_state else -1),
        head, lists, shared, prop)


@functools.lru_cache(maxsize=1 << 10)
def _family_in_class(class_name: str, family: frozenset[int],
                     full: int) -> bool:
    """Whether ``family`` satisfies every property of the composite class,
    kept across models.  The state is not read: every ``MODEL_CLASSES``
    entry is local and has no (t).  A quasi-filter family is recognised by
    its normal form, the others through ``_family_verdict``."""
    if class_name == "quasi-filter":
        return is_qf_family(family, full)
    return all(_family_verdict(p, family, full, -1)
               for p in MODEL_CLASSES[class_name])


def classify(m: NeighborhoodModel) -> set[str]:
    """The composite classes whose defining property sets all hold of ``m``."""
    return {name for name in MODEL_CLASSES if first_failing(m, name) is None}


def first_failing(m: NeighborhoodModel, class_name: str
                  ) -> FrameProperty | None:
    """The first property of the composite class, in ``FrameProperty``
    declaration order, that fails on ``m``; None if ``m`` is in the class.
    Each family's class verdict is cached by value, so a model whose
    families all pass costs one lookup per state; only a rejected model
    walks the properties, to name the one that fails."""
    full = m.full
    if all(_family_in_class(class_name, fam, full) for fam in m.neighborhoods):
        return None
    return next((p for p in _DECLARED_ORDER[class_name]
                 if not has_property(m, p)), None)


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
