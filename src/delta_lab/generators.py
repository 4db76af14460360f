"""Exhaustive and seeded-random generation of frames, models, and formulas.

Exhaustive neighborhood enumeration encodes each state's family as an integer
over 2^(2^n) (bit k set iff subset-mask k belongs to the family) and walks
the n-tuple of codes in ascending order, so frame #k is reproducible from
(n, k) and filtered counts are stable.  The admissible codes of a size and a
set of local properties form one list that every state shares; only (t)
reads the state, and it filters that list per state.  The shipped classes'
lists are built in closed form (``_CLOSED_FORMS``), any other property set's
by filtering all 2^(2^n) codes.  A sweep builds each admissible family once
and takes the product over the families, so frames share their family
objects.

One limit, ``MAX_ENUMERATION`` items at one size, decides how large an
exhaustive enumeration may be, checked by ``_check_enumeration`` before any
item is built.  It bounds the 2^(2^n) family codes that a size's admissible
lists are drawn from, the neighborhood frames of one size (the product of
the per-state list lengths), and the 2^(n·n) Kripke frames of one size.  So
admissible lists exist up to 4 states, Kripke frames are enumerated up to 4
states, and neighborhood frames wherever their product fits: every class at
3 states, and cs, csi, filter and quasi-filter frames at 4.  Counts above
the limit are compared, never built, so a huge size is refused at once, and
a shipped class's frames are counted, planned or refused without filtering
a code.

Random generation is deterministic per seed; constrained sampling draws
per-state families from the admissible lists wherever they may be built and
falls back to closure-then-check above that.  A model is held and written
whole, so ``check_members`` counts what its families could hold by the
states they name, n·2^n members of up to n states each, against the same
limit: random sampling, ``frame_at`` and ``transform.qf_variation`` refuse
from 17 states.  A random Kripke model is refused where its successor sets
could hold more than the limit (n·n pairs).
Distribution shape is not a contract.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Sequence,
                    TypeVar)

from .formula import (And, Atom, Box, Bot, Delta, Formula, Iff, Imp, Nabla,
                      Not, Or, Top)
from .model import (_RUN, FRAME_CLASSES, LOCAL_PROPERTIES, BudgetError,
                    FrameProperty, KripkeModel, NeighborhoodModel, bits,
                    family_satisfies, has_property, qf_family, submasks)
from .semantics import _run_props

if TYPE_CHECKING:
    from concurrent.futures import Executor

MAX_ENUMERATION = 1 << 24
_RETRY_LIMIT = 10_000

T = TypeVar("T")


class GenerationError(RuntimeError):
    """Constrained random generation ran out of retries."""


@dataclass(frozen=True)
class GenSpec:
    """What to generate: size, property filter, mode, and determinism knobs."""

    n_states: int
    properties: frozenset[FrameProperty] = frozenset()
    seed: int = 0
    mode: str = "exhaustive"
    count: int = 10

    def __post_init__(self) -> None:
        if self.n_states < 1:
            raise ValueError(f"n_states must be at least 1, got {self.n_states}")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"mode must be 'exhaustive' or 'random', "
                             f"got {self.mode!r}")
        if self.count < 0:
            raise ValueError(f"count must be at least 0, got {self.count}")


def state_names(n: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(n))


def _pow2(bits: int) -> int:
    """2^bits, or 2^25 if bits is larger: enough to compare a count with
    ``MAX_ENUMERATION`` without building a huge number."""
    return 1 << min(bits, MAX_ENUMERATION.bit_length())


def _check_enumeration(count: int, what: str) -> None:
    """Refuse with ``BudgetError`` an enumeration of ``count`` items at one
    size above ``MAX_ENUMERATION``; ``what`` names the items and their
    count."""
    if count > MAX_ENUMERATION:
        raise BudgetError(
            f"{what}, above the enumeration limit of "
            f"{MAX_ENUMERATION:,} items at one size")


def check_members(n: int, what: str) -> None:
    """Refuse ``what`` at n states where its families could name more than
    ``MAX_ENUMERATION`` states: n·2^n members of up to n states each, so it
    is built up to 16 states.  Its members are held at once and written
    whole, not visited one by one like the items of a walk."""
    _check_enumeration(n * n * _pow2(n), f"{what} at {n} states could hold "
                                         f"{n}·2^{n} members naming up to {n} states "
                                         f"each")


def _code_count(n: int) -> int:
    """The 2^(2^n) family codes an n-state admissible list is drawn from:
    exact up to 4 states, 2^25 above."""
    return _pow2(_pow2(n))


def _family_of_code(code: int, n_subsets: int) -> frozenset[int]:
    """The family whose members are the set bits of ``code`` below
    ``n_subsets``: read bit by bit, which costs half as much as testing
    every subset."""
    return frozenset(bits(code & (1 << n_subsets) - 1))


def frame_from_codes(n: int, codes: Sequence[int]) -> NeighborhoodModel:
    n_subsets = 1 << n
    fams = tuple(_family_of_code(code, n_subsets) for code in codes)
    return NeighborhoodModel(state_names(n), fams)


def frame_at(n: int, index: int) -> NeighborhoodModel:
    """Frame #index of the raw (unfiltered) exhaustive stream at n states.
    Refused by ``check_members``, like a random frame."""
    check_members(n, "frame_at")
    base = 1 << (1 << n)
    codes = []
    for _ in range(n):
        index, code = divmod(index, base)
        codes.append(code)
    if index:
        raise ValueError("index out of range")
    return frame_from_codes(n, tuple(reversed(codes)))


def _code_of(family: Iterable[int]) -> int:
    return sum(1 << x for x in family)


def _c_codes(n: int) -> tuple[int, ...]:
    """Unions of complementary pairs {X, S∖X}: the subset sums of the
    2^(n-1) pair codes, one pair for each X without the last state."""
    full = (1 << n) - 1
    codes = [0]
    for x in range(1 << (n - 1)):
        pair = 1 << x | 1 << (full ^ x)
        codes += [code | pair for code in codes]
    return tuple(sorted(codes))


def _filter_codes(n: int) -> tuple[int, ...]:
    """The principal filters ↑A, one for each A ⊆ S."""
    full = (1 << n) - 1
    return tuple(sorted(_code_of(a | y for y in submasks(full ^ a))
                        for a in range(full + 1)))


def _empty_and_full(n: int) -> tuple[int, int]:
    """∅ and 2^S, the only (c) and (s) families: with any member they hold
    its complement, so ∅, and so every superset of ∅."""
    return 0, (1 << (1 << n)) - 1


def _qf_codes(n: int) -> tuple[int, ...]:
    """The Q_R of ``model.qf_family``, one for each R ⊆ S; R = ∅ and the
    n singletons all give 2^S."""
    full = (1 << n) - 1
    return tuple(sorted({_code_of(qf_family(r, full))
                         for r in range(full + 1)}))


#: Each shipped frame class's admissible list, in closed form and ascending,
#: keyed by the class's local properties.
_CLOSED_FORMS: dict[frozenset[FrameProperty],
                    Callable[[int], Sequence[int]]] = {
    FRAME_CLASSES["all"]: lambda n: range(1 << (1 << n)),
    FRAME_CLASSES["c"]: _c_codes,
    FRAME_CLASSES["cs"]: _empty_and_full,
    FRAME_CLASSES["csi"]: _empty_and_full,
    FRAME_CLASSES["filter"]: _filter_codes,
    FRAME_CLASSES["quasi-filter"]: _qf_codes,
}


@lru_cache(maxsize=None)
def _shared_codes(n: int, props: frozenset[FrameProperty]) -> Sequence[int]:
    """Family codes whose family satisfies every property of ``props``, a
    set of local properties without (t), ascending; the same list for every
    state.  A shipped class's list is built from its closed form, any other
    by filtering every code."""
    _check_enumeration(_code_count(n), f"{n}-state admissible lists would "
                                       f"filter 2^(2^{n}) family codes")
    form = _CLOSED_FORMS.get(props)
    if form is not None:
        return form(n)
    n_subsets = 1 << n
    full = n_subsets - 1
    # declaration order puts the costly (ws) last, after the cheap tests
    props = [p for p in FrameProperty if p in props]
    out = []
    for code in range(1 << n_subsets):
        fam = _family_of_code(code, n_subsets)
        if all(family_satisfies(p, fam, full, 0) for p in props):
            out.append(code)
    return tuple(out)


@lru_cache(maxsize=None)
def _admissible_codes(n: int, props: frozenset[FrameProperty],
                      state: int) -> Sequence[int]:
    """Family codes whose family satisfies every local property at
    ``state``, ascending.  Only (t) reads the state, so without it every
    state shares one list."""
    codes = _shared_codes(n, props - {FrameProperty.T})
    if FrameProperty.T not in props:
        return codes
    # (t): no member leaves out the state, i.e. no code bit at such a mask
    outside = sum(1 << x for x in range(1 << n) if not x >> state & 1)
    return tuple(code for code in codes if not code & outside)


def _split_props(props: Iterable[FrameProperty]
                 ) -> tuple[frozenset[FrameProperty], frozenset[FrameProperty]]:
    props = frozenset(props)
    local = props & LOCAL_PROPERTIES
    return local, props - local


def admissible_space(n: int, properties: Iterable[FrameProperty]
                     ) -> tuple[list[Sequence[int]], frozenset[FrameProperty]]:
    """Per-state admissible family codes for the local properties, plus the
    global properties a consumer still has to check per frame.  The product
    of the lists is index-addressable, so sweeps partition cleanly."""
    local, global_props = _split_props(properties)
    return [_admissible_codes(n, local, s) for s in range(n)], global_props


def _frame_count(n: int, properties: Iterable[FrameProperty]) -> int:
    """Frames in the product of the n-state admissible lists: what
    ``_product_frames`` walks.  Refused above ``MAX_ENUMERATION``.  A
    shipped class's lists come from their closed forms, so no code is
    filtered to count or to refuse it."""
    local, _ = _split_props(properties)
    total = math.prod(len(_admissible_codes(n, local, s)) for s in range(n))
    _check_enumeration(total, f"exhaustive enumeration at {n} states would "
                              f"walk {total:,} frames")
    return total


# A product run holds at most this many frames: ``_product_frames`` lets as
# many trailing states vary as keep a run within it, so the 3-state c sweep
# is 16 runs of 256 frames.  On the sweep workload 2^6 keeps that sweep at
# 256 runs of 16 and saves little, and 2^10 is no faster than 2^8.
_RUN_FRAMES = 1 << 8


class _Run:
    """One run of a product: the frames that share the families of the
    leading states and vary the trailing r ≥ 1.  ``head`` holds the leading
    states' families and ``lists`` the trailing states' lists, in state
    order.  Frame j of the run takes entry d_t of list t, where the d_t are
    the digits of j in the mixed radix of the list lengths, the last list
    least significant: the product's own order.  ``count`` is the number of
    frames.  ``names`` and ``tails`` are the walk's state names and the
    product of ``lists``, from which ``model.Model.__getattr__`` writes
    frame j's fields (``head + tails[j]``) when one is first read.
    ``shared`` is one dict for every run of a ``_product_frames``
    call, the walk: what ``model`` and ``semantics`` build once per walk,
    such as the trailing states' verdicts and ``semantics``' memo of each
    (formula object, semantics), the correspondents of (b), (4) and (5)
    among them.

    Each per-frame check keeps the one mask it reads, under its own key
    compared by identity, so a swept frame's call is one key comparison
    and one bit test: ``claim_verdict`` is ``(claim, max_bits, mask)`` for
    ``definability.check_frame``, bit j set iff frame j's property and
    validity differ (every bit set if the run has no validity mask);
    ``valid_verdict`` is ``(formula, semantics, max_bits, mask)`` for
    ``semantics.frame_valid``, bit j set iff frame j is valid.  The keys
    hold ``max_bits`` because a set bit skips the budget check: a call
    with another budget computes its own, or is refused.  A set bit of
    ``valid_verdict`` and a clear bit of ``claim_verdict`` answer; every
    other frame is checked on its own."""

    __slots__ = ("head", "lists", "count", "names", "tails", "shared",
                 "claim_verdict", "valid_verdict")

    def __init__(self, head: tuple[frozenset[int], ...],
                 lists: tuple[tuple[frozenset[int], ...], ...], count: int,
                 names: tuple[str, ...],
                 tails: list[tuple[frozenset[int], ...]], shared: dict):
        self.head, self.lists, self.count = head, lists, count
        self.names, self.tails, self.shared = names, tails, shared
        self.claim_verdict = self.valid_verdict = None


def _product_frames(n: int, properties: Iterable[FrameProperty],
                    start: int = 0, stop: int | None = None
                    ) -> Iterator[NeighborhoodModel]:
    """Frames #start..stop-1 of the product of per-state admissible lists
    that also have the global properties.  Each admissible family is built
    once per call and shared by every frame that has it.  The product is
    walked run by run: a run varies as many trailing states as keep the
    product of their list lengths within ``_RUN_FRAMES``, and at least the
    last state.  Each frame is tagged with its run and its index in that
    run, read off its raw product index, so a range that starts mid-run
    tags the same way.  Global properties are read from the run's masks
    (``semantics._run_props``), and frame by frame where the run has none.

    A frame's instance ``__dict__`` holds only its handle (under
    ``model._RUN``) until a field is read, when ``model.Model.__getattr__``
    writes the fields from the run: the frozen dataclass ``__init__`` costs
    more than the rest of a swept frame's construction, and a frame that a
    run mask answers reads no field."""
    per_state, global_props = admissible_space(n, properties)
    names = state_names(n)
    choices = [[_family_of_code(code, 1 << n) for code in codes]
               for codes in per_state]
    total = math.prod(map(len, choices))
    stop = total if stop is None else min(stop, total)
    if start >= stop:
        return
    lead, width = n - 1, len(choices[-1])
    while lead and width * len(choices[lead - 1]) <= _RUN_FRAMES:
        lead -= 1
        width *= len(choices[lead])
    lists = tuple(map(tuple, choices[lead:]))
    tails = list(itertools.product(*lists))
    first, offset = divmod(start, width)
    heads = itertools.islice(itertools.product(*choices[:lead]), first, None)
    shared: dict = {}
    new = object.__new__
    for base, head in zip(range(first * width, stop, width), heads):
        run = _Run(head, lists, width, names, tails, shared)
        indices = range(offset, min(width, stop - base))
        if global_props:
            keep = -1
            first = NeighborhoodModel(names, head + tails[0])
            for p in global_props:
                mask = _run_props(first, run, p)
                keep &= mask if mask is not None else sum(
                    has_property(NeighborhoodModel(names, head + tails[i]), p)
                    << i for i in indices)
            indices = [index for index in indices if keep >> index & 1]
        for index in indices:
            frame = new(NeighborhoodModel)
            frame.__dict__[_RUN] = run, index
            yield frame
        offset = 0


def enum_frames(spec: GenSpec) -> Iterator[NeighborhoodModel]:
    """Stream of neighborhood frames matching the property filter.

    Exhaustive mode yields each matching frame exactly once, codes ascending;
    random mode yields ``spec.count`` seed-deterministic samples.  Both
    refuse, with ``BudgetError``, what ``MAX_ENUMERATION`` does not allow.
    """
    if spec.mode == "random":
        rnd = random.Random(spec.seed)
        for _ in range(spec.count):
            yield _random_frame(spec.n_states, spec.properties, rnd)
        return
    _frame_count(spec.n_states, spec.properties)
    yield from _product_frames(spec.n_states, spec.properties)


def count_frames(spec: GenSpec, limit: int = 0) -> int:
    """How many frames ``enum_frames(spec)`` yields, at most ``limit`` if
    it is positive.  An exhaustive filter of local properties only is
    counted without building a frame; any other is counted by streaming."""
    if spec.mode == "exhaustive" and spec.properties <= LOCAL_PROPERTIES:
        total = _frame_count(spec.n_states, spec.properties)
        return min(total, limit) if limit > 0 else total
    frames = enum_frames(spec)
    return sum(1 for _ in itertools.islice(frames, limit or None))


def first_hit(frames: Iterable[NeighborhoodModel],
              check: Callable[[NeighborhoodModel], T | None]
              ) -> tuple[int, T | None]:
    """Run ``check`` on each frame until it returns something other than
    None: the number of frames checked, and that result or None."""
    checked = 0
    for frame in frames:
        checked += 1
        hit = check(frame)
        if hit is not None:
            return checked, hit
    return checked, None


def _sweep_range(check: Callable[[NeighborhoodModel], T | None],
                 n: int, properties: frozenset[FrameProperty],
                 start: int, stop: int) -> tuple[int, T | None]:
    return first_hit(_product_frames(n, properties, start, stop), check)


def plan(properties: Iterable[FrameProperty], max_states: int) -> list[int]:
    """The number of frames with the properties at each size from 1 to
    ``max_states``, checked the largest first: a size whose frames number
    more than ``MAX_ENUMERATION`` (or whose admissible lists would filter
    more family codes than that) is refused with ``BudgetError`` before any
    smaller size's lists are built, and a huge ``max_states`` at once.
    Sizes below 1 are refused with ``ValueError``."""
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    properties = frozenset(properties)
    totals = [_frame_count(n, properties) for n in range(max_states, 0, -1)]
    return totals[::-1]


def _workers(jobs: int) -> int:
    if jobs == 1:
        return 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


@contextlib.contextmanager
def worker_pool(jobs: int) -> Iterator[Executor | None]:
    """A process pool that several ``sweep`` calls with the same ``jobs``
    can share, or None if ``jobs`` (clamped to the CPU count) is 1."""
    jobs = _workers(jobs)
    if jobs == 1:
        yield None
        return
    # Imported here so that serial sweeps never load multiprocessing.
    import concurrent.futures
    import multiprocessing
    import threading

    # The platform's default start method (fork on Linux) is safe while this
    # is the only thread: the executor starts every fork-started worker before
    # its own management thread.  A threaded caller gets spawn.
    method = None if threading.active_count() == 1 else "spawn"
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context(method)) as pool:
        yield pool


def sweep(properties: Iterable[FrameProperty], max_states: int,
          check: Callable[[NeighborhoodModel], T | None], jobs: int = 1,
          pool: Executor | None = None) -> tuple[int, T | None]:
    """Check every frame with the properties and 1 to ``max_states`` states,
    in the canonical order of ``enum_frames``, until ``check`` returns
    something other than None.

    Returns the number of frames checked, up to and including the hit, and
    the first hit or None.  Both are the same for every ``jobs``.  Every
    size is planned by ``plan`` before any frame is built or any pool
    started.

    With ``jobs`` above 1 (clamped to the CPU count) each size's raw product
    index is split into contiguous ranges that worker processes sweep, in
    ``pool`` (from ``worker_pool(jobs)``) if given, else in a pool of its
    own.  ``check`` must then be picklable, for example a
    ``functools.partial`` of a module-level function.
    """
    jobs = _workers(jobs)
    properties = frozenset(properties)
    totals = plan(properties, max_states)
    if jobs == 1:
        return _merge(first_hit(enum_frames(GenSpec(n, properties)), check)
                      for n in range(1, max_states + 1))
    ranges = []
    for n, total in enumerate(totals, 1):
        chunk = max(1, -(-total // jobs))
        ranges.extend((n, lo, min(lo + chunk, total))
                      for lo in range(0, total, chunk))
    shared = (worker_pool(jobs) if pool is None
              else contextlib.nullcontext(pool))
    with shared as pool:
        futures = [pool.submit(_sweep_range, check, n, properties, lo, hi)
                   for n, lo, hi in ranges]
        try:
            return _merge(future.result() for future in futures)
        finally:
            # ranges after a hit are not run; a shared pool stays open
            for future in futures:
                future.cancel()


def _merge(parts: Iterable[tuple[int, T | None]]) -> tuple[int, T | None]:
    """Concatenate in-order partial sweeps up to the first one with a hit."""
    checked = 0
    for count, hit in parts:
        checked += count
        if hit is not None:
            return checked, hit
    return checked, None


def _no_kripke_filter(spec: GenSpec) -> None:
    if spec.properties:
        raise ValueError("Kripke generation takes no property filter, got "
                         f"{sorted(p.value for p in spec.properties)}")


def enum_kripke_frames(spec: GenSpec) -> Iterator[KripkeModel]:
    """Every Kripke frame at the given size, successor codes ascending.
    Refused above ``MAX_ENUMERATION`` frames (2^(n·n)), so up to 4 states;
    a property filter or random mode is a ``ValueError``."""
    _no_kripke_filter(spec)
    if spec.mode == "random":
        raise ValueError("Kripke frames are enumerated exhaustively; "
                         "use random_kripke to sample")
    n = spec.n_states
    _check_enumeration(_pow2(n * n), f"exhaustive Kripke enumeration at {n} "
                                     f"states would walk 2^{n * n} frames")
    names = state_names(n)
    for succ in itertools.product(range(1 << n), repeat=n):
        yield KripkeModel(names, succ)


def _random_family(n: int, props: frozenset[FrameProperty], state: int,
                   rnd: random.Random) -> frozenset[int]:
    """A random family for ``state`` closed under whatever (n)/(c)/(s)/(i)
    require; under (t) every drawn set holds the state, which the (n), (s)
    and (i) closures keep.  (c) adds each member's complement, which leaves
    the state out, so with (c) a (t) family still comes only from an empty
    draw.  The caller verifies the remaining properties and retries."""
    full = (1 << n) - 1
    own = 1 << state if FrameProperty.T in props else 0
    fam = {rnd.getrandbits(n) | own
           for _ in range(rnd.randrange(0, n + 3))}
    if FrameProperty.N in props:
        fam.add(full)
    # Complement, superset and intersection closures feed each other;
    # iterate to fixpoint.
    changed = True
    while changed:
        changed = False
        if FrameProperty.C in props:
            extra = {full & ~x for x in fam} - fam
            if extra:
                fam |= extra
                changed = True
        if FrameProperty.S in props:
            extra = {x | 1 << i for x in fam for i in bits(full & ~x)} - fam
            if extra:
                fam |= extra
                changed = True
        if FrameProperty.I in props:
            extra = {x & y for x in fam for y in fam} - fam
            if extra:
                fam |= extra
                changed = True
    return frozenset(fam)


def _random_frame(n: int, props: frozenset[FrameProperty],
                  rnd: random.Random) -> NeighborhoodModel:
    check_members(n, "random sampling")
    local, global_props = _split_props(props)
    lists = None
    if _code_count(n) <= MAX_ENUMERATION:
        lists = [_admissible_codes(n, local, s) for s in range(n)]
        if not all(lists):
            raise GenerationError(
                f"no {n}-state family satisfies {sorted(p.value for p in local)}")
    for _ in range(_RETRY_LIMIT):
        if lists is not None:
            frame = frame_from_codes(n, [rnd.choice(codes) for codes in lists])
        else:
            fams = tuple(_random_family(n, local, s, rnd) for s in range(n))
            frame = NeighborhoodModel(state_names(n), fams)
            if not all(family_satisfies(p, fam, frame.full, s)
                       for p in local
                       for s, fam in enumerate(frame.neighborhoods)):
                continue
        if all(has_property(frame, p) for p in global_props):
            return frame
    raise GenerationError(
        f"filter {sorted(p.value for p in props)} rejected "
        f"{_RETRY_LIMIT} candidates at {n} states")


def random_model(spec: GenSpec, atoms: Sequence[str]) -> NeighborhoodModel:
    """Seed-deterministic random model whose frame passes the filter."""
    rnd = random.Random(spec.seed)
    frame = _random_frame(spec.n_states, spec.properties, rnd)
    valuation = {p: rnd.getrandbits(spec.n_states) for p in atoms}
    return frame.with_valuation(valuation)


def random_kripke(spec: GenSpec, atoms: Sequence[str]) -> KripkeModel:
    """Seed-deterministic random Kripke model; a property filter is a
    ``ValueError``.  Refused where its successor sets could hold more than
    ``MAX_ENUMERATION`` pairs (n·n, above 4,096 states)."""
    _no_kripke_filter(spec)
    n = spec.n_states
    _check_enumeration(n * n, f"random {n}-state successor sets could "
                              f"hold {n}·{n} pairs")
    rnd = random.Random(spec.seed)
    succ = tuple(rnd.getrandbits(n) for _ in range(n))
    valuation = {p: rnd.getrandbits(n) for p in atoms}
    return KripkeModel(state_names(n), succ, valuation)


_LEAF = ("atom", "atom", "atom", "top", "bot")
_SPREAD = ("not", "and", "and", "or", "imp", "iff")
_MODAL = ("delta", "delta", "nabla")


def random_formula(depth: int, atoms: Sequence[str], seed: int,
                   include_box: bool = False, size: int = 14) -> Formula:
    """Seed-deterministic formula with modal depth at most ``depth``."""
    rnd = random.Random(seed)
    atoms = list(atoms)

    def gen(d: int, budget: int) -> Formula:
        pool = _LEAF
        if budget > 1:
            pool = pool + _SPREAD
            if d > 0:
                pool = pool + _MODAL + (("box",) if include_box else ())
        kind = rnd.choice(pool)
        if kind == "atom":
            return Atom(rnd.choice(atoms)) if atoms else Top()
        if kind == "top":
            return Top()
        if kind == "bot":
            return Bot()
        if kind == "not":
            return Not(gen(d, budget - 1))
        if kind == "delta":
            return Delta(gen(d - 1, budget - 1))
        if kind == "nabla":
            return Nabla(gen(d - 1, budget - 1))
        if kind == "box":
            return Box(gen(d - 1, budget - 1))
        left = gen(d, (budget - 1) // 2)
        right = gen(d, budget - 1 - (budget - 1) // 2)
        if kind == "and":
            return And(left, right)
        if kind == "or":
            return Or(left, right)
        if kind == "imp":
            return Imp(left, right)
        return Iff(left, right)

    return gen(depth, max(size, 1))
