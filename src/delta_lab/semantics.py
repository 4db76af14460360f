"""Truth evaluation under the two neighborhood semantics and Kripke semantics.

``OLD`` reads non-contingency as "the extension or its complement is a
neighborhood", ``NEW`` as "the extension is a neighborhood", ``KRIPKE`` as
"all successors agree on the extension".

One evaluator serves ``extension``, ``frame_valid`` and ``taut_valid``, the
tautology check behind ``proofsys.is_taut_instance``.  ``compile_formula``
turns a formula into a ``Program``: a flat, hash-consed list of ops
(``atom``/``top``/``not``/``and``/``delta``/``box``) over integer slots,
children before parents, in one ``formula.to_core`` walk that applies the
sugar rules of ``formula.SUGAR`` without building nodes; equal subformulas
share one slot and there is no depth limit.  ``taut_valid`` turns each maximal
modal op into an atom and checks the skeleton as validity on a one-state frame.

The program runs over *bit planes* of width V.  A slot's value is one int of
n·V bits laid out state by state: bits [s·V, (s+1)·V) are state s's plane,
and bit v of a plane is the truth at s under valuation v.  ``not`` is one
XOR with the full mask and ``and`` one AND, for all valuations at once.  At
Δ/□ a state's plane is the union of the minterms M_X (the valuations where
the child's extension is exactly X) over X ∈ N(s); ``old`` Δ also adds
M_{S∖X}.  The minterms are shared by all states: up to ``_TABLE_STATES``
states all 2^n are built by doubling, above it each on first use.  Kripke Δ
is the AND over R(s) of the child's planes OR-ed with the AND of their
complements, and □ is the first term alone.  ``extension`` runs the same
program at V = 1, where a plane is one bit, a value is a state mask and the
modal step tests membership directly.  The program of the last formula
compiled is kept (``_last``), checked with ``is``; no call changes it.

``frame_valid`` numbers the valuations of the sorted atoms with the first
atom most significant: valuation v gives atom i the state mask
(v >> n·(k-1-i)) & full.  The witness is the lowest falsifying v and the
lowest state falsified under it.  Sweeps wider than ``_CHUNK_BITS`` run in
passes that fix the leading bits of v and sweep the trailing ones, in
ascending order, stopping at the first failing pass.  A frame evaluated
this way reads no table or verdict that another call filled.

A frame tagged by ``generators``' product sweep belongs to a *run*: the L
frames (at most ``generators._RUN_FRAMES``) that share the leading states'
families and vary the trailing r ≥ 1 states, each over its own list, frame
j taking the entries of the digits of j in the mixed radix of the list
lengths.  The run's validity mask, bit j set iff frame j validates the
program, is built once per run (``_verdict``) and kept on it by
``frame_valid`` under (formula object, semantics, ``max_bits``), compared
by identity.  A set bit answers: the frame is valid, before any compiling
or budget check.  Every other frame is evaluated on its own, as above.
What a mask is built from belongs to the walk (one ``_product_frames``
call, whose runs share one dict): a ``_Memo`` per (formula object,
semantics), holding the compiled program and the last run's mask.  A run
of one frame has no mask.

- A program of modal depth at most 1 is *state-local*: its truth at state
  s under valuation v reads only N(s) and v, so whether s has a falsifying
  v is fixed by (semantics, n, s, N(s)), a verdict per family like a local
  frame property's.  The memo keeps a *column* per family value F, a state
  mask with bit s set iff F at state s leaves no falsifying valuation,
  filled by one evaluation of the frame that has F at every state; that
  holds for (t) classes too, whose per-state lists only choose which
  families appear.  The mask is ``model._local_mask`` over the columns, the
  rule that local properties use: the head states' bits ANDed with the
  trailing states' mask over their lists, kept in the walk's dict under
  the memo.  So a walk evaluates each family it meets once, and runs no
  run pass.
- A deeper program's mask comes from passes at width W = count·V over the
  run's frames (V = 2^(n·k) valuations): bits [s·W + j·V, s·W + (j+1)·V)
  are frame j's plane at state s, and the atoms' values come from
  ``_layout``, as for one frame.  Each pass covers as many whole
  last-state rows (the frames that differ only in the last state) as fit
  2^``_CHUNK_BITS`` bits per state, all L frames if they fit.  The leading
  states OR their shared family's minterms as above; each trailing state
  ORs M_X & sel_X over every X, where sel_X has the planes of the frames
  whose family at that state holds X (for ``old`` Δ, X or S∖X).  sel_X is
  ``model._local_mask`` at width V, the rule of every run mask, over the
  verdict "the family at this state holds X".  Frame j is valid iff its
  planes hold no zero in any state.  A run whose one row does not fit has
  no mask.

Only ``frame_valid`` decides locality; ``extension`` and ``taut_valid``
never do.

The frame properties (b), (4) and (5) are decided by this evaluator too,
as the validity under ``new`` of their correspondents
(``model.CORRESPONDENTS``), compiled once at import (``_CORRESPONDENTS``):
``model.has_property`` sweeps a frame's 2^n valuations of the one atom,
and a run's property mask (``_run_props``) is the run's validity mask of
the correspondent, built by ``_verdict`` like a claim's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

from .formula import And, Atom, Box, Delta, Formula, Not, Top, to_core
from .model import (_RUN, CORRESPONDENTS, LOCAL_PROPERTIES, BudgetError,
                    FrameProperty, KripkeModel, NeighborhoodModel, _local_mask,
                    _mask, bits)


class SemanticsKind(Enum):
    OLD = "old"
    NEW = "new"
    KRIPKE = "kripke"


Model = NeighborhoodModel | KripkeModel


def _check_kind(m: Model, kind: SemanticsKind) -> None:
    if isinstance(m, KripkeModel) != (kind is SemanticsKind.KRIPKE):
        raise ValueError(
            f"semantics {kind.value!r} does not apply to {type(m).__name__}")


def delta_holds(m: Model, state: int, ext: int, kind: SemanticsKind) -> bool:
    """The non-contingency clause of ``kind`` at one state, for a raw extension."""
    if kind is SemanticsKind.KRIPKE:
        r = m.succ[state]
        return r & ext == r or r & ext == 0
    if kind is SemanticsKind.NEW:
        return ext in m.neighborhoods[state]
    return (ext in m.neighborhoods[state]
            or (m.full & ~ext) in m.neighborhoods[state])


# ---------------------------------------------------------------------------
# Compilation.

ATOM, TOP, NOT, AND, DELTA, BOX = range(6)


@dataclass(frozen=True)
class Program:
    """A compiled formula.  ``ops[i]`` is ``(op, a, b)``: for ``ATOM`` ``a``
    indexes ``names``; for ``NOT``/``DELTA``/``BOX`` ``a`` is the child slot;
    for ``AND`` ``a`` and ``b`` are the conjunct slots.  ``root`` is the slot
    of the whole formula and ``names`` the sorted atom names."""

    ops: tuple[tuple[int, int, int], ...]
    names: tuple[str, ...]
    root: int


_OPCODES = {Atom: ATOM, Top: TOP, Not: NOT, And: AND, Delta: DELTA, Box: BOX}


def compile_formula(f: Formula) -> Program:
    """Expand sugar, hash-cons and flatten ``f``, in one ``to_core`` walk."""
    ops: list[tuple] = []
    index: dict[tuple, int] = {}

    def emit(kind: type, a: int | str = 0, b: int = 0) -> int:
        # an Atom's key holds its name until the names are sorted
        key = (kind, a, b)
        slot = index.get(key)
        if slot is None:
            slot = index[key] = len(ops)
            ops.append(key)
        return slot

    root = to_core(f, emit)
    names = sorted({a for kind, a, _ in ops if kind is Atom})
    pos = {name: i for i, name in enumerate(names)}
    flat = tuple((ATOM, pos[a], 0) if kind is Atom else (_OPCODES[kind], a, b)
                 for kind, a, b in ops)
    return Program(flat, tuple(names), root)


# The last formula compiled and its program.  Sweeps pass one formula object
# for every frame; checking it with ``is`` never hashes the formula, and one
# entry cannot grow over many distinct formulas.  An eval query evaluates
# one formula under two semantics: compiling costs 10.7 us, against 18.9 us
# for both ``extension`` calls with one compile (seeded depth-3 formulas on
# a 3-state model, 2 vCPU, Python 3.11), so the entry saves a third.
_last: tuple[Formula | None, Program | None] = (None, None)


def _program(f: Formula) -> Program:
    global _last
    seen, prog = _last
    if seen is not f:
        prog = compile_formula(f)
        _last = (f, prog)
    return prog


# The correspondents of (b), (4) and (5), compiled once: ``model.has_property``
# and every walk's memo of one read these programs.  A walk that compiled
# them made the 2-state b, 4 and 5 sweep rows x1.16-1.18 slower (per-row
# best of 40 interleaved rounds, 2 vCPU, Python 3.11.7).
_CORRESPONDENTS = {prop: compile_formula(f)
                   for prop, f in CORRESPONDENTS.items()}


# ---------------------------------------------------------------------------
# Evaluation.

# A trailing state's selectors in a pass over frames of a run: for Δ
# (index 0) and □ (index 1), each (X, sel_X) with sel_X nonzero, where
# sel_X has the V-bit plane of frame j of the pass set iff frame j's family
# at that state holds X (for ``old`` Δ, X or S∖X).
_Selectors = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


def _run(prog: Program, m: Model, kind: SemanticsKind, width: int,
         atoms: Sequence[int], tail: tuple[_Selectors, ...] | None = None
         ) -> int:
    """Value of ``prog`` on ``m`` at plane width ``width``, given each atom's
    n·width-bit value in ``names`` order.  With ``tail``, the families of
    the last len(tail) states are read from those selectors, one set per
    state, instead of from ``m``."""
    n = len(m.states)
    full = (1 << n * width) - 1
    vals: list[int] = []
    for op, a, b in prog.ops:
        if op == AND:
            vals.append(vals[a] & vals[b])
        elif op == NOT:
            vals.append(full ^ vals[a])
        elif op == ATOM:
            vals.append(atoms[a])
        elif op == TOP:
            vals.append(full)
        else:
            vals.append(_modal(m, kind, op == BOX, vals[a], n, width, tail))
    return vals[prog.root]


def _modal(m: Model, kind: SemanticsKind, box: bool, x: int, n: int,
           width: int, tail: tuple[_Selectors, ...] | None = None) -> int:
    """Δ (or □ if ``box``) applied to the child value ``x``, state by state;
    ``tail`` as for ``_run``."""
    out = 0
    if width == 1:
        # One valuation: the minterm OR below reduces to a membership test,
        # which keeps the eval workload's query p50 ~20% lower.
        for s in range(n):
            if not box:
                holds = delta_holds(m, s, x, kind)
            elif kind is SemanticsKind.KRIPKE:
                holds = m.succ[s] & x == m.succ[s]
            else:
                holds = x in m.neighborhoods[s]
            if holds:
                out |= 1 << s
        return out
    plane = (1 << width) - 1
    pos = [x >> t * width & plane for t in range(n)]
    if kind is SemanticsKind.KRIPKE:
        for s, r in enumerate(m.succ):
            # all successors true, or none: the AND of the planes, or the
            # complement of their OR
            yes, some = plane, 0
            for t in bits(r):
                yes &= pos[t]
                some |= pos[t]
            out |= (yes if box else yes | plane ^ some) << s * width
        return out
    if n <= _TABLE_STATES:
        # all 2^n minterms by doubling; index bit t picks pos[t] over its
        # complement
        minterms = [plane]
        for p in pos:
            q = plane ^ p
            minterms = [mt & q for mt in minterms] + [mt & p for mt in minterms]
    else:
        minterms = _Minterms(pos, plane)
    both = kind is SemanticsKind.OLD and not box
    full = (1 << n) - 1
    lead = n if tail is None else n - len(tail)
    for s, fam in enumerate(m.neighborhoods[:lead]):
        got = 0
        for mask in fam:
            got |= minterms[mask]
            if both:
                got |= minterms[full ^ mask]
        out |= got << s * width
    if tail is not None:
        for s, sels in enumerate(tail, lead):
            got = 0
            for mask, sel in sels[box]:
                got |= minterms[mask] & sel
            out |= got << s * width
    return out


# Frames up to this many states get the full minterm table at each modal op;
# larger ones compute only the minterms their families name, since the table
# grows as 2^n.  The lazy ``_Minterms`` at every size is slower on small
# frames: a sweep round read x1.027 and ``audit --system K --max-states 3``
# x1.076 (2 vCPU, Python 3.11.7).
_TABLE_STATES = 4


class _Minterms(dict):
    """Minterm planes M_X computed on first lookup of X."""

    def __init__(self, pos: list[int], plane: int):
        super().__init__()
        self.pos, self.plane = pos, plane

    def __missing__(self, mask: int) -> int:
        got = self.plane
        for t, p in enumerate(self.pos):
            got &= p if mask >> t & 1 else self.plane ^ p
        self[mask] = got
        return got


def extension(m: Model, f: Formula, kind: SemanticsKind) -> int:
    """Bitmask of the states where ``f`` is true."""
    _check_kind(m, kind)
    prog = _program(f)
    return _run(prog, m, kind, 1, [m.atom_mask(name) for name in prog.names])


def evaluate(m: Model, state: str, f: Formula, kind: SemanticsKind) -> bool:
    """Truth of ``f`` at the named state."""
    return bool(extension(m, f, kind) >> m.index(state) & 1)


@dataclass(frozen=True)
class FrameCheck:
    """Outcome of a frame-validity sweep; falsy iff a witness was found."""

    valid: bool
    valuation: dict[str, int] | None = None
    state: str | None = None

    def __bool__(self) -> bool:
        return self.valid


_VALID = FrameCheck(True)

# Valuation-index bits swept in one pass: planes of 2^12 bits per state.
_CHUNK_BITS = 12


@lru_cache(maxsize=256)
def _layout(n: int, k: int, count: int = 1
            ) -> tuple[int, tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """The valuation-index bits one pass sweeps, each atom's value over them,
    and the (atom, state, pass-number bit) triples for the bits above them,
    whose states a pass fills in with a constant plane.  With ``count``
    frames side by side (n·k ≤ ``_CHUNK_BITS``, so there are no such bits),
    each state's plane is ``count`` V-bit blocks, V = 2^(n·k), one per
    frame: an atom's pattern has a period that divides V, so it runs on
    unchanged across the blocks."""
    width_bits = min(n * k, _CHUNK_BITS)
    width = count << width_bits
    ones = (1 << width) - 1
    atoms = [0] * k
    high = []
    for i in range(k):
        for s in range(n):
            b = n * (k - 1 - i) + s
            if b >= width_bits:
                high.append((i, s, b - width_bits))
                continue
            # bit v set iff bit b of v is: the upper half of each 2^(b+1) run
            period = (1 << (2 << b)) - 1
            upper = period ^ ((1 << (1 << b)) - 1)
            atoms[i] |= ones // period * upper << s * width
    return width_bits, tuple(atoms), tuple(high)


# The default valuation budget: a sweep of more than 2^MAX_BITS valuations
# is refused.
MAX_BITS = 24


def _check_bits(n: int, k: int, max_bits: int) -> None:
    if n * k > max_bits:
        raise BudgetError(
            f"valuation sweep needs 2^{n * k} cases, budget is 2^{max_bits}; "
            f"--budget (max_bits=) lifts it")


def _program_valid(frame: Model, prog: Program, kind: SemanticsKind,
                   max_bits: int = MAX_BITS) -> FrameCheck:
    """Frame validity of a compiled program, from its first failing pass."""
    _check_bits(len(frame.states), len(prog.names), max_bits)
    return _witness(frame, prog.names, _first_zeros(frame, prog, kind, 1))


def _witness(frame: Model, names: tuple[str, ...], first: list[int]
             ) -> FrameCheck:
    """The frame's witness from each state's lowest falsifying valuation
    index (2^(n·k), past the last index, if none): the lowest index, at the
    lowest state falsified under it."""
    n, k = len(frame.states), len(names)
    index = min(first)
    if index >> n * k:
        return _VALID
    valuation = {name: index >> n * (k - 1 - i) & frame.full
                 for i, name in enumerate(names)}
    return FrameCheck(False, valuation, frame.states[first.index(index)])


def _first_zeros(frame: Model, prog: Program, kind: SemanticsKind,
                 wanted: int) -> list[int]:
    """Each state's lowest falsifying valuation index, or 2^(n·k) if it has
    none in the passes run: they run in order until ``wanted`` states have
    one, or run out."""
    n, k = len(frame.states), len(prog.names)
    width_bits, base, high = _layout(n, k)
    width = 1 << width_bits
    plane = (1 << width) - 1
    full = (1 << n * width) - 1
    first = [1 << n * k] * n
    for hi in range(1 << n * k - width_bits):
        atoms = list(base) if high else base
        for i, s, j in high:
            if hi >> j & 1:
                atoms[i] |= plane << s * width
        zeros = full ^ _run(prog, frame, kind, width, atoms)
        if not zeros:
            continue
        for s in range(n):
            low = zeros >> s * width & plane
            if low and first[s] >> n * k:
                first[s] = hi << width_bits | (low & -low).bit_length() - 1
                wanted -= 1
        if wanted <= 0:
            break
    return first


def _modal_depth(prog: Program) -> int:
    """The modal depth of a compiled program.  Read off the program, not
    ``formula.metrics``: metrics walks the formula and costs 7.5-12.7 us per
    memo against 1.4-2.6 us here, which made the small audit rows about 10%
    slower (2 vCPU, Python 3.11.7)."""
    depth: list[int] = []
    for op, a, b in prog.ops:
        if op in (ATOM, TOP):
            depth.append(0)
        elif op == AND:
            depth.append(max(depth[a], depth[b]))
        else:
            depth.append(depth[a] + (op != NOT))
    return depth[prog.root]


class _Memo:
    """What a product walk keeps for one (formula object, semantics), in the
    ``shared`` dict of its runs: the compiled ``program``, ``bits`` = n·k,
    and the validity mask of the last run it decided (``run``, ``mask``),
    so a caller that switches formulas on one run builds no mask twice.
    For a program of modal depth at most 1, ``columns`` maps a family F to
    a state mask, bit s set iff F at state s leaves no falsifying
    valuation; a deeper program has none.  The memo holds ``formula``, so
    the ``id`` it is keyed by cannot be reused while the memo lives."""

    __slots__ = ("formula", "program", "kind", "states", "bits", "columns",
                 "run", "mask")

    def __init__(self, f: Formula, program: Program, kind: SemanticsKind,
                 states: tuple[str, ...]):
        self.formula, self.program, self.kind = f, program, kind
        self.states = states
        self.bits = len(states) * len(self.program.names)
        self.columns: dict[frozenset[int], int] | None = (
            {} if _modal_depth(self.program) <= 1 else None)
        self.run = self.mask = None

    def holds(self, fam: frozenset[int], s: int) -> int:
        """Bit s of ``fam``'s column.  A missing column comes from one
        evaluation of the frame with ``fam`` at every state: a state-local
        program read at s sees only N(s), so that frame's state s answers
        for every frame that gives s the family ``fam``."""
        column = self.columns.get(fam)
        if column is None:
            n = len(self.states)
            uniform = NeighborhoodModel(self.states, (fam,) * n)
            first = _first_zeros(uniform, self.program, self.kind, n)
            column = self.columns[fam] = sum(
                1 << t for t, index in enumerate(first) if index >> self.bits)
        return column >> s & 1


def frame_valid(frame: Model, f: Formula, kind: SemanticsKind,
                max_bits: int = MAX_BITS) -> FrameCheck:
    """Validity of ``f`` on the frame: every valuation of vars(f), every state.

    Each variable ranges over all subsets of the state set, so the sweep has
    2^(|S| * |vars|) valuations; sweeps beyond ``max_bits`` exponent bits are
    refused.  Returns the first falsifying valuation and state otherwise.

    A frame of a product sweep whose bit is set in its run's validity mask
    (``_verdict``) is valid at once.  The run keeps that mask in its
    ``valid_verdict`` slot under this formula object, ``kind`` and
    ``max_bits``, compared by identity.  Every other frame is evaluated on
    its own, a swept one with the program its walk's memo holds.
    """
    handle = frame.__dict__.get(_RUN)
    if handle is None:
        _check_kind(frame, kind)
        return _program_valid(frame, _program(f), kind, max_bits)
    run, index = handle
    kept = run.valid_verdict
    if (kept is None or kept[0] is not f or kept[1] is not kind
            or kept[2] != max_bits):
        kept = run.valid_verdict = (f, kind, max_bits,
                                    _verdict(frame, run, f, kind, max_bits))
    if kept[3] is not None and kept[3] >> index & 1:
        return _VALID
    return _program_valid(frame, run.shared[id(f), kind].program, kind,
                          max_bits)


def _verdict(frame: NeighborhoodModel, run, f: Formula, kind: SemanticsKind,
             max_bits: int, prog: Program | None = None) -> int | None:
    """The run's validity mask for ``f`` under ``kind``, bit j set iff
    frame j is valid, from the walk's ``_Memo`` for (``f``, ``kind``),
    which holds ``prog`` if given, else ``f`` compiled, and keeps the last
    run's mask.  A state-local program's mask comes from the memo's columns
    (``model._local_mask``, keyed by the memo), a deeper one's from the
    run's passes (``_run_mask``).  It is None for a run of one frame or a
    deeper program whose last-state row does not fit one pass.  Refused
    like ``frame_valid``."""
    _check_kind(frame, kind)
    memo = run.shared.get((id(f), kind))
    if memo is None:
        memo = run.shared[id(f), kind] = _Memo(f, prog or _program(f), kind,
                                               frame.states)
    _check_bits(len(frame.states), len(memo.program.names), max_bits)
    if memo.run is not run:
        memo.run, memo.mask = run, None
        # A run of one frame gets no mask: the mask would cost its frame's
        # one evaluation, and an invalid frame would be evaluated again for
        # its witness.  A mask made the 1-state ``countermodel --formula
        # "D p -> p" --class quasi-filter`` row 5-10% slower (0.20-0.21
        # against 0.21-0.23 ms, 2 vCPU, Python 3.11.7).
        if run.count > 1:
            memo.mask = (_run_mask(memo, frame, run) if memo.columns is None
                         else _local_mask(memo.holds, run.head, run.lists,
                                          run.shared, memo))
    return memo.mask


def _run_props(frame: NeighborhoodModel, run, prop: FrameProperty
               ) -> int | None:
    """Bit j set iff frame j of ``frame``'s run has ``prop``: a local
    property's mask from ``model._mask``, and for (b), (4) or (5) the run's
    validity mask of its correspondent under ``new`` (``_verdict``, under
    the default budget).  None if the run has no validity mask: each frame
    is then checked on its own."""
    if prop in LOCAL_PROPERTIES:
        return _mask(prop, run.head, run.lists, run.shared)
    return _verdict(frame, run, CORRESPONDENTS[prop], SemanticsKind.NEW,
                    MAX_BITS, _CORRESPONDENTS[prop])


def _run_mask(memo: _Memo, frame: NeighborhoodModel, run) -> int | None:
    """The run's validity mask from its passes, None if it has none.  In a
    pass over ``count`` frames from frame ``lo``, of width W = count·V,
    bits [s·W + j·V, s·W + (j+1)·V) of the zeros are frame lo+j's falsified
    valuations at state s: the leading states read ``frame``'s families,
    which the run shares, and the trailing states the pass's selectors.
    Frame lo+j is valid iff its V bits are clear in every state's plane.
    The states' planes are ORed; adding ``low`` (each block's low V−1 bits)
    to each block's low part carries into its top bit iff the part is
    nonzero, so the top bits (``high``) mark the invalid frames, read off
    every V-th digit of the binary string."""
    prog, kind = memo.program, memo.kind
    n, v = len(frame.states), 1 << memo.bits
    passes = _passes(run.lists, run.count, n, len(prog.names),
                     kind is SemanticsKind.OLD)
    if not passes:
        return None
    valid = 0
    for lo, count, atoms, sels, low, high in passes:
        width = count * v
        zeros = ((1 << n * width) - 1) ^ _run(prog, frame, kind, width,
                                              atoms, sels)
        folded = 0
        for s in range(n):
            folded |= zeros >> s * width
        top = ((folded & low) + low | folded) & high
        invalid = int(bin(top | 1 << width)[3::v], 2)
        valid |= (((1 << count) - 1) ^ invalid) << lo
    return valid


@lru_cache(maxsize=64)
def _passes(lists: tuple[tuple[frozenset[int], ...], ...], total: int,
            n: int, k: int, old: bool) -> tuple:
    """The passes that build the mask of a run of ``total`` frames over
    ``lists`` for n states and k atoms, V = 2^(n·k): each ``(lo, count,
    atoms, selectors, low, high)`` covers ``count`` frames from frame
    ``lo``, as many whole last-state rows (runs of len(lists[-1]) frames)
    as fit 2^``_CHUNK_BITS`` bits per state, with each atom's value laid
    out by ``_layout`` over ``count`` frames, one selector set per trailing
    state, and the low V−1 bits and the top bit of each frame's V-bit
    block."""
    v = 1 << n * k
    row = len(lists[-1])
    # Whole rows only, so a run whose row does not fit a pass has no mask and
    # its frames are evaluated one by one.  Packing 2^12 >> n·k frames per
    # pass from any offset would give every run with n·k ≤ 12 a mask, but
    # each invalid frame would then be evaluated twice, for the mask and for
    # its witness.  On 3-state c-frames that took ``D D(p & q) -> D D(p | r)``
    # from 31.1 to 54.3 us per frame and a 4-atom depth-2 formula from 60.2
    # to 120.5 us; one 3-atom case went from 46.6 to 37.0 us, so the rule is
    # a trade (2 vCPU, Python 3.11.7).
    per = (1 << _CHUNK_BITS) // (row * v) * row
    if not per:
        return ()
    full = (1 << n) - 1
    # members[t][y]: the V-bit blocks of the frames whose family at
    # trailing state t holds y.  The cache above keeps them with the passes,
    # so a sweep builds them once per layout: a miss (k = 1) costs 0.13 ms
    # for c at 3 states, 0.32 ms for all at 3 and 0.23 ms for quasi-filter
    # at 4, a hit 0.3-1.2 us (2 vCPU, Python 3.11.7).
    members = [[_local_mask(lambda fam, s: s != t or y in fam, (), lists, {},
                            None, v) for y in range(full + 1)]
               for t in range(len(lists))]
    out = []
    for lo in range(0, total, per):
        count = min(per, total - lo)
        frames = (1 << count * v) - 1
        sels = []
        for box in members:
            box = [sel >> lo * v & frames for sel in box]
            delta = ([sel | box[full ^ x] for x, sel in enumerate(box)]
                     if old else box)
            sels.append(tuple(tuple((x, sel) for x, sel in enumerate(side)
                                    if sel) for side in (delta, box)))
        ones = frames // ((1 << v) - 1)  # the lowest bit of each block
        out.append((lo, count, _layout(n, k, count)[1], tuple(sels),
                    (ones << v - 1) - ones, ones << v - 1))
    return tuple(out)


# Truth-table rows are the valuations of a one-state frame.
_ONE_STATE = NeighborhoodModel(("s",), (frozenset(),))


def _skeleton(prog: Program) -> Program:
    """``prog`` with each maximal modal subformula made an atom (equal
    subformulas share one slot, hence one atom) and every op below one made
    a constant, so only the skeleton's atoms are swept."""
    keep: set[int] = set()
    labels: dict[int, str] = {}
    stack = [prog.root]
    while stack:
        slot = stack.pop()
        if slot in keep:
            continue
        keep.add(slot)
        op, a, b = prog.ops[slot]
        if op == ATOM:
            labels[slot] = prog.names[a]
        elif op in (DELTA, BOX):
            labels[slot] = f"#{slot}"
        elif op == NOT:
            stack.append(a)
        elif op == AND:
            stack += (a, b)
    names = sorted(labels.values())
    pos = {name: i for i, name in enumerate(names)}
    ops = tuple((ATOM, pos[labels[slot]], 0) if slot in labels
                else op if slot in keep else (TOP, 0, 0)
                for slot, op in enumerate(prog.ops))
    return Program(ops, tuple(names), prog.root)


def taut_valid(f: Formula, atom_budget: int) -> bool:
    """Truth of ``f`` under every row of its propositional skeleton, where
    each maximal modal subformula is an atom: the skeleton is checked as
    frame validity on a one-state frame.  Skeletons of more than
    ``atom_budget`` atoms are refused."""
    skeleton = _skeleton(compile_formula(f))
    if len(skeleton.names) > atom_budget:
        raise BudgetError(f"abstraction yields {len(skeleton.names)} atoms, "
                          f"budget is {atom_budget}")
    return _program_valid(_ONE_STATE, skeleton, SemanticsKind.NEW,
                          atom_budget).valid
