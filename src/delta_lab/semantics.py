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
frames that differ only in the last state's family, which takes each
family of the run's list in turn.  The run's validity mask, bit j set iff
frame j validates the program, is built once per run and kept on it under
(formula object, semantics, ``max_bits``), compared by identity
(``_verdict``).  A set bit answers: the frame is valid, before any
compiling or budget check.  Every other frame is evaluated on its own, as
above.  What a mask is built from belongs to the walk (one
``_product_frames`` call, whose runs share one dict): a ``_Memo`` per
(formula object, semantics), holding the compiled program and the last
run's mask.  A run of one frame has no mask.

- A program of modal depth at most 1 is *state-local*: its truth at state
  s under valuation v reads only N(s) and v, so whether s has a falsifying
  v is fixed by (semantics, n, s, N(s)).  The memo holds one table per
  state, keyed by that state's family object, which the walk's frames
  share, and the tables are the mask's source: the head states' entries
  are fixed for the run, so one of them false makes the mask 0, and the
  last state's entries over the walk's list give a mask that the memo
  builds once.  A run with missing entries fills them first, from one run
  pass (below) if the program has atoms and the run fits one, else frame
  by frame, and is then decided; it is never retried per frame.
- A deeper program's mask comes from one pass at width L·V, if L·V fits in
  2^``_CHUNK_BITS`` bits per state (V = 2^(n·k) valuations, so the program
  also runs in one pass): bits [s·L·V + j·V, s·L·V + (j+1)·V) are frame j's
  plane at state s.  States 0..n−2 OR their shared family's minterms as
  above; the last state ORs M_X & sel_X over every X, where sel_X has the
  planes of the frames whose last family holds X (for ``old`` Δ, X or
  S∖X).  Frame j is valid iff its planes hold no zero in any state.  A run
  that does not fit has no mask.

Only ``frame_valid`` decides locality; ``extension`` and ``taut_valid``
never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

from .formula import And, Atom, Box, Delta, Formula, Not, Top, to_core
from .model import _RUN, BudgetError, KripkeModel, NeighborhoodModel, bits


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


# ---------------------------------------------------------------------------
# Evaluation.

# A run's last-state selectors: for Δ (index 0) and □ (index 1), each
# (X, sel_X) with sel_X nonzero, where sel_X has the V-bit plane of frame j
# of the run set iff frame j's last family holds X (for ``old`` Δ, X or S∖X).
_Selectors = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


def _run(prog: Program, m: Model, kind: SemanticsKind, width: int,
         atoms: Sequence[int], last: _Selectors | None = None) -> int:
    """Value of ``prog`` on ``m`` at plane width ``width``, given each atom's
    n·width-bit value in ``names`` order.  With ``last``, the last state's
    family is read from those selectors instead of from ``m``."""
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
            vals.append(_modal(m, kind, op == BOX, vals[a], n, width, last))
    return vals[prog.root]


def _modal(m: Model, kind: SemanticsKind, box: bool, x: int, n: int,
           width: int, last: _Selectors | None = None) -> int:
    """Δ (or □ if ``box``) applied to the child value ``x``, state by state;
    ``last`` as for ``_run``."""
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
    neg = [plane ^ p for p in pos]
    if kind is SemanticsKind.KRIPKE:
        for s, r in enumerate(m.succ):
            yes = no = plane
            for t in bits(r):
                yes &= pos[t]
                no &= neg[t]
            out |= (yes if box else yes | no) << s * width
        return out
    if n <= _TABLE_STATES:
        # all 2^n minterms by doubling; index bit t picks pos[t] over neg[t]
        minterms = [plane]
        for p, q in zip(pos, neg):
            minterms = [mt & q for mt in minterms] + [mt & p for mt in minterms]
    else:
        minterms = _Minterms(pos, neg, plane)
    both = kind is SemanticsKind.OLD and not box
    full = (1 << n) - 1
    fams = m.neighborhoods if last is None else m.neighborhoods[:-1]
    for s, fam in enumerate(fams):
        got = 0
        for mask in fam:
            got |= minterms[mask]
            if both:
                got |= minterms[full ^ mask]
        out |= got << s * width
    if last is not None:
        got = 0
        for mask, sel in last[box]:
            got |= minterms[mask] & sel
        out |= got << (n - 1) * width
    return out


# Frames up to this many states get the full minterm table at each modal op;
# larger ones compute only the minterms their families name, since the table
# grows as 2^n.  On the sweep workload's 2- and 3-state frames the table gives
# ~15% more queries per second than building every minterm on first use.
_TABLE_STATES = 4


class _Minterms(dict):
    """Minterm planes M_X computed on first lookup of X."""

    def __init__(self, pos: list[int], neg: list[int], plane: int):
        super().__init__()
        self.pos, self.neg, self.plane = pos, neg, plane

    def __missing__(self, mask: int) -> int:
        got = self.plane
        for t, (p, q) in enumerate(zip(self.pos, self.neg)):
            got &= p if mask >> t & 1 else q
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
def _layout(n: int, k: int) -> tuple[int, tuple[int, ...],
                                     tuple[tuple[int, int, int], ...]]:
    """The valuation-index bits one pass sweeps, each atom's value over them,
    and the (atom, state, pass-number bit) triples for the bits above them,
    whose states a pass fills in with a constant plane."""
    width_bits = min(n * k, _CHUNK_BITS)
    width = 1 << width_bits
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


def _check_bits(n: int, k: int, max_bits: int) -> None:
    if n * k > max_bits:
        raise BudgetError(
            f"valuation sweep needs 2^{n * k} cases, budget is 2^{max_bits}; "
            f"--budget (max_bits=) lifts it")


def _program_valid(frame: Model, prog: Program, kind: SemanticsKind,
                   max_bits: int = 24) -> FrameCheck:
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
    For a program of modal depth at most 1, ``tables[s]`` maps state s's
    family to whether the state has no falsifying valuation under it, and
    ``last`` is the mask of the walk's last-state list under which the last
    state has none, once a run has built it; a deeper program has neither.
    The memo holds ``formula``, so the ``id`` it is keyed by cannot be
    reused while the memo lives."""

    __slots__ = ("formula", "program", "kind", "bits", "tables", "last",
                 "run", "mask")

    def __init__(self, f: Formula, kind: SemanticsKind, n: int):
        self.formula, self.program, self.kind = f, _program(f), kind
        self.bits = n * len(self.program.names)
        self.tables = ([{} for _ in range(n)]
                       if _modal_depth(self.program) <= 1 else None)
        self.last: int | None = None
        self.run = self.mask = None

    def store(self, frame: NeighborhoodModel) -> list[bool]:
        """Evaluate ``frame`` and keep, under each state's family, whether
        the state has no falsifying valuation; return those verdicts."""
        first = _first_zeros(frame, self.program, self.kind, len(self.tables))
        valid = [index >> self.bits != 0 for index in first]
        for table, fam, ok in zip(self.tables, frame.neighborhoods, valid):
            table[fam] = ok
        return valid


def frame_valid(frame: Model, f: Formula, kind: SemanticsKind,
                max_bits: int = 24) -> FrameCheck:
    """Validity of ``f`` on the frame: every valuation of vars(f), every state.

    Each variable ranges over all subsets of the state set, so the sweep has
    2^(|S| * |vars|) valuations; sweeps beyond ``max_bits`` exponent bits are
    refused.  Returns the first falsifying valuation and state otherwise.

    A frame of a product sweep whose bit is set in its run's validity mask
    for this formula object, ``kind`` and ``max_bits`` (``_verdict``) is
    valid at once.  Every other frame is evaluated on its own, a swept one
    with the program its walk's memo holds.
    """
    handle = frame.__dict__.get(_RUN)
    if handle is None:
        _check_kind(frame, kind)
        return _program_valid(frame, _program(f), kind, max_bits)
    run, index = handle
    valid = _verdict(frame, run, f, kind, max_bits)[3]
    if valid is not None and valid >> index & 1:
        return _VALID
    return _program_valid(frame, run.shared[id(f), kind].program, kind,
                          max_bits)


def _verdict(frame: NeighborhoodModel, run, f: Formula, kind: SemanticsKind,
             max_bits: int) -> tuple:
    """The run's ``valid_verdict`` for (``f``, ``kind``, ``max_bits``):
    ``(f, kind, max_bits, mask)``, kept on the run and returned while its
    key matches by identity, else built from the walk's ``_Memo`` for
    (``f``, ``kind``).  ``mask`` has bit j set iff frame j is valid, and is
    None for a run of one frame or a deeper program whose run does not fit
    one pass.  Refused like ``frame_valid``."""
    kept = run.valid_verdict
    if (kept is not None and kept[0] is f and kept[1] is kind
            and kept[2] == max_bits):
        return kept
    _check_kind(frame, kind)
    n = len(frame.states)
    memo = run.shared.get((id(f), kind))
    if memo is None:
        memo = run.shared[id(f), kind] = _Memo(f, kind, n)
    _check_bits(n, len(memo.program.names), max_bits)
    if memo.run is not run:
        memo.run, memo.mask = run, None
        if len(run.families) > 1:  # a run of one frame has nothing to share
            memo.mask = (_run_mask(memo, frame, run) if memo.tables is None
                         else _local_mask(memo, frame, run))
    run.valid_verdict = (f, kind, max_bits, memo.mask)
    return run.valid_verdict


def _local_mask(memo: _Memo, frame: NeighborhoodModel, run) -> int:
    """The run's validity mask for a state-local program, from the memo's
    tables.  The head states' entries are fixed for the run, and the last
    state's entries over the walk's list give ``memo.last``, built once.
    Missing entries are filled by one run pass if the run fits one, else
    frame by frame."""
    tables = memo.tables
    if memo.last is None:
        if any(fam not in tables[-1] for fam in run.families):
            _fill(memo, frame, run)
        last = 0
        for j, fam in enumerate(run.families):
            if tables[-1][fam]:
                last |= 1 << j
        memo.last = last
    for table, fam in zip(tables, run.head):
        ok = table.get(fam)
        if ok is None:
            return memo.last if all(memo.store(frame)[:-1]) else 0
        if not ok:
            return 0
    return memo.last


def _fill(memo: _Memo, frame: NeighborhoodModel, run) -> None:
    """Store every frame of the run in the memo's tables: from one run pass
    if the program has atoms and the run fits one pass, else from one
    evaluation per frame (with no atoms a frame has one valuation, and
    ``_modal``'s one-valuation path beats a pass over minterm planes)."""
    count = len(run.families)
    zeros = _run_zeros(memo, frame, run) if memo.bits else None
    v = 1 << memo.bits
    plane = (1 << v) - 1
    for j, fam in enumerate(run.families):
        fams = run.head + (fam,)
        if zeros is None:
            memo.store(NeighborhoodModel(frame.states, fams))
            continue
        for s, (table, entry) in enumerate(zip(memo.tables, fams)):
            table[entry] = not zeros >> (s * count + j) * v & plane


def _run_zeros(memo: _Memo, frame: NeighborhoodModel, run) -> int | None:
    """The run's zero planes from one pass of width L·V, None if L·V does
    not fit ``_CHUNK_BITS``: bits [s·L·V + j·V, s·L·V + (j+1)·V) are frame
    j's falsified valuations at state s.  States 0..n−2 read ``frame``'s
    families, which the run shares; the last state reads the run's
    selectors."""
    count = len(run.families)
    if count << memo.bits > 1 << _CHUNK_BITS:
        return None
    prog, kind = memo.program, memo.kind
    n, k = len(frame.states), len(prog.names)
    width = count << memo.bits
    sels = _selectors(run.families, n, 1 << memo.bits,
                      kind is SemanticsKind.OLD)
    value = _run(prog, frame, kind, width, _run_layout(n, k, count), sels)
    return ((1 << n * width) - 1) ^ value


def _run_mask(memo: _Memo, frame: NeighborhoodModel, run) -> int | None:
    """The run's validity mask from its zero planes (``_run_zeros``): frame
    j is valid iff its V bits are clear in every state's plane.  None if
    the run does not fit one pass."""
    zeros = _run_zeros(memo, frame, run)
    if zeros is None:
        return None
    count = len(run.families)
    v = 1 << memo.bits
    width = count * v
    block = (1 << width) - 1
    folded = 0
    for s in range(len(frame.states)):
        folded |= zeros >> s * width & block
    plane = (1 << v) - 1
    valid = 0
    for j in range(count):
        if not folded >> j * v & plane:
            valid |= 1 << j
    return valid


@lru_cache(maxsize=64)
def _selectors(families: tuple[frozenset[int], ...], n: int, v: int,
               old: bool) -> _Selectors:
    full = (1 << n) - 1
    plane = (1 << v) - 1
    delta = [0] * (full + 1)
    box = [0] * (full + 1)
    for j, fam in enumerate(families):
        bit = plane << j * v
        for mask in fam:
            box[mask] |= bit
            delta[mask] |= bit
            if old:
                delta[full ^ mask] |= bit
    return tuple(tuple((mask, sel) for mask, sel in enumerate(sels) if sel)
                 for sels in (delta, box))


@lru_cache(maxsize=64)
def _run_layout(n: int, k: int, count: int) -> tuple[int, ...]:
    """Each atom's value over ``count`` frames at once: its one-pass value
    from ``_layout``, each state's plane repeated ``count`` times."""
    _, atoms, _ = _layout(n, k)
    v = 1 << n * k
    width = count * v
    plane = (1 << v) - 1
    repeat = ((1 << width) - 1) // plane
    return tuple(sum((a >> s * v & plane) * repeat << s * width
                     for s in range(n))
                 for a in atoms)


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
