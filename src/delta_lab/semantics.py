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
modal step tests membership directly.  ``frame_valid`` keeps the program of
the last formula it was given, checked with ``is``.

``frame_valid`` numbers the valuations of the sorted atoms with the first
atom most significant: valuation v gives atom i the state mask
(v >> n·(k-1-i)) & full.  The witness is the lowest falsifying v and the
lowest state falsified under it.  Sweeps wider than ``_CHUNK_BITS`` run in
passes that fix the leading bits of v and sweep the trailing ones, in
ascending order, stopping at the first failing pass.

A program of modal depth at most 1 is *state-local*: its truth at state s
under valuation v reads only N(s) (or R(s)) and v, so the state's lowest
falsifying v is fixed by (semantics, n, s, N(s)).  ``frame_valid`` keeps one
memo, for the last (program, semantics, state names) it was given: the
program and semantics are checked with ``is``, the names with ``is`` and
then ``==``, and anything else starts a new memo.  For a state-local program
it holds one table per state, keyed by that state's family (or successor
mask) object, which sweep frames share.  A frame whose every state is in
its table gets its witness with no evaluation: the least of the states'
entries, at the lowest state that has it.  On a miss the frame is evaluated
once, with passes continuing until each state has its first zero, and every
state's entry is stored.  On every path, a memo builds the falsifying
``FrameCheck`` once per (lowest index, its lowest state) and shares it with
every frame that has that witness; its valuation is a plain dict, so it
pickles.  Deeper programs take the whole-frame path above.

A frame tagged by ``generators``' product sweep belongs to a *run*: the L
frames that differ only in the last state's family, which takes each
family of the run's list in turn.  The run is the unit of decision:
``run_valid`` gives a mask whose bit j is set iff frame j validates the
program, computed once per (run, program, semantics) and kept on the run,
and ``frame_valid`` on a tagged frame reads its bit and returns at once if
it is set.  A run of one frame takes the paths above.

- A state-local program's mask comes from the memo's tables, which are its
  source: the head states' entries are fixed for the run, so one of them
  without a zero makes the mask 0, and the last state's entries over the
  list give a mask that is built once and kept in the runs' shared dict.  A
  run with missing entries fills them first, from one run pass (below) if
  the program has atoms and the run fits one, else frame by frame, and is
  then decided; it is never retried per frame.  An invalid frame gets its
  witness from the tables, as an untagged frame does.
- A deeper program's mask comes from one pass at width L·V, if L·V fits in
  2^``_CHUNK_BITS`` bits per state (V = 2^(n·k) valuations, so the program
  also runs in one pass): bits [s·L·V + j·V, s·L·V + (j+1)·V) are frame j's
  plane at state s.  States 0..n−2 OR their shared family's minterms as
  above; the last state ORs M_X & sel_X over every X, where sel_X has the
  planes of the frames whose last family holds X (for ``old`` Δ, X or
  S∖X).  Frame j is valid iff its planes hold no zero in any state.  The
  zero planes stay on the run, and an invalid frame that is checked reads
  its first-zeros list from them.  A run that does not fit has no mask,
  and its frames take the whole-frame path.

Only ``frame_valid`` and ``run_valid`` decide locality; ``extension`` and
``taut_valid`` never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

from .formula import And, Atom, Box, Delta, Formula, Not, Top, to_core
from .model import (_RUN, BudgetError, KripkeModel, NeighborhoodModel,
                    _swept_frame, bits)


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
# entry cannot grow over many distinct formulas.
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
    """What ``frame_valid`` keeps for one (program, semantics, state names):
    ``tables[s]`` maps state s's family (or successor mask) to the state's
    lowest falsifying valuation index, or 2^(n·k) if none, and is None for
    a program of modal depth 2 or more; ``witnesses`` holds one falsifying
    ``FrameCheck`` per (valuation index, state), shared by every frame that
    has it.  Both are cleared when they pass ``_MEMO_LIMIT`` entries."""

    __slots__ = ("program", "kind", "states", "bits", "tables", "size",
                 "witnesses")

    def __init__(self, program: Program | None, kind: SemanticsKind | None,
                 states: tuple[str, ...], local: bool):
        self.program, self.kind, self.states = program, kind, states
        self.bits = len(states) * len(program.names) if program else 0
        self.tables = [{} for _ in states] if local else None
        self.size = 0
        self.witnesses: dict[int, FrameCheck] = {}

    def store(self, entries: Sequence, first: list[int]) -> None:
        """Keep each state's first-zeros entry under its family."""
        if self.size + len(first) > _MEMO_LIMIT:
            for table in self.tables:
                table.clear()
            self.size = 0
        for table, entry, index in zip(self.tables, entries, first):
            table[entry] = index
        self.size = sum(map(len, self.tables))

    def witness(self, frame: Model, first: list[int]) -> FrameCheck:
        """``_witness`` of ``frame``, which has these state names: built
        once per (lowest index, lowest state falsified under it), then
        shared."""
        index = min(first)
        if index >> self.bits:
            return _VALID
        key = index * len(first) + first.index(index)
        got = self.witnesses.get(key)
        if got is None:
            if len(self.witnesses) >= _MEMO_LIMIT:
                self.witnesses.clear()
            got = self.witnesses[key] = _witness(frame, self.program.names,
                                                 first)
        return got


# The memo of the last (program, semantics, state names) that
# ``frame_valid`` was given.  A new program or semantics, or other state
# names, start a new one, so no memo outlives its program.
_memo = _Memo(None, None, (), False)
_MEMO_LIMIT = 1 << 16


def _renew(prog: Program, kind: SemanticsKind, states: tuple[str, ...]
           ) -> _Memo:
    global _memo
    memo = _memo
    if memo.program is prog and memo.kind is kind and memo.states == states:
        memo.states = states  # equal names: later frames pass the ``is`` test
    else:
        memo = _memo = _Memo(prog, kind, states, _modal_depth(prog) <= 1)
    return memo


def frame_valid(frame: Model, f: Formula, kind: SemanticsKind,
                max_bits: int = 24) -> FrameCheck:
    """Validity of ``f`` on the frame: every valuation of vars(f), every state.

    Each variable ranges over all subsets of the state set, so the sweep has
    2^(|S| * |vars|) valuations; sweeps beyond ``max_bits`` exponent bits are
    refused.  Returns the first falsifying valuation and state otherwise.
    """
    memo = _memo_for(frame, f, kind, max_bits)
    handle = frame.__dict__.get(_RUN)
    if handle is not None:
        run, index = handle
        if run.program is memo.program and run.kind is kind:
            valid = run.valid
        else:
            valid = _run_mask(memo, frame, run)
        if valid is not None:
            if valid >> index & 1:
                return _VALID
            if memo.tables is None:
                return memo.witness(frame, _plane_firsts(
                    run.zeros, len(run.families), index, memo.bits,
                    len(frame.states)))
    tables = memo.tables
    if tables is None:
        return memo.witness(frame, _first_zeros(frame, memo.program, kind, 1))
    rel = frame.succ if kind is SemanticsKind.KRIPKE else frame.neighborhoods
    try:
        first = [table[entry] for table, entry in zip(tables, rel)]
    except KeyError:
        first = _first_zeros(frame, memo.program, kind, len(tables))
        memo.store(rel, first)
    return memo.witness(frame, first)


def _memo_for(frame: Model, f: Formula, kind: SemanticsKind,
              max_bits: int) -> _Memo:
    """The memo of ``f``'s program under ``kind`` for ``frame``'s state
    names, once the sweep's size is checked against ``max_bits``."""
    _check_kind(frame, kind)
    prog = _program(f)
    states = frame.states
    memo = _memo
    if (memo.states is not states or memo.program is not prog
            or memo.kind is not kind):
        memo = _renew(prog, kind, states)
    if memo.bits > max_bits:
        _check_bits(len(states), len(prog.names), max_bits)
    return memo


def run_valid(frame: Model, f: Formula, kind: SemanticsKind,
              max_bits: int = 24) -> int | None:
    """Validity of ``f`` over the run of a frame tagged by ``generators``'
    product sweep: bit j is set iff frame j of the run validates ``f``.
    None for an untagged frame, or for a program of modal depth 2 or more
    on a run that does not fit one pass.  Refused like ``frame_valid``."""
    memo = _memo_for(frame, f, kind, max_bits)
    handle = frame.__dict__.get(_RUN)
    return None if handle is None else _run_mask(memo, frame, handle[0])


def _run_mask(memo: _Memo, frame: NeighborhoodModel, run) -> int | None:
    """``run_valid``'s mask for ``memo``'s program and semantics, computed
    once per run and kept on it, with the zero planes it came from."""
    prog, kind = memo.program, memo.kind
    if run.program is not prog or run.kind is not kind:
        if len(run.families) < 2:
            # a run of one frame has nothing to share: the per-frame paths
            run.valid = run.zeros = None
        elif memo.tables is None:
            run.valid, run.zeros = _run_planes(memo, frame, run)
        else:
            run.valid, run.zeros = _local_mask(memo, frame, run), None
        run.program, run.kind = prog, kind
    return run.valid


def _local_mask(memo: _Memo, frame: NeighborhoodModel, run) -> int:
    """The run's validity mask for a state-local program, from the memo's
    tables.  The head states' entries are fixed for the run.  The last
    state's entries over the run's list are read once per list, and the
    mask they give is kept in ``run.shared``.  Missing entries are filled by
    one run pass if the run fits one, else frame by frame."""
    prog, kind, tables = memo.program, memo.kind, memo.tables
    cached = run.shared.get(_LAST_VALID)
    if cached is None or cached[0] is not prog or cached[1] is not kind:
        table = tables[-1]
        entries = [table.get(fam) for fam in run.families]
        if None in entries:
            entries = _fill(memo, frame, run)
        last = 0
        for j, entry in enumerate(entries):
            if entry >> memo.bits:
                last |= 1 << j
        cached = run.shared[_LAST_VALID] = (prog, kind, last)
    for table, fam in zip(tables, run.head):
        entry = table.get(fam)
        if entry is None:
            first = _first_zeros(frame, prog, kind, len(tables))
            memo.store(frame.neighborhoods, first)
            return cached[2] if min(first[:-1]) >> memo.bits else 0
        if not entry >> memo.bits:
            return 0
    return cached[2]


# Key of a state-local program's last-state mask in a run's ``shared``
# dict: (program, semantics, mask of the list's families under which the
# last state has no falsifying valuation).
_LAST_VALID = "last-valid"


def _fill(memo: _Memo, frame: NeighborhoodModel, run) -> list[int]:
    """Store every frame of the run in the memo's tables, and return the
    last state's entry of each: from one run pass if the program has atoms
    and the run fits one pass, else from one evaluation per frame (with no
    atoms a frame has one valuation, and ``_modal``'s one-valuation path
    beats a pass over minterm planes)."""
    n = len(frame.states)
    _, zeros = _run_planes(memo, frame, run) if memo.bits else (None, None)
    entries = []
    for index, fam in enumerate(run.families):
        fams = run.head + (fam,)
        if zeros is not None:
            first = _plane_firsts(zeros, len(run.families), index, memo.bits,
                                  n)
        else:
            first = _first_zeros(_swept_frame(frame.states, fams),
                                 memo.program, memo.kind, n)
        memo.store(fams, first)
        entries.append(first[-1])
    return entries


def _run_planes(memo: _Memo, frame: NeighborhoodModel, run
                ) -> tuple[int | None, int | None]:
    """The run's validity mask and zero planes from one pass of width L·V;
    (None, None) if L·V does not fit ``_CHUNK_BITS``.  States
    0..n−2 read ``frame``'s families, which the run shares; the last state
    reads the run's selectors."""
    count = len(run.families)
    if count << memo.bits > 1 << _CHUNK_BITS:
        return None, None
    prog, kind = memo.program, memo.kind
    n, k = len(frame.states), len(prog.names)
    v = 1 << memo.bits
    width = count * v
    sels = _selectors(run.families, n, v, kind is SemanticsKind.OLD)
    value = _run(prog, frame, kind, width, _run_layout(n, k, count), sels)
    zeros = ((1 << n * width) - 1) ^ value
    # frame j is valid iff its V bits are clear in every state's plane
    block = (1 << width) - 1
    folded = 0
    for s in range(n):
        folded |= zeros >> s * width & block
    plane = (1 << v) - 1
    valid = 0
    for j in range(count):
        if not folded >> j * v & plane:
            valid |= 1 << j
    return valid, zeros


def _plane_firsts(zeros: int, count: int, index: int, bits: int, n: int
                  ) -> list[int]:
    """The first-zeros list of frame ``index`` of a run of ``count``
    frames, read from the run pass's zero planes (2^bits valuations)."""
    v = 1 << bits
    width = count * v
    plane = (1 << v) - 1
    first = []
    for s in range(n):
        low = zeros >> s * width + index * v & plane
        first.append((low & -low).bit_length() - 1 if low else v)
    return first


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
