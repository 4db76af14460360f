"""Bisimulation checking, greatest bisimilarity, and logical equivalence.

Six notions are supported, all but one phrased through coherent pairs: a pair
of subsets (U, U') is Z-coherent when every (x, y) in Z has x in U iff y in
U'.  These are exactly the unions of blocks of Z's partition: its connected
components, plus each state that Z leaves out as a block of its own.

``max_bisim`` and ``logical_equiv_partition`` share one refinement core over
the disjoint union of the models: group states by atoms, then split blocks by
a per-state signature until the block count stops growing.  Refinement only
splits, so a one-state block is final and its state is never signed.  Greatest
bisimilarity is the final partition's cross-model part; same-side states take
part, which makes it line up with logical equivalence on finite models.  A
signature says which unions U of blocks make Δ hold, read off the input:

- Kripke: with Q the blocks R(s) meets, Δ holds iff Q ⊆ U or Q ∩ U = ∅.
- ``new`` (and ``c``, ``monotonic-c``, ``qf``): Δ holds iff U ∩ P is the
  block set of a member of N(s) that is a union of blocks' pieces, P being
  the blocks with states in s's model.
- ``old`` (and ``nbh-delta``): the same, with those block sets' complements
  within P.

Each is a family of block sets over coordinates P (Kripke: {∅, Q} over Q),
reduced to its essential coordinates, those whose toggle changes it, so equal
signatures mean the same unions, across models too.  Kripke's is closed-form:
({∅, Q} over Q) if Q has two or more blocks, else ({∅} over none), since Δ
then holds on every union.  ``c-monotonic`` uses the ⊆-minimal block sets
met by N(s), equal exactly when zig and zag hold.

``check_bisim`` compares the same signatures over Z's partition, and
``_least_difference`` finds both its witnesses and ``char_formula``'s unions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Hashable, Iterable, Sequence

from .formula import And, Atom, Bot, Delta, Formula, Not, Or, Top
from .model import KripkeModel, Model, bits, first_failing
from .semantics import SemanticsKind


class BisimKind(Enum):
    NBH_DELTA = "nbh-delta"
    C = "c"
    MONOTONIC_C = "monotonic-c"
    C_MONOTONIC = "c-monotonic"
    QF = "qf"
    REL_DELTA = "rel-delta"


#: The composite model class each neighborhood notion requires.
_KIND_CLASS = {
    BisimKind.C: "c-model",
    BisimKind.MONOTONIC_C: "monotonic-c",
    BisimKind.C_MONOTONIC: "monotonic-c",
    BisimKind.QF: "quasi-filter",
}

StateRef = tuple[int, int]   # (model index, state index)
Block = frozenset[StateRef]

#: The semantics whose Δ clause each notion compares (``c-monotonic`` aside).
_KIND_SEMANTICS = {BisimKind.REL_DELTA: SemanticsKind.KRIPKE,
                   BisimKind.NBH_DELTA: SemanticsKind.OLD}


@dataclass(frozen=True)
class PairRelation:
    """Cross-model state pairs, by name; ``left``/``right`` label the models."""

    pairs: frozenset[tuple[str, str]]
    left: str = ""
    right: str = ""

    @classmethod
    def of(cls, pairs: Iterable[tuple[str, str]], left: str = "",
           right: str = "") -> "PairRelation":
        return cls(frozenset(pairs), left, right)

    def __len__(self) -> int:
        return len(self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)


@dataclass(frozen=True)
class BisimVerdict:
    """Outcome of ``check_bisim``; falsy iff a clause was violated."""

    ok: bool
    pair: tuple[str, str] | None = None
    witness: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _index_pairs(z: PairRelation, left: Model, right: Model
                 ) -> list[tuple[int, int]]:
    return [(left.index(a), right.index(b)) for a, b in sorted(z.pairs)]


def is_coherent(z: PairRelation, left: Model, right: Model,
                u: int, u2: int) -> bool:
    """Whether every pair of ``z`` agrees on membership in (u, u2)."""
    return all((u >> i & 1) == (u2 >> j & 1)
               for i, j in _index_pairs(z, left, right))


def _check_class(kind: BisimKind, left: Model, right: Model) -> None:
    needs_kripke = kind is BisimKind.REL_DELTA
    for side, m in (("left", left), ("right", right)):
        if isinstance(m, KripkeModel) != needs_kripke:
            want = "Kripke" if needs_kripke else "neighborhood"
            raise ValueError(f"{kind.value} bisimulation needs {want} models; "
                             f"{side} model is a {type(m).__name__}")
        prop = (first_failing(m, _KIND_CLASS[kind])
                if kind in _KIND_CLASS else None)
        if prop is not None:
            raise ValueError(f"{kind.value} bisimulation requires property "
                             f"({prop.value}); it fails on the {side} model")


def _zig(fam_a, fam_b, partner_of_b_in_a):
    """there-exists side of the monotone clauses: every X in fam_a has a
    matching X' in fam_b all of whose members have a Z-partner inside X."""
    for x in fam_a:
        ok = False
        for x2 in fam_b:
            if all(partner_of_b_in_a[t] & x for t in bits(x2)):
                ok = True
                break
        if not ok:
            return x
    return None


def _coherence_blocks(pairs: Sequence[tuple[int, int]], n_left: int,
                      n_right: int) -> tuple[list[list[StateRef]], int]:
    """Z's partition, numbered so that ``W ^ prefer`` orders block sets as
    coherent pairs by U ascending, then U''s Z-free part descending: the
    free right states first, as ``prefer``, then by highest left state."""
    # right state j is node j, left state i is node n_right + i
    comp = [{t} for t in range(n_right + n_left)]
    for i, j in pairs:
        a, b = comp[n_right + i], comp[j]
        if a is not b:
            a |= b
            for t in b:
                comp[t] = a
    ordered = sorted({id(c): c for c in comp}.values(), key=max)
    blocks = [[(1, t) if t < n_right else (0, t - n_right) for t in c]
              for c in ordered]
    return blocks, (1 << sum(max(c) < n_right for c in ordered)) - 1


def check_bisim(kind: BisimKind, z: PairRelation, left: Model,
                right: Model) -> BisimVerdict:
    """Whether ``z`` satisfies every clause of the given bisimulation notion.

    A violation names the first failing pair of ``z`` in sorted order.  For
    the Δ notions its witness is the least coherent pair (U, U') at which
    the clause breaks: least U as a bitmask, then the greatest Z-free part
    of U'.
    """
    _check_class(kind, left, right)
    if not z.pairs:
        raise ValueError("a bisimulation is a nonempty relation")
    pairs = _index_pairs(z, left, right)

    masks = [(left.atom_mask(p), right.atom_mask(p))
             for p in left.valuation.keys() | right.valuation.keys()]
    for i, j in pairs:
        if any(a >> i & 1 != b >> j & 1 for a, b in masks):
            return BisimVerdict(False, (left.states[i], right.states[j]),
                                reason="states disagree on an atom")

    if kind is BisimKind.C_MONOTONIC:
        pred = [0] * right.n
        succ = [0] * left.n
        for i, j in pairs:
            pred[j] |= 1 << i
            succ[i] |= 1 << j
        for i, j in pairs:
            x = _zig(left.neighborhoods[i], right.neighborhoods[j], pred)
            if x is not None:
                return BisimVerdict(False, (left.states[i], right.states[j]),
                                    witness=(left.names(x), ()),
                                    reason="no matching right neighborhood (zig)")
            x2 = _zig(right.neighborhoods[j], left.neighborhoods[i], succ)
            if x2 is not None:
                return BisimVerdict(False, (left.states[i], right.states[j]),
                                    witness=((), right.names(x2)),
                                    reason="no matching left neighborhood (zag)")
        return BisimVerdict(True)

    blocks, prefer = _coherence_blocks(pairs, left.n, right.n)
    (block_of, block_of2), (pieces, pieces2) = _layout((left, right), blocks)
    sem = _KIND_SEMANTICS.get(kind, SemanticsKind.NEW)
    sigs, sigs2 = {}, {}
    for i, j in pairs:
        if i not in sigs:
            sigs[i] = _delta_signature(left, sem, i, block_of, pieces)
        if j not in sigs2:
            sigs2[j] = _delta_signature(right, sem, j, block_of2, pieces2)
        if sigs[i] != sigs2[j]:
            w = _least_difference(sigs[i], sigs2[j], prefer)
            u = u2 = 0
            for b in bits(w):
                u |= pieces[b]
                u2 |= pieces2[b]
            return BisimVerdict(False, (left.states[i], right.states[j]),
                                witness=(left.names(u), right.names(u2)),
                                reason="coherent pair breaks the clause")
    return BisimVerdict(True)


def max_bisim(kind: BisimKind, left: Model, right: Model) -> PairRelation:
    """Greatest bisimilarity of the given kind between the two models.

    The refinement runs over the disjoint union of the models, so pairs of
    same-side states take part and constrain coherence; the result is the
    cross-model restriction.  (A bisimulation confined to cross-model pairs
    leaves states without partners unconstrained, which on some finite
    models separates bisimilarity from logical equivalence; working on the
    union restores the match.)  May be empty ("no bisimilar pairs");
    every relation accepted by ``check_bisim`` is contained in the result.
    """
    _check_class(kind, left, right)
    sem = _KIND_SEMANTICS.get(kind, SemanticsKind.NEW)
    signature = (_minimal_signature if kind is BisimKind.C_MONOTONIC
                 else _delta_signature)
    vocab = tuple(sorted(left.valuation.keys() | right.valuation.keys()))
    part = _refine((left, right), (sem, sem), vocab, signature)
    return PairRelation(part.cross_pairs())


# ---------------------------------------------------------------------------
# Logical-equivalence partitions by depth refinement.

def _model_kind(m: Model, kind: SemanticsKind) -> SemanticsKind:
    if isinstance(m, KripkeModel):
        return SemanticsKind.KRIPKE
    if kind is SemanticsKind.KRIPKE:
        raise ValueError("Kripke semantics does not apply to neighborhood models")
    return kind


@dataclass
class Partition:
    """Blocks of the disjoint union of the input models, refined per depth.

    ``history[d]`` lists the depth-d blocks; refinement only splits, so the
    final entry is the full logical-equivalence partition over the vocabulary.
    """

    models: tuple[Model, ...]
    kinds: tuple[SemanticsKind, ...]
    vocab: tuple[str, ...]
    history: list[list[Block]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.history) - 1

    def blocks_at(self, depth: int) -> list[Block]:
        return self.history[depth]

    def block_index(self, depth: int, ref: StateRef) -> int:
        for b, block in enumerate(self.history[depth]):
            if ref in block:
                return b
        raise ValueError(f"state {ref} not covered by the partition")

    def cross_pairs(self, left: int = 0, right: int = 1,
                    depth: int = -1) -> frozenset[tuple[str, str]]:
        """Same-block pairs between two of the input models, by state name."""
        out = []
        for block in self.history[depth]:
            lefts = [s for mi, s in block if mi == left]
            rights = [s for mi, s in block if mi == right]
            out.extend((self.models[left].states[a], self.models[right].states[b])
                       for a in lefts for b in rights)
        return frozenset(out)


def _met(mask: int, block_of: list[int], pieces: list[int]) -> int:
    """The blocks that the states of ``mask`` lie in."""
    out = 0
    while mask:
        b = block_of[(mask & -mask).bit_length() - 1]
        out |= 1 << b
        mask &= ~pieces[b]
    return out


def _canonical(coords: int, family: set[int]) -> tuple[int, frozenset[int]]:
    """The family of block sets over ``coords``, reduced to its essential
    coordinates: those whose toggle changes the family."""
    essential = 0
    while coords:
        bit = coords & -coords
        coords ^= bit
        for x in family:
            if x ^ bit not in family:
                essential |= bit
                break
    return essential, frozenset(x & essential for x in family)


#: The canonical family that holds on every union: Δ is constant.
_NO_SPLIT = (0, frozenset((0,)))


def _delta_signature(m: Model, kind: SemanticsKind, s: int,
                     block_of: list[int], pieces: list[int]
                     ) -> tuple[int, frozenset[int]]:
    """Which unions of blocks make Δ hold at ``s``, in canonical form."""
    if kind is SemanticsKind.KRIPKE:
        # _canonical(met, {0, met}) in closed form: one met block is no
        # essential coordinate, since toggling it swaps ∅ and met
        met = _met(m.succ[s], block_of, pieces)
        return (met, frozenset((0, met))) if met & (met - 1) else _NO_SPLIT
    present = _met(m.full, block_of, pieces)
    family = set()
    for x in m.neighborhoods[s]:
        blocks = 0
        rest = x
        while rest:
            b = block_of[(rest & -rest).bit_length() - 1]
            if pieces[b] & ~x:
                break   # x cuts block b, so no union of blocks is x
            blocks |= 1 << b
            rest &= ~pieces[b]
        else:
            family.add(blocks)
            if kind is SemanticsKind.OLD:
                family.add(present & ~blocks)
    return _canonical(present, family)


def _minimal_signature(m: Model, kind: SemanticsKind, s: int,
                       block_of: list[int], pieces: list[int]
                       ) -> frozenset[int]:
    """The ⊆-minimal block sets met by the members of N(s)."""
    met = {_met(x, block_of, pieces) for x in m.neighborhoods[s]}
    return frozenset(a for a in met
                     if not any(b != a and b & a == b for b in met))


def _least_difference(sig: tuple[int, frozenset[int]],
                      sig2: tuple[int, frozenset[int]],
                      prefer: int = 0) -> int:
    """The least block set W, by ``W ^ prefer``, on which two canonical
    signatures disagree.  For each member x of one side's family, W is x on
    that side's coordinates, its least value off both sides' coordinates,
    and the least completion on the other side's own coordinates that falls
    outside the other family: at most |F| + 1 tries, since the completions
    that fail are distinct members of F."""
    best = None
    for (ess, fam), (ess2, fam2) in ((sig, sig2), (sig2, sig)):
        only2 = ess2 & ~ess
        flip = prefer & only2
        rest = prefer & ~(ess | ess2)
        for x in fam:
            fixed = x & ess2
            rank = 0   # the completion's rank over only2, least first
            while fixed | (rank ^ flip) in fam2:
                rank = ((rank | ~only2) + 1) & only2
                if not rank:
                    break   # every completion lies in the other family
            else:
                w = x | (rank ^ flip) | rest
                if best is None or w ^ prefer < best ^ prefer:
                    best = w
    if best is None:
        raise AssertionError("equal signatures have no difference")
    return best


def _layout(models: Sequence[Model], blocks: Sequence[Iterable[StateRef]]
            ) -> tuple[list[list[int]], list[list[int]]]:
    """``block_of[mi][s]``, the block of model mi's state s, and
    ``pieces[mi][b]``, the mask of block b's states in model mi."""
    block_of = [[0] * m.n for m in models]
    pieces = [[0] * len(blocks) for _ in models]
    for b, block in enumerate(blocks):
        for mi, s in block:
            block_of[mi][s] = b
            pieces[mi][b] |= 1 << s
    return block_of, pieces


def _sorted_blocks(groups: Iterable[list[StateRef]]) -> list[Block]:
    return [frozenset(group) for group in sorted(groups, key=min)]


def _refine(models: Sequence[Model], kinds: Sequence[SemanticsKind],
            vocab: tuple[str, ...], signature: Callable[..., Hashable]
            ) -> Partition:
    """Group the states of ``models`` by atom truth over ``vocab``, then split
    blocks by ``signature(model, kind, state, block_of, pieces)`` until the
    block count stops growing.  ``block_of[t]`` is the block of the model's
    state t, ``pieces[b]`` the mask of block b's states in the model.

    Refinement only splits, so a one-state block is final: it is carried
    over unsigned, and a round with no larger block signs nothing."""
    part = Partition(tuple(models), tuple(kinds), vocab)
    by_atoms: dict[tuple[int, ...], list[StateRef]] = {}
    for mi, m in enumerate(models):
        masks = [m.atom_mask(p) for p in vocab]
        for s in range(m.n):
            key = tuple(mask >> s & 1 for mask in masks)
            by_atoms.setdefault(key, []).append((mi, s))
    blocks = _sorted_blocks(by_atoms.values())
    part.history.append(blocks)

    while True:
        block_of, pieces = _layout(models, blocks)
        grouped: dict[tuple[int, Hashable], list[StateRef]] = {}
        for b, block in enumerate(blocks):
            if len(block) == 1:
                grouped[b, None] = list(block)
                continue
            for mi, s in block:
                sig = signature(models[mi], kinds[mi], s, block_of[mi],
                                pieces[mi])
                grouped.setdefault((b, sig), []).append((mi, s))
        if len(grouped) == len(blocks):
            return part
        blocks = _sorted_blocks(grouped.values())
        part.history.append(blocks)


def logical_equiv_partition(models: Sequence[Model], vocab: Iterable[str],
                            kind: SemanticsKind) -> Partition:
    """Refine the disjoint union of ``models`` until no formula over ``vocab``
    splits a block.

    Depth 0 groups by atom truth; depth d+1 splits two states when the
    non-contingency clause disagrees on some union of depth-d blocks.  Kripke
    models in the list use the Kripke clause; neighborhood models use
    ``kind``.  Stabilizes within the total state count.
    """
    kinds = tuple(_model_kind(m, kind) for m in models)
    return _refine(models, kinds, tuple(sorted(set(vocab))), _delta_signature)


def char_formula(partition: Partition, block: Block | int, depth: int) -> Formula:
    """A formula over the partition's vocabulary that is true exactly on the
    block's states, at depth-``depth`` granularity, in every input model."""
    if not 0 <= depth < len(partition.history):
        raise ValueError(f"partition is computed to depth {partition.depth}, "
                         f"not {depth}")
    if isinstance(block, int):
        block_id = block
    else:
        block_id = partition.history[depth].index(block)
    return _char(partition, block_id, depth, {})


def _literal_conj(partition: Partition, block_id: int, depth: int) -> Formula:
    block = partition.history[depth][block_id]
    mi, s = min(block)
    literals = []
    for p in partition.vocab:
        atom = Atom(p)
        if partition.models[mi].atom_mask(p) >> s & 1:
            literals.append(atom)
        else:
            literals.append(Not(atom))
    return _conj(literals)


def _conj(parts: list[Formula]) -> Formula:
    if not parts:
        return Top()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def _disj(parts: list[Formula]) -> Formula:
    if not parts:
        return Bot()
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def _ancestor(partition: Partition, block_id: int, depth: int, at: int) -> int:
    ref = min(partition.history[depth][block_id])
    return partition.block_index(at, ref)


def _char(partition: Partition, block_id: int, depth: int,
          memo: dict[tuple[int, int], Formula]) -> Formula:
    key = (block_id, depth)
    if key in memo:
        return memo[key]
    if len(partition.history[depth]) == 1:
        memo[key] = Top()
        return Top()
    if depth == 0:
        out = _literal_conj(partition, block_id, 0)
        memo[key] = out
        return out

    conjuncts: dict[str, Formula] = {}
    for other in range(len(partition.history[depth])):
        if other == block_id:
            continue
        sep = _separator(partition, block_id, other, depth, memo)
        conjuncts.setdefault(str(sep), sep)
    out = _conj(list(conjuncts.values()))
    memo[key] = out
    return out


def _separator(partition: Partition, block_id: int, other: int, depth: int,
               memo: dict[tuple[int, int], Formula]) -> Formula:
    """A formula true on every state of ``block_id`` and false on every state
    of ``other`` (both depth-``depth`` blocks)."""
    # Walk up to the first depth where the two blocks' ancestors differ.
    split_at = depth
    for at in range(depth + 1):
        if _ancestor(partition, block_id, depth, at) != _ancestor(
                partition, other, depth, at):
            split_at = at
            break
    ref = min(partition.history[depth][block_id])
    ref2 = min(partition.history[depth][other])
    if split_at == 0:
        mi, s = ref
        mj, t = ref2
        for p in partition.vocab:
            mine = partition.models[mi].atom_mask(p) >> s & 1
            theirs = partition.models[mj].atom_mask(p) >> t & 1
            if mine != theirs:
                return Atom(p) if mine else Not(Atom(p))
        raise AssertionError("depth-0 blocks must differ on some atom")
    # The numerically least separating union keeps the formulas stable.
    base = split_at - 1
    block_of, pieces = _layout(partition.models, partition.history[base])
    sig, sig2 = (_delta_signature(partition.models[mi], partition.kinds[mi], s,
                                  block_of[mi], pieces[mi])
                 for mi, s in (ref, ref2))
    union = _least_difference(sig, sig2)
    body = _disj([_char(partition, b, base, memo) for b in bits(union)])
    essential, family = sig
    return Delta(body) if union & essential in family else Not(Delta(body))
