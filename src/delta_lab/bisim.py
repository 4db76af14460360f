"""Bisimulation checking, greatest bisimilarity, and logical equivalence.

Six notions are supported, all but one phrased through coherent pairs: a pair
of subsets (U, U') is Z-coherent when every (x, y) in Z has x in U iff y in
U'.  ``check_bisim`` takes the notions literally, streaming the coherent pairs
by enumerating U and propagating the forced memberships into U' through Z.

``max_bisim`` and ``logical_equiv_partition`` share one refinement core over
the disjoint union of the models: group states by atoms, then split blocks by
a per-state signature until the block count stops growing.  Greatest
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
signatures mean the same unions, across models too.  ``c-monotonic`` uses the
⊆-minimal block sets met by N(s), equal exactly when zig and zag hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Callable, Hashable, Iterable, Sequence

from .formula import And, Atom, Bot, Delta, Formula, Not, Or, Top
from .model import (BudgetError, KripkeModel, Model, bits, first_failing,
                    submasks)
from .semantics import SemanticsKind, delta_holds


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


def _coherent_pairs(pairs: Sequence[tuple[int, int]], n_left: int,
                    n_right: int) -> Iterable[tuple[int, int]]:
    """All Z-coherent (U, U'): enumerate U, push forced memberships through
    Z, skip on conflict, and enumerate the unconstrained remainder of the
    right domain."""
    constrained = 0
    for _, j in pairs:
        constrained |= 1 << j
    free = ((1 << n_right) - 1) & ~constrained
    for u in range(1 << n_left):
        forced_in = forced_out = 0
        for i, j in pairs:
            if u >> i & 1:
                forced_in |= 1 << j
            else:
                forced_out |= 1 << j
        if forced_in & forced_out:
            continue
        for extra in submasks(free):
            yield u, forced_in | extra


def _atoms_agree(left: Model, right: Model, i: int, j: int) -> bool:
    for atom in left.valuation.keys() | right.valuation.keys():
        if (left.atom_mask(atom) >> i & 1) != (right.atom_mask(atom) >> j & 1):
            return False
    return True


def _clause(kind: BisimKind, left: Model, right: Model):
    full_l, full_r = left.full, right.full
    if kind is BisimKind.NBH_DELTA:
        def clause(i, j, u, u2):
            fam, fam2 = left.neighborhoods[i], right.neighborhoods[j]
            return ((u in fam or (full_l & ~u) in fam)
                    == (u2 in fam2 or (full_r & ~u2) in fam2))
    elif kind is BisimKind.REL_DELTA:
        def clause(i, j, u, u2):
            r, r2 = left.succ[i], right.succ[j]
            return ((r & u == r or r & u == 0)
                    == (r2 & u2 == r2 or r2 & u2 == 0))
    else:  # C, MONOTONIC_C, QF share the membership biconditional
        def clause(i, j, u, u2):
            return (u in left.neighborhoods[i]) == (u2 in right.neighborhoods[j])
    return clause


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


#: Coherent pairs held at once by ``check_bisim``.
_CHUNK = 1024


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


def _violation(clause, i: int, j: int, chunk: list[tuple[int, int]]
               ) -> tuple[int, int] | None:
    """The first coherent pair of ``chunk`` at which (i, j) breaks the clause."""
    for u, u2 in chunk:
        if not clause(i, j, u, u2):
            return u, u2
    return None


def check_bisim(kind: BisimKind, z: PairRelation, left: Model, right: Model,
                budget: int = 24) -> BisimVerdict:
    """Whether ``z`` satisfies every clause of the given bisimulation notion."""
    _check_class(kind, left, right)
    if not z.pairs:
        raise ValueError("a bisimulation is a nonempty relation")
    pairs = _index_pairs(z, left, right)

    for i, j in pairs:
        if not _atoms_agree(left, right, i, j):
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

    if left.n + right.n > budget:
        raise BudgetError(f"coherent-pair enumeration over {left.n}+{right.n} "
                          f"states exceeds the budget of {budget}")
    clause = _clause(kind, left, right)
    # Pair-major search over chunks of the streamed coherent pairs: it finds
    # what a search over all of them would, the first failing pair of z at
    # its first failing coherent pair, since once pair p has failed, later
    # chunks only need the pairs before it.
    coherent = _coherent_pairs(pairs, left.n, right.n)
    first, witness = len(pairs), None
    while first and (chunk := list(islice(coherent, _CHUNK))):
        for p in range(first):
            bad = _violation(clause, *pairs[p], chunk)
            if bad:
                first, witness = p, bad
                break
    if witness is None:
        return BisimVerdict(True)
    i, j = pairs[first]
    return BisimVerdict(False, (left.states[i], right.states[j]),
                        witness=(left.names(witness[0]), right.names(witness[1])),
                        reason="coherent pair breaks the clause")


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
    sem = {BisimKind.REL_DELTA: SemanticsKind.KRIPKE,
           BisimKind.NBH_DELTA: SemanticsKind.OLD}.get(kind, SemanticsKind.NEW)
    signature = (_minimal_signature if kind is BisimKind.C_MONOTONIC
                 else _delta_signature)
    vocab = tuple(sorted(left.valuation.keys() | right.valuation.keys()))
    part = _refine((left, right), (sem, sem), vocab, signature)
    return PairRelation(part.cross_pairs())


# ---------------------------------------------------------------------------
# Logical-equivalence partitions by depth refinement.

StateRef = tuple[int, int]   # (model index, state index)
Block = frozenset[StateRef]

#: Most base blocks whose unions ``char_formula`` sweeps for a separator.
SEPARATOR_BLOCKS = 20


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

    def _delta_on_union(self, ref: StateRef, depth: int, union: int) -> bool:
        mi, s = ref
        mask = 0
        for b in bits(union):
            mask |= sum(1 << t for mj, t in self.history[depth][b] if mj == mi)
        return delta_holds(self.models[mi], s, mask, self.kinds[mi])


def _met(mask: int, block_of: list[int]) -> int:
    """The blocks that the states of ``mask`` lie in."""
    out = 0
    for t in bits(mask):
        out |= 1 << block_of[t]
    return out


def _canonical(coords: int, family: set[int]) -> tuple[int, frozenset[int]]:
    """The family of block sets over ``coords``, reduced to its essential
    coordinates: those whose toggle changes the family."""
    essential = 0
    for b in bits(coords):
        bit = 1 << b
        if any(x ^ bit not in family for x in family):
            essential |= bit
    return essential, frozenset(x & essential for x in family)


def _delta_signature(m: Model, kind: SemanticsKind, s: int,
                     block_of: list[int], pieces: list[int]
                     ) -> tuple[int, frozenset[int]]:
    """Which unions of blocks make Δ hold at ``s``, in canonical form."""
    if kind is SemanticsKind.KRIPKE:
        met = _met(m.succ[s], block_of)
        return _canonical(met, {0, met})
    present = _met(m.full, block_of)
    family = set()
    for x in m.neighborhoods[s]:
        blocks = 0
        for t in bits(x):
            b = block_of[t]
            if pieces[b] & ~x:
                break   # x cuts block b, so no union of blocks is x
            blocks |= 1 << b
        else:
            family.add(blocks)
            if kind is SemanticsKind.OLD:
                family.add(present & ~blocks)
    return _canonical(present, family)


def _minimal_signature(m: Model, kind: SemanticsKind, s: int,
                       block_of: list[int], pieces: list[int]
                       ) -> frozenset[int]:
    """The ⊆-minimal block sets met by the members of N(s)."""
    met = {_met(x, block_of) for x in m.neighborhoods[s]}
    return frozenset(a for a in met
                     if not any(b != a and b & a == b for b in met))


def _sorted_blocks(groups: Iterable[list[StateRef]]) -> list[Block]:
    return [frozenset(group) for group in sorted(groups, key=min)]


def _refine(models: Sequence[Model], kinds: Sequence[SemanticsKind],
            vocab: tuple[str, ...], signature: Callable[..., Hashable]
            ) -> Partition:
    """Group the states of ``models`` by atom truth over ``vocab``, then split
    blocks by ``signature(model, kind, state, block_of, pieces)`` until the
    block count stops growing.  ``block_of[t]`` is the block of the model's
    state t, ``pieces[b]`` the mask of block b's states in the model."""
    part = Partition(tuple(models), tuple(kinds), vocab)
    by_atoms: dict[tuple[int, ...], list[StateRef]] = {}
    for mi, m in enumerate(models):
        for s in range(m.n):
            key = tuple(m.atom_mask(p) >> s & 1 for p in vocab)
            by_atoms.setdefault(key, []).append((mi, s))
    blocks = _sorted_blocks(by_atoms.values())
    part.history.append(blocks)

    while True:
        block_of = [[0] * m.n for m in models]
        pieces = [[0] * len(blocks) for _ in models]
        for b, block in enumerate(blocks):
            for mi, s in block:
                block_of[mi][s] = b
                pieces[mi][b] |= 1 << s
        grouped: dict[tuple[int, Hashable], list[StateRef]] = {}
        for b, block in enumerate(blocks):
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
    base = split_at - 1
    k = len(partition.history[base])
    if k > SEPARATOR_BLOCKS:
        raise BudgetError(
            f"char_formula sweeps the 2^{k} unions of the {k} depth-{base} "
            f"blocks for a separator; the limit is {SEPARATOR_BLOCKS} blocks")
    # The numerically least separating union keeps the formulas stable.
    for union in range(1 << k):
        mine = partition._delta_on_union(ref, base, union)
        theirs = partition._delta_on_union(ref2, base, union)
        if mine != theirs:
            body = _disj([_char(partition, b, base, memo) for b in bits(union)])
            return Delta(body) if mine else Not(Delta(body))
    raise AssertionError("blocks split at this depth must have a witness union")
