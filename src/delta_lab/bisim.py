"""Bisimulation checking, greatest bisimilarity, and logical equivalence.

Six notions are supported, all but one phrased through coherent pairs: a pair
of subsets (U, U') is Z-coherent when every (x, y) in Z has x in U iff y in
U'.  ``check_bisim`` takes the notions literally, quantifying coherent pairs
by enumerating U and propagating the forced memberships into U' through Z.
``max_bisim`` computes greatest bisimilarity as the largest post-fixed point
of the clause operator over the disjoint union of the two models, by
iterated removal from the atom-agreeing relation; same-side pairs take part
in the fixpoint, which is what makes bisimilarity line up with logical
equivalence on finite models.  Logical-equivalence partitions are computed
by depth refinement against unions of blocks, stabilizing within the total
state count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .formula import And, Atom, Bot, Delta, Formula, Not, Or, Top
from .model import (BudgetError, FrameProperty, KripkeModel, NeighborhoodModel,
                    bits, has_property, submasks)
from .semantics import SemanticsKind, delta_holds


class BisimKind(Enum):
    NBH_DELTA = "nbh-delta"
    C = "c"
    MONOTONIC_C = "monotonic-c"
    C_MONOTONIC = "c-monotonic"
    QF = "qf"
    REL_DELTA = "rel-delta"


#: Model-class preconditions: (needs Kripke models, required frame properties).
_KIND_CLASS = {
    BisimKind.NBH_DELTA: (False, ()),
    BisimKind.C: (False, (FrameProperty.C,)),
    BisimKind.MONOTONIC_C: (False, (FrameProperty.S, FrameProperty.C)),
    BisimKind.C_MONOTONIC: (False, (FrameProperty.S, FrameProperty.C)),
    BisimKind.QF: (False, (FrameProperty.N, FrameProperty.I, FrameProperty.C,
                           FrameProperty.WS)),
    BisimKind.REL_DELTA: (True, ()),
}

Model = NeighborhoodModel | KripkeModel


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
    needs_kripke, props = _KIND_CLASS[kind]
    for side, m in (("left", left), ("right", right)):
        if isinstance(m, KripkeModel) != needs_kripke:
            want = "Kripke" if needs_kripke else "neighborhood"
            raise ValueError(f"{kind.value} bisimulation needs {want} models; "
                             f"{side} model is a {type(m).__name__}")
        for prop in props:
            if not has_property(m, prop):
                raise ValueError(f"{kind.value} bisimulation requires property "
                                 f"({prop.value}); it fails on the {side} model")


def _check_budget(left: Model, right: Model, budget: int) -> None:
    if left.n + right.n > budget:
        raise BudgetError(f"coherent-pair enumeration over {left.n}+{right.n} "
                          f"states exceeds the budget of {budget}")


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

    _check_budget(left, right, budget)
    clause = _clause(kind, left, right)
    coherent = list(_coherent_pairs(pairs, left.n, right.n))
    for i, j in pairs:
        for u, u2 in coherent:
            if not clause(i, j, u, u2):
                return BisimVerdict(False, (left.states[i], right.states[j]),
                                    witness=(left.names(u), right.names(u2)),
                                    reason="coherent pair breaks the clause")
    return BisimVerdict(True)


def _components(pairs: Iterable[tuple[int, int]], n: int) -> list[int]:
    """Connected components of the pair graph over 0..n-1, as masks."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, int] = {}
    for t in range(n):
        root = find(t)
        groups[root] = groups.get(root, 0) | (1 << t)
    return list(groups.values())


def max_bisim(kind: BisimKind, left: Model, right: Model,
              budget: int = 24) -> PairRelation:
    """Greatest bisimilarity of the given kind between the two models.

    The fixpoint runs over the disjoint union of the models, so pairs of
    same-side states take part and constrain coherence; the result is the
    cross-model restriction.  (A bisimulation confined to cross-model pairs
    leaves states without partners unconstrained, which on some finite
    models separates bisimilarity from logical equivalence; working on the
    union restores the match.)  May be empty ("no bisimilar pairs");
    every relation accepted by ``check_bisim`` is contained in the result.
    """
    _check_class(kind, left, right)
    nl, nt = left.n, left.n + right.n

    def resolve(t):
        return (left, t) if t < nl else (right, t - nl)

    def agree(a, b):
        ma, ia = resolve(a)
        mb, ib = resolve(b)
        return all((ma.atom_mask(p) >> ia & 1) == (mb.atom_mask(p) >> ib & 1)
                   for p in left.valuation.keys() | right.valuation.keys())

    z = [(a, b) for a in range(nt) for b in range(nt) if agree(a, b)]

    if kind is BisimKind.C_MONOTONIC:
        def families(t):
            m, i = resolve(t)
            shift = 0 if t < nl else nl
            return [x << shift for x in m.neighborhoods[i]]

        fams = [families(t) for t in range(nt)]
        while z:
            pred = [0] * nt
            succ = [0] * nt
            for a, b in z:
                pred[b] |= 1 << a
                succ[a] |= 1 << b
            keep = [(a, b) for a, b in z
                    if _zig(fams[a], fams[b], pred) is None
                    and _zig(fams[b], fams[a], succ) is None]
            if keep == z:
                break
            z = keep
    else:
        _check_budget(left, right, budget)

        if kind is BisimKind.REL_DELTA:
            def holds(t, u):
                m, i = resolve(t)
                proj = u & ((1 << nl) - 1) if t < nl else u >> nl
                r = m.succ[i]
                return r & proj == r or r & proj == 0
        elif kind is BisimKind.NBH_DELTA:
            def holds(t, u):
                m, i = resolve(t)
                proj = u & ((1 << nl) - 1) if t < nl else u >> nl
                return (proj in m.neighborhoods[i]
                        or (m.full & ~proj) in m.neighborhoods[i])
        else:
            def holds(t, u):
                m, i = resolve(t)
                proj = u & ((1 << nl) - 1) if t < nl else u >> nl
                return proj in m.neighborhoods[i]

        while z:
            # identity pairs always agree on atoms and never fail the
            # clause, so every state is constrained and the coherent pairs
            # are exactly (U, U) with U a union of components of z.
            comps = _components(z, nt)
            closed = [0]
            for comp in comps:
                closed.extend(u | comp for u in list(closed))
            keep = [(a, b) for a, b in z
                    if all(holds(a, u) == holds(b, u) for u in closed)]
            if keep == z:
                break
            z = keep

    seen = frozenset((left.states[a], right.states[b - nl])
                     for a, b in z if a < nl <= b)
    return PairRelation(seen)


# ---------------------------------------------------------------------------
# Logical-equivalence partitions by depth refinement.

StateRef = tuple[int, int]   # (model index, state index)
Block = frozenset[StateRef]


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

    def _block_mask(self, depth: int, block_id: int, model: int) -> int:
        mask = 0
        for mi, s in self.history[depth][block_id]:
            if mi == model:
                mask |= 1 << s
        return mask

    def _union_mask(self, depth: int, union: int, model: int) -> int:
        mask = 0
        for b in bits(union):
            mask |= self._block_mask(depth, b, model)
        return mask

    def _delta_on_union(self, ref: StateRef, depth: int, union: int) -> bool:
        mi, s = ref
        return delta_holds(self.models[mi], s,
                           self._union_mask(depth, union, mi), self.kinds[mi])


def logical_equiv_partition(models: Sequence[Model], vocab: Iterable[str],
                            kind: SemanticsKind,
                            block_budget: int = 20) -> Partition:
    """Refine the disjoint union of ``models`` until no formula over ``vocab``
    splits a block.

    Depth 0 groups by atom truth; depth d+1 splits two states when the
    non-contingency clause disagrees on some union of depth-d blocks.  Kripke
    models in the list use the Kripke clause; neighborhood models use
    ``kind``.  Stabilizes within the total state count.
    """
    kinds = tuple(_model_kind(m, kind) for m in models)
    vocab = tuple(sorted(set(vocab)))
    part = Partition(tuple(models), kinds, vocab)

    refs = [(mi, s) for mi, m in enumerate(models) for s in range(m.n)]
    sig0 = {}
    for ref in refs:
        mi, s = ref
        sig0.setdefault(
            tuple(models[mi].atom_mask(p) >> s & 1 for p in vocab), []).append(ref)
    blocks = [frozenset(group) for _, group in sorted(
        sig0.items(), key=lambda kv: min(kv[1]))]
    part.history.append(blocks)

    while True:
        k = len(blocks)
        if k > block_budget:
            raise BudgetError(
                f"union-of-blocks sweep needs 2^{k} cases, budget is 2^{block_budget}")
        depth = len(part.history) - 1
        union_masks = [[part._union_mask(depth, union, mi)
                        for union in range(1 << k)]
                       for mi in range(len(models))]
        grouped: dict[tuple[int, int], list[StateRef]] = {}
        for b, block in enumerate(blocks):
            for ref in block:
                mi, s = ref
                sig = 0
                for union in range(1 << k):
                    if delta_holds(models[mi], s, union_masks[mi][union],
                                   kinds[mi]):
                        sig |= 1 << union
                grouped.setdefault((b, sig), []).append(ref)
        new_blocks = [frozenset(group) for _, group in sorted(
            grouped.items(), key=lambda kv: min(kv[1]))]
        if len(new_blocks) == len(blocks):
            break
        blocks = new_blocks
        part.history.append(blocks)
    return part


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
    for union in range(1 << k):
        mine = partition._delta_on_union(ref, base, union)
        theirs = partition._delta_on_union(ref2, base, union)
        if mine != theirs:
            body = _disj([_char(partition, b, base, memo) for b in bits(union)])
            return Delta(body) if mine else Not(Delta(body))
    raise AssertionError("blocks split at this depth must have a witness union")
