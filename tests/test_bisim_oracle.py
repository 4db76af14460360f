"""Differential tests of the partition-refinement core against the code it
replaced.

The oracles below are the earlier algorithms, kept here and nowhere else:
``oracle_history`` refines by sweeping all 2^k unions of the current k blocks
each round, ``oracle_max_bisim`` is the removal fixpoint over the disjoint
union (closed unions of the pair graph's components, or zig/zag for
``c-monotonic``), ``oracle_check_bisim`` enumerates every coherent pair
(``coherent_pairs``) and tests the literal clause (``clause``) pair-major, and
``oracle_char_formula`` picks each separator by sweeping all 2^k unions of
the base blocks through ``delta_holds``.  The library must agree with them on
whole partition histories, cross pairs, reported witnesses and formula text.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from delta_lab import bisim
from delta_lab.bisim import (BisimKind, PairRelation, _index_pairs,
                             char_formula, check_bisim,
                             logical_equiv_partition, max_bisim)
from delta_lab.formula import Atom, Delta, Not, Top
from delta_lab.generators import GenSpec, random_kripke, random_model
from delta_lab.model import (FrameProperty, KripkeModel, NeighborhoodModel,
                             bits, submasks)
from delta_lab.semantics import SemanticsKind, delta_holds
from delta_lab.transform import qf_variation

FP = FrameProperty
NEW, OLD, KRIPKE = SemanticsKind.NEW, SemanticsKind.OLD, SemanticsKind.KRIPKE
ATOMS = ("p", "q", "r")
SIZES = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5),
         (6, 6)]


# --- oracles ----------------------------------------------------------------

def _sorted_blocks(groups):
    return [frozenset(g) for g in sorted(groups, key=min)]


def oracle_history(models, kinds, vocab):
    """Depth refinement against every union of blocks, round by round."""
    sig0 = {}
    for mi, m in enumerate(models):
        for s in range(m.n):
            sig0.setdefault(tuple(m.atom_mask(p) >> s & 1 for p in vocab),
                            []).append((mi, s))
    blocks = _sorted_blocks(sig0.values())
    history = [blocks]
    while True:
        k = len(blocks)
        pieces = [[0] * k for _ in models]
        for b, block in enumerate(blocks):
            for mi, s in block:
                pieces[mi][b] |= 1 << s
        union_masks = []
        for mi in range(len(models)):
            masks = [0] * (1 << k)
            for union in range(1, 1 << k):
                low = (union & -union).bit_length() - 1
                masks[union] = masks[union & (union - 1)] | pieces[mi][low]
            union_masks.append(masks)
        grouped = {}
        for b, block in enumerate(blocks):
            for mi, s in block:
                sig = 0
                for union in range(1 << k):
                    if delta_holds(models[mi], s, union_masks[mi][union],
                                   kinds[mi]):
                        sig |= 1 << union
                grouped.setdefault((b, sig), []).append((mi, s))
        new_blocks = _sorted_blocks(grouped.values())
        if len(new_blocks) == len(blocks):
            return history
        blocks = new_blocks
        history.append(blocks)


def _components(pairs, n):
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
    groups = {}
    for t in range(n):
        root = find(t)
        groups[root] = groups.get(root, 0) | (1 << t)
    return list(groups.values())


def _zig(fam_a, fam_b, partner_of_b_in_a):
    for x in fam_a:
        if not any(all(partner_of_b_in_a[t] & x for t in bits(x2))
                   for x2 in fam_b):
            return x
    return None


def oracle_max_bisim(kind, left, right):
    """Largest post-fixed point by iterated removal from the atom-agreeing
    relation over the disjoint union of the two models."""
    nl, nt = left.n, left.n + right.n
    atoms = left.valuation.keys() | right.valuation.keys()

    def resolve(t):
        return (left, t) if t < nl else (right, t - nl)

    def agree(a, b):
        ma, ia = resolve(a)
        mb, ib = resolve(b)
        return all((ma.atom_mask(p) >> ia & 1) == (mb.atom_mask(p) >> ib & 1)
                   for p in atoms)

    z = [(a, b) for a in range(nt) for b in range(nt) if agree(a, b)]
    if kind is BisimKind.C_MONOTONIC:
        def families(t):
            m, i = resolve(t)
            shift = 0 if t < nl else nl
            return [x << shift for x in m.neighborhoods[i]]

        fams = [families(t) for t in range(nt)]
        while z:
            pred, succ = [0] * nt, [0] * nt
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
        sem = {BisimKind.REL_DELTA: KRIPKE,
               BisimKind.NBH_DELTA: OLD}.get(kind, NEW)

        def holds(t, u):
            m, i = resolve(t)
            proj = u & ((1 << nl) - 1) if t < nl else u >> nl
            return delta_holds(m, i, proj, sem)

        while z:
            closed = [0]
            for comp in _components(z, nt):
                closed.extend(u | comp for u in list(closed))
            keep = [(a, b) for a, b in z
                    if all(holds(a, u) == holds(b, u) for u in closed)]
            if keep == z:
                break
            z = keep
    return frozenset((left.states[a], right.states[b - nl])
                     for a, b in z if a < nl <= b)


def coherent_pairs(pairs, n_left, n_right):
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


def clause(kind, left, right):
    """The notion's literal clause at (i, j) on the coherent pair (u, u2)."""
    full_l, full_r = left.full, right.full
    if kind is BisimKind.NBH_DELTA:
        def holds(i, j, u, u2):
            fam, fam2 = left.neighborhoods[i], right.neighborhoods[j]
            return ((u in fam or (full_l & ~u) in fam)
                    == (u2 in fam2 or (full_r & ~u2) in fam2))
    elif kind is BisimKind.REL_DELTA:
        def holds(i, j, u, u2):
            r, r2 = left.succ[i], right.succ[j]
            return ((r & u == r or r & u == 0)
                    == (r2 & u2 == r2 or r2 & u2 == 0))
    else:  # C, MONOTONIC_C, QF share the membership biconditional
        def holds(i, j, u, u2):
            return (u in left.neighborhoods[i]) == (u2 in right.neighborhoods[j])
    return holds


def oracle_check_bisim(kind, z, left, right):
    """Atoms first, then a pair-major search over the enumerated coherent
    pairs (zig and zag for ``c-monotonic``): (pair, witness) of the first
    failure, or None."""
    pairs = _index_pairs(z, left, right)
    for i, j in pairs:
        if any((left.atom_mask(p) >> i & 1) != (right.atom_mask(p) >> j & 1)
               for p in left.valuation.keys() | right.valuation.keys()):
            return (left.states[i], right.states[j]), None
    if kind is BisimKind.C_MONOTONIC:
        pred, succ = [0] * right.n, [0] * left.n
        for i, j in pairs:
            pred[j] |= 1 << i
            succ[i] |= 1 << j
        for i, j in pairs:
            fam, fam2 = left.neighborhoods[i], right.neighborhoods[j]
            x, x2 = _zig(fam, fam2, pred), _zig(fam2, fam, succ)
            if x is not None or x2 is not None:
                witness = ((left.names(x), ()) if x is not None
                           else ((), right.names(x2)))
                return (left.states[i], right.states[j]), witness
        return None
    holds = clause(kind, left, right)
    coherent = list(coherent_pairs(pairs, left.n, right.n))
    for i, j in pairs:
        for u, u2 in coherent:
            if not holds(i, j, u, u2):
                return ((left.states[i], right.states[j]),
                        (left.names(u), right.names(u2)))
    return None


def oracle_separator(part, block_id, other, depth, char):
    """The separator of ``block_id`` from ``other``: the numerically least
    union of base blocks on which Δ differs at the two blocks' least states,
    found by sweeping every union through ``delta_holds``."""
    history = part.history

    def ancestor(b, at):
        ref = min(history[depth][b])
        return next(i for i, blk in enumerate(history[at]) if ref in blk)

    split_at = next(at for at in range(depth + 1)
                    if ancestor(block_id, at) != ancestor(other, at))
    ref, ref2 = min(history[depth][block_id]), min(history[depth][other])
    if split_at == 0:
        (mi, s), (mj, t) = ref, ref2
        mine = {p for p in part.vocab if part.models[mi].atom_mask(p) >> s & 1}
        theirs = {p for p in part.vocab
                  if part.models[mj].atom_mask(p) >> t & 1}
        p = min(mine ^ theirs, key=part.vocab.index)
        return Atom(p) if p in mine else Not(Atom(p))
    base = split_at - 1

    def holds(r, union):
        mi, s = r
        mask = 0
        for b in bits(union):
            mask |= sum(1 << t for mj, t in history[base][b] if mj == mi)
        return delta_holds(part.models[mi], s, mask, part.kinds[mi])

    for union in range(1 << len(history[base])):
        mine = holds(ref, union)
        if mine != holds(ref2, union):
            body = bisim._disj([char(b, base) for b in bits(union)])
            return Delta(body) if mine else Not(Delta(body))
    raise AssertionError("split blocks must have a separating union")


def oracle_char_formula(part, block_id, depth):
    """``char_formula`` with every separator found by the union sweep."""
    memo = {}

    def char(b, d):
        if (b, d) not in memo:
            if len(part.history[d]) == 1:
                memo[b, d] = Top()
            elif d == 0:
                memo[b, d] = bisim._literal_conj(part, b, 0)
            else:
                conjuncts = {}
                for other in range(len(part.history[d])):
                    if other != b:
                        sep = oracle_separator(part, b, other, d, char)
                        conjuncts.setdefault(str(sep), sep)
                memo[b, d] = bisim._conj(list(conjuncts.values()))
        return memo[b, d]

    return char(block_id, depth)


# --- model sources ----------------------------------------------------------

_PROPS = {
    BisimKind.NBH_DELTA: frozenset(),
    BisimKind.C: frozenset({FP.C}),
    BisimKind.MONOTONIC_C: frozenset({FP.C, FP.S}),
    BisimKind.C_MONOTONIC: frozenset({FP.C, FP.S}),
}


def kind_model(kind, n, atoms, seed):
    spec = GenSpec(n, _PROPS.get(kind, frozenset()), seed=seed, mode="random")
    if kind is BisimKind.REL_DELTA:
        return random_kripke(spec, atoms)
    if kind is BisimKind.QF:
        return qf_variation(random_kripke(spec, atoms))
    return random_model(spec, atoms)


def kind_semantics(kind):
    return {BisimKind.REL_DELTA: KRIPKE, BisimKind.NBH_DELTA: OLD}.get(kind, NEW)


def seeded_pairs(kind, seeds_per_size=3):
    for idx, (nl, nr) in enumerate(SIZES):
        for rep in range(seeds_per_size):
            seed = 1000 * idx + 10 * rep + list(BisimKind).index(kind)
            atoms = ATOMS[:1 + (seed % 3)]
            yield (kind_model(kind, nl, atoms, seed),
                   kind_model(kind, nr, atoms, seed + 500), atoms)


# --- partitions -------------------------------------------------------------

def test_partition_history_matches_oracle_all_kinds():
    for kind in BisimKind:
        sem = kind_semantics(kind)
        for left, right, atoms in seeded_pairs(kind):
            part = logical_equiv_partition([left, right], atoms, sem)
            expected = oracle_history((left, right), (sem, sem),
                                      tuple(sorted(atoms)))
            assert part.history == expected, (kind, left, right)


def test_partition_mixed_kinds_history_matches_oracle():
    for seed in range(30):
        n = 1 + seed % 4
        k = random_kripke(GenSpec(n, seed=seed, mode="random"), ["p"])
        other = random_model(GenSpec(2 + seed % 2, seed=seed + 77,
                                     mode="random"), ["p", "q"])
        for sem in (NEW, OLD):
            models = [k, qf_variation(k), other]
            part = logical_equiv_partition(models, ["p", "q"], sem)
            kinds = (KRIPKE, sem, sem)
            assert part.history == oracle_history(models, kinds, ("p", "q"))


def test_partition_edge_cases_match_oracle():
    empty_fams = NeighborhoodModel.from_names(
        ["a", "b", "c"], {"a": [], "b": [[]], "c": [["a", "b"]]}, {"p": ["a"]})
    dead_ends = KripkeModel.from_names(
        ["x", "y", "z"], {"x": [], "y": ["x"], "z": ["x", "y"]}, {"q": ["z"]})
    full_fams = NeighborhoodModel.from_names(
        ["u", "v"], {"u": [[], ["u"], ["v"], ["u", "v"]], "v": []})
    cases = [
        ([empty_fams], (), NEW),                    # no atoms
        ([empty_fams, full_fams], (), OLD),
        ([empty_fams, full_fams], ("p",), NEW),     # p missing from one model
        ([dead_ends], (), KRIPKE),                  # empty R(s)
        ([dead_ends, dead_ends], ("p", "q"), KRIPKE),
        ([dead_ends, empty_fams], ("q", "zz"), OLD),  # zz in neither model
    ]
    for models, vocab, sem in cases:
        part = logical_equiv_partition(models, vocab, sem)
        kinds = tuple(KRIPKE if isinstance(m, KripkeModel) else sem
                      for m in models)
        assert part.history == oracle_history(models, kinds, vocab), vocab


def signing_refine(models, kinds, vocab, signature):
    """``_refine`` with ``signature`` wrapped to record each signed state
    with the block it lies in that round.  ``pieces`` has one entry per block
    of the round, and each round has more blocks than the one before, so its
    length names the round's ``history`` entry."""
    signed = []

    def sign(m, kind, s, block_of, pieces):
        signed.append((m, s, block_of[s], len(pieces)))
        return signature(m, kind, s, block_of, pieces)

    part = bisim._refine(models, kinds, vocab, sign)
    rounds = {len(blocks): blocks for blocks in part.history}
    return part, [((next(mi for mi, x in enumerate(models) if x is m), s),
                   rounds[k][b]) for m, s, b, k in signed]


def test_refine_signs_no_one_state_block():
    # refinement only splits, so a one-state block is final and unsigned
    signed = 0
    for kind in BisimKind:
        sem = kind_semantics(kind)
        signature = (bisim._minimal_signature if kind is BisimKind.C_MONOTONIC
                     else bisim._delta_signature)
        for left, right, atoms in seeded_pairs(kind):
            _, blocks = signing_refine((left, right), (sem, sem),
                                       tuple(sorted(atoms)), signature)
            for ref, block in blocks:
                assert ref in block and len(block) >= 2, (kind, ref, block)
            signed += len(blocks)
    assert signed > 1000, signed
    # atoms that tell every state apart leave nothing to sign
    apart = NeighborhoodModel.from_names(
        ["a", "b", "c"], {"a": [["a"]], "b": [], "c": [["a", "b"]]},
        {"p": ["a"], "q": ["b"]})
    part, blocks = signing_refine((apart,), (NEW,), ("p", "q"),
                                  bisim._delta_signature)
    assert blocks == []
    assert part.history == [[frozenset({(0, 0)}), frozenset({(0, 1)}),
                              frozenset({(0, 2)})]]


def test_kripke_signature_is_the_closed_form_of_canonical():
    # with every state its own block, the blocks R(s) meets are R(s) itself
    block_of, pieces = list(range(8)), [1 << b for b in range(8)]
    names = tuple(f"s{i}" for i in range(8))
    for met in range(1 << 8):
        m = KripkeModel(names, (met,) + (0,) * 7, {})
        assert (bisim._delta_signature(m, KRIPKE, 0, block_of, pieces)
                == bisim._canonical(met, {0, met})), met


# --- greatest bisimilarity --------------------------------------------------

def test_max_bisim_matches_oracle_all_kinds():
    for kind in BisimKind:
        for left, right, _ in seeded_pairs(kind):
            assert (max_bisim(kind, left, right).pairs
                    == oracle_max_bisim(kind, left, right)), (kind, left, right)


def test_max_bisim_edge_cases_match_oracle():
    # atoms on one side only; states with empty N(s) and empty R(s)
    lonely = NeighborhoodModel.from_names(["a", "b"], {"a": [], "b": []},
                                          {"p": ["a"]})
    bare = NeighborhoodModel.from_names(["x"], {"x": []})
    for kind in (BisimKind.NBH_DELTA, BisimKind.C_MONOTONIC):
        assert (max_bisim(kind, lonely, bare).pairs
                == oracle_max_bisim(kind, lonely, bare))
        assert max_bisim(kind, bare, bare).pairs == {("x", "x")}
    dead = KripkeModel.from_names(["x", "y"], {"x": [], "y": ["y"]})
    loop = KripkeModel.from_names(["u"], {"u": ["u"]}, {"q": []})
    assert (max_bisim(BisimKind.REL_DELTA, dead, loop).pairs
            == oracle_max_bisim(BisimKind.REL_DELTA, dead, loop)
            == {("x", "u"), ("y", "u")})


# --- check_bisim reads signatures over Z's partition ------------------------

def atom_agreeing(left, right):
    return [(a, b) for a in left.states for b in right.states
            if all((left.atom_mask(p) >> left.index(a) & 1)
                   == (right.atom_mask(p) >> right.index(b) & 1)
                   for p in ATOMS)]


@pytest.mark.parametrize("sample_seed", [1, 7, 1024])
def test_check_bisim_matches_pair_major_oracle(sample_seed):
    # each seed draws a different set of candidate relations Z
    rnd = random.Random(sample_seed)
    for kind in (BisimKind.NBH_DELTA, BisimKind.C, BisimKind.QF,
                 BisimKind.REL_DELTA):
        for left, right, _ in seeded_pairs(kind, seeds_per_size=1):
            pool = atom_agreeing(left, right)
            if not pool:
                continue
            candidates = [PairRelation.of(rnd.sample(
                pool, rnd.randrange(1, len(pool) + 1))) for _ in range(4)]
            best = max_bisim(kind, left, right)
            for z in candidates + ([best] if best else []):
                verdict = check_bisim(kind, z, left, right)
                expected = oracle_check_bisim(kind, z, left, right)
                got = None if verdict.ok else (verdict.pair, verdict.witness)
                assert got == expected, (kind, z)


# --- char_formula reads its separators off the signatures -------------------

def test_char_formula_matches_union_sweep_oracle():
    compared = 0
    for kind in BisimKind:
        sem = kind_semantics(kind)
        for left, right, atoms in seeded_pairs(kind, seeds_per_size=2):
            part = logical_equiv_partition([left, right], atoms, sem)
            if max(len(h) for h in part.history) > 12:
                continue
            for depth, blocks in enumerate(part.history):
                for b in range(len(blocks)):
                    assert (str(char_formula(part, b, depth))
                            == str(oracle_char_formula(part, b, depth))), (
                        kind, depth, b)
                    compared += 1
    assert compared > 500, compared


# --- properties -------------------------------------------------------------

@st.composite
def small_models(draw):
    n = draw(st.integers(1, 4))
    full = (1 << n) - 1
    names = tuple(f"s{i}" for i in range(n))
    valuation = {p: draw(st.integers(0, full))
                 for p in draw(st.sets(st.sampled_from(ATOMS)))}
    if draw(st.booleans()):
        succ = tuple(draw(st.integers(0, full)) for _ in range(n))
        return KripkeModel(names, succ, valuation)
    fams = tuple(frozenset(draw(st.sets(st.integers(0, full), max_size=6)))
                 for _ in range(n))
    return NeighborhoodModel(names, fams, valuation)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_models(), min_size=1, max_size=3),
       st.sampled_from((NEW, OLD)),
       st.sets(st.sampled_from(ATOMS + ("zz",))))
def test_refine_equals_oracle_property(models, sem, vocab):
    part = logical_equiv_partition(models, vocab, sem)
    kinds = tuple(KRIPKE if isinstance(m, KripkeModel) else sem
                  for m in models)
    assert part.history == oracle_history(models, kinds, tuple(sorted(vocab)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(BisimKind)), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 2), st.integers(0, 10 ** 6))
def test_max_bisim_equals_oracle_property(kind, nl, nr, n_atoms, seed):
    atoms = ATOMS[:n_atoms]
    left = kind_model(kind, nl, atoms, seed)
    right = kind_model(kind, nr, atoms, seed + 1)
    assert (max_bisim(kind, left, right).pairs
            == oracle_max_bisim(kind, left, right))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(BisimKind)), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 2), st.integers(0, 10 ** 6), st.booleans(),
       st.randoms(use_true_random=False))
def test_check_bisim_equals_oracle_property(kind, nl, nr, n_atoms, seed,
                                            agreeing, rnd):
    # relations drawn from all pairs mostly fail on atoms, so half the draws
    # keep to atom-agreeing pairs
    atoms = ATOMS[:n_atoms]
    left = kind_model(kind, nl, atoms, seed)
    right = kind_model(kind, nr, atoms, seed + 1)
    pool = (atom_agreeing(left, right) if agreeing else None) or [
        (a, b) for a in left.states for b in right.states]
    z = PairRelation.of(rnd.sample(pool, rnd.randrange(1, len(pool) + 1)))
    verdict = check_bisim(kind, z, left, right)
    got = None if verdict.ok else (verdict.pair, verdict.witness)
    assert got == oracle_check_bisim(kind, z, left, right), (kind, z)
