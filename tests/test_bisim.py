import random

import pytest
from hypothesis import given, settings, strategies as st

from delta_lab.bisim import (BisimKind, PairRelation, char_formula,
                             check_bisim, is_coherent, logical_equiv_partition,
                             max_bisim)
from delta_lab.generators import GenSpec, random_formula, random_kripke, \
    random_model
from delta_lab.model import FrameProperty, KripkeModel, NeighborhoodModel
from delta_lab.semantics import SemanticsKind, extension
from delta_lab.transform import c_variation, qf_variation
from test_bisim_oracle import ATOMS, atom_agreeing, coherent_pairs, kind_model

FP = FrameProperty
NEW, OLD, KRIPKE = (SemanticsKind.NEW, SemanticsKind.OLD,
                    SemanticsKind.KRIPKE)
C_PROPS = frozenset({FP.C})
CS_PROPS = frozenset({FP.C, FP.S})
QF_PROPS = frozenset({FP.N, FP.I, FP.C, FP.WS})


def nm(states, fams, val=None):
    return NeighborhoodModel.from_names(states, fams, val)


def random_relation(rnd, left, right):
    pool = [(a, b) for a in left.states for b in right.states]
    k = rnd.randrange(1, len(pool) + 1)
    return PairRelation.of(rnd.sample(pool, k))


# --- coherence --------------------------------------------------------------

def test_coherence_examples():
    left = nm(["x"], {"x": []})
    right = nm(["y"], {"y": []})
    z = PairRelation.of([("x", "y")])
    assert is_coherent(z, left, right, 0, 0)
    assert is_coherent(z, left, right, left.full, right.full)
    assert not is_coherent(z, left, right, 0b1, 0)


def test_coherence_quantifies_all_pairs():
    left = nm(["x", "y"], {"x": [], "y": []})
    right = nm(["u", "v"], {"u": [], "v": []})
    z = PairRelation.of([("x", "u"), ("y", "v")])
    assert is_coherent(z, left, right, 0b01, 0b01)
    assert not is_coherent(z, left, right, 0b01, 0b10)


# --- check_bisim ------------------------------------------------------------

def test_c_bisim_single_state_example():
    left = nm(["x"], {"x": [[], ["x"]]}, {"p": []})
    right = nm(["y"], {"y": [[], ["y"]]}, {"p": []})
    z = PairRelation.of([("x", "y")])
    assert check_bisim(BisimKind.C, z, left, right).ok


def test_c_bisim_failure_reports_witness():
    left = nm(["x"], {"x": [[], ["x"]]})
    right = nm(["y"], {"y": [[], ["y"]]})
    broken = nm(["y"], {"y": []})
    z = PairRelation.of([("x", "y")])
    # the empty neighborhood family is not a c-model obstacle, but the clause
    # fails at the coherent pair (empty set, empty set)
    verdict = check_bisim(BisimKind.C, z, left, broken)
    assert not verdict.ok
    assert verdict.pair == ("x", "y")
    assert verdict.witness == ((), ())
    assert check_bisim(BisimKind.C, z, left, right).ok


def test_check_bisim_class_preconditions():
    non_c = nm(["x"], {"x": [["x"]]})
    other = nm(["y"], {"y": [[], ["y"]]})
    z = PairRelation.of([("x", "y")])
    with pytest.raises(ValueError, match=r"\(c\)"):
        check_bisim(BisimKind.C, z, non_c, other)
    with pytest.raises(ValueError, match="Kripke"):
        check_bisim(BisimKind.REL_DELTA, z, non_c, other)
    with pytest.raises(ValueError, match="nonempty"):
        check_bisim(BisimKind.NBH_DELTA, PairRelation.of([]), non_c, other)


def test_check_bisim_streams_coherent_pairs():
    # 10+10 states with z = {(s0, s0)} have 2^19 coherent pairs; none is
    # held in a list, since the clause is read off Z's partition
    import tracemalloc

    big = nm([f"s{i}" for i in range(10)], {})
    z = PairRelation.of([("s0", "s0")])
    tracemalloc.start()
    try:
        verdict = check_bisim(BisimKind.NBH_DELTA, z, big, big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.ok
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("n", [13, 40])
def test_check_bisim_has_no_size_cap(n):
    # 2^(2n-1) coherent pairs, beyond any enumeration
    names = [f"s{i}" for i in range(n)]
    z = PairRelation.of([("s0", "s0")])
    assert check_bisim(BisimKind.NBH_DELTA, z, nm(names, {}), nm(names, {})).ok
    # Δ holds at the left s0 only on ∅ and the whole model, so the least
    # coherent pair that breaks the clause keeps s0 out and every Z-free
    # right state in
    left = nm(names, {"s0": [[]]})
    verdict = check_bisim(BisimKind.NBH_DELTA, z, left, nm(names, {}))
    assert verdict.pair == ("s0", "s0")
    assert verdict.witness == ((), tuple(sorted(names[1:])))


def test_atoms_clause():
    left = nm(["x"], {"x": [[], ["x"]]}, {"p": ["x"]})
    right = nm(["y"], {"y": [[], ["y"]]}, {"p": []})
    verdict = check_bisim(BisimKind.C, PairRelation.of([("x", "y")]),
                          left, right)
    assert not verdict.ok and "atom" in verdict.reason


def test_c_equals_nbh_delta_on_c_models():
    rnd = random.Random(11)
    for seed in range(150):
        left = random_model(GenSpec(3, C_PROPS, seed=seed, mode="random"),
                            ["p"])
        right = random_model(GenSpec(3, C_PROPS, seed=seed + 5000,
                                     mode="random"), ["p"])
        for _ in range(8):
            z = random_relation(rnd, left, right)
            assert (check_bisim(BisimKind.C, z, left, right).ok
                    == check_bisim(BisimKind.NBH_DELTA, z, left, right).ok)


def test_monotonic_c_equals_c_monotonic():
    rnd = random.Random(13)
    for seed in range(150):
        left = random_model(GenSpec(3, CS_PROPS, seed=seed, mode="random"),
                            ["p"])
        right = random_model(GenSpec(3, CS_PROPS, seed=seed + 5000,
                                     mode="random"), ["p"])
        for _ in range(8):
            z = random_relation(rnd, left, right)
            assert (check_bisim(BisimKind.MONOTONIC_C, z, left, right).ok
                    == check_bisim(BisimKind.C_MONOTONIC, z, left, right).ok)


# --- transfer ---------------------------------------------------------------

def test_nbh_delta_transfers_to_c_on_variations():
    rnd = random.Random(17)
    hits = 0
    for seed in range(120):
        left = random_model(GenSpec(3, seed=seed, mode="random"), ["p"])
        right = random_model(GenSpec(3, seed=seed + 7000, mode="random"),
                             ["p"])
        candidates = [random_relation(rnd, left, right) for _ in range(6)]
        best = max_bisim(BisimKind.NBH_DELTA, left, right)
        if best.pairs:
            candidates.append(best)
        for z in candidates:
            if check_bisim(BisimKind.NBH_DELTA, z, left, right).ok:
                hits += 1
                assert check_bisim(BisimKind.C, z, c_variation(left),
                                   c_variation(right)).ok
    assert hits > 50


def test_rel_delta_transfers_to_qf_on_variations():
    rnd = random.Random(19)
    hits = 0
    for seed in range(120):
        left = random_kripke(GenSpec(3, seed=seed, mode="random"), ["p"])
        right = random_kripke(GenSpec(3, seed=seed + 7000, mode="random"),
                              ["p"])
        candidates = [random_relation(rnd, left, right) for _ in range(6)]
        best = max_bisim(BisimKind.REL_DELTA, left, right)
        if best.pairs:
            candidates.append(best)
        for z in candidates:
            if check_bisim(BisimKind.REL_DELTA, z, left, right).ok:
                hits += 1
                assert check_bisim(BisimKind.QF, z, qf_variation(left),
                                   qf_variation(right)).ok
    assert hits > 50


# --- max_bisim --------------------------------------------------------------

def test_max_bisim_contains_identity_on_identical_models():
    m = nm(["x", "y"], {"x": [[], ["x", "y"]], "y": [["x"], ["y"]]},
           {"p": ["x"]})
    z = max_bisim(BisimKind.C, m, m)
    assert {("x", "x"), ("y", "y")} <= set(z.pairs)


def test_max_bisim_empty_when_no_pair_survives():
    left = nm(["x"], {"x": [[], ["x"]]})
    right = nm(["y"], {"y": []})
    assert max_bisim(BisimKind.C, left, right).pairs == frozenset()


def test_max_bisim_bounds_every_checked_relation():
    # everything check_bisim accepts is inside the result, and any relation
    # touching an atom-agreeing pair outside it is rejected
    rnd = random.Random(23)
    for seed in range(40):
        left = random_model(GenSpec(3, C_PROPS, seed=seed, mode="random"),
                            ["p"])
        right = random_model(GenSpec(3, C_PROPS, seed=seed + 3000,
                                     mode="random"), ["p"])
        z = max_bisim(BisimKind.C, left, right)
        for _ in range(12):
            candidate = random_relation(rnd, left, right)
            if check_bisim(BisimKind.C, candidate, left, right).ok:
                assert candidate.pairs <= z.pairs
        agreeing = {(a, b) for a in left.states for b in right.states
                    if all((left.atom_mask(x) >> left.index(a) & 1)
                           == (right.atom_mask(x) >> right.index(b) & 1)
                           for x in ("p",))}
        for extra in agreeing - z.pairs:
            assert not check_bisim(BisimKind.C, PairRelation.of([extra]),
                                   left, right).ok
            grown = PairRelation.of(z.pairs | {extra})
            assert not check_bisim(BisimKind.C, grown, left, right).ok


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(BisimKind)), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 2), st.integers(0, 10 ** 6), st.booleans(),
       st.randoms(use_true_random=False))
def test_max_bisim_is_accepted_and_bounds_accepted_relations(
        kind, nl, nr, n_atoms, seed, agreeing, rnd):
    atoms = ATOMS[:n_atoms]
    left = kind_model(kind, nl, atoms, seed)
    right = kind_model(kind, nr, atoms, seed + 1)
    z = max_bisim(kind, left, right)
    # a state z leaves out is free in coherent pairs, so only a covering z
    # is a bisimulation, save for c-monotonic, whose clauses have no unions
    covers = ({a for a, _ in z.pairs} == set(left.states)
              and {b for _, b in z.pairs} == set(right.states))
    if z and (covers or kind is BisimKind.C_MONOTONIC):
        assert check_bisim(kind, z, left, right).ok, (kind, z)
    # half the draws keep to atom-agreeing pairs, which fail less often
    pool = (atom_agreeing(left, right) if agreeing else None) or [
        (a, b) for a in left.states for b in right.states]
    for _ in range(4):
        candidate = PairRelation.of(
            rnd.sample(pool, rnd.randrange(1, len(pool) + 1)))
        if check_bisim(kind, candidate, left, right).ok:
            assert candidate.pairs <= z.pairs, (kind, candidate)


def test_max_bisim_exceeds_cross_only_relations_when_union_pairs_matter():
    # Logically equivalent states can be unreachable by any bisimulation
    # confined to cross-model pairs: states without partners leave coherent
    # pairs unconstrained, here ({a}, {}), which breaks the literal clause
    # at (x, y) even though no formula separates x from y.  The fixpoint
    # over the disjoint union pairs a with b and rules that witness out.
    left = nm(["a", "b", "x"],
              {"a": [], "b": [], "x": [["a"], ["b", "x"]]}, {"q": ["x"]})
    right = nm(["y"], {"y": []}, {"q": ["y"]})
    z = max_bisim(BisimKind.C, left, right)
    assert z.pairs == frozenset({("x", "y")})
    assert not check_bisim(BisimKind.C, PairRelation.of([("x", "y")]),
                           left, right).ok
    part = logical_equiv_partition([left, right], ["q"], NEW)
    assert part.cross_pairs(0, 1) == z.pairs


def test_max_bisim_invariance():
    formulas = [random_formula(4, ["p"], seed) for seed in range(40)]
    for seed in range(30):
        left = random_model(GenSpec(3, C_PROPS, seed=seed, mode="random"),
                            ["p"])
        right = random_model(GenSpec(3, C_PROPS, seed=seed + 3000,
                                     mode="random"), ["p"])
        z = max_bisim(BisimKind.C, left, right)
        for f in formulas:
            ext_l = extension(left, f, NEW)
            ext_r = extension(right, f, NEW)
            for a, b in z.pairs:
                assert (ext_l >> left.index(a) & 1) == (
                    ext_r >> right.index(b) & 1)


def test_max_bisim_invariance_nbh_delta_under_old():
    formulas = [random_formula(3, ["p"], seed) for seed in range(30)]
    for seed in range(20):
        left = random_model(GenSpec(3, seed=seed, mode="random"), ["p"])
        right = random_model(GenSpec(3, seed=seed + 3000, mode="random"),
                             ["p"])
        z = max_bisim(BisimKind.NBH_DELTA, left, right)
        for f in formulas:
            ext_l = extension(left, f, OLD)
            ext_r = extension(right, f, OLD)
            for a, b in z.pairs:
                assert (ext_l >> left.index(a) & 1) == (
                    ext_r >> right.index(b) & 1)


def test_max_bisim_invariance_rel_delta_under_kripke():
    formulas = [random_formula(3, ["p"], seed) for seed in range(30)]
    for seed in range(20):
        left = random_kripke(GenSpec(3, seed=seed, mode="random"), ["p"])
        right = random_kripke(GenSpec(3, seed=seed + 8000, mode="random"),
                              ["p"])
        z = max_bisim(BisimKind.REL_DELTA, left, right)
        for f in formulas:
            ext_l = extension(left, f, KRIPKE)
            ext_r = extension(right, f, KRIPKE)
            for a, b in z.pairs:
                assert (ext_l >> left.index(a) & 1) == (
                    ext_r >> right.index(b) & 1)


def test_rel_delta_max_maps_into_qf_max():
    for seed in range(30):
        left = random_kripke(GenSpec(3, seed=seed, mode="random"), ["p"])
        right = random_kripke(GenSpec(3, seed=seed + 9000, mode="random"),
                              ["p"])
        rel = max_bisim(BisimKind.REL_DELTA, left, right)
        qf = max_bisim(BisimKind.QF, qf_variation(left), qf_variation(right))
        assert rel.pairs <= qf.pairs


# --- partitions and characteristic formulas ---------------------------------

def test_max_bisim_monotone_kinds_coincide():
    for seed in range(30):
        left = random_model(GenSpec(3, CS_PROPS, seed=seed, mode="random"),
                            ["p"])
        right = random_model(GenSpec(2, CS_PROPS, seed=seed + 2000,
                                     mode="random"), ["p"])
        a = max_bisim(BisimKind.MONOTONIC_C, left, right)
        b = max_bisim(BisimKind.C_MONOTONIC, left, right)
        assert a.pairs == b.pairs
        part = logical_equiv_partition([left, right], ["p"], NEW)
        assert part.cross_pairs(0, 1) == a.pairs


def test_large_rel_delta_pairs_refine():
    # 80 blocks: far beyond any sweep over unions of blocks
    left = random_kripke(GenSpec(40, seed=41, mode="random"), ["p", "q", "r"])
    right = random_kripke(GenSpec(40, seed=42, mode="random"), ["p", "q", "r"])
    part = logical_equiv_partition([left, right], ["p", "q", "r"], KRIPKE)
    assert len(part.blocks_at(part.depth)) > 20
    assert part.cross_pairs() == max_bisim(BisimKind.REL_DELTA, left,
                                           right).pairs
    # identical copies are bisimilar state by state
    same = max_bisim(BisimKind.REL_DELTA, left, left).pairs
    assert {(s, s) for s in left.states} <= same


def test_char_formula_separates_past_twenty_base_blocks():
    # 21 states with distinct valuations, plus a and b agreeing with s0:
    # a sees two blocks, b none, so they split at depth 1 over 21 depth-0
    # blocks, whose 2^21 unions no separator search sweeps
    names = [f"s{i}" for i in range(21)]
    atoms = [f"p{k}" for k in range(5)]
    valuation = {p: [s for i, s in enumerate(names) if i >> k & 1]
                 for k, p in enumerate(atoms)}

    succ = {s: [] for s in names}
    succ.update(a=["s1", "s2"], b=[])
    m = KripkeModel.from_names(names + ["a", "b"], succ, valuation)
    part = logical_equiv_partition([m], atoms, KRIPKE)
    assert part.depth == 1
    assert len(part.blocks_at(0)) == 21
    block = part.block_index(1, (0, m.index("a")))
    f = char_formula(part, block, 1)
    expected = sum(1 << s for _, s in part.blocks_at(1)[block])
    assert extension(m, f, KRIPKE) == expected == 1 << m.index("a")


def test_partition_trivial_cases():
    one = nm(["x"], {"x": [[], ["x"]]})
    part = logical_equiv_partition([one], ["p"], NEW)
    assert len(part.blocks_at(part.depth)) == 1

    sym = nm(["x", "y"], {"x": [[], ["x", "y"]], "y": [[], ["x", "y"]]},
             {"p": []})
    part = logical_equiv_partition([sym], ["p"], NEW)
    assert len(part.blocks_at(part.depth)) == 1


def test_partition_merges_bisimilar_singletons():
    left = nm(["x"], {"x": [[], ["x"]]}, {"p": []})
    right = nm(["y"], {"y": [[], ["y"]]}, {"p": []})
    part = logical_equiv_partition([left, right], ["p"], NEW)
    assert part.cross_pairs() == frozenset({("x", "y")})
    assert max_bisim(BisimKind.C, left, right).pairs == part.cross_pairs()


def test_block_index_reads_history_and_refuses_refs_outside_the_union():
    left = nm(["x", "y"], {"x": [], "y": [[], ["x", "y"]]}, {"p": []})
    right = nm(["z"], {"z": [[], ["z"]]}, {"p": []})
    models = [left, right]
    part = logical_equiv_partition(models, ["p"], NEW)
    for depth in range(part.depth + 1):
        blocks = part.blocks_at(depth)
        for mi, m in enumerate(models):
            for s in range(m.n):
                assert (mi, s) in blocks[part.block_index(depth, (mi, s))]
        # a negative index would wrap to another state
        for ref in ((-1, 0), (0, left.n), (len(models), 0), (1, -1)):
            with pytest.raises(ValueError, match="not covered"):
                part.block_index(depth, ref)


def test_cross_pairs_refuses_models_outside_the_partition():
    left = nm(["x", "y"], {"x": [], "y": [[], ["x", "y"]]}, {"p": []})
    right = nm(["z"], {"z": [[], ["z"]]}, {"p": []})
    part = logical_equiv_partition([left, right], ["p"], NEW)
    assert part.cross_pairs(1, 0) == {(b, a) for a, b in part.cross_pairs()}
    for left_i, right_i, bad in ((0, 5, 5), (-1, 0, -1), (2, 1, 2)):
        with pytest.raises(ValueError, match=f"model {bad} "):
            part.cross_pairs(left_i, right_i)


def test_char_formula_refuses_block_indices_outside_the_depth():
    left = nm(["x", "y"], {"x": [], "y": [[], ["x", "y"]]}, {"p": []})
    right = nm(["z"], {"z": [[], ["z"]]}, {"p": []})
    part = logical_equiv_partition([left, right], ["p"], NEW)
    several = part.depth
    count = len(part.blocks_at(several))
    assert count > 1 and len(part.blocks_at(0)) == 1
    # a negative index would wrap to another block; one past the end, and
    # any index on a one-block depth, names no block either
    for depth, block in ((several, -1), (several, count), (0, 7), (0, -1)):
        with pytest.raises(ValueError, match=f"no block {block} at depth "
                                             f"{depth}"):
            char_formula(part, block, depth)


def test_hennessy_milner_c_and_qf():
    for seed in range(40):
        left = random_model(GenSpec(4, C_PROPS, seed=seed, mode="random"),
                            ["p", "q"])
        right = random_model(GenSpec(3, C_PROPS, seed=seed + 4000,
                                     mode="random"), ["p", "q"])
        part = logical_equiv_partition([left, right], ["p", "q"], NEW)
        assert part.cross_pairs() == max_bisim(BisimKind.C, left, right).pairs
    for seed in range(25):
        left = random_model(GenSpec(3, QF_PROPS, seed=seed, mode="random"),
                            ["p"])
        right = random_model(GenSpec(3, QF_PROPS, seed=seed + 4000,
                                     mode="random"), ["p"])
        part = logical_equiv_partition([left, right], ["p"], NEW)
        assert part.cross_pairs() == max_bisim(BisimKind.QF, left,
                                               right).pairs


def test_char_formula_literal_conjunction():
    m = nm(["x", "y"], {"x": [], "y": []}, {"p": ["x"], "q": []})
    part = logical_equiv_partition([m], ["p", "q"], NEW)
    block = part.block_index(0, (0, 0))
    f = char_formula(part, block, 0)
    assert str(f) == "p & ~q"


def test_char_formula_single_block_is_top():
    m = nm(["x"], {"x": []}, {"p": []})
    part = logical_equiv_partition([m], ["p"], NEW)
    assert str(char_formula(part, 0, part.depth)) == "top"


def test_char_formula_separates_blocks_everywhere():
    for seed in range(25):
        left = random_model(GenSpec(3, C_PROPS, seed=seed, mode="random"),
                            ["p"])
        right = random_model(GenSpec(3, C_PROPS, seed=seed + 1000,
                                     mode="random"), ["p"])
        part = logical_equiv_partition([left, right], ["p"], NEW)
        models = (left, right)
        depth = part.depth
        for b, block in enumerate(part.blocks_at(depth)):
            f = char_formula(part, b, depth)
            exts = [extension(m, f, NEW) for m in models]
            for mi, m in enumerate(models):
                for s in range(m.n):
                    expected = (mi, s) in block
                    assert bool(exts[mi] >> s & 1) == expected, (seed, b, f)


# --- independent oracles ------------------------------------------------------

def _closure_equiv_pairs(models, kinds, vocab):
    """Logical equivalence by a different route: track the tuple of per-model
    extensions reachable as some formula's extension, closing under
    complement, intersection, and the non-contingency image, to a fixpoint."""
    from delta_lab.semantics import delta_holds

    fulls = tuple(m.full for m in models)

    def boolclose(family):
        family = set(family)
        while True:
            fresh = {tuple(fulls[i] & ~t[i] for i in range(len(models)))
                     for t in family}
            fresh |= {tuple(a[i] & b[i] for i in range(len(models)))
                      for a in family for b in family}
            if fresh <= family:
                return family
            family |= fresh

    family = boolclose({tuple(m.atom_mask(p) for m in models) for p in vocab}
                       | {fulls})
    while True:
        images = set()
        for t in family:
            masks = []
            for i, m in enumerate(models):
                masks.append(sum(1 << s for s in range(m.n)
                                 if delta_holds(m, s, t[i], kinds[i])))
            images.add(tuple(masks))
        grown = boolclose(family | images)
        if grown == family:
            break
        family = grown
    pairs = set()
    for i, mi in enumerate(models):
        for j, mj in enumerate(models):
            for a in range(mi.n):
                for b in range(mj.n):
                    if all((t[i] >> a & 1) == (t[j] >> b & 1)
                           for t in family):
                        pairs.add(((i, a), (j, b)))
    return pairs


def test_partition_matches_extension_closure_oracle():
    for seed in range(25):
        left = random_model(GenSpec(3, C_PROPS, seed=seed, mode="random"),
                            ["p", "q"])
        right = random_model(GenSpec(3, C_PROPS, seed=seed + 6000,
                                     mode="random"), ["p", "q"])
        part = logical_equiv_partition([left, right], ["p", "q"], NEW)
        oracle = _closure_equiv_pairs((left, right), (NEW, NEW), ("p", "q"))
        got = {((0, left.index(a)), (1, right.index(b)))
               for a, b in part.cross_pairs(0, 1)}
        expected = {pair for pair in oracle if pair[0][0] == 0
                    and pair[1][0] == 1}
        assert got == expected, seed


def test_partition_mixed_kinds_matches_oracle():
    from delta_lab.semantics import SemanticsKind

    for seed in range(25):
        k = random_kripke(GenSpec(3, seed=seed, mode="random"), ["p"])
        m = qf_variation(k)
        part = logical_equiv_partition([k, m], ["p"], NEW)
        pairs = part.cross_pairs(0, 1)
        assert all((s, s) in pairs for s in k.states)
        oracle = _closure_equiv_pairs((k, m), (SemanticsKind.KRIPKE, NEW),
                                      ("p",))
        got = {((0, k.index(a)), (1, m.index(b))) for a, b in pairs}
        expected = {pair for pair in oracle if pair[0][0] == 0
                    and pair[1][0] == 1}
        assert got == expected, seed


def test_coherent_enumeration_matches_naive_double_loop():
    rnd = random.Random(29)
    for seed in range(40):
        left = random_model(GenSpec(3, seed=seed, mode="random"), ["p"])
        right = random_model(GenSpec(2, seed=seed + 1000, mode="random"),
                             ["p"])
        z = random_relation(rnd, left, right)
        idx = [(left.index(a), right.index(b)) for a, b in sorted(z.pairs)]
        fast = set(coherent_pairs(idx, left.n, right.n))
        naive = {(u, u2)
                 for u in range(1 << left.n) for u2 in range(1 << right.n)
                 if all((u >> i & 1) == (u2 >> j & 1) for i, j in idx)}
        assert fast == naive, seed


def test_char_formula_depth_bound():
    from delta_lab.formula import metrics

    for seed in range(15):
        left = random_model(GenSpec(3, C_PROPS, seed=seed, mode="random"),
                            ["p"])
        right = random_model(GenSpec(2, C_PROPS, seed=seed + 1000,
                                     mode="random"), ["p"])
        part = logical_equiv_partition([left, right], ["p"], NEW)
        for depth in range(part.depth + 1):
            for b in range(len(part.blocks_at(depth))):
                f = char_formula(part, b, depth)
                assert metrics(f).modal_depth <= depth, (seed, depth, f)
