"""End-to-end acceptance checks, one test per criterion, printing one
PASS/FAIL line each (run with ``pytest -s`` to see them inline)."""

import itertools
import random

import pytest

from delta_lab.bisim import (BisimKind, PairRelation, check_bisim,
                             logical_equiv_partition, max_bisim)
from delta_lab.definability import (DefinesResult, builtin_table,
                                    check_frame, defines)
from delta_lab.formula import Not, parse
from delta_lab.generators import (GenSpec, enum_frames, enum_kripke_frames,
                                  random_formula, random_kripke, random_model)
from delta_lab.model import BudgetError, FrameProperty, classify, has_property
from delta_lab.proofsys import (AxiomSystem, ProofLine, audit_soundness,
                                check_proof, countermodel_search,
                                filter_equ_witness, sample_scripts)
from delta_lab.semantics import (SemanticsKind, delta_holds, extension,
                                 frame_valid)
from delta_lab.transform import c_variation, qf_to_kripke, qf_variation

FP = FrameProperty
NEW, OLD, KRIPKE = (SemanticsKind.NEW, SemanticsKind.OLD,
                    SemanticsKind.KRIPKE)
C_PROPS = frozenset({FP.C})
CS_PROPS = frozenset({FP.C, FP.S})
QF_PROPS = frozenset({FP.N, FP.I, FP.C, FP.WS})


class report:
    """Prints the per-criterion verdict line even when assertions fail."""

    def __init__(self, num, name):
        self.num, self.name, self.detail = num, name, ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        print(f"[criterion {self.num:2d}] {self.name}: {status}{suffix}")
        return False


@pytest.fixture(scope="module")
def formulas_d4():
    return [random_formula(4, ["p", "q", "r"], seed) for seed in range(200)]


@pytest.fixture(scope="module")
def formulas_pq_d4():
    return [random_formula(4, ["p", "q"], 10_000 + seed)
            for seed in range(200)]


def test_criterion_1_semantics_coincidence(formulas_d4):
    with report(1, "old/new coincidence on c-models") as r:
        checked = 0
        for i in range(1000):
            m = random_model(GenSpec(1 + i % 6, C_PROPS, seed=i,
                                     mode="random"), ["p", "q", "r"])
            for f in formulas_d4:
                assert extension(m, f, OLD) == extension(m, f, NEW), (i, f)
                checked += 1
        r.detail = f"{checked} model/formula checks"


def test_criterion_2_c_definability():
    with report(2, "equivalence axiom defines complement closure") as r:
        claim = next(c for c in builtin_table() if c.prop is FP.C)
        sizes = {1: 0, 2: 0}
        for n in (1, 2):
            for frame in enum_frames(GenSpec(n)):
                sizes[n] += 1
                holds = has_property(frame, FP.C)
                valid = frame_valid(frame, claim.formula, NEW).valid
                assert holds == valid, frame
        assert sizes == {1: 4, 2: 256}
        r.detail = "260 frames, exact"


def test_criterion_3_c_variation_equivalence(formulas_d4):
    with report(3, "c-variation preserves old-semantics truth") as r:
        checked = 0
        for i in range(1000):
            m = random_model(GenSpec(1 + i % 6, seed=20_000 + i,
                                     mode="random"), ["p", "q", "r"])
            cm = c_variation(m)
            assert has_property(cm, FP.C)
            assert c_variation(cm) == cm
            for f in formulas_d4:
                assert extension(m, f, OLD) == extension(cm, f, NEW), (i, f)
                checked += 1
        r.detail = f"{checked} model/formula checks"


def _boolean_closure(masks, full):
    family = set(masks) | {0, full}
    while True:
        fresh = {full & ~x for x in family}
        fresh |= {x & y for x in family for y in family}
        if fresh <= family:
            return family
        family |= fresh


def _delta_mask(model, mask, kind):
    out = 0
    for s in range(model.n):
        if delta_holds(model, s, mask, kind):
            out |= 1 << s
    return out


def _pointwise_equivalent_up_to(left, lkind, right, rkind, atoms, depth):
    """Exact agreement on all formulas up to the given modal depth, for two
    models sharing one state set: track the extensions of depth-d formulas
    (the Boolean closure of atoms plus earlier non-contingency images) and
    compare the two clause implementations on each."""
    assert left.states == right.states
    family = _boolean_closure([left.atom_mask(a) for a in atoms], left.full)
    for _ in range(depth):
        images = set()
        for x in family:
            got_l = _delta_mask(left, x, lkind)
            got_r = _delta_mask(right, x, rkind)
            if got_l != got_r:
                return False
            images.add(got_l)
        family = _boolean_closure(family | images, left.full)
    return True


def test_criterion_4_qf_variation():
    with report(4, "qf-variation: quasi-filter output, Kripke-pointwise") as r:
        frames = models = 0
        for n in (1, 2, 3):
            for frame in enum_kripke_frames(GenSpec(n)):
                frames += 1
                assert "quasi-filter" in classify(qf_variation(frame))
                for vp, vq in itertools.product(range(1 << n), repeat=2):
                    models += 1
                    k = frame.with_valuation({"p": vp, "q": vq})
                    out = qf_variation(k)
                    assert _pointwise_equivalent_up_to(
                        k, KRIPKE, out, NEW, ("p", "q"), 3), (k, out)
        r.detail = f"{frames} frames, {models} valued models, exact to depth 3"


def test_criterion_5_qf_to_kripke():
    with report(5, "finite quasi-filter model to Kripke extraction") as r:

        def check_one(m):
            k = qf_to_kripke(m)
            assert _pointwise_equivalent_up_to(m, NEW, k, KRIPKE,
                                               tuple(m.valuation), 3)
            back = qf_variation(k)
            part = logical_equiv_partition([m, back], list(m.valuation), NEW)
            pairs = part.cross_pairs(0, 1)
            assert all((s, s) in pairs for s in m.states)
            mixed = logical_equiv_partition([m, k], list(m.valuation), NEW)
            mixed_pairs = mixed.cross_pairs(0, 1)
            assert all((s, s) in mixed_pairs for s in m.states)

        exhaustive = 0
        for n in (1, 2):
            for frame in enum_frames(GenSpec(n, QF_PROPS)):
                for vp, vq in itertools.product(range(1 << n), repeat=2):
                    exhaustive += 1
                    check_one(frame.with_valuation({"p": vp, "q": vq}))
        for i in range(500):
            check_one(random_model(GenSpec(3 + i % 2, QF_PROPS,
                                           seed=30_000 + i, mode="random"),
                                   ["p", "q"]))
        r.detail = f"{exhaustive} exhaustive small models + 500 sampled"


def _random_relations(rnd, left, right, count, extra):
    pool = [(a, b) for a in left.states for b in right.states]
    out = []
    for _ in range(count):
        k = rnd.randrange(1, len(pool) + 1)
        out.append(PairRelation.of(rnd.sample(pool, k)))
    out.extend(extra)
    return out


def test_criterion_6_notion_equivalences():
    with report(6, "c = nbh coherence notions, both monotone notions") as r:
        rnd = random.Random(606)
        agreements = passing = 0
        for i in range(500):
            left = random_model(GenSpec(1 + i % 3, C_PROPS, seed=40_000 + i,
                                        mode="random"), ["p"])
            right = random_model(GenSpec(1 + (i + 1) % 3, C_PROPS,
                                         seed=41_000 + i, mode="random"),
                                 ["p"])
            best = max_bisim(BisimKind.C, left, right)
            extra = [best] if best.pairs else []
            for z in _random_relations(rnd, left, right, 200 - len(extra),
                                       extra):
                a = check_bisim(BisimKind.C, z, left, right).ok
                b = check_bisim(BisimKind.NBH_DELTA, z, left, right).ok
                assert a == b, (left, right, z)
                agreements += 1
                passing += a
        mono_agreements = 0
        for i in range(500):
            left = random_model(GenSpec(1 + i % 3, CS_PROPS, seed=50_000 + i,
                                        mode="random"), ["p"])
            right = random_model(GenSpec(1 + (i + 1) % 3, CS_PROPS,
                                         seed=51_000 + i, mode="random"),
                                 ["p"])
            best = max_bisim(BisimKind.MONOTONIC_C, left, right)
            extra = [best] if best.pairs else []
            for z in _random_relations(rnd, left, right, 200 - len(extra),
                                       extra):
                a = check_bisim(BisimKind.MONOTONIC_C, z, left, right).ok
                b = check_bisim(BisimKind.C_MONOTONIC, z, left, right).ok
                assert a == b, (left, right, z)
                mono_agreements += 1
                passing += a
        assert passing > 500  # the comparisons exercise accepting verdicts too
        r.detail = (f"{agreements} + {mono_agreements} verdict pairs, "
                    f"{passing} accepting")


def test_criterion_7_transfer_lemmas():
    with report(7, "bisimulations transfer along the variations") as r:
        rnd = random.Random(707)
        accepted_rel = accepted_nbh = 0
        for i in range(500):
            left = random_kripke(GenSpec(1 + i % 3, seed=60_000 + i,
                                         mode="random"), ["p"])
            right = random_kripke(GenSpec(1 + (i + 1) % 3, seed=61_000 + i,
                                          mode="random"), ["p"])
            best = max_bisim(BisimKind.REL_DELTA, left, right)
            extra = [best] if best.pairs else []
            ql, qr = qf_variation(left), qf_variation(right)
            for z in _random_relations(rnd, left, right, 20, extra):
                if check_bisim(BisimKind.REL_DELTA, z, left, right).ok:
                    accepted_rel += 1
                    assert check_bisim(BisimKind.QF, z, ql, qr).ok, z
        for i in range(500):
            left = random_model(GenSpec(1 + i % 3, seed=70_000 + i,
                                        mode="random"), ["p"])
            right = random_model(GenSpec(1 + (i + 1) % 3, seed=71_000 + i,
                                         mode="random"), ["p"])
            best = max_bisim(BisimKind.NBH_DELTA, left, right)
            extra = [best] if best.pairs else []
            cl, cr = c_variation(left), c_variation(right)
            for z in _random_relations(rnd, left, right, 20, extra):
                if check_bisim(BisimKind.NBH_DELTA, z, left, right).ok:
                    accepted_nbh += 1
                    assert check_bisim(BisimKind.C, z, cl, cr).ok, z
        assert accepted_rel > 100 and accepted_nbh > 100
        r.detail = (f"{accepted_rel} relational + {accepted_nbh} neighborhood "
                    f"acceptances transferred")


def _one_atom_models(frames):
    """Every frame of ``frames`` under every valuation of the atom p."""
    return [frame.with_valuation({"p": mask}) for frame in frames
            for mask in range(1 << frame.n)]


def _all_relations(left, right):
    pool = [(a, b) for a in left.states for b in right.states]
    for k in range(1, len(pool) + 1):
        for pairs in itertools.combinations(pool, k):
            yield PairRelation.of(pairs)


def test_notion_equivalences_exhaustive_up_to_two_states():
    # Every pair of 1-2-state models with one atom, against every nonempty
    # relation: c = nbh-delta on c-models, monotonic-c = c-monotonic on
    # cs-models, and rel-delta on Kripke models = qf on their variations.
    def same(props):
        return [(m, m) for n in (1, 2)
                for m in _one_atom_models(enum_frames(GenSpec(n, props)))]

    kripke = [(k, qf_variation(k)) for n in (1, 2)
              for k in _one_atom_models(enum_kripke_frames(GenSpec(n)))]
    calls = accepted = 0
    for kind, other, pool in (
            (BisimKind.C, BisimKind.NBH_DELTA, same(C_PROPS)),
            (BisimKind.MONOTONIC_C, BisimKind.C_MONOTONIC, same(CS_PROPS)),
            (BisimKind.REL_DELTA, BisimKind.QF, kripke)):
        for (left, left2), (right, right2) in itertools.product(pool,
                                                                repeat=2):
            for z in _all_relations(left, right):
                a = check_bisim(kind, z, left, right).ok
                assert a == check_bisim(other, z, left2, right2).ok, (
                    kind, left, right, z)
                calls += 2
                accepted += a
    assert calls == 260_448
    assert accepted > 1000


def _invariance_and_hm(kind, props, sizes, seed_base, formulas, atoms):
    for i in range(300):
        left = random_model(GenSpec(sizes[i % len(sizes)], props,
                                    seed=seed_base + i, mode="random"), atoms)
        right = random_model(GenSpec(sizes[(i + 1) % len(sizes)], props,
                                     seed=seed_base + 1000 + i,
                                     mode="random"), atoms)
        z = max_bisim(kind, left, right)
        for f in formulas:
            ext_l, ext_r = extension(left, f, NEW), extension(right, f, NEW)
            for a, b in z.pairs:
                assert (ext_l >> left.index(a) & 1) == \
                    (ext_r >> right.index(b) & 1), (f, a, b)
        part = logical_equiv_partition([left, right], atoms, NEW)
        assert part.cross_pairs(0, 1) == z.pairs, (left, right)


def test_criterion_8_invariance_and_hennessy_milner(formulas_pq_d4):
    with report(8, "invariance and finite Hennessy-Milner") as r:
        _invariance_and_hm(BisimKind.C, C_PROPS, (2, 3, 4, 5), 80_000,
                           formulas_pq_d4, ["p", "q"])
        _invariance_and_hm(BisimKind.QF, QF_PROPS, (3, 4), 90_000,
                           formulas_pq_d4, ["p", "q"])
        r.detail = "300 c-model pairs + 300 quasi-filter pairs"


def test_criterion_9_definability_table():
    with report(9, "the ten definability claims") as r:
        table = builtin_table()
        assert len(table) == 10
        for claim in table:
            assert defines(claim, max_states=2).confirmed, claim.prop
        exact = [claim for claim in table if claim.background == "c"]
        assert len(exact) == 8
        for claim in exact:
            # 2 + 16 + 4096 c-frames up to 3 states
            assert defines(claim, max_states=3) == DefinesResult(True, 4114), \
                claim.prop
        sampled = 0
        for ci, claim in enumerate(table):
            props = C_PROPS if claim.background == "c" else frozenset()
            for frame in enum_frames(GenSpec(3, props, seed=900 + ci,
                                             mode="random", count=1000)):
                sampled += 1
                assert check_frame(claim, frame) is None, (claim.prop, frame)
        assert sampled == 10_000
        r.detail = ("exhaustive to 2 states, the 8 c-background claims "
                    "exhaustive to 3 states, 10000 sampled 3-state frames; "
                    "no claim is exhaustive at 4 states, where c-frames "
                    "number 2^32")


def test_criterion_10_soundness_and_proofs():
    with report(10, "axiom soundness, negative witness, proof checking") as r:
        for system in AxiomSystem:
            rep = audit_soundness(system, max_states=2)
            assert rep.ok, system
            assert all(a.frames_checked > 0 for a in rep.axioms)
            exact = audit_soundness(system, max_states=3)
            assert exact.ok, system
            assert all(a.frames_checked > b.frames_checked
                       for a, b in zip(exact.axioms, rep.axioms))

        # exact at 4 states wherever the frames fit the enumeration limit:
        # 2 + 4 + 8 + 16 cs- and csi-frames, 1 + 4 + 125 + 20736
        # quasi-filters; c-frames number 2^32 at 4 states
        for system, frames in ((AxiomSystem.M, 30), (AxiomSystem.R, 30),
                               (AxiomSystem.K, 20_866)):
            rep = audit_soundness(system, max_states=4)
            assert rep.ok, system
            assert all(a.frames_checked == frames for a in rep.axioms), system
        with pytest.raises(BudgetError):
            audit_soundness(AxiomSystem.E, max_states=4)

        witness = filter_equ_witness(1)
        assert witness is not None
        assert witness[0].neighborhoods == (frozenset({0b1}),)
        assert filter_equ_witness(4) == witness

        found = countermodel_search(parse("D p -> p"), "quasi-filter", 1)
        assert found is not None
        model, state = found
        assert model.neighborhoods == (frozenset({0, 0b1}),)
        assert model.valuation["p"] == 0 and state == "s0"

        scripts = sample_scripts()
        assert len(scripts) == 3
        for name, script in scripts.items():
            assert check_proof(AxiomSystem.K, script).ok, name

        mutations = []
        for script in scripts.values():
            for i, line in enumerate(script):
                negated = list(script)
                negated[i] = ProofLine(Not(line.formula), line.by)
                mutations.append(negated)
                self_mp = list(script)
                self_mp[i] = ProofLine(line.formula, f"MP {i} {i}" if i else
                                       "MP 1 1")
                mutations.append(self_mp)
                wrong_schema = list(script)
                wrong_schema[i] = ProofLine(line.formula, "ΔM")
                mutations.append(wrong_schema)
        by_name = sample_scripts()
        swapped = {"k_unit_negated": [(3, "MP 3 2"), (4, "MP 4 1")],
                   "k_conjunction_commuted": [(4, "MP 4 1"), (5, "MP 5 3"),
                                              (2, "REΔ 1")],
                   "k_dis_weakened": [(2, "MP 2 1")]}
        for name, edits in swapped.items():
            for at, by in edits:
                script = list(by_name[name])
                script[at] = ProofLine(script[at].formula, by)
                mutations.append(script)
        for name, at in (("k_unit_negated", 0), ("k_conjunction_commuted", 0)):
            script = list(by_name[name])
            script[at] = ProofLine(script[at].formula, "TAUT")
            mutations.append(script)

        assert len(mutations) == 50
        for mutant in mutations:
            assert not check_proof(AxiomSystem.K, mutant).ok
        r.detail = ("4 audits clean at 2 and 3 states, M, R and K clean at "
                    "4 states, witnesses found, "
                    "3 scripts accepted, "
                    "50 mutations rejected")
