import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random

import pytest

from delta_lab import generators, model, semantics
from delta_lab.bisim import BisimKind, PairRelation, check_bisim, max_bisim
from delta_lab.generators import (GenSpec, enum_frames, enum_kripke_frames,
                                  random_kripke, random_model)
from delta_lab.model import (MODEL_CLASSES, BudgetError, FrameProperty,
                             KripkeModel, NeighborhoodModel, classify,
                             family_satisfies, first_failing, has_property,
                             is_qf_family, qf_family, qf_relation, validate)
from delta_lab.transform import c_variation, qf_to_kripke, qf_variation

FP = FrameProperty


def nm(states, fams, val=None):
    return NeighborhoodModel.from_names(states, fams, val)


# --- literal restatements of the property clauses, used as oracles ---------

def subsets(universe):
    out = []
    for k in range(len(universe) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(universe, k))
    return out


def oracle(m, prop):
    states = list(range(m.n))
    fam = [set(x for x in m.neighborhoods[s]) for s in states]
    full = m.full

    def comp(x):
        return full & ~x

    for s in states:
        ns = fam[s]
        if prop is FP.N and full not in ns:
            return False
        if prop is FP.R:
            core = full
            for x in ns:
                core &= x
            if core not in ns:
                return False
        if prop is FP.I:
            for x in ns:
                for y in ns:
                    if x & y not in ns:
                        return False
        if prop is FP.S:
            for x in ns:
                for y in range(full + 1):
                    if x | y == y and y not in ns:
                        return False
        if prop is FP.C:
            for x in ns:
                if comp(x) not in ns:
                    return False
        if prop is FP.D:
            for x in ns:
                if comp(x) in ns:
                    return False
        if prop is FP.T:
            for x in ns:
                if not x >> s & 1:
                    return False
        if prop is FP.B:
            for x in range(full + 1):
                if x >> s & 1:
                    derived = 0
                    for u in states:
                        if comp(x) not in fam[u]:
                            derived |= 1 << u
                    if derived not in ns:
                        return False
        if prop is FP.FOUR:
            for x in ns:
                derived = 0
                for u in states:
                    if x in fam[u]:
                        derived |= 1 << u
                if derived not in ns:
                    return False
        if prop is FP.FIVE:
            for x in range(full + 1):
                if x not in ns:
                    derived = 0
                    for u in states:
                        if x not in fam[u]:
                            derived |= 1 << u
                    if derived not in ns:
                        return False
        if prop is FP.WS:
            for x in ns:
                for y in range(full + 1):
                    for z in range(full + 1):
                        if (x | y) not in ns and (comp(x) | z) not in ns:
                            return False
    return True


def test_single_state_full_pair_family():
    m = nm(["a"], {"a": [[], ["a"]]})
    for prop in (FP.C, FP.N, FP.I, FP.S, FP.R, FP.WS):
        assert has_property(m, prop), prop
    assert not has_property(m, FP.D)
    assert not has_property(m, FP.T)


def test_two_state_empty_and_unit():
    m = nm(["a", "b"], {"a": [[], ["a", "b"]], "b": [[], ["a", "b"]]})
    for prop in (FP.N, FP.I, FP.C, FP.WS):
        assert has_property(m, prop), prop
    assert not has_property(m, FP.S)


def test_single_state_singleton_family():
    m = nm(["a"], {"a": [["a"]]})
    for prop in (FP.S, FP.I, FP.N):
        assert has_property(m, prop), prop
    assert not has_property(m, FP.C)


def test_classify_examples():
    m = nm(["a", "b"], {"a": [[], ["a", "b"]], "b": [[], ["a", "b"]]})
    assert classify(m) == {"c-model", "quasi-filter"}
    powerset = nm(["a"], {"a": [[], ["a"]]})
    assert classify(powerset) == {"c-model", "monotonic-c", "csi", "filter",
                                  "quasi-filter"}
    only_unit = nm(["a"], {"a": [["a"]]})
    assert classify(only_unit) == {"filter"}


def test_has_property_matches_literal_oracle_exhaustively():
    for n in (1, 2):
        for frame in enum_frames(GenSpec(n)):
            for prop in FrameProperty:
                assert has_property(frame, prop) == oracle(frame, prop), (
                    frame, prop)


def test_relational_properties_match_literal_oracle_on_3_state_c_frames():
    # every frame of the definability sweeps of (b), (4) and (5) at 3 states
    for frame in enum_frames(GenSpec(3, frozenset({FP.C}))):
        for prop in (FP.B, FP.FOUR, FP.FIVE):
            assert has_property(frame, prop) == oracle(frame, prop), (
                frame, prop)


def test_has_property_matches_literal_oracle_sampled_3_states():
    for seed in range(60):
        m = random_model(GenSpec(3, seed=seed, mode="random"), ["p"])
        for prop in FrameProperty:
            assert has_property(m, prop) == oracle(m, prop), (m, prop)


def _closed_family_models():
    """Seeded models whose families are closed under (s), (c) or the
    quasi-filter conditions, plus quasi-filter variations of Kripke frames:
    the samples where (s), (ws), (b), (4) and (5) can go either way."""
    draws = (({FP.S}, (3, 5)), ({FP.C}, (3, 5)), ({FP.C, FP.S}, (3, 5)),
             (MODEL_CLASSES["quasi-filter"], (3, 5)))
    for props, sizes in draws:
        for n in sizes:
            for seed in range(12):
                yield random_model(GenSpec(n, frozenset(props), seed=seed,
                                           mode="random"), ["p"])
    for n in (3, 4, 5):
        for seed in range(12):
            yield qf_variation(random_kripke(GenSpec(n, seed=seed), ["p"]))


def test_has_property_matches_literal_oracle_on_closed_families():
    seen = {prop: set() for prop in FrameProperty}
    for m in _closed_family_models():
        for prop in FrameProperty:
            verdict = has_property(m, prop)
            assert verdict == oracle(m, prop), (m, prop)
            seen[prop].add(verdict)
        assert classify(m) == {name for name, props in MODEL_CLASSES.items()
                               if all(oracle(m, p) for p in props)}, m
    for prop in (FP.S, FP.WS, FP.B, FP.FOUR, FP.FIVE):
        assert seen[prop] == {False, True}, prop


def _frame_stream():
    """Frames that share family objects, then equal families rebuilt."""
    yield from enum_frames(GenSpec(2))
    yield from enum_frames(GenSpec(3, frozenset({FP.C})))
    for frame in enum_frames(GenSpec(2)):
        yield NeighborhoodModel(frame.states,
                                tuple(map(frozenset, frame.neighborhoods)))


@pytest.mark.parametrize(
    "limit", [model._family_verdict.cache_parameters()["maxsize"], 5])
def test_local_verdict_memo_matches_literal_verdicts(monkeypatch, limit):
    # a fresh cache of the given bound, so that the small one must evict
    cache = functools.lru_cache(maxsize=limit)(
        model._family_verdict.__wrapped__)
    monkeypatch.setattr(model, "_family_verdict", cache)
    for frame in _frame_stream():
        for prop in model.LOCAL_PROPERTIES:
            assert has_property(frame, prop) == all(
                family_satisfies(prop, fam, frame.full, s)
                for s, fam in enumerate(frame.neighborhoods)), (frame, prop)
        info = cache.cache_info()
        assert info.currsize <= info.maxsize == limit
    # the stream's distinct (property, family, size, state) keys overflow
    # only the small bound
    info = cache.cache_info()
    assert info.hits and (info.misses > info.currsize) == (limit == 5), info


def test_first_failing_follows_declaration_order():
    m = nm(["a", "b"], {"a": [["a"]], "b": []})
    assert first_failing(m, "quasi-filter") is FP.N
    assert first_failing(m, "monotonic-c") is FP.S
    powerset = nm(["a"], {"a": [[], ["a"]]})
    assert all(first_failing(powerset, name) is None for name in MODEL_CLASSES)


def test_verdicts_follow_the_families():
    m = nm(["a", "b"], {"a": [["a"]], "b": [["a", "b"]]}, {"p": ["a"]})
    assert not has_property(m, FP.C) and not has_property(m, FP.S)
    assert has_property(m, FP.I)
    # Models derived from ``m`` answer for their own families.
    assert not has_property(m.with_valuation({"q": 1}), FP.C)
    assert not has_property(m.frame(), FP.S)
    assert has_property(c_variation(m), FP.C)
    widened = dataclasses.replace(
        m, neighborhoods=(frozenset({0b01, 0b10, 0b11}), m.neighborhoods[1]))
    assert has_property(widened, FP.S) and not has_property(widened, FP.I)
    # Verdicts leave equality, repr and pickling alone.
    fresh = nm(["a", "b"], {"a": [["a"]], "b": [["a", "b"]]}, {"p": ["a"]})
    assert fresh == m and repr(fresh) == repr(m)
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m
    assert classify(m) == classify(copy) == classify(fresh) == set()


def test_models_carry_only_their_fields():
    k = KripkeModel.from_names("xyz", {"x": "xy", "z": "yz"}, {"p": "x"})
    qf = qf_variation(k)
    c = c_variation(random_model(GenSpec(3, seed=4, mode="random"), ["p"]))
    for m, kinds in ((qf, (BisimKind.QF, BisimKind.C)), (c, (BisimKind.C,))):
        for prop in FP:
            has_property(m, prop)
        for name in MODEL_CLASSES:
            first_failing(m, name)
        classify(m)
        z = PairRelation.of([(m.states[0], m.states[0])])
        for kind in kinds:
            check_bisim(kind, z, m, m)
            max_bisim(kind, m, m)
    assert qf_to_kripke(qf) == k
    for m in (qf, c, k):
        assert list(vars(m)) == [f.name for f in dataclasses.fields(m)], m


def test_swept_frames_match_constructed_frames():
    swept = (list(generators._product_frames(2, frozenset()))
             + list(generators._product_frames(3, MODEL_CLASSES["c-model"])))
    for frame in swept:
        built = NeighborhoodModel(frame.states, frame.neighborhoods)
        assert type(frame) is NeighborhoodModel
        assert frame == built and built == frame
        assert (hash((frame.states, frame.neighborhoods))
                == hash((built.states, built.neighborhoods)))
        assert repr(frame) == repr(built)
        assert [k for k in vars(frame) if k != model._RUN] == list(vars(built))
        assert pickle.dumps(frame) == pickle.dumps(built)
        copy = pickle.loads(pickle.dumps(frame))
        assert copy == built and model._RUN not in vars(copy)
        assert frame.valuation == {} and frame.valuation is not built.valuation
        valued = frame.with_valuation({"p": 1})
        assert valued == built.with_valuation({"p": 1})
        assert frame.valuation == {} and model._RUN not in vars(valued)
    # each frame has a valuation dict of its own
    assert len({id(frame.valuation) for frame in swept}) == len(swept)


def _swept_and_expected():
    """(props, n, stream, expected) for every frame of c up to 3 states,
    of all up to 2, and of c,4 at 3 (a global filter): the stream is
    ``enum_frames``', the expected frames are built from their product
    codes (``frame_at`` for all) and filtered frame by frame."""
    c = MODEL_CLASSES["c-model"]
    for props, sizes in ((c, (1, 2, 3)), (frozenset(), (1, 2)),
                         (c | {FP.FOUR}, (3,))):
        for n in sizes:
            per_state, global_props = generators.admissible_space(n, props)
            if props:
                built = (generators.frame_from_codes(n, codes)
                         for codes in itertools.product(*per_state))
            else:
                built = (generators.frame_at(n, k)
                         for k in range(math.prod(map(len, per_state))))
            expected = [m for m in built
                        if all(has_property(m, p) for p in global_props)]
            yield props, n, enum_frames(GenSpec(n, props)), expected


@pytest.mark.parametrize("first_read", [
    lambda frame: frame.states,
    dataclasses.replace,
    copy.copy,
    lambda frame: pickle.loads(pickle.dumps(frame)),
], ids=["field", "replace", "copy", "pickle"])
def test_swept_frame_is_an_ordinary_model_once_read(first_read):
    for props, n, stream, expected in _swept_and_expected():
        frames = list(stream)
        assert len(frames) == len(expected), (props, n)
        for frame, built in zip(frames, expected):
            # unread, a frame holds its handle alone, and asking for a
            # name it lacks writes nothing
            assert list(vars(frame)) == [model._RUN]
            assert not hasattr(frame, "succ")
            assert list(vars(frame)) == [model._RUN]
            first = first_read(frame)
            assert frame == built and frame.valuation == {}
            for other in (first, dataclasses.replace(frame), copy.copy(frame),
                          pickle.loads(pickle.dumps(frame))):
                if isinstance(other, NeighborhoodModel):
                    assert other == built and model._RUN not in vars(other)
                    assert list(vars(other)) == list(vars(built))
        # each frame's valuation is a dict of its own
        assert len({id(frame.valuation) for frame in frames}) == len(frames)


# --- run masks: one verdict per product run, bit j for frame j -------------

def _run_frames():
    """Tagged frames of every shipped class at 1-3 states (three runs of
    ``all`` at 3 states, from a start mid-run), then cs, csi, filter and
    quasi-filter at 4 states (a range of 4096 filter frames from a start
    mid-run of the 65,536)."""
    classes = generators.FRAME_CLASSES
    for name, props in classes.items():
        for n in (1, 2, 3):
            if name == "all" and n == 3:
                yield from generators._product_frames(3, props, 300,
                                                      300 + 3 * 256)
            else:
                yield from generators._product_frames(n, props)
    for name in ("cs", "csi", "quasi-filter"):
        yield from generators._product_frames(4, classes[name])
    yield from generators._product_frames(4, classes["filter"], 20008,
                                          20008 + 4096)


def test_run_property_matches_untagged_copies_and_literal_oracle():
    seen = {prop: set() for prop in FrameProperty}
    literal = {}
    count = 0
    for frame in _run_frames():
        run, index = vars(frame)[model._RUN]
        copy = NeighborhoodModel(frame.states, frame.neighborhoods)
        for prop in FrameProperty:
            mask = semantics._run_props(frame, run, prop)
            want = has_property(copy, prop)
            if mask is None:
                # only a run of one frame has no validity mask for the
                # correspondent of (b), (4) or (5): its frame is checked
                # on its own, as ``want`` is
                assert run.count == 1, (frame, prop)
                assert prop not in model.LOCAL_PROPERTIES, (frame, prop)
                got = want
            else:
                got = mask >> index & 1
            assert got == want, (frame, prop)
            if prop in model.LOCAL_PROPERTIES:
                for s, fam in enumerate(frame.neighborhoods):
                    key = (prop, frame.n, s, fam)
                    if key not in literal:
                        literal[key] = family_satisfies(prop, fam,
                                                        frame.full, s)
                assert want == all(literal[prop, frame.n, s, fam] for s, fam
                                   in enumerate(frame.neighborhoods))
            else:
                assert want == oracle(frame, prop), (frame, prop)
            seen[prop].add(got)
        count += 1
    assert count == (4 + 256 + 3 * 256) + (2 + 16 + 4096) \
        + 2 * (2 + 4 + 8 + 16) + (2 + 16 + 512 + 4096) + (1 + 4 + 125 + 20736)
    assert all(verdicts == {0, 1} for verdicts in seen.values()), seen


def test_run_masks_are_kept_per_run_and_list(monkeypatch):
    # a run's mask is computed from what the walk keeps: the validity mask
    # of the correspondent of (b) or (4), built once per run even when the
    # two alternate, and the last state's local verdicts for its list
    frames = list(generators._product_frames(3, MODEL_CLASSES["c-model"]))
    run, _ = vars(frames[0])[model._RUN]
    built = []
    run_mask = semantics._run_mask
    monkeypatch.setattr(semantics, "_run_mask",
                        lambda *args: built.append(args) or run_mask(*args))
    mask = semantics._run_props(frames[0], run, FP.B)
    four = semantics._run_props(frames[0], run, FP.FOUR)
    assert semantics._run_props(frames[1], run, FP.B) == mask
    assert semantics._run_props(frames[1], run, FP.FOUR) == four
    assert len(built) == 2  # one pass per (run, correspondent)
    last = semantics._run_props(frames[0], run, FP.D)
    assert run.shared[FP.D] == last  # the head's families are both empty
    # every run of one sweep shares the list's data; a new sweep has its own
    later, _ = vars(frames[-1])[model._RUN]
    assert later is not run and later.shared is run.shared
    other = next(iter(generators._product_frames(3, MODEL_CLASSES["c-model"])))
    assert vars(other)[model._RUN][0].shared is not run.shared


def _digits(j, lists):
    """Frame j's entry of each list: its mixed-radix digits, the last list
    least significant."""
    out = []
    for fams in reversed(lists):
        j, d = divmod(j, len(fams))
        out.append(d)
    return out[::-1]


def test_local_mask_is_the_mixed_radix_rule_at_every_width():
    # seeded layouts of 0-2 head states and 1-3 trailing lists of unequal
    # lengths, as (t) gives, under random verdicts: block j is all ones iff
    # every state's entry in frame j holds, and all zeros otherwise
    rnd = random.Random(33)
    nonzero = 0
    for _ in range(200):
        heads = rnd.randrange(3)
        lengths = [rnd.randrange(1, 6) for _ in range(rnd.randrange(1, 4))]
        n = heads + len(lengths)

        def family():
            return frozenset(rnd.sample(range(1 << n), rnd.randrange(3)))

        lists = tuple(tuple(family() for _ in range(length))
                      for length in lengths)
        verdict = {}

        def holds(fam, s):
            return verdict.setdefault((fam, s), rnd.random() < 0.8)

        count = math.prod(lengths)
        for width in (1, 3, 8, 64):
            shared = {}
            ones = (1 << width) - 1
            for _ in range(2):  # the second head reads the kept tail
                head = tuple(family() for _ in range(heads))
                mask = model._local_mask(holds, head, lists, shared, "key",
                                         width)
                assert mask >> count * width == 0
                for j in range(count):
                    want = all(holds(fam, s) for s, fam in enumerate(head))
                    for t, d in enumerate(_digits(j, lists)):
                        want = holds(lists[t][d], heads + t) and want
                    assert mask >> j * width & ones == (ones if want else 0), \
                        (head, lists, width, j)
                nonzero += mask != 0
    assert nonzero > 500


def test_pass_selectors_match_each_frames_family():
    # the selectors of ``_passes`` for every shipped class at 1-3 states:
    # in the pass from frame lo, sel_X of trailing state t has frame lo+j's
    # V-bit block set iff its family there holds X, and under ``old`` the
    # Δ side iff it holds X or S∖X
    checked = 0
    for name, props in generators.FRAME_CLASSES.items():
        for n, k, old in itertools.product((1, 2, 3), (1, 2), (False, True)):
            frame = next(iter(generators._product_frames(n, props)))
            run, _ = vars(frame)[model._RUN]
            v, full = 1 << n * k, frame.full
            ones = (1 << v) - 1
            passes = semantics._passes(run.lists, run.count, n, k, old)
            assert sum(p[1] for p in passes) in (0, run.count)
            for lo, count, _, sels, _, _ in passes:
                assert len(sels) == len(run.lists)
                for j in range(count):
                    digits = _digits(lo + j, run.lists)
                    for t, (delta, box) in enumerate(sels):
                        fam = run.lists[t][digits[t]]
                        delta, box = dict(delta), dict(box)
                        for x in range(full + 1):
                            both = x in fam or (old and full ^ x in fam)
                            for sel, want in ((box, x in fam), (delta, both)):
                                block = sel.get(x, 0) >> j * v & ones
                                assert block == (ones if want else 0), \
                                    (name, n, k, old, lo + j, t, x)
                checked += count
    assert checked > 2000


def test_global_filter_reads_the_run_masks():
    # (b) and (4) as a filter over c-frames: the frames kept are the ones
    # the literal oracle accepts, in product order
    props = frozenset({FP.C, FP.B, FP.FOUR})
    for n in (1, 2, 3):
        kept = list(generators._product_frames(n, props))
        every = [NeighborhoodModel(f.states, f.neighborhoods)
                 for f in generators._product_frames(n, MODEL_CLASSES["c-model"])]
        assert kept == [f for f in every
                        if oracle(f, FP.B) and oracle(f, FP.FOUR)], n
        assert generators.count_frames(GenSpec(n, props)) == len(kept)


def test_global_filter_over_a_run_of_one_frame_checks_each_frame():
    # the quasi-filter class at 1 state has one frame, a run of one with no
    # validity mask, so the filter checks (b), (4) or (5) on the frame
    # itself; larger runs read their masks.  Both keep the frames the
    # literal oracle accepts
    qf = MODEL_CLASSES["quasi-filter"]
    counts = {FP.B: [1, 2, 11], FP.FOUR: [1, 4, 48], FP.FIVE: [1, 2, 11]}
    for prop, want in counts.items():
        got = []
        for n in (1, 2, 3):
            every = [NeighborhoodModel(f.states, f.neighborhoods)
                     for f in generators._product_frames(n, qf)]
            kept = list(generators._product_frames(n, qf | {prop}))
            assert kept == [f for f in every if oracle(f, prop)], (prop, n)
            got.append(len(kept))
        assert got == want, prop
    (frame,) = generators._product_frames(1, qf)
    run, _ = vars(frame)[model._RUN]
    assert run.count == 1
    assert all(semantics._run_props(frame, run, prop) is None
               for prop in counts)


def test_correspondent_properties_refuse_frames_past_the_budget():
    # (b), (4) and (5) sweep 2^n valuations of one atom under the default
    # budget of 2^24, so a 25-state frame is refused before any is swept
    frame = NeighborhoodModel(generators.state_names(25),
                              (frozenset({0}),) * 25)
    for prop in (FP.B, FP.FOUR, FP.FIVE):
        with pytest.raises(BudgetError,
                           match=r"needs 2\^25 cases, budget is 2\^24"):
            has_property(frame, prop)


# --- the quasi-filter normal form ------------------------------------------

QF_PROPS = (FP.N, FP.I, FP.C, FP.WS)


def walk_says_qf(family, full):
    """The per-property walk, the recogniser's oracle."""
    return all(family_satisfies(p, family, full, 0) for p in QF_PROPS)


def all_families(n):
    subs = 1 << n
    for code in range(1 << subs):
        yield frozenset(x for x in range(subs) if code >> x & 1)


def test_qf_recogniser_matches_walk_on_every_family():
    for n in (1, 2, 3, 4):
        full = (1 << n) - 1
        accepted = 0
        for family in all_families(n):
            verdict = is_qf_family(family, full)
            assert verdict == walk_says_qf(family, full), (n, family)
            accepted += verdict
        # one Q_R per R with |R| ≠ 1: Q_∅ and Q_{t} are both the powerset
        assert accepted == 2 ** n - n


def test_qf_relation_reads_missing_singletons():
    for n in (1, 2, 3):
        full = (1 << n) - 1
        for family in all_families(n):
            assert qf_relation(family, full) == sum(
                1 << t for t in range(n) if 1 << t not in family), family


def test_qf_family_equals_subset_filter():
    for n in range(1, 7):
        full = (1 << n) - 1
        for r in range(full + 1):
            filtered = frozenset(x for x in range(full + 1)
                                 if r & x == r or r & x == 0)
            built = qf_family(r, full)
            assert built == filtered, (n, r)
            assert list(built) == list(filtered), (n, r)  # iteration order
            assert is_qf_family(built, full)


def _qf_variations():
    for n in (1, 2, 3):
        yield from map(qf_variation, enum_kripke_frames(GenSpec(n)))
    for n in (5, 6):
        for seed in range(40):
            yield qf_variation(random_kripke(GenSpec(n, seed=seed), ["p"]))


def test_qf_recogniser_accepts_qf_variations():
    for m in _qf_variations():
        for fam in m.neighborhoods:
            assert is_qf_family(fam, m.full) and walk_says_qf(fam, m.full), m
        assert first_failing(m, "quasi-filter") is None


def test_qf_recogniser_near_misses():
    only_i = nm(["a", "b", "c"], dict.fromkeys(
        "abc", [[], ["a", "b", "c"], ["a"], ["b", "c"], ["b"], ["a", "c"]]))
    only_ws = nm(["a", "b", "c", "d"], dict.fromkeys(
        "abcd", [[], ["a", "b"], ["c", "d"], ["a", "b", "c", "d"]]))
    for m, fails in ((only_i, FP.I), (only_ws, FP.WS)):
        fam, full = m.neighborhoods[0], m.full
        assert [p for p in QF_PROPS
                if not family_satisfies(p, fam, full, 0)] == [fails]
        assert not is_qf_family(fam, full)
        assert first_failing(m, "quasi-filter") is fails
    for n in range(1, 6):
        full = (1 << n) - 1
        for r in range(full + 1):
            q = qf_family(r, full)
            for x in range(full + 1):
                near = q ^ {x}  # one member added or removed
                assert is_qf_family(near, full) == walk_says_qf(near, full)
            if r.bit_count() == 1:
                # R = {t}: Q_R is the powerset; without {t} it is no Q_R
                assert q == frozenset(range(full + 1))
                assert not is_qf_family(q - {r}, full)
                assert not walk_says_qf(q - {r}, full)


def test_qf_gate_reads_families_by_value(monkeypatch):
    m = next(m for m in _qf_variations() if m.n == 3)

    def walked(*args):
        raise AssertionError("the walk ran on a quasi-filter model")

    monkeypatch.setattr(model, "has_property", walked)
    assert first_failing(m, "quasi-filter") is None
    # a fresh model with value-equal families reads the cached verdicts
    fresh = NeighborhoodModel(
        m.states, tuple(frozenset(list(fam)) for fam in m.neighborhoods),
        m.valuation)
    assert all(a is not b for a, b in zip(fresh.neighborhoods,
                                          m.neighborhoods))
    monkeypatch.setattr(model, "is_qf_family", walked)
    assert first_failing(fresh, "quasi-filter") is None


def test_quasi_filter_iff_component_properties():
    for seed in range(80):
        m = random_model(GenSpec(2, seed=seed, mode="random"), [])
        expected = all(has_property(m, p)
                       for p in (FP.N, FP.I, FP.C, FP.WS))
        assert ("quasi-filter" in classify(m)) == expected


def test_complement_membership_is_biconditional_on_c_models():
    for seed in range(50):
        m = random_model(GenSpec(3, frozenset({FP.C}), seed=seed,
                                 mode="random"), [])
        for fam in m.neighborhoods:
            for x in range(m.full + 1):
                assert (x in fam) == (m.complement(x) in fam)


def test_validate_ok_and_violations():
    m = nm(["a", "b"], {"a": [["a"]], "b": []}, {"p": ["a"]})
    assert validate(m) == []
    broken = NeighborhoodModel(("a",), (frozenset({0b10}),), {"p": 0b1})
    assert any("unknown state" in v for v in validate(broken))
    short = NeighborhoodModel(("a", "b"), (frozenset(),), {})
    assert any("not total" in v for v in validate(short))
    bad_kripke = KripkeModel(("a",), (0b10,), {})
    assert any("unknown state" in v for v in validate(bad_kripke))


def test_from_names_rejects_unknowns_and_duplicates():
    with pytest.raises(ValueError):
        nm(["a"], {"a": [["zz"]]})
    with pytest.raises(ValueError):
        nm(["a", "a"], {"a": []})
    with pytest.raises(ValueError, match="unknown state 'x'"):
        nm(["s"], {"x": [["s"]]})
    with pytest.raises(ValueError, match="unknown state 'x'"):
        KripkeModel.from_names(["s"], {"x": ["s"]})


def test_validate_names_an_extra_entry_by_its_index():
    # more relation entries than states: the extra entry is reported, with
    # the others, instead of raising
    fams = NeighborhoodModel(("s",), (frozenset(), frozenset({2})))
    assert validate(fams) == [
        "neighborhood function is not total on states",
        "neighborhood of entry 1 contains an unknown state"]
    succ = KripkeModel(("s",), (0, 2))
    assert validate(succ) == [
        "successor map is not total on states",
        "successors of entry 1 reference an unknown state"]
    both = KripkeModel(("s",), (2, 2, 0))
    assert validate(both) == [
        "successor map is not total on states",
        "successors of 's' reference an unknown state",
        "successors of entry 1 reference an unknown state"]


def test_validate_empty_state_set():
    assert "empty state set" in validate(NeighborhoodModel((), (), {}))
