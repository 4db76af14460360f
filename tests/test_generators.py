import concurrent.futures
import hashlib
import itertools
import math
import pickle
import random
import threading
from functools import partial

import pytest

from delta_lab import generators
from delta_lab.formula import parse
from delta_lab.generators import (GenerationError, GenSpec, count_frames,
                                  enum_frames, enum_kripke_frames, frame_at,
                                  random_formula, random_kripke, random_model,
                                  sweep)
from delta_lab.model import (FRAME_CLASSES, MODEL_CLASSES, BudgetError,
                             FrameProperty, classify, family_satisfies,
                             frame_class, has_property)
from delta_lab.proofsys import AxiomSystem, audit_soundness
from delta_lab.formula import metrics
from delta_lab.semantics import SemanticsKind, frame_valid

FP = FrameProperty


def test_exhaustive_counts_match_closed_forms():
    assert len(list(enum_frames(GenSpec(1)))) == 4
    assert len(list(enum_frames(GenSpec(2)))) == 256
    # at 4 states, cs and csi: only the empty and the full family per state;
    # filter: the 2^n principal filters; quasi-filter: the 2^n - n Q_R
    for name, count in (("cs", 2 ** 4), ("csi", 2 ** 4),
                        ("filter", (2 ** 4) ** 4),
                        ("quasi-filter", (2 ** 4 - 4) ** 4)):
        assert sum(1 for _ in enum_frames(
            GenSpec(4, FRAME_CLASSES[name]))) == count, name


def test_exhaustive_c_filter_one_state():
    frames = list(enum_frames(GenSpec(1, frozenset({FP.C}))))
    assert [f.neighborhoods[0] for f in frames] == [frozenset(),
                                                    frozenset({0, 1})]


def test_exhaustive_filtered_counts_are_stable():
    a = [f.neighborhoods for f in
         enum_frames(GenSpec(2, frozenset({FP.N, FP.I, FP.C, FP.WS})))]
    b = [f.neighborhoods for f in
         enum_frames(GenSpec(2, frozenset({FP.N, FP.I, FP.C, FP.WS})))]
    assert a == b
    assert all(has_property(f, p)
               for f in enum_frames(GenSpec(2, frozenset({FP.C, FP.S})))
               for p in (FP.C, FP.S))


def test_exhaustive_order_is_canonical_and_indexable():
    stream = list(enum_frames(GenSpec(2)))
    for k in (0, 1, 17, 255):
        assert frame_at(2, k) == stream[k]
    with pytest.raises(ValueError):
        frame_at(2, 256)


def test_exhaustive_budget():
    for stream, count in (
            (enum_frames(GenSpec(4)), "18,446,744,073,709,551,616 frames"),
            (enum_frames(GenSpec(4, FRAME_CLASSES["c"])),
             "4,294,967,296 frames"),
            (enum_frames(GenSpec(5, FRAME_CLASSES["cs"])),
             "2^(2^5) family codes"),
            (enum_kripke_frames(GenSpec(5)), "2^25 frames")):
        with pytest.raises(BudgetError) as info:
            next(stream)
        message = str(info.value)
        assert count in message and "16,777,216" in message, message
        assert "\n" not in message
    # the 3-state product over every family is exactly the limit
    assert generators._frame_count(3, frozenset()) == 2 ** 24
    assert next(enum_frames(GenSpec(3))) == frame_at(3, 0)


def test_random_kripke_refuses_above_the_limit():
    # 4096·4096 successor pairs are exactly the limit, 4097·4097 are not
    assert random_kripke(GenSpec(4096, seed=3), []).n == 4096
    with pytest.raises(BudgetError) as info:
        random_kripke(GenSpec(4097, seed=3), ["p"])
    message = str(info.value)
    assert "4097·4097" in message and "16,777,216" in message, message
    assert "\n" not in message


def test_frame_at_refuses_above_the_limit():
    # 16·2^16 members of 16 states fit in 2^24, 17·2^17 of 17 do not, as
    # for random frames
    assert frame_at(16, 0).n == 16
    for n in (17, 24):
        with pytest.raises(BudgetError) as info:
            frame_at(n, 0)
        message = str(info.value)
        assert f"{n}·2^{n}" in message and "16,777,216" in message, message
        assert "\n" not in message


def test_count_frames_equals_the_streamed_count():
    # closed-form counts stream nothing; the 16.7M frames of ``all`` at 3
    # states are compared with their closed form, (2^(2^3))^3, instead
    for name, props in FRAME_CLASSES.items():
        for n in (1, 2, 3, 4):
            spec = GenSpec(n, props)
            try:
                total = count_frames(spec)
            except BudgetError:
                with pytest.raises(BudgetError):
                    next(enum_frames(spec))
                continue
            limits = (1, 7, total, total + 1)
            if name == "all" and n == 3:
                assert total == (2 ** 2 ** 3) ** 3
                limits = (1, 7, 1000)
            else:
                assert total == sum(1 for _ in enum_frames(spec)), (name, n)
            for limit in limits:
                assert count_frames(spec, limit) == sum(
                    1 for _ in itertools.islice(enum_frames(spec), limit)), \
                    (name, n, limit)
    # a global property still streams and counts its frames
    for props in ({FP.B}, {FP.C, FP.FOUR}):
        spec = GenSpec(2, frozenset(props))
        streamed = sum(1 for _ in enum_frames(spec))
        assert 0 < streamed < 256
        assert count_frames(spec) == streamed
        assert count_frames(spec, 3) == 3
    random_spec = GenSpec(2, FRAME_CLASSES["c"], seed=4, mode="random",
                          count=9)
    assert count_frames(random_spec) == 9 and count_frames(random_spec, 2) == 2


def test_kripke_enumeration_count():
    assert len(list(enum_kripke_frames(GenSpec(2)))) == 16
    assert sum(1 for _ in enum_kripke_frames(GenSpec(4))) == 2 ** 16


def test_kripke_generators_refuse_what_they_cannot_honour():
    with pytest.raises(ValueError):
        next(enum_kripke_frames(GenSpec(2, frozenset({FP.C}))))
    with pytest.raises(ValueError):
        next(enum_kripke_frames(GenSpec(2, mode="random", count=3)))
    with pytest.raises(ValueError):
        random_kripke(GenSpec(3, frozenset({FP.C})), ["p"])


def test_random_sampling_refuses_above_the_limit():
    # 16·2^16 members of 16 states fit in 2^24, 17·2^17 of 17 do not
    assert random_model(GenSpec(16, seed=1), ["p"]).n == 16
    with pytest.raises(BudgetError, match="17·2\\^17"):
        random_model(GenSpec(17, frozenset({FP.C, FP.S}), seed=1), ["p"])
    with pytest.raises(BudgetError):
        next(enum_frames(GenSpec(24, frozenset({FP.C, FP.S}),
                                 mode="random")))


def test_random_model_deterministic():
    spec = GenSpec(4, frozenset({FP.C}), seed=42, mode="random")
    assert random_model(spec, ["p", "q"]) == random_model(spec, ["p", "q"])
    other = GenSpec(4, frozenset({FP.C}), seed=43, mode="random")
    assert random_model(spec, ["p"]) != random_model(other, ["p"])


def test_random_model_honours_filters():
    for seed in range(40):
        m = random_model(GenSpec(3, frozenset({FP.C}), seed=seed,
                                 mode="random"), ["p"])
        assert has_property(m, FP.C)
    for seed in range(40):
        m = random_model(
            GenSpec(4, frozenset({FP.N, FP.I, FP.C, FP.WS}), seed=seed,
                    mode="random"), ["p"])
        assert "quasi-filter" in classify(m)
    # above 4 states families are closed under (i) as they are drawn;
    # without that, these seeds exhaust the retries
    for seed in (5, 7):
        m = random_model(GenSpec(5, MODEL_CLASSES["quasi-filter"], seed=seed,
                                 mode="random"), ["p"])
        assert "quasi-filter" in classify(m)


# sha256 prefixes of random_model's output for seeds 0-9 at 1-6 states, two
# atoms; computed before the enumeration limit replaced the state caps
RANDOM_MODEL_DIGESTS = {
    "all": "9e043c1ef5c9b0a2", "c": "701b45142961a5c1",
    "cs": "8295e5779ed47046", "csi": "8295e5779ed47046",
    "filter": "fd125309d6c8f74d", "quasi-filter": "713b7bcb924b67bb"}


def test_seeded_random_models_are_pinned():
    assert RANDOM_MODEL_DIGESTS.keys() == FRAME_CLASSES.keys()
    for name, props in FRAME_CLASSES.items():
        rows = []
        for n in range(1, 7):
            for seed in range(10):
                m = random_model(GenSpec(n, props, seed=seed), ["p", "q"])
                rows.append((n, seed,
                             tuple(tuple(sorted(f)) for f in m.neighborhoods),
                             sorted(m.valuation.items())))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
        assert digest == RANDOM_MODEL_DIGESTS[name], name


# sha256 prefixes of random_model's output for seeds 0-39, one atom, at 1-6
# states and, with (t) added, at 1-4; computed before the shipped classes'
# admissible lists were built in closed form
RANDOM_MODEL_DIGESTS_WITH_T = {
    "all": "cc15a447b4d83c2a", "c": "3bd9758846072adf",
    "cs": "d599efce5d89b79d", "csi": "d599efce5d89b79d",
    "filter": "6a8a3568e1f33c9e", "quasi-filter": "7d2048214b688ace"}


def test_seeded_random_models_with_and_without_t_are_pinned():
    assert RANDOM_MODEL_DIGESTS_WITH_T.keys() == FRAME_CLASSES.keys()
    for name, props in FRAME_CLASSES.items():
        rows = []
        for local, sizes in ((props, range(1, 7)),
                             (props | {FP.T}, range(1, 5))):
            for n in sizes:
                for seed in range(40):
                    try:
                        m = random_model(GenSpec(n, local, seed=seed), ["p"])
                    except GenerationError as error:
                        # e.g. no 1-state quasi-filter family has (t)
                        rows.append((n, seed, str(error)))
                        continue
                    rows.append((n, seed,
                                 tuple(tuple(sorted(f))
                                       for f in m.neighborhoods),
                                 sorted(m.valuation.items())))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
        assert digest == RANDOM_MODEL_DIGESTS_WITH_T[name], name


def _per_state_codes(n, props, state, codes):
    """The codes among ``codes`` whose family satisfies every property at
    ``state``: the per-state computation the shared lists replace."""
    full = (1 << n) - 1
    return [code for code in codes
            if all(family_satisfies(p, generators._family_of_code(code, 1 << n),
                                    full, state) for p in props)]


def test_admissible_lists_equal_the_per_state_computation():
    rnd = random.Random(4)
    classes = {frozenset(props) for props in FRAME_CLASSES.values()}
    for n in (1, 2, 3, 4):
        every = range(1 << (1 << n))
        # at 4 states the full per-state computation takes ~15 s, so it is
        # run on every listed code plus 1024 seeded others
        sample = sorted(rnd.sample(every, 1024)) if n == 4 else every
        for props in classes:
            for local in (props, props | {FP.T}):
                lists = [generators._admissible_codes(n, local, s)
                         for s in range(n)]
                for s, got in enumerate(lists):
                    assert list(got) == sorted(got)
                    assert _per_state_codes(n, local, s, got) == list(got)
                    assert (_per_state_codes(n, local, s, sample)
                            == sorted(set(got) & set(sample))), (n, local, s)
                if FP.T not in local:
                    assert all(codes is lists[0] for codes in lists)
    # the sweep's frames are the product of the lists, codes ascending
    for n in (1, 2, 3):
        for props in classes:
            per_state, _ = generators.admissible_space(n, props)
            if math.prod(map(len, per_state)) > 50_000:
                continue  # "all" at 3 states: 16.7M frames
            want = [generators.frame_from_codes(n, codes)
                    for codes in itertools.product(*per_state)]
            assert list(generators._product_frames(n, props)) == want


def _filtered_codes(n, props):
    """Every family code whose family satisfies ``props`` (no (t)), by the
    literal filter: the oracle of the closed-form lists."""
    return _per_state_codes(n, [p for p in FP if p in props], 0,
                            range(1 << (1 << n)))


def test_closed_form_list_lengths_equal_the_filtered_lists():
    for n in (1, 2, 3, 4):
        for name, props in FRAME_CLASSES.items():
            want = _filtered_codes(n, props)
            assert list(generators._shared_codes(n, props)) == want, (name, n)
            for s in range(n):
                assert list(generators._admissible_codes(n, props, s)) == want
                assert (list(generators._admissible_codes(n, props | {FP.T}, s))
                        == _per_state_codes(n, {FP.T}, s, want)), (name, n, s)
            if len(want) ** n <= generators.MAX_ENUMERATION:
                assert generators._frame_count(n, props) == len(want) ** n
            else:
                with pytest.raises(BudgetError,
                                   match=f"{len(want) ** n:,} frames"):
                    generators._frame_count(n, props)
    # above 4 states no list is built, closed form or not
    with pytest.raises(BudgetError, match="2\\^\\(2\\^5\\) family codes"):
        generators._frame_count(5, FRAME_CLASSES["cs"])


def test_shipped_lists_filter_no_code(monkeypatch):
    def refuse(*args):
        raise AssertionError("a family code was filtered")

    generators._shared_codes.cache_clear()
    generators._admissible_codes.cache_clear()
    monkeypatch.setattr(generators, "family_satisfies", refuse)
    for n in (1, 2, 3, 4):
        for props in FRAME_CLASSES.values():
            for local in (props, props | {FP.T}):
                per_state, _ = generators.admissible_space(n, local)
                assert all(list(codes) == sorted(set(codes))
                           for codes in per_state)
    with pytest.raises(AssertionError):
        generators.admissible_space(2, {FP.N})


def test_random_model_large_states_closure_path():
    m = random_model(GenSpec(6, frozenset({FP.C, FP.N}), seed=3,
                             mode="random"), ["p"])
    assert has_property(m, FP.C) and has_property(m, FP.N)
    cs = random_model(GenSpec(5, frozenset({FP.C, FP.S}), seed=3,
                              mode="random"), ["p"])
    assert has_property(cs, FP.C) and has_property(cs, FP.S)


def test_seeded_t_sampling_past_the_admissible_lists():
    # past 4 states each family is drawn and closed, not taken from a list;
    # under (t) every drawn set holds its state, so no draw is retried for
    # (t) and every seed yields a model
    for name in ("t", "n,t", "s,t", "i,t"):
        props = frame_class(name)
        for n in (6, 7):
            for seed in range(30):
                m = random_model(GenSpec(n, props, seed=seed), ["p"])
                assert all(has_property(m, p) for p in props), (name, n, seed)
    # what ``enumerate --mode random --class t --states 7`` streams
    frames = list(enum_frames(GenSpec(7, frame_class("t"), mode="random")))
    assert len(frames) == 10
    assert all(has_property(frame, FP.T) for frame in frames)


def superset_walk_family(n, props, state, rnd):
    """Reference closure for ``_random_family``: each round adds every
    superset of every member by walking the submasks of its complement."""
    full = (1 << n) - 1
    fam = {rnd.getrandbits(n) for _ in range(rnd.randrange(0, n + 3))}
    if FP.N in props:
        fam.add(full)
    changed = True
    while changed:
        changed = False
        if FP.C in props:
            extra = {full & ~x for x in fam} - fam
            if extra:
                fam |= extra
                changed = True
        if FP.S in props:
            extra = set()
            for x in fam:
                rest = full & ~x
                sub = rest
                while True:
                    if (x | sub) not in fam:
                        extra.add(x | sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & rest
            if extra:
                fam |= extra
                changed = True
    return frozenset(fam)


def test_random_family_closure_matches_superset_walk(monkeypatch):
    for props in ({FP.S}, {FP.C, FP.S}, {FP.N, FP.C, FP.S}):
        for n in (1, 3, 5, 7):
            for seed in range(40):
                new, old = random.Random(seed), random.Random(seed)
                assert (generators._random_family(n, frozenset(props), 0, new)
                        == superset_walk_family(n, props, 0, old))
                assert new.random() == old.random()
    specs = [GenSpec(n, frozenset({FP.C, FP.S}), seed=seed, mode="random")
             for n in (5, 6) for seed in range(30)]
    models = [random_model(spec, ["p", "q"]) for spec in specs]
    monkeypatch.setattr(generators, "_random_family", superset_walk_family)
    assert models == [random_model(spec, ["p", "q"]) for spec in specs]


def test_random_model_unsatisfiable_filter_raises():
    # (d) forbids complement pairs while (c) demands them; with (n) the unit
    # is present and its complement must be too, so nothing qualifies.
    with pytest.raises(GenerationError):
        random_model(GenSpec(2, frozenset({FP.N, FP.C, FP.D}), seed=0,
                             mode="random"), [])


def test_enum_frames_random_mode():
    spec = GenSpec(2, frozenset({FP.C}), seed=9, mode="random", count=7)
    frames = list(enum_frames(spec))
    assert len(frames) == 7
    assert frames == list(enum_frames(spec))
    assert all(has_property(f, FP.C) for f in frames)
    assert all(f.valuation == {} for f in frames)


def test_random_kripke_deterministic():
    spec = GenSpec(4, seed=5, mode="random")
    assert random_kripke(spec, ["p"]) == random_kripke(spec, ["p"])


def test_random_formula_contracts():
    f = random_formula(0, ["p", "q"], seed=1)
    assert metrics(f).modal_depth == 0
    assert random_formula(3, ["p"], 7) == random_formula(3, ["p"], 7)
    for seed in range(200):
        g = random_formula(4, ["p", "q", "r"], seed)
        assert metrics(g).modal_depth <= 4
        assert parse(str(g)) == g
        assert metrics(g).vars <= {"p", "q", "r"}


def test_random_formula_box_gated():
    from delta_lab.formula import Box, subformulas

    has_box = False
    for seed in range(300):
        f = random_formula(3, ["p"], seed)
        assert not any(isinstance(g, Box) for g in subformulas(f))
        f2 = random_formula(3, ["p"], seed, include_box=True)
        has_box = has_box or any(isinstance(g, Box) for g in subformulas(f2))
    assert has_box


def test_complement_closed_family_count_two_states():
    # per state: subsets pair up under complement into 2 orbits, so 4 closed
    # families; two independent states give 16 frames
    frames = list(enum_frames(GenSpec(2, frozenset({FP.C}))))
    assert len(frames) == 16


def _hit_at(target, frame):
    return "hit" if frame == target else None


def test_sweep_hit_in_a_later_range_matches_serial():
    # At 2 states with two workers the ranges are 0-1 and 2-3 at one state,
    # then 0-127 and 128-255; frame #200 lies in the last range.
    check = partial(_hit_at, frame_at(2, 200))
    assert sweep((), 2, check, jobs=1) == (4 + 201, "hit")
    assert sweep((), 2, check, jobs=2) == (4 + 201, "hit")
    assert sweep((), 1, check, jobs=2) == (4, None)


def test_sweep_from_a_thread_matches_serial():
    # With another thread running, workers are spawned instead of forked.
    check = partial(_hit_at, frame_at(1, 2))
    got = []
    worker = threading.Thread(target=lambda: got.append(
        sweep((), 1, check, jobs=2)))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert got == [sweep((), 1, check, jobs=1)] == [(3, "hit")]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run pool work in-process on a 2-CPU machine; list the pool sizes asked
    for, so no test starts real workers to check them."""
    sizes = []

    class Recording:
        def __init__(self, max_workers, **_):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, **_):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(generators.os, "cpu_count", lambda: 2)
    return sizes


def test_sweep_clamps_jobs_to_the_cpu_count(pool_sizes, monkeypatch):
    check = partial(_hit_at, frame_at(2, 200))
    assert sweep((), 2, check, jobs=64) == (205, "hit")
    assert pool_sizes == [2]
    monkeypatch.setattr(generators.os, "cpu_count", lambda: None)
    assert sweep((), 2, check, jobs=64) == (205, "hit")
    assert pool_sizes == [2]


def test_sweep_refuses_before_starting_a_pool(pool_sizes):
    with pytest.raises(BudgetError):
        audit_soundness(AxiomSystem.E, max_states=4, jobs=2)
    for max_states, jobs in ((0, 2), (-1, 2), (1, 0)):
        with pytest.raises(ValueError):
            sweep((), max_states, partial(_hit_at, None), jobs)
    assert pool_sizes == []
    # a size, mode or count that would sweep the wrong frames, or none
    for spec in ({"n_states": 0}, {"n_states": 2, "mode": "Random", "count": 3},
                 {"n_states": 2, "mode": "random", "count": -4}):
        with pytest.raises(ValueError):
            GenSpec(**spec)


def test_sweep_sends_a_deep_check_to_workers(pool_sizes):
    # A formula of any depth pickles, so a deep check goes to the pool like
    # any other and gives the serial result.
    from delta_lab.proofsys import _counterexample

    deep = parse(" & ".join(["p"] * 3000) + " -> D p")
    check = pickle.loads(pickle.dumps(partial(_counterexample, deep, 24)))
    assert check.args[0] == deep
    assert sweep(frozenset({FP.C}), 2, check, jobs=2) == \
        sweep(frozenset({FP.C}), 2, check, jobs=1)
    assert pool_sizes == [2]


def test_audit_shares_one_pool(pool_sizes):
    assert audit_soundness(AxiomSystem.K, 2, jobs=2) == \
        audit_soundness(AxiomSystem.K, 2, jobs=1)
    assert pool_sizes == [2]


def _verdicts(f, log, frame):
    log.append((frame, frame_valid(frame, f, SemanticsKind.OLD)))


def test_pooled_ranges_that_start_mid_run_match_serial(pool_sizes):
    # two ranges of the 125 quasi-filter frames at 3 states: the second
    # starts at frame 63, inside a run of 5
    f = parse("D p -> D D p")
    serial, pooled = [], []
    props = FRAME_CLASSES["quasi-filter"]
    assert sweep(props, 3, partial(_verdicts, f, serial)) == (130, None)
    assert sweep(props, 3, partial(_verdicts, f, pooled), jobs=2) == (130, None)
    assert pooled == serial
    assert pool_sizes == [2]
