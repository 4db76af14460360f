"""Differential tests: the compiled, bit-sliced evaluator against the scalar
recursive evaluator and per-valuation frame sweep it replaced, which live
here as the oracle and nowhere in the package."""

import itertools
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from delta_lab.formula import And, Atom, Box, Delta, Formula, Not, Top, \
    expand_sugar, metrics, parse
from delta_lab import definability, proofsys
from delta_lab.definability import builtin_claim, builtin_table, defines
from delta_lab.generators import (GenSpec, _product_frames, random_formula,
                                  random_kripke, random_model, state_names)
from delta_lab.model import (_RUN, FRAME_CLASSES, KripkeModel,
                             NeighborhoodModel, bits)
from delta_lab.proofsys import AxiomSystem, audit_soundness, is_taut_instance
from delta_lab import semantics
from delta_lab.semantics import (_CHUNK_BITS, AND, ATOM, TOP, FrameCheck,
                                 SemanticsKind, _program_valid,
                                 compile_formula, delta_holds, extension,
                                 frame_valid)
from test_model import oracle as property_oracle

NEW, OLD, KRIPKE = SemanticsKind.NEW, SemanticsKind.OLD, SemanticsKind.KRIPKE


def oracle_extension(m, f: Formula, kind: SemanticsKind) -> int:
    return _oracle_core_extension(m, expand_sugar(f), kind)


def _oracle_core_extension(m, core: Formula, kind: SemanticsKind) -> int:
    """The extension of a sugar-free formula, by recursion on its nodes.
    Each node object is evaluated once: the memo is keyed by identity, so
    it never hashes or compares formulas, and ``core`` keeps every node
    alive, so no identity is reused during the call."""
    full = m.full
    memo: dict[int, int] = {}

    def holds(s: int, child: int, box: bool) -> bool:
        if not box:
            return delta_holds(m, s, child, kind)
        if kind is KRIPKE:
            return m.succ[s] & child == m.succ[s]
        return child in m.neighborhoods[s]

    def ext(g: Formula) -> int:
        got = memo.get(id(g))
        if got is not None:
            return got
        cls = type(g)
        if cls is Atom:
            out = m.atom_mask(g.name)
        elif cls is Top:
            out = full
        elif cls is Not:
            out = full & ~ext(g.child)
        elif cls is And:
            out = ext(g.left) & ext(g.right)
        else:
            child = ext(g.child)
            out = 0
            for s in range(len(m.states)):
                if holds(s, child, cls is Box):
                    out |= 1 << s
        memo[id(g)] = out
        return out

    return ext(core)


def oracle_frame_valid(frame, f: Formula, kind: SemanticsKind) -> FrameCheck:
    names = sorted(metrics(f).vars)
    core = expand_sugar(f)
    full = frame.full
    for masks in itertools.product(range(full + 1), repeat=len(names)):
        valuation = dict(zip(names, masks))
        got = _oracle_core_extension(frame.with_valuation(valuation), core,
                                     kind)
        if got != full:
            state = next(bits(full & ~got))
            return FrameCheck(False, valuation, frame.states[state])
    return FrameCheck(True)


def oracle_taut(f: Formula) -> bool:
    table: dict[Formula, int] = {}

    def abstract(g: Formula) -> Formula:
        cls = type(g)
        if cls in (Delta, Box):
            table.setdefault(g, len(table))
            return Atom(f"#{table[g]}")
        if cls is Not:
            return Not(abstract(g.child))
        if cls is And:
            return And(abstract(g.left), abstract(g.right))
        return g

    skeleton = abstract(expand_sugar(f))
    names = sorted(metrics(skeleton).vars)

    def truth(g: Formula, row: dict[str, bool]) -> bool:
        cls = type(g)
        if cls is Atom:
            return row[g.name]
        if cls is Top:
            return True
        if cls is Not:
            return not truth(g.child, row)
        return truth(g.left, row) and truth(g.right, row)

    return all(truth(skeleton, dict(zip(names, values)))
               for values in itertools.product((False, True), repeat=len(names)))


def _random_frame(kind: SemanticsKind, n: int, seed: int):
    if kind is KRIPKE:
        return random_kripke(GenSpec(n, seed=seed, mode="random"), []).frame()
    return random_model(GenSpec(n, seed=seed, mode="random"), []).frame()


def test_frame_valid_matches_oracle_on_random_frames():
    rnd = random.Random(7)
    for case in range(600):
        kind = (NEW, OLD, KRIPKE)[case % 3]
        n = 1 + case % 5
        atoms = ["p", "q", "r"][:1 + rnd.randrange(3 if n <= 2 else 2)]
        f = random_formula(2, atoms, rnd.randrange(10**6), include_box=True,
                           size=rnd.randrange(3, 12))
        frame = _random_frame(kind, n, rnd.randrange(10**6))
        assert frame_valid(frame, f, kind) == oracle_frame_valid(frame, f, kind), \
            (case, kind, str(f))


def test_frame_valid_matches_oracle_above_the_chunk_width():
    # 5 states and 3 atoms give 15 index bits, beyond one pass; formulas
    # that fail only late make every pass before the witness run.
    assert 5 * 3 > _CHUNK_BITS
    late = [parse("~(p0 & q & r & D p0)"), parse("p0 | q | r | B ~r"),
            parse("D p0 | N q | r"), parse("(p0 -> q) | r | D r")]
    for seed in range(6):
        for kind in (NEW, OLD, KRIPKE):
            frame = _random_frame(kind, 5, seed)
            for f in late:
                got = frame_valid(frame, f, kind)
                assert got == oracle_frame_valid(frame, f, kind), (seed, kind, f)
    # a formula valid everywhere runs all 8 passes
    f = parse("p0 & q & r -> p0")
    frame = _random_frame(NEW, 5, 0)
    assert frame_valid(frame, f, NEW) == oracle_frame_valid(frame, f, NEW) \
        == FrameCheck(True)


def test_frame_valid_matches_oracle_without_atoms():
    for seed in range(40):
        f = random_formula(3, [], seed, include_box=True)
        assert not metrics(f).vars
        for kind in (NEW, OLD, KRIPKE):
            for n in (1, 2, 3):
                frame = _random_frame(kind, n, seed)
                assert frame_valid(frame, f, kind) == \
                    oracle_frame_valid(frame, f, kind), (seed, kind, f)


def test_extension_matches_oracle_on_random_models():
    for seed in range(300):
        n = 1 + seed % 6
        f = random_formula(3, ["p", "q"], seed, include_box=True)
        m = random_model(GenSpec(n, seed=seed, mode="random"), ["p", "q"])
        k = random_kripke(GenSpec(n, seed=seed, mode="random"), ["p", "q"])
        for kind in (NEW, OLD):
            assert extension(m, f, kind) == oracle_extension(m, f, kind)
        assert extension(k, f, KRIPKE) == oracle_extension(k, f, KRIPKE)


def _tree(prog, slot: int) -> tuple:
    op, a, b = prog.ops[slot]
    if op == ATOM:
        return op, prog.names[a]
    if op == AND:
        return op, _tree(prog, a), _tree(prog, b)
    return (op,) if op == TOP else (op, _tree(prog, a))


def test_compiled_sugar_matches_expand_sugar():
    # compile_formula expands the sugar kinds itself; its program must read
    # back as the core formula that expand_sugar rewrites to
    for seed in range(300):
        f = random_formula(3, ["p", "q"], seed, include_box=True)
        got, want = compile_formula(f), compile_formula(expand_sugar(f))
        assert _tree(got, got.root) == _tree(want, want.root), str(f)


def test_taut_matches_oracle():
    for seed in range(300):
        f = random_formula(2, ["p", "q"], seed, size=8)
        g = random_formula(1, ["p", "q"], seed + 1000, size=4)
        for h in (f, parse(f"({f}) | ~({f})"), parse(f"D({f}) -> D({f})"),
                  parse(f"D({f}) -> D({g})"), parse(f"({f}) <-> ({g})")):
            assert is_taut_instance(h) == oracle_taut(h), (seed, str(h))


_NAMES = ("p", "q")


def _formulas():
    leaves = st.one_of(st.sampled_from(_NAMES).map(Atom), st.just(Top()))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Not, sub), st.builds(And, sub, sub),
            st.builds(Delta, sub), st.builds(Box, sub)),
        max_leaves=12)


@st.composite
def _models(draw):
    n = draw(st.integers(1, 4))
    names = state_names(n)
    masks = st.integers(0, (1 << n) - 1)
    valuation = {p: draw(masks) for p in _NAMES}
    if draw(st.booleans()):
        succ = tuple(draw(masks) for _ in range(n))
        return KripkeModel(names, succ, valuation), KRIPKE
    fams = tuple(frozenset(draw(st.lists(masks, max_size=6)))
                 for _ in range(n))
    return NeighborhoodModel(names, fams, valuation), draw(st.sampled_from((NEW, OLD)))


@settings(max_examples=300, deadline=None)
@given(_models(), _formulas())
def test_extension_equals_oracle_property(model_kind, f):
    m, kind = model_kind
    assert extension(m, f, kind) == oracle_extension(m, f, kind)


# ---------------------------------------------------------------------------
# The walk's memo of ``frame_valid`` (one per formula object and semantics,
# with per-state tables for a state-local program) against the whole-frame
# path and the oracle.

def _whole_frame(frame, f: Formula, kind: SemanticsKind) -> FrameCheck:
    return _program_valid(frame, compile_formula(f), kind)


def _walk_memo(frame, f: Formula, kind: SemanticsKind):
    """The memo that ``frame``'s walk keeps for (``f``, ``kind``)."""
    run, _ = vars(frame)[_RUN]
    return run.shared[id(f), kind]


def _walk_sample(n: int, rnd: random.Random, count: int) -> list:
    """``count`` tagged frames of one new walk at n states, in random order,
    so that later frames meet entries that frames of other runs filled: the
    c-frames at 1 and 2 states, six runs of 16 c-frames at 3 states and
    three runs of 12 quasi-filter frames at 4 states, each range from a
    random start."""
    if n <= 2:
        frames = list(_product_frames(n, FRAME_CLASSES["c"]))
    elif n == 3:
        start = rnd.randrange(4096 - 96)
        frames = list(_product_frames(3, FRAME_CLASSES["c"], start,
                                      start + 96))
    else:
        start = rnd.randrange(12 ** 4 - 36)
        frames = list(_product_frames(4, FRAME_CLASSES["quasi-filter"],
                                      start, start + 36))
    return rnd.sample(frames, min(count, len(frames)))


def test_memo_path_matches_whole_frame_path_and_oracle():
    rnd = random.Random(11)
    for case in range(160):
        kind = (NEW, OLD)[case % 2]
        n = 1 + case // 2 % 4
        depth = case // 8 % 3
        atoms = ["p", "q"][:1 + (n <= 3)]
        f = Top()
        while metrics(f).modal_depth != depth:
            f = random_formula(depth, atoms, rnd.randrange(10**6),
                               include_box=True, size=rnd.randrange(3, 12))
        frames = _walk_sample(n, rnd, 8)
        for frame in frames:
            got = frame_valid(frame, f, kind)
            assert got == _whole_frame(frame, f, kind), (case, kind, str(f))
            assert got == oracle_frame_valid(frame, f, kind), (case, str(f))
        memo = _walk_memo(frames[0], f, kind)
        assert (memo.tables is not None) == (depth <= 1)


def test_memo_path_above_the_chunk_width():
    # 4 states and 4 atoms give 16 index bits, so a run does not fit one
    # pass and a miss runs passes until every state has its first
    # falsifying valuation: the tables must hold the right one for each
    # state, which frames of other runs then combine
    assert 4 * 4 > _CHUNK_BITS
    late = [parse("~(p0 & q & r & s & D p0)"), parse("p0 | q | r | s | D ~s"),
            parse("D p0 | N q | r | s"), parse("(p0 -> q) | r | s | D s")]
    rnd = random.Random(5)
    for kind in (NEW, OLD):
        for f in late:
            frames = _walk_sample(4, rnd, 36)
            for i, frame in enumerate(frames):
                got = frame_valid(frame, f, kind)
                assert got == _whole_frame(frame, f, kind), (kind, str(f))
                if i % 9 == 0:
                    assert got == oracle_frame_valid(frame, f, kind), str(f)


def _heads(frames) -> dict:
    """The frames of each run of a walk, by the run's head families."""
    runs: dict = {}
    for frame in frames:
        runs.setdefault(frame.neighborhoods[:-1], []).append(frame)
    return runs


def test_frame_answered_from_earlier_entries_runs_no_pass(monkeypatch):
    # the runs with heads (a, x) and (y, b) fill the walk's tables; the run
    # with head (a, b) takes each head state's entry from one of them and
    # the last state's from the list, so its mask comes from the tables
    # alone: a valid frame runs no pass, and an invalid one runs one pass
    # of its own (3 states, 2 atoms: width 2^6), which gives its witness
    f = parse("D top -> (D p -> p | q)")
    for kind in (NEW, OLD):
        runs = _heads(_product_frames(3, FRAME_CLASSES["c"]))
        heads = list(runs)
        (a, x), (y, b) = heads[1 * 16 + 2], heads[3 * 16 + 5]
        assert a is not y and x is not b
        for frame in runs[a, x] + runs[y, b]:
            frame_valid(frame, f, kind)
        passes, own = [], []
        evaluate, evaluate_frame = semantics._run, semantics._program_valid
        monkeypatch.setattr(semantics, "_run", lambda *args: passes.append(
            args[3]) or evaluate(*args))
        monkeypatch.setattr(semantics, "_program_valid", lambda *args: own.append(
            args[0]) or evaluate_frame(*args))
        got = [frame_valid(frame, f, kind) for frame in runs[a, b]]
        monkeypatch.undo()
        assert got == [oracle_frame_valid(frame, f, kind)
                       for frame in runs[a, b]], kind
        invalid = [frame for frame, check in zip(runs[a, b], got)
                   if not check]
        assert 0 < len(invalid) < len(got)
        assert own == invalid and passes == [64] * len(invalid), kind


def test_memo_is_keyed_by_semantics_and_tied_witness_is_lowest_state():
    # one formula object under old and new on the same frame: Δp holds
    # everywhere under old (the complement of ∅ is a neighborhood) but not
    # under new
    f = parse("D p")
    frame = NeighborhoodModel(state_names(1), (frozenset({0b1}),))
    for _ in range(2):
        assert frame_valid(frame, f, OLD) == FrameCheck(True)
        assert frame_valid(frame, f, NEW) == \
            FrameCheck(False, {"p": 0}, "s0")
    # both states fail first at valuation 0, from entries cached apart
    g = parse("D q")
    first = NeighborhoodModel(state_names(2), (frozenset({0b11}), frozenset()))
    second = NeighborhoodModel(state_names(2), (frozenset(), frozenset({0b11})))
    frame_valid(first, g, NEW)
    frame_valid(second, g, NEW)
    both = NeighborhoodModel(state_names(2), (frozenset(), frozenset()))
    assert frame_valid(second, g, NEW) == FrameCheck(False, {"q": 0}, "s0")
    assert frame_valid(both, g, NEW) == FrameCheck(False, {"q": 0}, "s0")
    # the same on tagged frames: the walk keeps one memo per semantics
    frames = list(_product_frames(1, frozenset()))
    assert [frame.neighborhoods[0] for frame in frames[2:4]] == \
        [frozenset({0b1}), frozenset({0, 0b1})]
    for _ in range(2):
        assert frame_valid(frames[2], f, OLD) == FrameCheck(True)
        assert frame_valid(frames[2], f, NEW) == \
            FrameCheck(False, {"p": 0}, "s0")
    assert _walk_memo(frames[2], f, OLD) is not _walk_memo(frames[2], f, NEW)
    frames = list(_product_frames(2, frozenset()))
    both = next(frame for frame in frames
                if frame.neighborhoods == (frozenset(), frozenset()))
    assert frame_valid(both, g, NEW) == FrameCheck(False, {"q": 0}, "s0")


def test_depth_two_formula_is_not_memoised():
    # truth of ΔΔp at s0 reads s1's family, which differs between frames
    # that give s0 the same family: every 2-state frame, whose runs of 16
    # fit one pass, then three runs of 256 at 3 states, which do not fit
    # one pass with two atoms
    for f, frames, step in (
            (parse("D D p"), list(_product_frames(2, frozenset())), 1),
            (parse("D D (p & q) | q"), _class_frames("all", 3), 7)):
        for kind in (NEW, OLD):
            for i, frame in enumerate(frames):
                got = frame_valid(frame, f, kind)
                assert got == frame_valid(_untagged(frame), f, kind)
                if i % step == 0:
                    assert got == oracle_frame_valid(frame, f, kind), \
                        (str(f), kind, frame)
            assert _walk_memo(frames[0], f, kind).tables is None
    run, _ = vars(frames[0])[_RUN]
    assert run.valid_verdict[3] is None  # no mask: frame by frame
    k = parse("B (p -> B p)")
    one = KripkeModel(state_names(2), (0b10, 0b00))
    two = KripkeModel(state_names(2), (0b10, 0b01))
    for frame in (one, two, one):
        assert frame_valid(frame, k, KRIPKE) == \
            oracle_frame_valid(frame, k, KRIPKE)


def test_walk_keeps_one_memo_per_formula_object_and_semantics():
    frames = list(_product_frames(3, FRAME_CLASSES["c"], 1000, 1100))
    frame = frames[0]
    run, _ = vars(frame)[_RUN]
    f, g = parse("D p -> p"), parse("D p -> p")
    frame_valid(frame, f, NEW)
    memo = _walk_memo(frame, f, NEW)
    # one table per state, each keyed by the walk's family objects: the
    # head's own, and the last state's whole list, filled by one run pass
    assert [list(table) for table in memo.tables[:2]] == \
        [[fam] for fam in frame.neighborhoods[:2]]
    assert all(key is fam for key, fam in zip(memo.tables[2], run.families))
    assert len(memo.tables[2]) == len(run.families)
    frame_valid(frame, g, NEW)  # an equal formula, but a new object
    assert _walk_memo(frame, g, NEW) is not memo
    assert _walk_memo(frame, g, NEW).program is not memo.program
    frame_valid(frame, f, OLD)  # another semantics has its own memo
    assert _walk_memo(frame, f, OLD).kind is OLD
    assert _walk_memo(frame, f, NEW) is memo  # and the first one is kept
    # every run of the walk shares the memos; another walk has its own
    for other in frames:
        for h in (f, g):
            assert frame_valid(other, h, NEW) == \
                frame_valid(_untagged(other), h, NEW)
        assert _walk_memo(other, f, NEW) is memo
    assert sum(isinstance(value, semantics._Memo)
               for value in run.shared.values()) == 3
    fresh = list(_product_frames(3, FRAME_CLASSES["c"], 1000, 1016))
    frame_valid(fresh[0], f, NEW)
    assert _walk_memo(fresh[0], f, NEW) is not memo
    h = parse("~(D p -> p)")
    assert frame_valid(frame, h, NEW) == oracle_frame_valid(frame, h, NEW)


def test_untagged_copy_shares_no_state_with_the_walk(monkeypatch):
    # one last-state entry of the walk's table is made wrong: "valid" for a
    # family that lacks S, under which D top fails at the last state.  The
    # tagged frames that read it through a set bit answer wrongly, their
    # untagged copies do not.  The head states are valid iff both families
    # hold S, as 8 of the 16 c-families at 3 states do, so 64 frames read
    # the wrong bit
    f = parse("D top")
    fill = semantics._fill
    corrupted = []

    def corrupting(memo, frame, run):
        fill(memo, frame, run)
        last = memo.tables[-1]
        fam = next(fam for fam in reversed(run.families) if not last[fam])
        last[fam] = True
        corrupted.append(fam)

    monkeypatch.setattr(semantics, "_fill", corrupting)
    frames = list(_product_frames(3, FRAME_CLASSES["c"]))
    got = [frame_valid(frame, f, NEW) for frame in frames]
    assert len(corrupted) == 1
    wrong = 0
    for frame, check in zip(frames, got):
        want = oracle_frame_valid(frame, f, NEW)
        assert frame_valid(_untagged(frame), f, NEW) == want
        if (frame.neighborhoods[-1] is corrupted[0]
                and all(0b111 in fam for fam in frame.neighborhoods[:-1])):
            assert not want and check == FrameCheck(True), frame
            wrong += 1
        else:
            assert check == want, frame
    assert wrong == 64


def test_witness_names_each_frames_own_states():
    f = parse("D p -> p")
    fams = (frozenset({0b01}), frozenset({0b01}))
    one = NeighborhoodModel(("a", "b"), fams)
    two = NeighborhoodModel(("a", "b"), fams)
    other = NeighborhoodModel(("x", "y"), fams)
    for kind in (NEW, OLD):
        got = frame_valid(one, f, kind)
        assert not got and frame_valid(two, f, kind) == got
        assert got == oracle_frame_valid(one, f, kind)
        # same families and formula, other names: the witness names "y"
        renamed = frame_valid(other, f, kind)
        assert renamed == oracle_frame_valid(other, f, kind)
        assert renamed.state in other.states
        assert frame_valid(one, f, kind) == got


def test_witnesses_survive_a_pickle_round_trip():
    claim = builtin_claim("s")
    checks = []
    for frame in _product_frames(3, FRAME_CLASSES["c"]):
        checks.append(frame_valid(frame, claim.formula, claim.semantics))
    assert sum(not check for check in checks) > 1000
    copies = pickle.loads(pickle.dumps(checks))
    assert copies == checks
    assert all(type(copy.valuation) is dict for copy in copies if not copy)


def test_only_frame_valid_decides_locality(monkeypatch):
    def refuse(prog):
        raise AssertionError("locality decided outside frame_valid")

    monkeypatch.setattr(semantics, "_modal_depth", refuse)
    m = random_model(GenSpec(3, seed=1, mode="random"), ["p"])
    assert extension(m, parse("D p & p"), NEW) == \
        oracle_extension(m, parse("D p & p"), NEW)
    assert is_taut_instance(parse("D p -> D p"))


# ---------------------------------------------------------------------------
# The run path: validity decided once per product run (``_verdict``; one
# pass per run for programs of modal depth 2 or more, the walk's memo tables
# for the rest), against untagged copies and the oracle.

def _untagged(frame):
    return NeighborhoodModel(frame.states, frame.neighborhoods)


def _deep_formula(rnd: random.Random, atoms: list[str]) -> Formula:
    f = Top()
    while metrics(f).modal_depth < 2:
        f = random_formula(rnd.choice((2, 3)), atoms, rnd.randrange(10**6),
                           include_box=True, size=rnd.randrange(4, 14))
    return f


def _class_frames(name: str, n: int) -> list:
    """The tagged frames of a class at n states.  The 16.7M frames of
    ``all`` at 3 states give three runs of 256 from a start mid-run."""
    if name == "all" and n == 3:
        return list(_product_frames(3, frozenset(), 300, 300 + 3 * 256))
    return list(_product_frames(n, FRAME_CLASSES[name]))


def _takes_run_path(frame, f: Formula) -> bool:
    run, _ = vars(frame)[_RUN]
    count = len(run.families)
    return count > 1 and count << frame.n * len(metrics(f).vars) <= \
        1 << _CHUNK_BITS


def _run_mask(frame, f: Formula, kind: SemanticsKind) -> int | None:
    """The validity mask of ``frame``'s run, as ``frame_valid`` reads it."""
    run, _ = vars(frame)[_RUN]
    return semantics._verdict(frame, run, f, kind, 24)[3]


def _run_bit(frame, f: Formula, kind: SemanticsKind) -> int | None:
    mask = _run_mask(frame, f, kind)
    return None if mask is None else mask >> vars(frame)[_RUN][1] & 1


def test_run_path_matches_untagged_copies_and_oracle():
    rnd = random.Random(23)
    taken = 0
    for name in FRAME_CLASSES:
        for n in (1, 2, 3):
            frames = _class_frames(name, n)
            for kind in (NEW, OLD) * 3:
                atoms = ["p", "q", "r"][:rnd.randrange(1, 4)]
                f = _deep_formula(rnd, atoms)
                for i, frame in enumerate(frames):
                    got = frame_valid(frame, f, kind)
                    assert got == frame_valid(_untagged(frame), f, kind), \
                        (name, n, kind, str(f), frame)
                    if i % 13 == 0:
                        assert got == oracle_frame_valid(frame, f, kind), \
                            (name, n, kind, str(f), frame)
                    bit = _run_bit(frame, f, kind)
                    assert bit is None or bit == got.valid, (name, n, str(f))
                if frames and _takes_run_path(frames[0], f):
                    taken += 1
                    run, _ = vars(frames[-1])[_RUN]
                    assert run.valid_verdict[3] is not None, \
                        (name, n, kind, str(f))
                    assert _run_bit(frames[-1], f, kind) is not None
    assert taken >= 50


def _mask_formulas() -> list[Formula]:
    """The builtin claims' formulas, an instance of each axiom schema, and
    seeded formulas of modal depth 1 to 3."""
    rnd = random.Random(31)
    out = [claim.formula for claim in builtin_table()]
    out += [proofsys.schema_instance(name) for name in proofsys.SCHEMAS]
    for depth in (1, 1, 2, 2, 3, 3):
        atoms = ["p", "q", "r"][:rnd.randrange(1, 3)]
        out.append(random_formula(depth, atoms, rnd.randrange(10**6),
                                  include_box=True, size=rnd.randrange(4, 12)))
    return out


def _mask_frames():
    """Tagged frames of every shipped class at 1-3 states (two runs of
    ``all`` at 3 states), and ranges that start mid-run."""
    for name in FRAME_CLASSES:
        for n in (1, 2, 3):
            if name == "all" and n == 3:
                yield name, n, list(_product_frames(3, frozenset(), 700,
                                                    700 + 2 * 256))
            elif name != "all" or n < 3:
                yield name, n, list(_product_frames(n, FRAME_CLASSES[name]))
    yield "c", 3, list(_product_frames(3, FRAME_CLASSES["c"], 1000, 1300))
    yield "quasi-filter", 3, list(_product_frames(
        3, FRAME_CLASSES["quasi-filter"], 63, 125))


def test_run_valid_matches_untagged_copies_and_oracle():
    decided = 0
    for f in _mask_formulas():
        wide = len(metrics(f).vars) > 2
        for name, n, frames in _mask_frames():
            if wide and n == 3 and name == "all":
                continue
            for kind in (NEW, OLD):
                for i, frame in enumerate(frames):
                    copy = _untagged(frame)
                    want = frame_valid(copy, f, kind)
                    bit = _run_bit(frame, f, kind)
                    if bit is not None:
                        decided += 1
                        assert bit == want.valid, (name, n, kind, str(f))
                    assert frame_valid(frame, f, kind) == want, \
                        (name, n, kind, str(f), frame)
                    if i % 41 == 0:
                        assert want == oracle_frame_valid(copy, f, kind), \
                            (name, n, kind, str(f), frame)
    assert decided > 100_000


def test_run_is_evaluated_once(monkeypatch):
    calls = []
    evaluate = semantics._run

    def counting(*args):
        calls.append(args[3])
        return evaluate(*args)

    f = parse("D p -> D D p")
    frames = list(_product_frames(3, FRAME_CLASSES["c"]))
    for kind in (NEW, OLD):
        invalid = sum(not frame_valid(_untagged(frame), f, kind)
                      for frame in frames)
        assert invalid > 0
        monkeypatch.setattr(semantics, "_run", counting)
        calls.clear()
        for frame in frames:
            # a mask per frame, then the frame's own check: still one pass
            # per run, and an invalid frame adds one pass of its own
            _run_mask(frame, f, kind)
            frame_valid(frame, f, kind)
        monkeypatch.undo()
        # 256 runs of 16 frames, each evaluated at width 16 * 2^3; each
        # invalid frame alone at width 2^3
        assert [width for width in calls if width != 8] == [16 * 8] * 256
        assert calls.count(8) == invalid, kind
    # one pass per (run, program, semantics) through the definability check:
    # 1, 4 and 256 runs of 2, 4 and 16 frames at 1, 2 and 3 states
    monkeypatch.setattr(semantics, "_run", counting)
    calls.clear()
    assert defines(builtin_claim("4"), 3)
    assert calls == [2 * 2] + [4 * 4] * 4 + [16 * 8] * 256


def test_state_local_run_fills_its_tables_once(monkeypatch):
    passes = []
    first_zeros = semantics._first_zeros

    def counting(*args):
        passes.append(args[0])
        return first_zeros(*args)

    frames = list(_product_frames(3, FRAME_CLASSES["c"]))
    for kind in (NEW, OLD):
        f = parse("D(p & q) -> D p & D q")  # a new program, a new memo
        want = [frame_valid(_untagged(frame), f, kind).valid
                for frame in frames]
        f = parse("D(p & q) -> D p & D q")
        monkeypatch.setattr(semantics, "_first_zeros", counting)
        passes.clear()
        got = [_run_bit(frame, f, kind) for frame in frames]
        monkeypatch.setattr(semantics, "_first_zeros", first_zeros)
        assert got == want, kind
        # one evaluation per family of the last state's list, then one per
        # head that brings a family new to state 0 or 1; never one per frame
        assert len(passes) <= 3 * 16, (kind, len(passes))


def test_alternating_formulas_keep_their_memos(monkeypatch):
    # two state-local formulas, one call each per frame in turn: each keeps
    # its own memo on the walk, so the answers are those of the formulas
    # run one after the other, with no more evaluations
    passes = []
    first_zeros, evaluate = semantics._first_zeros, semantics._run

    def counting(*args):
        passes.append("first")
        return first_zeros(*args)

    def counting_run(*args):
        passes.append("run")
        return evaluate(*args)

    monkeypatch.setattr(semantics, "_first_zeros", counting)
    monkeypatch.setattr(semantics, "_run", counting_run)
    pair = parse("D p -> p"), parse("D p & D q -> D(p & q)")
    for kind in (NEW, OLD):
        passes.clear()
        frames = list(_product_frames(3, FRAME_CLASSES["c"]))
        apart = [[frame_valid(frame, f, kind) for frame in frames]
                 for f in pair]
        one_by_one = passes.count("first"), passes.count("run")
        passes.clear()
        together = [[], []]
        for frame in _product_frames(3, FRAME_CLASSES["c"]):
            for out, f in zip(together, pair):
                out.append(frame_valid(frame, f, kind))
        assert together == apart, kind
        # ``_first_zeros`` calls, and all evaluations (``_run`` calls)
        alternating = passes.count("first"), passes.count("run")
        assert 0 < alternating[0] <= one_by_one[0], (kind, one_by_one)
        assert alternating[1] <= one_by_one[1], (kind, alternating)


def test_alternating_deep_formulas_run_one_pass_per_run_each(monkeypatch):
    # two formulas of modal depth 2, one call each per frame in turn: the
    # walk's memo of each keeps its last run's mask, so a switch back reads
    # it, and each run gets one pass of width 16 * 2^3 per formula
    pair = parse("D p -> D D p"), parse("p -> D N p")
    frames = list(_product_frames(3, FRAME_CLASSES["c"]))
    evaluate = semantics._run
    for kind in (NEW, OLD):
        want = [[frame_valid(_untagged(frame), f, kind) for frame in frames]
                for f in pair]
        wide = []

        def counting(prog, m, *args):
            if args[1] == 16 * 8:
                wide.append((prog, m.neighborhoods[:-1]))
            return evaluate(prog, m, *args)

        monkeypatch.setattr(semantics, "_run", counting)
        together = [[], []]
        for frame in _product_frames(3, FRAME_CLASSES["c"]):
            for out, f in zip(together, pair):
                out.append(frame_valid(frame, f, kind))
        monkeypatch.undo()
        assert together == want, kind
        assert len(wide) == len(set(wide)) == 2 * 256, kind


def test_range_starting_mid_run_matches_the_whole_stream():
    # the second of two quasi-filter ranges at 3 states starts at frame 63,
    # which is frame 3 of a run of 5
    f = parse("N p -> D(q | N p)")
    stream = list(_product_frames(3, FRAME_CLASSES["quasi-filter"]))
    part = list(_product_frames(3, FRAME_CLASSES["quasi-filter"], 63, 125))
    assert part == stream[63:]
    assert [vars(fr)[_RUN][1] for fr in part[:4]] == [3, 4, 0, 1]
    for kind in (NEW, OLD):
        for a, b in zip(part, stream[63:]):
            assert frame_valid(a, f, kind) == frame_valid(b, f, kind) == \
                frame_valid(_untagged(a), f, kind), (kind, a)
            assert _run_bit(a, f, kind) == _run_bit(b, f, kind), (kind, a)


def test_pickle_round_trip_drops_the_run():
    f = parse("p -> D N p")
    frame = list(_product_frames(2, FRAME_CLASSES["c"]))[6]
    copy = pickle.loads(pickle.dumps(frame))
    assert copy == frame and repr(copy) == repr(frame)
    assert _RUN in vars(frame) and _RUN not in vars(copy)
    assert _RUN not in vars(frame.with_valuation({"p": 1}))
    assert _RUN not in vars(frame.frame())
    for kind in (NEW, OLD):
        assert frame_valid(copy, f, kind) == frame_valid(frame, f, kind) == \
            oracle_frame_valid(frame, f, kind)


def test_explicit_frame_stream_takes_the_whole_frame_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("an untagged frame took the run path")

    claim = builtin_claim("4")
    swept = defines(claim, 3)
    copies = [_untagged(frame) for n in (1, 2, 3)
              for frame in _product_frames(n, FRAME_CLASSES["c"])]
    for module in (semantics, definability):
        monkeypatch.setattr(module, "_verdict", refuse)
    monkeypatch.setattr(definability, "_run_props", refuse)
    assert defines(claim, frames=copies) == swept


# ---------------------------------------------------------------------------
# Every check a shipped sweep makes, against a fresh whole-frame witness.

def _fresh_check(frame, f: Formula, kind: SemanticsKind) -> FrameCheck:
    """``frame_valid``'s answer rebuilt from scratch: no memo, no run."""
    copy = _untagged(frame)
    prog = compile_formula(f)
    return semantics._witness(copy, prog.names,
                              semantics._first_zeros(copy, prog, kind, 1))


def test_swept_checks_match_fresh_witnesses_and_oracle(monkeypatch):
    # every builtin claim at 1-3 states (1-2 for (c) and (ws), whose
    # background is all 2^24 frames at 3 states), then the E/M/R/K audits:
    # each definability frame's ``check_frame`` result, and each audit
    # frame's ``frame_valid`` result, recorded
    checked = []
    real_check = definability.check_frame

    def recording_check(claim, frame, *args, **kwargs):
        got = real_check(claim, frame, *args, **kwargs)
        checked.append((claim, frame, got))
        return got

    seen = []
    real = semantics.frame_valid

    def recording(frame, f, kind, *args):
        got = real(frame, f, kind, *args)
        seen.append((frame, f, kind, got))
        return got

    monkeypatch.setattr(definability, "check_frame", recording_check)
    monkeypatch.setattr(proofsys, "frame_valid", recording)
    swept = 0
    for claim in builtin_table():
        result = defines(claim, 3 if claim.background == "c" else 2)
        assert result, claim
        swept += result.frames_checked
    # one check per definability frame, each answered as the biconditional
    # of a fresh witness and the literal property clause
    assert len(checked) == swept
    invalid = 0
    for i, (claim, frame, got) in enumerate(checked):
        assert vars(frame).get(_RUN) is not None
        fresh = _fresh_check(frame, claim.formula, claim.semantics)
        assert got is None
        assert property_oracle(frame, claim.prop) == fresh.valid, \
            (claim, frame)
        if i % 97 == 0:
            assert fresh == oracle_frame_valid(frame, claim.formula,
                                               claim.semantics), frame
        invalid += not fresh
    assert invalid > 10_000
    audited = 0
    for system in AxiomSystem:
        report = audit_soundness(system, 3)
        assert report.ok, system
        audited += sum(audit.frames_checked for audit in report.axioms)
    # one check per audit frame; the audits' negative sweeps add the rest
    assert audited < len(seen) <= audited + 4 * (1 + 4 + 64)
    for i, (frame, f, kind, got) in enumerate(seen):
        assert vars(frame).get(_RUN) is not None
        assert got == _fresh_check(frame, f, kind), (str(f), kind, frame)
        if i % 97 == 0:
            assert got == oracle_frame_valid(frame, f, kind), (str(f), frame)
