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
from delta_lab import definability, model, proofsys
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
                                 frame_valid, run_valid)
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
# The state-local memo of ``frame_valid`` against the whole-frame path.

def _whole_frame(frame, f: Formula, kind: SemanticsKind) -> FrameCheck:
    return _program_valid(frame, compile_formula(f), kind)


def _pooled_frames(kind: SemanticsKind, n: int, rnd: random.Random,
                   count: int) -> list:
    """Frames whose state entries come from a few per-state candidates, so
    that later frames repeat earlier frames' (state, entry) pairs in new
    combinations."""
    pool = [_random_frame(kind, n, rnd.randrange(10**6)) for _ in range(3)]
    names = state_names(n)
    frames = []
    for _ in range(count):
        picks = [rnd.choice(pool) for _ in range(n)]
        if kind is KRIPKE:
            succ = tuple(p.succ[s] for s, p in enumerate(picks))
            frames.append(KripkeModel(names, succ))
        else:
            fams = tuple(p.neighborhoods[s] for s, p in enumerate(picks))
            frames.append(NeighborhoodModel(names, fams))
    return frames


def test_memo_path_matches_whole_frame_path_and_oracle():
    rnd = random.Random(11)
    for case in range(240):
        kind = (NEW, OLD, KRIPKE)[case % 3]
        n = 1 + case // 3 % 5
        depth = case // 15 % 3
        atoms = ["p", "q"][:1 + (n <= 3)]
        f = Top()
        while metrics(f).modal_depth != depth:
            f = random_formula(depth, atoms, rnd.randrange(10**6),
                               include_box=True, size=rnd.randrange(3, 12))
        for frame in _pooled_frames(kind, n, rnd, 8):
            got = frame_valid(frame, f, kind)
            assert got == _whole_frame(frame, f, kind), (case, kind, str(f))
            assert got == oracle_frame_valid(frame, f, kind), (case, str(f))
        assert (semantics._memo.tables is not None) == (depth <= 1)


def test_memo_path_above_the_chunk_width():
    # 5 states and 3 atoms give 15 index bits; a miss runs passes until
    # every state has its first falsifying valuation, so the memo must hold
    # the right one for each state, which pooled frames then combine
    assert 5 * 3 > _CHUNK_BITS
    late = [parse("~(p0 & q & r & D p0)"), parse("p0 | q | r | B ~r"),
            parse("D p0 | N q | r"), parse("(p0 -> q) | r | D r"),
            parse("p0 & q & r -> p0"), parse("D(p0 & q & r) | ~D(p0 & q & r)")]
    rnd = random.Random(5)
    for kind in (NEW, OLD, KRIPKE):
        frames = _pooled_frames(kind, 5, rnd, 6)
        for f in late:
            for frame in frames:
                assert frame_valid(frame, f, kind) == \
                    _whole_frame(frame, f, kind), (kind, str(f))
    frame = frames[0]
    for f in late[:2]:
        assert frame_valid(frame, f, KRIPKE) == \
            oracle_frame_valid(frame, f, KRIPKE), str(f)


def test_frame_answered_from_earlier_entries_runs_no_pass(monkeypatch):
    # frames a and b fill the memo; c takes its states from both, so its
    # witness comes from the memo alone and must still be the lowest one
    f = parse("D p -> p | q")
    a = NeighborhoodModel(state_names(3), (frozenset({0b011}), frozenset(),
                                           frozenset({0b100, 0b010})))
    b = NeighborhoodModel(state_names(3), (frozenset(), frozenset({0, 0b101}),
                                           frozenset({0b111})))
    c = NeighborhoodModel(state_names(3), (b.neighborhoods[0],
                                           a.neighborhoods[1],
                                           b.neighborhoods[2]))
    for kind in (NEW, OLD):
        frame_valid(a, f, kind)
        frame_valid(b, f, kind)
        runs = []
        monkeypatch.setattr(semantics, "_first_zeros",
                            lambda *args: runs.append(args) or [])
        for frame in (a, b, c):
            assert frame_valid(frame, f, kind) == \
                oracle_frame_valid(frame, f, kind), (kind, frame)
        assert not runs
        monkeypatch.undo()


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


def test_depth_two_formula_is_not_memoised():
    # truth of ΔΔp at s0 reads s1's family, which differs between frames
    # that give s0 the same family
    f = parse("D D p")
    left = NeighborhoodModel(state_names(2), (frozenset({0b10}), frozenset()))
    right = NeighborhoodModel(state_names(2), (frozenset({0b10}),
                                               frozenset({0, 0b01, 0b10, 0b11})))
    for frame in (left, right, left, right):
        assert frame_valid(frame, f, NEW) == oracle_frame_valid(frame, f, NEW)
    assert semantics._memo.tables is None
    k = parse("B (p -> B p)")
    one = KripkeModel(state_names(2), (0b10, 0b00))
    two = KripkeModel(state_names(2), (0b10, 0b01))
    for frame in (one, two, one):
        assert frame_valid(frame, k, KRIPKE) == \
            oracle_frame_valid(frame, k, KRIPKE)


def test_memo_is_dropped_on_formula_change_and_cleared_when_full(monkeypatch):
    frame = _random_frame(NEW, 3, 1)
    f, g = parse("D p -> p"), parse("D p -> p")
    frame_valid(frame, f, NEW)
    memo = semantics._memo
    # one table per state, each keyed by that state's own family object
    assert [list(table) for table in memo.tables] == \
        [[fam] for fam in frame.neighborhoods]
    renamed = NeighborhoodModel(tuple(list(frame.states)), frame.neighborhoods)
    assert renamed.states is not frame.states
    frame_valid(renamed, f, NEW)  # equal state names keep the memo
    assert semantics._memo is memo and memo.size == 3
    frame_valid(frame, g, NEW)  # an equal formula, but a new object
    assert semantics._memo is not memo and semantics._memo.program is not \
        memo.program
    assert semantics._memo.size == 3
    frame_valid(frame, g, OLD)  # another semantics starts its own memo
    assert semantics._memo.kind is OLD and semantics._memo.size == 3
    h = parse("~(D p -> p)")
    assert frame_valid(frame, h, NEW) == oracle_frame_valid(frame, h, NEW)

    monkeypatch.setattr(semantics, "_MEMO_LIMIT", 7)
    rnd = random.Random(3)
    f = parse("D(p & q) -> D p | q")
    sizes = []
    for frame in _pooled_frames(NEW, 3, rnd, 40) + _pooled_frames(NEW, 3, rnd, 40):
        assert frame_valid(frame, f, NEW) == oracle_frame_valid(frame, f, NEW)
        memo = semantics._memo
        assert memo.size == sum(map(len, memo.tables))
        assert len(memo.witnesses) <= 7
        sizes.append(memo.size)
    assert max(sizes) <= 7 and min(sizes[1:]) < max(sizes)


def test_witnesses_are_shared_and_name_each_frames_own_states():
    f = parse("D p -> p")
    fams = (frozenset({0b01}), frozenset({0b01}))
    one = NeighborhoodModel(("a", "b"), fams)
    two = NeighborhoodModel(("a", "b"), fams)
    other = NeighborhoodModel(("x", "y"), fams)
    for kind in (NEW, OLD):
        got = frame_valid(one, f, kind)
        assert not got and frame_valid(two, f, kind) is got
        assert got == oracle_frame_valid(one, f, kind)
        # same families and formula, other names: the witness names "y"
        renamed = frame_valid(other, f, kind)
        assert renamed == oracle_frame_valid(other, f, kind)
        assert renamed.state in other.states
        assert frame_valid(one, f, kind) == got


def test_shared_witnesses_survive_a_pickle_round_trip():
    claim = builtin_claim("s")
    checks = []
    for frame in _product_frames(3, FRAME_CLASSES["c"]):
        checks.append(frame_valid(frame, claim.formula, claim.semantics))
    failing = [check for check in checks if not check]
    assert len({id(check) for check in failing}) < len(failing)
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
# The run path: validity decided once per product run (``run_valid``; one
# pass per run for programs of modal depth 2 or more, the memo tables for
# the rest), against untagged copies and the oracle.

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


def _run_bit(frame, f: Formula, kind: SemanticsKind) -> int | None:
    mask = run_valid(frame, f, kind)
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
                    assert run.valid is not None and run.zeros is not None, \
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
                    assert run_valid(copy, f, kind) is None
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

    monkeypatch.setattr(semantics, "_run", counting)
    f = parse("D p -> D D p")
    frames = list(_product_frames(3, FRAME_CLASSES["c"]))
    for kind in (NEW, OLD):
        calls.clear()
        for frame in frames:
            # a mask per frame, then the frame's own check: still one pass,
            # and an invalid frame's witness is read from the kept planes
            run_valid(frame, f, kind)
            frame_valid(frame, f, kind)
        # 256 runs of 16 frames, each evaluated at width 16 * 2^3
        assert calls == [16 * 8] * 256, kind
    # one pass per (run, program, semantics) through the definability check:
    # 1, 4 and 256 runs of 2, 4 and 16 frames at 1, 2 and 3 states
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
        got = [run_valid(frame, f, kind) >> vars(frame)[_RUN][1] & 1
               for frame in frames]
        monkeypatch.setattr(semantics, "_first_zeros", first_zeros)
        assert got == want, kind
        # one evaluation per family of the last state's list, then one per
        # head that brings a family new to state 0 or 1; never one per frame
        assert len(passes) <= 3 * 16, (kind, len(passes))


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
    monkeypatch.setattr(semantics, "_run_mask", refuse)
    monkeypatch.setattr(model, "_run_props", refuse)
    assert defines(claim, frames=copies) == swept


# ---------------------------------------------------------------------------
# Every check a shipped sweep makes, against a fresh whole-frame witness.

def _fresh_check(frame, f: Formula, kind: SemanticsKind) -> FrameCheck:
    """``frame_valid``'s answer rebuilt from scratch: no memo, no run, no
    shared witness."""
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
