"""Wide product runs against untagged copies and the oracle.

A product run is the frames that share the leading states' families and
vary the trailing ones, up to ``generators._RUN_FRAMES`` frames: the c-frames
at 3 states are 16 runs of 256, whose last two states vary.  Every check a
sweep makes on a swept frame (``check_frame`` for each builtin claim,
``frame_valid`` for each audit axiom and for seeded formulas), under both
neighborhood semantics, must equal the same check on an untagged copy,
which reads no run mask, and the literal oracle.
"""

import random
from dataclasses import replace

from delta_lab.definability import builtin_table, check_frame
from delta_lab.formula import metrics
from delta_lab.generators import _RUN_FRAMES, _product_frames, random_formula
from delta_lab.model import _RUN, FRAME_CLASSES, NeighborhoodModel, frame_class
from delta_lab.proofsys import SCHEMAS, schema_instance
from delta_lab.semantics import SemanticsKind, frame_valid

from test_evaluator_oracle import oracle_frame_valid
from test_model import oracle as property_oracle

NEW, OLD = SemanticsKind.NEW, SemanticsKind.OLD

# the oracle checks every this-many-th frame of a walk
_ORACLE_STEP = 53


def _walks():
    """(class, size, start, stop) of every shipped class at 1-3 states
    (``all`` at 1-2), of ``n,i,s,t``, whose per-state lists differ, and of
    ``b,c``, whose global filter reads the runs' property masks; then two
    ranges that split the third run of 256 c-frames at 3 states."""
    for name in FRAME_CLASSES:
        for n in (1, 2) if name == "all" else (1, 2, 3):
            yield name, n, 0, None
    for name in ("n,i,s,t", "b,c"):
        for n in (1, 2, 3):
            yield name, n, 0, None
    yield "c", 3, 512, 600
    yield "c", 3, 600, 768


def _frames(name: str, n: int, start: int, stop):
    return list(_product_frames(n, frame_class(name), start, stop))


def _copy(frame) -> NeighborhoodModel:
    return NeighborhoodModel(frame.states, frame.neighborhoods)


def _formulas() -> list:
    """Every audit axiom's instance and 12 seeded formulas of modal depth
    1 to 3 with 1 to 3 atoms."""
    rnd = random.Random(29)
    out = [schema_instance(name) for name in SCHEMAS]
    for i in range(12):
        atoms = ["p", "q", "r"][:1 + i // 4]
        out.append(random_formula(1 + i % 3, atoms, rnd.randrange(10**6),
                                  include_box=True,
                                  size=rnd.randrange(4, 12)))
    return out


def test_walks_have_wide_runs_split_by_the_ranges():
    # the 3-state c, filter, quasi-filter and n,i,s,t walks vary two or
    # three states per run; the two ranges meet inside one run
    widths = {}
    for name, n, start, stop in _walks():
        frames = _frames(name, n, start, stop)
        run, _ = vars(frames[0])[_RUN]
        assert run.count <= _RUN_FRAMES
        widths[name, n, start] = (len(run.lists), run.count)
    assert widths["c", 3, 0] == (2, 256)
    assert widths["filter", 3, 0] == (2, 64)
    assert widths["quasi-filter", 3, 0] == (3, 125)
    assert widths["n,i,s,t", 3, 0] == (3, 64)
    assert widths["all", 2, 0] == (2, 256)
    first = _frames("c", 3, 512, 600)
    second = _frames("c", 3, 600, 768)
    assert vars(first[-1])[_RUN][0] is not vars(second[0])[_RUN][0]
    assert [vars(frame)[_RUN][1] for frame in (first[0], first[-1],
                                               second[0], second[-1])] == \
        [0, 87, 88, 255]
    assert first + second == _frames("c", 3, 0, None)[512:768]


def test_claims_on_wide_runs_match_untagged_copies_and_oracle():
    claims = [variant for claim in builtin_table()
              for variant in (claim, replace(claim, semantics=OLD))]
    refuted = 0
    for name, n, start, stop in _walks():
        frames = _frames(name, n, start, stop)
        copies = [_copy(frame) for frame in frames]
        for claim in claims:
            got = [check_frame(claim, frame) for frame in frames]
            want = [check_frame(claim, copy) for copy in copies]
            assert got == want, (name, n, start, claim)
            for i in range(0, len(copies), _ORACLE_STEP):
                copy = copies[i]
                agree = property_oracle(copy, claim.prop) == \
                    oracle_frame_valid(copy, claim.formula,
                                       claim.semantics).valid
                assert agree == (want[i] is None), (name, n, claim, copy)
            refuted += sum(hit is not None for hit in want)
    assert refuted > 1000


def test_formulas_on_wide_runs_match_untagged_copies_and_oracle():
    decided = 0
    for f in _formulas():
        k = len(metrics(f).vars)
        for name, n, start, stop in _walks():
            frames = _frames(name, n, start, stop)
            for kind in (NEW, OLD):
                for i, frame in enumerate(frames):
                    copy = _copy(frame)
                    want = frame_valid(copy, f, kind)
                    got = frame_valid(frame, f, kind)
                    assert got == want, (name, n, start, kind, str(f), frame)
                    if i % _ORACLE_STEP == 0:
                        assert want == oracle_frame_valid(copy, f, kind), \
                            (name, n, kind, str(f), frame)
                run, _ = vars(frames[-1])[_RUN]
                mask = run.valid_verdict[3]
                if mask is not None and run.count > 16 and k:
                    decided += 1
    assert decided > 100
