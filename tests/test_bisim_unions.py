"""The paper's bisimulation theorems on every one-atom model up to three
states: 32,836 c-models and 4,164 Kripke models.

Greatest bisimilarity on a disjoint union restricts to each pair of its
models, since a formula is evaluated within one model and logical
equivalence equals greatest bisimilarity on finite models.  So one
refinement of a union answers every pair of its models at once.  The union
checks test the theorems where the code differs: ``old`` against ``new``
signatures, the Kripke closed form against the neighborhood signatures of
``qf_variation``, and, on the 84 one-atom cs-models, the Δ signature against
c-monotonic's minimal signature.  ``extension`` checks the characteristic formulas
independently of ``bisim``.

A layout with one slot per (model, block) pair needs about 4.5 GB for the c
union; run under an address-space cap (``ulimit -v``), such a layout fails
with ``MemoryError`` instead of swapping.
"""

import random
import tracemalloc

import pytest

from delta_lab.bisim import (BisimKind, _delta_signature, _minimal_signature,
                             _refine, char_formula, logical_equiv_partition,
                             max_bisim)
from delta_lab.generators import GenSpec, enum_frames, enum_kripke_frames
from delta_lab.model import FrameProperty
from delta_lab.semantics import SemanticsKind, extension
from delta_lab.transform import qf_variation

NEW, OLD, KRIPKE = (SemanticsKind.NEW, SemanticsKind.OLD,
                    SemanticsKind.KRIPKE)
#: One-atom models of one and two states: 4 + 64, both for c and Kripke.
UP_TO_TWO = 68


def one_atom_models(frames_at, max_states):
    """Every frame of 1 to ``max_states`` states under each valuation of p,
    by size, then frame order, then valuation mask."""
    return [frame.with_valuation({"p": v})
            for n in range(1, max_states + 1) for frame in frames_at(n)
            for v in range(1 << n)]


@pytest.fixture(scope="module")
def c_models():
    models = one_atom_models(
        lambda n: enum_frames(GenSpec(n, frozenset({FrameProperty.C}))), 3)
    assert len(models) == 32_836
    return models


@pytest.fixture(scope="module")
def kripke_models():
    models = one_atom_models(lambda n: enum_kripke_frames(GenSpec(n)), 3)
    assert len(models) == 4_164
    return models


@pytest.fixture(scope="module")
def c_union(c_models):
    return logical_equiv_partition(c_models, ["p"], NEW)


@pytest.fixture(scope="module")
def kripke_union(kripke_models):
    return logical_equiv_partition(kripke_models, ["p"], KRIPKE)


@pytest.fixture(scope="module")
def qf_union(kripke_models):
    return logical_equiv_partition(list(map(qf_variation, kripke_models)),
                                   ["p"], NEW)


def test_c_equals_nbh_delta_on_the_c_union(c_models, c_union):
    # c-bisimilarity reads Δ under new semantics, nbh-Δ under old
    assert logical_equiv_partition(c_models, ["p"], OLD).history \
        == c_union.history
    assert len(c_union.history) == 6
    assert len(c_union.blocks_at(c_union.depth)) == 8_860


def test_rel_delta_equals_qf_on_the_kripke_union(kripke_union, qf_union):
    assert qf_union.history == kripke_union.history
    assert len(kripke_union.blocks_at(kripke_union.depth)) == 126


@pytest.fixture(scope="module")
def cs_models():
    models = one_atom_models(lambda n: enum_frames(GenSpec(
        n, frozenset({FrameProperty.C, FrameProperty.S}))), 3)
    assert len(models) == 84
    return models


def test_monotonic_c_equals_c_monotonic_on_the_cs_union(cs_models):
    # monotonic-c signs by the Δ clause, c-monotonic by the ⊆-minimal block
    # sets that the neighborhoods meet; both read new semantics
    kinds = (NEW,) * len(cs_models)
    delta = _refine(cs_models, kinds, ("p",), _delta_signature)
    minimal = _refine(cs_models, kinds, ("p",), _minimal_signature)
    assert delta.history == minimal.history
    assert len(delta.blocks_at(delta.depth)) == 4
    for i, j in seeded_pairs(delta, seed=1):
        pairs = delta.cross_pairs(i, j)
        for kind in (BisimKind.MONOTONIC_C, BisimKind.C_MONOTONIC):
            assert pairs == max_bisim(kind, cs_models[i],
                                      cs_models[j]).pairs, (kind, i, j)


def seeded_pairs(part, seed, count=50):
    """Pairs of the union's model indices: half of them random, half a
    random model and the model of a state in the same final block as one of
    its states, so that they share at least one bisimilar pair."""
    rnd = random.Random(seed)
    final = part.blocks_at(part.depth)
    out = []
    for k in range(count):
        i = rnd.randrange(len(part.models))
        if k % 2:
            j = rnd.randrange(len(part.models))
        else:
            s = rnd.randrange(part.models[i].n)
            j = rnd.choice(sorted(final[part.block_index(part.depth,
                                                         (i, s))]))[0]
        out.append((i, j))
    return out


@pytest.mark.parametrize("kind, union", [
    (BisimKind.C, "c_union"),
    (BisimKind.NBH_DELTA, "c_union"),
    (BisimKind.REL_DELTA, "kripke_union"),
    (BisimKind.QF, "qf_union"),
])
def test_union_restricts_to_max_bisim(request, kind, union):
    part = request.getfixturevalue(union)
    shared = 0
    for i, j in seeded_pairs(part, seed=1):
        pairs = part.cross_pairs(i, j)
        assert pairs == max_bisim(kind, part.models[i],
                                  part.models[j]).pairs, (kind, i, j)
        shared += bool(pairs)
    assert shared >= 25, shared


@pytest.mark.parametrize("models, kind", [("kripke_models", KRIPKE),
                                          ("c_models", NEW)])
def test_hennessy_milner_char_formulas(request, models, kind):
    # every model of at most two states, and 300 of three
    everything = request.getfixturevalue(models)
    union = (everything[:UP_TO_TWO]
             + random.Random(3).sample(everything[UP_TO_TWO:], 300))
    part = logical_equiv_partition(union, ["p"], kind)
    for b, block in enumerate(part.blocks_at(part.depth)):
        f = char_formula(part, b, part.depth)
        want = [0] * len(union)
        for mi, s in block:
            want[mi] |= 1 << s
        for mi, m in enumerate(union):
            assert extension(m, f, kind) == want[mi], (kind, b, mi)


def test_union_refinement_memory_is_about_linear(c_models):
    # a layout with one slot per (model, block) pair grows about ×9 here
    peaks = []
    for models in (c_models[:1_000], c_models[:3_000]):
        tracemalloc.start()
        try:
            logical_equiv_partition(models, ["p"], NEW)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 4.5 * peaks[0], peaks
