"""The three workloads: ``sweep``, ``bisim`` and ``eval``.

Each workload turns a seed into one *round*: a fixed list of queries.  A query
is a pair of callables: ``run`` makes the program calls and is timed, ``check``
compares what they returned with a known answer or with an independent code
path and raises ``WrongAnswer``.  Every call into the program goes through a
module attribute (``mods.bisim.max_bisim``), so the tracer's wrappers see it.

Each workload also names the public functions its traced run wraps
(``LAYERS``) and turns the finished trace into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import answers
from spans import Tracer


class WrongAnswer(Exception):
    """The program's output disagrees with the known answer."""


@dataclass
class Query:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def _mean(total: float, calls: int, scale: float) -> float:
    return total / calls * scale if calls else 0.0


# ---------------------------------------------------------------------------
# sweep: exhaustive frame sweeps through the CLI.

SWEEP_CLASSES = ("all", "c", "cs", "csi", "filter", "quasi-filter")


def _cli_query(mods, row: answers.Row) -> Query:
    argv = ["--format", "json", "--jobs", "1", *row.args]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        _expect(code == row.exit, f"exit {code}, expected {row.exit}: {err.strip()}")
        payload = json.loads(out.strip().splitlines()[-1])
        got = answers.summarize(row.args[0], payload)
        _expect(got == row.expect, f"got {got}, expected {row.expect}")

    return Query(" ".join(row.args), run, check)


def sweep_caches(mods) -> None:
    for name in SWEEP_CLASSES:
        for n in (1, 2, 3):
            mods.generators.admissible_space(n, mods.model.FRAME_CLASSES[name])


def sweep_round(mods, rnd: random.Random, rows=answers.ROWS) -> list[Query]:
    """Every row of the answer table once, in a seeded order."""
    order = list(rows)
    rnd.shuffle(order)
    return [_cli_query(mods, row) for row in order]


def _formula_atoms(f) -> set[str]:
    name = getattr(f, "name", None)
    if name is not None:
        return {name}
    out = set()
    for part in ("child", "left", "right"):
        sub = getattr(f, part, None)
        if sub is not None:
            out |= _formula_atoms(sub)
    return out


def _count_valuations(tracer: Tracer, check, frame, f, *_) -> None:
    """Valuations ``frame_valid`` evaluated: all (2^n)^k of them when the
    formula is valid, else up to and including the witness, whose index
    follows from the sweep order (sorted atoms, masks ascending, first atom
    most significant)."""
    names = sorted(_formula_atoms(f))
    base = 1 << len(frame.states)
    if check.valid:
        done = base ** len(names)
    else:
        index = 0
        for name in names:
            index = index * base + check.valuation[name]
        done = index + 1
    tracer.counts["semantics.valuations"] += done
    if tracer.inside("proofsys.audit_soundness"):
        tracer.counts["proofsys.audit_frames"] += 1
    if tracer.inside("proofsys."):
        tracer.counts["proofsys.frames_checked"] += 1


SWEEP_LAYERS = (
    ("cli", "main", None),
    ("definability", "defines", None),
    ("definability", "check_frame", None),
    ("proofsys", "audit_soundness", None),
    ("proofsys", "filter_equ_witness", None),
    ("proofsys", "countermodel_search", None),
    ("generators", "enum_frames", "generator"),
    ("model", "has_property", None),
    ("semantics", "frame_valid", _count_valuations),
)


def sweep_metrics(tracer: Tracer) -> dict[str, float]:
    t = tracer.layer_times()
    fv = t["semantics.frame_valid"]
    gen = t["generators.enum_frames"]
    hp = t["model.has_property"]
    valuations = tracer.counts["semantics.valuations"]
    frames = tracer.counts["generators.enum_frames.items"]
    rows = answers.ROWS
    definability_frames = sum(answers.expected_frames(r) for r in rows
                              if r.args[0] == "definability")
    # every audit also searches for the filter witness, found at frame 1
    audit_frames = sum(answers.expected_frames(r) + 1 for r in rows
                       if r.args[0] == "audit" and "--negative" not in r.args)
    _expect(t["definability.check_frame"]["calls"] == definability_frames,
            "definability checked another number of frames than the table's")
    _expect(tracer.counts["proofsys.audit_frames"] == audit_frames,
            "audits checked another number of frames than the table's")
    return {
        "semantics.frame_valid_ms": _mean(fv["total"], fv["calls"], 1e3),
        "semantics.frame_valid_calls": fv["calls"],
        "semantics.valuations": valuations,
        "semantics.valuations_per_s": valuations / fv["total"] if fv["total"] else 0.0,
        "generators.frames_per_s": frames / gen["total"] if gen["total"] else 0.0,
        "generators.frames_yielded": frames,
        "model.has_property_us": _mean(hp["total"], hp["calls"], 1e6),
        "model.has_property_calls": hp["calls"],
        "definability.self_s": (t["definability.defines"]["self"]
                                + t["definability.check_frame"]["self"]),
        "definability.frames_checked": definability_frames,
        "proofsys.audit_self_s": (t["proofsys.audit_soundness"]["self"]
                                  + t["proofsys.filter_equ_witness"]["self"]),
        "proofsys.countermodel_s": t["proofsys.countermodel_search"]["total"],
        "proofsys.frames_checked": tracer.counts["proofsys.frames_checked"],
        "cli.overhead_ms": _mean(t["cli.main"]["self"], t["cli.main"]["calls"], 1e3),
    }


# ---------------------------------------------------------------------------
# bisim: greatest bisimilarity, partitions and relation checks on random pairs.

# (kind, left states, right states, atoms).  The sizes are fixed so that a
# seed changes which models are drawn, not how large they are.  Most pairs
# are small, so the median is steady; a block of 6+7 rel-delta pairs holds
# the tail, and one 8+8 pair per round sweeps 2^16 unions of blocks in each
# refinement round.  Large rel-delta pairs get 3 atoms, which keeps their cost
# from swinging between a few and all 16 blocks.  Neighborhood pairs skip
# 4 states, the one size at which random_model needs the precomputed 4-state
# family lists, whose fill the eval workload already measures.
_NBH_SIZES = ((1, 2, 1), (2, 2, 2), (2, 3, 1), (3, 3, 2)) * 4 + (
    (3, 3, 1), (3, 5, 2), (5, 5, 1), (5, 6, 2), (6, 6, 1), (6, 6, 2))
_KRIPKE_SIZES = ((2, 3, 1), (3, 3, 2), (3, 4, 1), (4, 5, 2), (5, 6, 2),
                 (6, 6, 3)) + ((6, 7, 3),) * 24 + ((7, 7, 3), (8, 8, 3))
BISIM_SCHEDULE = tuple(
    (kind, nl, nr, atoms)
    for kind in ("nbh-delta", "c", "monotonic-c", "c-monotonic", "qf")
    for nl, nr, atoms in _NBH_SIZES) + tuple(
    ("rel-delta", nl, nr, atoms) for nl, nr, atoms in _KRIPKE_SIZES)

_RELATIONS_PER_PAIR = 3
# Notion pairs whose verdicts agree on every relation (acceptance criterion 6).
_AGREEING = {"c": ("c", "nbh-delta"), "qf": ("c", "nbh-delta"),
             "monotonic-c": ("monotonic-c", "c-monotonic"),
             "c-monotonic": ("monotonic-c", "c-monotonic")}


def _random_model(mods, kind: str, n: int, atoms: list[str], seed: int):
    g, FP = mods.generators, mods.model.FrameProperty
    if kind == "rel-delta":
        return g.random_kripke(g.GenSpec(n, seed=seed), atoms)
    if kind == "qf":
        return mods.transform.qf_variation(
            g.random_kripke(g.GenSpec(n, seed=seed), atoms))
    props = {"nbh-delta": frozenset(), "c": frozenset({FP.C})}.get(
        kind, frozenset({FP.C, FP.S}))
    return g.random_model(g.GenSpec(n, props, seed=seed), atoms)


def _permuted_copy(mods, m, perm: list[int]):
    """The model with state i renamed to c<perm[i]> and moved to perm[i]."""
    names = [f"c{perm[i]}" for i in range(m.n)]
    order = [f"c{i}" for i in range(m.n)]

    def group(mask: int) -> list[str]:
        return [names[i] for i in range(m.n) if mask >> i & 1]

    valuation = {p: group(mask) for p, mask in m.valuation.items()}
    if hasattr(m, "succ"):
        return mods.model.KripkeModel.from_names(
            order, {names[i]: group(r) for i, r in enumerate(m.succ)}, valuation)
    return mods.model.NeighborhoodModel.from_names(
        order, {names[i]: [group(x) for x in fam]
                for i, fam in enumerate(m.neighborhoods)}, valuation)


def _copy_relation(mods, part, left, perm: list[int]):
    """Greatest bisimilarity between ``left`` and its permuted copy: x is
    related to the copy of y iff x and y share a final partition block."""
    pairs = []
    for block in part.history[-1]:
        states = [s for mi, s in block if mi == 0]
        pairs.extend((left.states[a], f"c{perm[b]}") for a in states for b in states)
    return mods.bisim.PairRelation.of(pairs)


def _bisim_query(mods, kind_name: str, nl: int, nr: int, n_atoms: int,
                 rnd: random.Random) -> Query:
    B = mods.bisim
    kind = B.BisimKind(kind_name)
    sem = mods.semantics.SemanticsKind(
        {"nbh-delta": "old", "rel-delta": "kripke"}.get(kind_name, "new"))
    atoms = ["p", "q", "r"][:n_atoms]
    left = _random_model(mods, kind_name, nl, atoms, rnd.getrandbits(32))
    right = _random_model(mods, kind_name, nr, atoms, rnd.getrandbits(32))
    perm = list(range(nl))
    rnd.shuffle(perm)
    copy = _permuted_copy(mods, left, perm)
    pool = [(a, b) for a in left.states for b in right.states]
    relations = [B.PairRelation.of(rnd.sample(pool, rnd.randrange(1, len(pool) + 1)))
                 for _ in range(_RELATIONS_PER_PAIR)] if kind_name in _AGREEING else []
    notions = [B.BisimKind(k) for k in _AGREEING.get(kind_name, ())]

    def run():
        z = B.max_bisim(kind, left, right)
        part = B.logical_equiv_partition([left, right], atoms, sem)
        copy_ok = B.check_bisim(kind, _copy_relation(mods, part, left, perm),
                                left, copy).ok
        # A cross-model relation leaves states without partners free, so
        # check_bisim must accept z itself only when z covers both models
        # (or for c-monotonic, whose clauses do not use coherent pairs).
        covers = (len({a for a, _ in z.pairs}) == nl
                  and len({b for _, b in z.pairs}) == nr)
        direct = (B.check_bisim(kind, z, left, right).ok
                  if z.pairs and (covers or kind_name == "c-monotonic") else None)
        verdicts = [[B.check_bisim(k, rel, left, right).ok for k in notions]
                    for rel in relations]
        return z, part, copy_ok, direct, verdicts

    def check(result):
        z, part, copy_ok, direct, verdicts = result
        _expect(part.cross_pairs(0, 1) == z.pairs,
                "max_bisim and logical_equiv_partition disagree (Hennessy-Milner)")
        _expect(copy_ok, "check_bisim rejects the greatest bisimilarity "
                         "with a permuted copy")
        _expect(direct in (None, True),
                "check_bisim rejects a greatest bisimulation covering both models")
        for rel, (a, b) in zip(relations, verdicts):
            _expect(a == b, f"{notions[0].value} and {notions[1].value} disagree")
            _expect(not a or rel.pairs <= z.pairs,
                    "an accepted relation is not inside max_bisim")

    return Query(f"{kind_name} {nl}+{nr} atoms={n_atoms}", run, check)


def bisim_caches(mods) -> None:
    FP = mods.model.FrameProperty
    for props in (frozenset(), frozenset({FP.C}), frozenset({FP.C, FP.S})):
        for n in (1, 2, 3):
            mods.generators.admissible_space(n, props)


def bisim_round(mods, rnd: random.Random) -> list[Query]:
    """One fresh pair for every entry of the schedule, in a seeded order."""
    queries = [_bisim_query(mods, *entry, rnd) for entry in BISIM_SCHEDULE]
    rnd.shuffle(queries)
    return queries


def _count_partition(tracer: Tracer, part, *_) -> None:
    """Blocks, refinement rounds and unions of blocks swept (2^blocks per
    round), read off the partition history."""
    tracer.counts["bisim.blocks"] += len(part.history[-1])
    tracer.counts["bisim.rounds"] += len(part.history)
    tracer.counts["bisim.unions_swept"] += sum(1 << len(h) for h in part.history)


BISIM_LAYERS = (
    ("bisim", "max_bisim", None),
    ("bisim", "logical_equiv_partition", _count_partition),
    ("bisim", "check_bisim", None),
)


def bisim_metrics(tracer: Tracer) -> dict[str, float]:
    t = tracer.layer_times()
    mb, lp, cb = (t["bisim.max_bisim"], t["bisim.logical_equiv_partition"],
                  t["bisim.check_bisim"])
    return {
        "bisim.max_bisim_ms": _mean(mb["total"], mb["calls"], 1e3),
        "bisim.partition_ms": _mean(lp["total"], lp["calls"], 1e3),
        "bisim.check_bisim_us": _mean(cb["total"], cb["calls"], 1e6),
        "bisim.blocks": tracer.counts["bisim.blocks"],
        "bisim.rounds": tracer.counts["bisim.rounds"],
        "bisim.unions_swept": tracer.counts["bisim.unions_swept"],
    }


# ---------------------------------------------------------------------------
# eval: many distinct formulas, each parsed and evaluated once per round.

EVAL_QUERIES = 1500          # formula queries per round, plus the proof checks
EVAL_ATOMS = ["p", "q", "r"]


def _proof_mutants(mods, scripts) -> list[list]:
    """The 50 mutants of the shipped K derivations from acceptance criterion
    10: each line negated, made a self-referencing MP, or given the wrong
    schema; premises swapped; schema lines relabelled TAUT."""
    P = mods.proofsys.ProofLine
    Not = mods.formula.Not
    out = []
    for script in scripts.values():
        for i, line in enumerate(script):
            out.append(script[:i] + [P(Not(line.formula), line.by)] + script[i + 1:])
            out.append(script[:i] + [P(line.formula, f"MP {i} {i}" if i else "MP 1 1")]
                       + script[i + 1:])
            out.append(script[:i] + [P(line.formula, "ΔM")] + script[i + 1:])
    swapped = {"k_unit_negated": [(3, "MP 3 2"), (4, "MP 4 1")],
               "k_conjunction_commuted": [(4, "MP 4 1"), (5, "MP 5 3"), (2, "REΔ 1")],
               "k_dis_weakened": [(2, "MP 2 1")]}
    for name, edits in swapped.items():
        for at, by in edits:
            script = list(scripts[name])
            script[at] = P(script[at].formula, by)
            out.append(script)
    for name, at in (("k_unit_negated", 0), ("k_conjunction_commuted", 0)):
        script = list(scripts[name])
        script[at] = P(script[at].formula, "TAUT")
        out.append(script)
    return out


def _proof_query(mods, script, valid: bool) -> Query:
    def run():
        return mods.proofsys.check_proof(mods.proofsys.AxiomSystem.K, script).ok

    def check(ok):
        _expect(ok == valid, "proof verdict " + ("rejects a derivation" if valid
                                                 else "accepts a mutant"))

    return Query("proof " + ("script" if valid else "mutant"), run, check)


def _eval_query(mods, kind: str, text: str, model) -> Query:
    S, T = mods.semantics, mods.transform
    OLD, NEW, KRIPKE = (S.SemanticsKind.OLD, S.SemanticsKind.NEW,
                        S.SemanticsKind.KRIPKE)
    if kind == "c-model":
        def run():
            f = mods.formula.parse(text)
            return S.extension(model, f, OLD), S.extension(model, f, NEW)
    elif kind == "c-variation":
        def run():
            f = mods.formula.parse(text)
            return (S.extension(model, f, OLD),
                    S.extension(T.c_variation(model), f, NEW))
    else:
        def run():
            f = mods.formula.parse(text)
            qf = T.qf_variation(model)
            back = T.qf_variation(T.qf_to_kripke(qf))
            return S.extension(model, f, KRIPKE), S.extension(qf, f, NEW), qf == back

    def check(result):
        _expect(result[0] == result[1], f"{kind} extensions differ on {text!r}")
        _expect(result[2:] in ((), (True,)), "qf_to_kripke does not round-trip")

    return Query(kind, run, check)


def eval_caches(mods) -> None:
    FP = mods.model.FrameProperty
    for props in (frozenset(), frozenset({FP.C})):
        mods.generators.admissible_space(4, props)


def eval_round(mods, rnd: random.Random) -> list[Query]:
    """Fresh formula texts and models, with the proof checks spread evenly."""
    g, FP = mods.generators, mods.model.FrameProperty
    c_props = frozenset({FP.C})
    queries = []
    for i in range(EVAL_QUERIES):
        kind = ("c-model", "c-variation", "qf")[i % 3]
        n = 1 + (i // 3) % 6
        text = str(g.random_formula(4, EVAL_ATOMS, rnd.getrandbits(32)))
        spec = g.GenSpec(n, c_props if kind == "c-model" else frozenset(),
                         seed=rnd.getrandbits(32))
        model = (g.random_kripke(spec, EVAL_ATOMS) if kind == "qf"
                 else g.random_model(spec, EVAL_ATOMS))
        queries.append(_eval_query(mods, kind, text, model))
    scripts = mods.proofsys.sample_scripts()
    proofs = ([_proof_query(mods, s, True) for s in scripts.values()]
              + [_proof_query(mods, s, False) for s in _proof_mutants(mods, scripts)])
    rnd.shuffle(proofs)
    step = len(queries) // len(proofs)
    for k, proof in enumerate(proofs):
        queries.insert(k * (step + 1), proof)
    return queries


def _core_key(f) -> tuple:
    """Canonical form of ``f`` with Or, Imp, Iff, Bot and N rewritten into
    the core connectives, as ``formula.expand_sugar`` defines them."""
    cls = type(f).__name__
    if cls == "Atom":
        return ("Atom", f.name)
    if cls == "Top":
        return ("Top",)
    if cls == "Bot":
        return ("Not", ("Top",))
    if cls in ("Not", "Delta", "Box"):
        return (cls, _core_key(f.child))
    if cls == "Nabla":
        return ("Not", ("Delta", _core_key(f.child)))
    left, right = _core_key(f.left), _core_key(f.right)
    if cls == "And":
        return ("And", left, right)
    if cls == "Or":
        return ("Not", ("And", ("Not", left), ("Not", right)))
    if cls == "Imp":
        return ("Not", ("And", left, ("Not", right)))
    return ("And", ("Not", ("And", left, ("Not", right))),
            ("Not", ("And", right, ("Not", left))))


def _taut_rows(f) -> tuple[int, bool]:
    """Truth-table rows a tautology check of ``f`` evaluates, and whether
    ``f`` is a tautology instance: every maximal modal subformula becomes an
    atom, the rows run through the sorted atom names with the first most
    significant, and the check stops at the first falsifying row."""
    table: dict[tuple, str] = {}

    def abstract(k: tuple) -> tuple:
        if k[0] in ("Delta", "Box"):
            if k not in table:
                table[k] = f"#{len(table)}"
            return ("Atom", table[k])
        if k[0] == "Not":
            return ("Not", abstract(k[1]))
        if k[0] == "And":
            return ("And", abstract(k[1]), abstract(k[2]))
        return k

    skeleton = abstract(_core_key(f))

    def atoms(k: tuple) -> set[str]:
        return {k[1]} if k[0] == "Atom" else set().union(
            *(atoms(c) for c in k[1:] if isinstance(c, tuple)))

    def truth(k: tuple, row: dict[str, bool]) -> bool:
        if k[0] == "Atom":
            return row[k[1]]
        if k[0] == "Top":
            return True
        if k[0] == "Not":
            return not truth(k[1], row)
        return truth(k[1], row) and truth(k[2], row)

    names = sorted(atoms(skeleton))
    for index in range(1 << len(names)):
        row = {name: bool(index >> (len(names) - 1 - i) & 1)
               for i, name in enumerate(names)}
        if not truth(skeleton, row):
            return index + 1, False
    return 1 << len(names), True


def _count_taut_rows(tracer: Tracer, result, f, *_) -> None:
    rows, taut = _taut_rows(f)
    _expect(result == taut, f"is_taut_instance says {result} on {f}")
    tracer.counts["proofsys.taut_rows"] += rows


EVAL_LAYERS = (
    ("formula", "parse", None),
    ("semantics", "extension", None),
    ("transform", "c_variation", None),
    ("transform", "qf_variation", None),
    ("transform", "qf_to_kripke", None),
    ("proofsys", "check_proof", None),
    ("proofsys", "is_taut_instance", _count_taut_rows),
)


def eval_metrics(tracer: Tracer) -> dict[str, float]:
    t = tracer.layer_times()

    def us(name):
        return _mean(t[name]["total"], t[name]["calls"], 1e6)

    return {
        "formula.parse_us": us("formula.parse"),
        "formula.parse_calls": t["formula.parse"]["calls"],
        "semantics.extension_us": us("semantics.extension"),
        "semantics.extension_calls": t["semantics.extension"]["calls"],
        "proofsys.check_proof_us": us("proofsys.check_proof"),
        "proofsys.taut_rows": tracer.counts["proofsys.taut_rows"],
        "transform.c_variation_us": us("transform.c_variation"),
        "transform.qf_variation_us": us("transform.qf_variation"),
        "transform.qf_to_kripke_us": us("transform.qf_to_kripke"),
    }


# ---------------------------------------------------------------------------

SETUP_LAYERS = (
    ("generators", "admissible_space", None),
    ("generators", "random_model", None),
    ("generators", "random_kripke", None),
)


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    t = tracer.layer_times()
    rm, rk = t["generators.random_model"], t["generators.random_kripke"]
    return {
        "generators.admissible_s": t["generators.admissible_space"]["total"],
        "generators.random_model_ms": _mean(rm["total"] + rk["total"],
                                            rm["calls"] + rk["calls"], 1e3),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    fill_caches: Callable[[Any], None]
    make_round: Callable[[Any, random.Random], list[Query]]
    layers: tuple
    metrics: Callable[[Tracer], dict[str, float]]

    def round(self, mods, seed: int, index: int) -> list[Query]:
        """Round ``index`` of the run seeded ``seed``; the same on every run."""
        return self.make_round(mods, random.Random(f"{self.name}/{seed}/{index}"))

    def setup(self, mods, seed: int) -> list[Query]:
        self.fill_caches(mods)
        return self.round(mods, seed, 0)


WORKLOADS = {
    "sweep": Workload("sweep", sweep_caches, sweep_round, SWEEP_LAYERS,
                      sweep_metrics),
    "bisim": Workload("bisim", bisim_caches, bisim_round, BISIM_LAYERS,
                      bisim_metrics),
    "eval": Workload("eval", eval_caches, eval_round, EVAL_LAYERS,
                     eval_metrics),
}
