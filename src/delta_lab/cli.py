"""Command-line front end and the JSON serialization of models and relations.

Model files:
  {"type": "neighborhood", "states": ["s", "t"],
   "N": {"s": [[], ["s", "t"]], "t": [[], ["s", "t"]]}, "V": {"p": ["s"]}}
  {"type": "kripke", "states": ["s", "t"],
   "R": {"s": ["s", "t"], "t": []}, "V": {"p": ["s"]}}

Sets are sorted arrays and duplicates are a validation error.  Pair-relation
files are {"pairs": [["s", "s'"], ...]}.  Exit codes: 0 the checked statement
holds (or the command just produced output), 1 a counterexample or violation
was found, 2 usage or validation error.  Every refusal, argparse's own
included, prints one ``error: ...`` line on stderr and nothing on stdout, and
exits with code 2; ``main`` is the only place that maps an exception to it.
``--budget`` bounds valuation sweeps only; without the flag it is read from
DELTA_LAB_BUDGET (default 24) on every call.  ``bisim check``, ``bisim max``
and ``equiv-partition`` run in time polynomial in the models and need no
budget.  ``proof-check`` does not read it either: its ``TAUT`` lines are
checked under the default budget of 24 atoms.  ``--budget`` does not lift
the enumeration limit: a frame sweep or ``enumerate`` over more than
``generators.MAX_ENUMERATION`` frames (or family codes, or states named by
the family members that random sampling or ``transform qf-variation`` could
build) at one size is refused, with exit code 2.

``--jobs N`` runs the frame sweeps of ``definability``, ``audit`` (with or
without ``--negative``) and ``countermodel`` in up to N worker processes,
clamped to the CPU count, through ``generators.sweep``; the output is the
same as with ``--jobs 1``.  ``enumerate`` always streams serially.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any

from . import bisim, definability, generators, proofsys, transform
from .formula import Formula, ParseError, parse
from .model import (BudgetError, FrameProperty, KripkeModel,
                    NeighborhoodModel, frame_class, validate)
from .semantics import MAX_BITS, SemanticsKind, evaluate

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2


class CliError(argparse.ArgumentTypeError):
    """Invalid flags or input files; maps to exit code 2.  Raised by a flag's
    ``type``, argparse reports its text as that flag's error."""


# ---------------------------------------------------------------------------
# Serialization.

def _is_strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _sorted_set(names: Any, what: str) -> list[str]:
    if not _is_strings(names):
        raise CliError(f"{what} must be an array of state names")
    if len(set(names)) != len(names):
        raise CliError(f"duplicate entries in {what}")
    return sorted(names)


def _require(data: Any, keys: tuple[str, ...], what: str) -> None:
    """Refuse anything but a JSON object that holds every one of ``keys``."""
    if not isinstance(data, dict):
        raise CliError(f"{what}: must be a JSON object")
    for key in keys:
        if key not in data:
            raise CliError(f"{what}: missing key {key!r}")


def _section(data: dict[str, Any], key: str) -> dict[str, Any]:
    """The optional JSON object ``data[key]``, empty when absent."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise CliError(f"{key} must be a JSON object")
    return value


def model_to_json(m: NeighborhoodModel | KripkeModel) -> dict[str, Any]:
    out: dict[str, Any] = {"states": sorted(m.states)}
    if isinstance(m, NeighborhoodModel):
        out["type"] = "neighborhood"
        out["N"] = {name: sorted((list(m.names(x)) for x in m.neighborhoods[i]),
                                 key=lambda xs: (len(xs), xs))
                    for i, name in enumerate(m.states)}
    else:
        out["type"] = "kripke"
        out["R"] = {name: list(m.names(m.succ[i]))
                    for i, name in enumerate(m.states)}
    out["V"] = {atom: list(m.names(mask))
                for atom, mask in sorted(m.valuation.items())}
    return out


def model_from_json(data: dict[str, Any]) -> NeighborhoodModel | KripkeModel:
    _require(data, ("type", "states"), "malformed model file")
    try:
        kind = data["type"]
        states = _sorted_set(data["states"], "states")
        valuation = {atom: _sorted_set(group, f"V[{atom}]")
                     for atom, group in _section(data, "V").items()}
        if kind == "neighborhood":
            nbhd = {}
            for name, groups in _section(data, "N").items():
                if not isinstance(groups, list):
                    raise CliError(f"N[{name}] must be an array of arrays")
                seen = [tuple(_sorted_set(g, f"N[{name}]")) for g in groups]
                if len(set(seen)) != len(seen):
                    raise CliError(f"duplicate neighborhoods at N[{name}]")
                nbhd[name] = seen
            m = NeighborhoodModel.from_names(states, nbhd, valuation)
        elif kind == "kripke":
            succ = {name: _sorted_set(group, f"R[{name}]")
                    for name, group in _section(data, "R").items()}
            m = KripkeModel.from_names(states, succ, valuation)
        else:
            raise CliError(f"unknown model type {kind!r}")
    except CliError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CliError(f"malformed model file: {exc}") from exc
    problems = validate(m)
    if problems:
        raise CliError("invalid model: " + "; ".join(problems))
    return m


def _read_json(path: str) -> Any:
    """The decoded contents of a JSON file, or one refusal naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSON or UTF-8 decoding
        raise CliError(f"{path} is not valid UTF-8 JSON: {exc}") from exc


def load_model(path: str) -> NeighborhoodModel | KripkeModel:
    data = _read_json(path)
    try:
        return model_from_json(data)
    except CliError as exc:
        raise CliError(f"{path}: {exc}") from exc


def load_pairs(path: str) -> bisim.PairRelation:
    data = _read_json(path)
    _require(data, ("pairs",), f"malformed pair-relation file {path}")
    pairs = data["pairs"]
    if not isinstance(pairs, list) or not all(
            _is_strings(pair) and len(pair) == 2 for pair in pairs):
        raise CliError(f"malformed pair-relation file {path}: pairs must be "
                       f"arrays of two state names")
    return bisim.PairRelation.of(tuple(pair) for pair in pairs)


def _witness_json(m, check) -> dict[str, Any]:
    return {"valuation": {atom: list(m.names(mask))
                          for atom, mask in sorted(check.valuation.items())},
            "state": check.state}


def _emit(args, payload: dict[str, Any], human: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    else:
        print(human)


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_eval(args) -> int:
    m = load_model(args.model)
    value = evaluate(m, args.state, args.formula, SemanticsKind(args.semantics))
    _emit(args, {"value": value}, str(value).lower())
    return EXIT_OK


def _cmd_transform(args) -> int:
    convert = {"c-variation": transform.c_variation,
               "qf-variation": transform.qf_variation,
               "qf-to-kripke": transform.qf_to_kripke}[args.kind]
    out = convert(load_model(args.model))
    text = json.dumps(model_to_json(out), sort_keys=True, ensure_ascii=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_bisim(args) -> int:
    left, right = load_model(args.left), load_model(args.right)
    kind = bisim.BisimKind(args.kind)
    if args.action == "check":
        if not args.pairs:
            raise CliError("bisim check needs --pairs")
        verdict = bisim.check_bisim(kind, load_pairs(args.pairs), left, right)
        payload = {"ok": verdict.ok}
        if not verdict.ok:
            payload["pair"] = list(verdict.pair)
            payload["reason"] = verdict.reason
            if verdict.witness:
                payload["witness"] = [list(w) for w in verdict.witness]
            _emit(args, payload,
                  f"violation at pair {verdict.pair}: {verdict.reason}")
            return EXIT_FOUND
        _emit(args, payload, "ok")
        return EXIT_OK
    z = bisim.max_bisim(kind, left, right)
    payload = {"pairs": sorted(list(p) for p in z.pairs)}
    human = ("no bisimilar pairs" if not z.pairs else
             " ".join(f"({a},{b})" for a, b in sorted(z.pairs)))
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_equiv_partition(args) -> int:
    models = [load_model(path) for path in args.models]
    vocab = [v for v in args.vocab.split(",") if v]
    part = bisim.logical_equiv_partition(models, vocab,
                                         SemanticsKind(args.semantics))
    blocks = [sorted(f"{mi}:{models[mi].states[s]}" for mi, s in block)
              for block in part.blocks_at(part.depth)]
    payload = {"depth": part.depth, "blocks": sorted(blocks)}
    human = f"depth {part.depth}: " + " | ".join(
        "{" + ", ".join(b) + "}" for b in sorted(blocks))
    _emit(args, payload, human)
    return EXIT_OK


def _cmd_definability(args) -> int:
    if args.builtin:
        claim = definability.builtin_claim(args.builtin)
    elif args.property and args.formula:
        claim = definability.DefinabilityClaim(
            FrameProperty.from_letter(args.property), args.formula,
            args.background)
    else:
        raise CliError("give either --builtin or both --property and --formula")
    result = definability.defines(claim, args.max_states,
                                  max_bits=args.budget, jobs=args.jobs)
    if result.confirmed:
        _emit(args, {"confirmed": True, "frames": result.frames_checked},
              f"confirmed ({result.frames_checked} frames)")
        return EXIT_OK
    counter = result.counterexample
    payload = {"confirmed": False, "frames": result.frames_checked,
               "direction": counter.direction,
               "frame": model_to_json(counter.frame)}
    if counter.witness is not None:
        payload["witness"] = _witness_json(counter.frame, counter.witness)
    _emit(args, payload,
          f"counterexample after {result.frames_checked} frames "
          f"({counter.direction})")
    return EXIT_FOUND


def _cmd_audit(args) -> int:
    if args.negative:
        witness = proofsys.filter_equ_witness(args.max_states, args.budget,
                                              args.jobs)
        if witness is None:
            _emit(args, {"found": False}, "no witness up to the bound")
            return EXIT_OK
        frame, check = witness
        _emit(args, {"found": True, "frame": model_to_json(frame),
                     "witness": _witness_json(frame, check)},
              f"witness frame found; falsified at state {check.state}")
        return EXIT_FOUND
    report = proofsys.audit_soundness(proofsys.AxiomSystem(args.system),
                                      args.max_states, args.budget, args.jobs)
    lines = []
    payload_axioms = []
    for audit in report.axioms:
        status = "valid" if audit.valid else "INVALID"
        lines.append(f"{audit.name}: {status} "
                     f"({audit.frames_checked} frames)")
        entry = {"axiom": audit.name, "valid": audit.valid,
                 "frames": audit.frames_checked}
        if audit.counterexample:
            frame, check = audit.counterexample
            entry["frame"] = model_to_json(frame)
            entry["witness"] = _witness_json(frame, check)
        payload_axioms.append(entry)
    _emit(args, {"system": args.system, "ok": report.ok,
                 "axioms": payload_axioms}, "\n".join(lines))
    return EXIT_OK if report.ok else EXIT_FOUND


def _cmd_proof_check(args) -> int:
    raw = _read_json(args.script)
    try:
        script = proofsys.parse_script(raw)
    except ValueError as exc:  # a formula or the script's shape
        raise CliError(
            f"{args.script}: malformed proof script: {exc}") from exc
    verdict = proofsys.check_proof(proofsys.AxiomSystem(args.system), script)
    if verdict.ok:
        _emit(args, {"ok": True, "lines": len(script)},
              f"ok ({len(script)} lines)")
        return EXIT_OK
    _emit(args, {"ok": False, "line": verdict.line, "reason": verdict.reason},
          f"invalid line {verdict.line}: {verdict.reason}")
    return EXIT_FOUND


def _cmd_countermodel(args) -> int:
    found = proofsys.countermodel_search(args.formula, args.klass,
                                         args.max_states, args.budget,
                                         args.jobs)
    if found is None:
        _emit(args, {"found": False, "max_states": args.max_states},
              f"none up to {args.max_states} states")
        return EXIT_OK
    model, state = found
    _emit(args, {"found": True, "model": model_to_json(model), "state": state},
          f"falsified at state {state}")
    return EXIT_FOUND


def _cmd_enumerate(args) -> int:
    if args.kind == "kripke" and (args.klass or args.mode == "random"):
        raise CliError("--class and --mode random apply to neighborhood "
                       "frames; --kind kripke enumerates every Kripke frame")
    props = frame_class(args.klass) if args.klass else frozenset()
    spec = generators.GenSpec(n_states=args.states, properties=props,
                              seed=args.seed, mode=args.mode, count=args.count)
    if args.kind == "kripke":
        stream = generators.enum_kripke_frames(spec)
    elif args.count_only:
        total = generators.count_frames(spec, args.limit)
        _emit(args, {"count": total}, str(total))
        return EXIT_OK
    else:
        stream = generators.enum_frames(spec)
    total = 0
    for frame in stream:
        total += 1
        if not args.count_only:
            print(json.dumps(model_to_json(frame), sort_keys=True,
                             ensure_ascii=False))
        if args.limit and total >= args.limit:
            break
    if args.count_only:
        _emit(args, {"count": total}, str(total))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.

class _Parser(argparse.ArgumentParser):
    """An argparse error raises CliError, so it too prints as one line."""

    def error(self, message: str):
        raise CliError(message)


def _at_least(least: int):
    """``type`` of an integer flag.  Below its least value a sweep would cover
    no frames (and report a vacuous verdict) or run with no workers."""
    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise CliError(f"not an integer: {text!r}") from None
        if value < least:
            raise CliError(f"must be at least {least}, got {value}")
        return value
    return check


_budget = _at_least(0)


def _formula(text: str) -> Formula:
    try:
        return parse(text)
    except ParseError as exc:
        raise CliError(f"bad formula: {exc}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call to ``main``.  It keeps no
    per-call state: ``--budget`` defaults to None, and ``main`` reads
    DELTA_LAB_BUDGET for each call."""
    semantics = tuple(k.value for k in SemanticsKind)
    systems = tuple(s.value for s in proofsys.AxiomSystem)
    top = _Parser(
        prog="delta-lab",
        description="finite-model workbench for non-contingency logic")
    top.add_argument("--format", choices=("human", "json"), default="human")
    top.add_argument("--jobs", type=_at_least(1), default=1)
    top.add_argument("--budget", type=_budget,
                     help="valuation-sweep budget in bits: a frame sweep "
                          "over more than 2^N valuations is refused "
                          f"(default: DELTA_LAB_BUDGET, else {MAX_BITS})")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula at a state")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--formula", required=True, type=_formula)
    p.add_argument("--semantics", required=True, choices=semantics)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("transform", help="convert a model between presentations")
    p.add_argument("kind",
                   choices=("c-variation", "qf-variation", "qf-to-kripke"))
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("bisim", help="check a relation or compute bisimilarity")
    p.add_argument("action", choices=("check", "max"))
    p.add_argument("--kind", required=True,
                   choices=tuple(k.value for k in bisim.BisimKind))
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--pairs", help="pair-relation file (check only)")
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("equiv-partition",
                       help="logical-equivalence blocks of model states")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--vocab", required=True, help="comma-separated atoms")
    p.add_argument("--semantics", default="new", choices=semantics)
    p.set_defaults(func=_cmd_equiv_partition)

    p = sub.add_parser("definability", help="verify a definability claim")
    p.add_argument("--builtin", help="property letter from the builtin table")
    p.add_argument("--property")
    p.add_argument("--formula", type=_formula)
    p.add_argument("--background", default="all", choices=("all", "c"))
    p.add_argument("--max-states", type=_at_least(1), default=2)
    p.set_defaults(func=_cmd_definability)

    p = sub.add_parser("audit", help="axiom soundness sweep")
    p.add_argument("--system", required=True, choices=systems)
    p.add_argument("--max-states", type=_at_least(1), default=2)
    p.add_argument("--negative", choices=("filter-deltaequ",),
                   help="named negative claim")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("proof-check", help="check a Hilbert-style proof script")
    p.add_argument("--system", required=True, choices=systems)
    p.add_argument("--script", required=True)
    p.set_defaults(func=_cmd_proof_check)

    p = sub.add_parser("countermodel", help="bounded countermodel search")
    p.add_argument("--formula", required=True, type=_formula)
    p.add_argument("--class", dest="klass", default="all")
    p.add_argument("--max-states", type=_at_least(1), default=2)
    p.set_defaults(func=_cmd_countermodel)

    p = sub.add_parser("enumerate", help="stream frames matching a filter")
    p.add_argument("--kind", choices=("frames", "kripke"), default="frames")
    p.add_argument("--states", type=_at_least(1), required=True)
    p.add_argument("--class", dest="klass", default="")
    p.add_argument("--mode", choices=("exhaustive", "random"),
                   default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(0), default=10)
    p.add_argument("--limit", type=_at_least(0), default=0)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)
    return top


def _env_budget() -> int:
    text = os.environ.get("DELTA_LAB_BUDGET", str(MAX_BITS))
    try:
        return _budget(text)
    except CliError as exc:
        raise CliError(f"DELTA_LAB_BUDGET: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.budget is None:
            args.budget = _env_budget()
        return args.func(args)
    except SystemExit as exc:  # --help; argparse errors raise CliError
        return exc.code
    except (CliError, BudgetError, generators.GenerationError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
