"""Known answers for the ``sweep`` workload, written by hand.

Each row is one CLI query (the global flags ``--format json --jobs 1`` are
added by the workload), the exit code it must return, the summary of its JSON
output it must produce (see ``summarize``), and the source of that answer.

Frame counts are closed forms for the number of frames of a class with 1 to n
states, each state's family chosen independently:

* all frames: a family is any set of subsets, (2^(2^n))^n frames at n states,
  so 4 + 256 = 260 up to 2 states.
* c-frames (closed under complements): choose a family of complementary
  pairs, (2^(2^(n-1)))^n, so 2 + 16 + 4096 = 4114 up to 3 states.
* cs- and csi-frames: a monotone complement-closed family is empty or holds
  every subset, 2^n frames, so 2 + 4 + 8 = 14 up to 3 states.
* filters (s, i, n): the principal filters {X : A <= X}, (2^n)^n, so 512 at
  3 states.
* quasi-filters (n, i, c, ws): {X : R <= X or R & X = {}} for a successor set
  R, where every R with at most one element gives the same family: (2^n - n)^n,
  so 1 + 4 + 125 = 130 up to 3 states.

The countermodel witnesses are worked by hand from the enumeration order
(states' family codes ascending, valuations ascending, first failing state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

C3 = 2 + 16 + 4096          # c-frames up to 3 states
CS3 = 2 + 4 + 8             # cs-frames (and csi-frames) up to 3 states
QF3 = 1 + 4 + 125           # quasi-filter frames up to 3 states
C2, CS2, QF2 = 2 + 16, 2 + 4, 1 + 4   # the same up to 2 states
ALL2 = 4 + 256              # all frames up to 2 states

# The first 1-state frame N(s0) = {{}, S} with p false: D p holds, p fails.
UNIT_AND_EMPTY = {"N": {"s0": [[], ["s0"]]}, "V": {"p": []}, "state": "s0"}


@dataclass(frozen=True)
class Row:
    args: tuple[str, ...]
    exit: int
    expect: dict[str, Any]
    source: str


def _audit(system: str, axioms: dict[str, int], source: str,
           max_states: int = 3) -> Row:
    return Row(("audit", "--system", system, "--max-states", str(max_states)), 0,
               {"ok": True,
                "axioms": {name: [True, frames] for name, frames in axioms.items()}},
               source)


def _defines(letter: str, max_states: int, frames: int) -> Row:
    return Row(("definability", "--builtin", letter,
                "--max-states", str(max_states)), 0,
               {"confirmed": True, "frames": frames},
               f"paper's definability table, row ({letter}); acceptance "
               f"criterion 9; frames: closed form")


def _countermodel(formula: str, klass: str, found: dict[str, Any] | None,
                  source: str, max_states: int = 3) -> Row:
    expect = {"found": False} if found is None else {"found": True, **found}
    return Row(("countermodel", "--formula", formula, "--class", klass,
                "--max-states", str(max_states)),
               0 if found is None else 1, expect, source)


def _enumerate(klass: str, states: int, count: int, source: str) -> Row:
    args = ("enumerate", "--states", str(states), "--count-only")
    if klass != "all":
        args += ("--class", klass)
    return Row(args, 0, {"count": count}, source)


_SOUND = {"E": "E is sound on c-frames (acceptance criterion 10)",
          "M": "M is sound on monotone c-frames (acceptance criterion 10)",
          "R": "R is sound on csi-frames (acceptance criterion 10)",
          "K": "K is sound on quasi-filters (acceptance criterion 10)"}

# The queries named for this workload are the 3-state sweeps; the same
# commands at 2 states are cheap and give the latency percentiles a dense
# middle, so that they do not jump between two far-apart queries.
ROWS: tuple[Row, ...] = (
    *(row for c, cs, qf, n in ((C3, CS3, QF3, 3), (C2, CS2, QF2, 2))
      for row in (
          _audit("E", {"ΔEqu": c}, _SOUND["E"], n),
          _audit("M", {"ΔEqu": cs, "ΔM": cs}, _SOUND["M"], n),
          _audit("R", {"ΔEqu": cs, "ΔM": cs, "ΔC": cs}, _SOUND["R"], n),
          _audit("K", {"ΔEqu": qf, "ΔTop": qf, "ΔCon": qf, "ΔDis": qf},
                 _SOUND["K"], n))),
    Row(("audit", "--system", "R", "--negative", "filter-deltaequ",
         "--max-states", "3"), 1,
        {"found": True, "N": {"s0": [["s0"]]}},
        "ΔEqu fails on the filter N(s0) = {S} (acceptance criterion 10)"),
    *(_defines(letter, n, frames) for n, frames in ((3, C3), (2, C2))
      for letter in "nisdtb45"),
    _defines("c", 2, ALL2),
    _defines("ws", 2, ALL2),
    _countermodel("D p -> p", "quasi-filter", UNIT_AND_EMPTY,
                  "(t) fails on quasi-filters (acceptance criterion 10)",
                  max_states=1),
    _countermodel("D p -> p", "c", UNIT_AND_EMPTY,
                  "(t) fails on c-frames; first c-frame with D p true "
                  "and p false"),
    _countermodel("N p", "c", UNIT_AND_EMPTY,
                  "(d) fails on c-frames; same first witness frame"),
    _countermodel("D p -> D D p", "c",
                  {"N": {"s0": [], "s1": [[], ["s0", "s1"]]},
                   "V": {"p": []}, "state": "s1"},
                  "(4) fails on c-frames; first witness is the 2-state "
                  "frame with codes (0, 9)"),
    _countermodel("D p <-> D ~p", "quasi-filter", None,
                  "ΔEqu is valid on c-frames, quasi-filters are c-frames"),
    _countermodel("D p & D q -> D(p & q)", "csi", None,
                  "ΔC is valid on csi-frames (system R is sound)"),
    _countermodel("D top", "quasi-filter", None,
                  "ΔTop is valid on frames with (n)"),
    *(row for n in (3, 2) for row in (
        _enumerate("c", n, (2 ** 2 ** (n - 1)) ** n, "closed form (2^(2^(n-1)))^n"),
        _enumerate("cs", n, 2 ** n, "closed form 2^n"),
        _enumerate("csi", n, 2 ** n, "closed form 2^n"),
        _enumerate("filter", n, (2 ** n) ** n, "closed form (2^n)^n"),
        _enumerate("quasi-filter", n, (2 ** n - n) ** n, "closed form (2^n - n)^n"))),
    _enumerate("all", 2, 256, "closed form (2^(2^n))^n; 16.8M frames at 3 "
               "states is too many for one query"),
)


def summarize(command: str, payload: dict[str, Any]) -> dict[str, Any]:
    """The part of a command's JSON output that a row's ``expect`` fixes."""
    if command == "audit" and "axioms" in payload:
        return {"ok": payload["ok"],
                "axioms": {a["axiom"]: [a["valid"], a["frames"]]
                           for a in payload["axioms"]}}
    if command == "audit":
        return {"found": payload["found"],
                "N": payload.get("frame", {}).get("N")}
    if command == "definability":
        return {"confirmed": payload["confirmed"], "frames": payload["frames"]}
    if command == "countermodel":
        if not payload["found"]:
            return {"found": False}
        return {"found": True, "N": payload["model"]["N"],
                "V": payload["model"]["V"], "state": payload["state"]}
    return {"count": payload["count"]}


def expected_frames(row: Row) -> int:
    """Frames a definability or audit row sweeps, by its closed form."""
    if "frames" in row.expect:
        return row.expect["frames"]
    return sum(frames for _, frames in row.expect.get("axioms", {}).values())
