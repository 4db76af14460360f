import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from delta_lab.cli import _build_parser, main, model_from_json, model_to_json
from delta_lab.model import KripkeModel, NeighborhoodModel

NBH = {"type": "neighborhood", "states": ["s", "t"],
       "N": {"s": [[], ["s", "t"]], "t": [[], ["s", "t"]]},
       "V": {"p": ["s"]}}
KRIPKE = {"type": "kripke", "states": ["s", "t"],
          "R": {"s": ["s", "t"], "t": []}, "V": {"p": ["s"]}}


@pytest.fixture
def nbh_path(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(NBH))
    return str(path)


@pytest.fixture
def kripke_path(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(KRIPKE))
    return str(path)


def test_model_json_round_trip():
    m = model_from_json(NBH)
    assert isinstance(m, NeighborhoodModel)
    assert model_from_json(model_to_json(m)) == m
    k = model_from_json(KRIPKE)
    assert isinstance(k, KripkeModel)
    assert model_from_json(model_to_json(k)) == k


def test_model_json_rejects_duplicates():
    bad = dict(NBH, V={"p": ["s", "s"]})
    from delta_lab.cli import CliError

    with pytest.raises(CliError, match="duplicate"):
        model_from_json(bad)


def test_eval_command(nbh_path, capsys):
    code = main(["eval", "--model", nbh_path, "--state", "s",
                 "--formula", "D p", "--semantics", "new"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "false"
    code = main(["eval", "--model", nbh_path, "--state", "s",
                 "--formula", "D top", "--semantics", "new"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_usage_errors(nbh_path, capsys):
    assert main(["eval", "--model", nbh_path, "--state", "zz",
                 "--formula", "D p", "--semantics", "new"]) == 2
    assert main(["eval", "--model", nbh_path, "--state", "s",
                 "--formula", "D p &", "--semantics", "new"]) == 2
    assert main(["eval", "--model", nbh_path, "--state", "s",
                 "--formula", "D p", "--semantics", "kripke"]) == 2
    capsys.readouterr()
    # nesting has no depth limit: a deep formula prints the value of its
    # shallow equivalent
    for deep, shallow in (("~" * 3000 + "p", "p"),
                          ("(" * 3000 + "p" + ")" * 3000, "p"),
                          ("D " * 2000 + "p", "D D p")):
        outs = []
        for text in (deep, shallow):
            assert main(["eval", "--model", nbh_path, "--state", "s",
                         "--formula", text, "--semantics", "new"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
    # and neither does a long flat chain
    assert main(["eval", "--model", nbh_path, "--state", "s",
                 "--formula", " & ".join(["p"] * 3000),
                 "--semantics", "new"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_transform_and_bisim_pipeline(tmp_path, nbh_path, kripke_path, capsys):
    assert main(["transform", "qf-variation", "--model", kripke_path]) == 0
    produced = json.loads(capsys.readouterr().out)
    assert produced["type"] == "neighborhood"
    assert produced["N"]["t"] == [[], ["s"], ["t"], ["s", "t"]]

    left = tmp_path / "left.json"
    left.write_text(json.dumps(produced))
    assert main(["bisim", "max", "--kind", "qf", "--left", str(left),
                 "--right", str(left)]) == 0
    out = capsys.readouterr().out
    assert "(s,s)" in out and "(t,t)" in out

    pairs = tmp_path / "z.json"
    pairs.write_text(json.dumps({"pairs": [["s", "s"], ["t", "t"]]}))
    assert main(["bisim", "check", "--kind", "qf", "--left", str(left),
                 "--right", str(left), "--pairs", str(pairs)]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    bad_pairs = tmp_path / "zz.json"
    bad_pairs.write_text(json.dumps({"pairs": [["s", "t"]]}))
    assert main(["bisim", "check", "--kind", "qf", "--left", str(left),
                 "--right", str(left), "--pairs", str(bad_pairs)]) == 1
    capsys.readouterr()

    only_ws = tmp_path / "only_ws.json"
    only_ws.write_text(json.dumps({
        "type": "neighborhood", "states": ["a", "b", "c", "d"],
        "N": dict.fromkeys("abcd", [[], ["a", "b"], ["c", "d"],
                                    ["a", "b", "c", "d"]])}))
    assert main(["bisim", "max", "--kind", "qf", "--left", str(left),
                 "--right", str(only_ws)]) == 2
    assert capsys.readouterr().err == (
        "error: qf bisimulation requires property (ws); "
        "it fails on the right model\n")


def test_definability_command(capsys):
    assert main(["definability", "--builtin", "c", "--max-states", "2"]) == 0
    assert "confirmed" in capsys.readouterr().out
    assert main(["definability", "--property", "d", "--formula", "N p",
                 "--background", "all", "--max-states", "1"]) == 1
    assert "counterexample" in capsys.readouterr().out


def test_audit_command(capsys):
    assert main(["audit", "--system", "K", "--max-states", "2"]) == 0
    out = capsys.readouterr().out
    assert "ΔTop: valid" in out and "ΔDis: valid" in out
    assert main(["audit", "--system", "R", "--negative", "filter-deltaequ",
                 "--max-states", "1"]) == 1
    assert "witness" in capsys.readouterr().out


def test_proof_check_command(tmp_path, capsys):
    script = [{"formula": "D p <-> D ~p", "by": "ΔEqu"}]
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(script, ensure_ascii=False))
    assert main(["proof-check", "--system", "E", "--script", str(path)]) == 0
    capsys.readouterr()
    bad = [{"formula": "D top", "by": "ΔTop"}]
    path.write_text(json.dumps(bad, ensure_ascii=False))
    assert main(["proof-check", "--system", "E", "--script", str(path)]) == 1
    assert "invalid line 1" in capsys.readouterr().out
    for malformed in ([{"formula": 5, "by": "TAUT"}], [{"formula": "p"}],
                      {"formula": "p", "by": "TAUT"}):
        path.write_text(json.dumps(malformed))
        assert main(["proof-check", "--system", "E",
                     "--script", str(path)]) == 2
        assert "malformed proof script" in capsys.readouterr().err
    chain = " & ".join(["p"] * 3000)
    deep = [{"formula": f"{chain} -> {chain}", "by": "TAUT"},
            {"formula": f"({chain} -> {chain}) -> top", "by": "TAUT"},
            {"formula": "top", "by": "MP 1 2"}]
    path.write_text(json.dumps(deep))
    assert main(["proof-check", "--system", "K", "--script", str(path)]) == 0
    assert capsys.readouterr().out == "ok (3 lines)\n"


def test_countermodel_command(capsys):
    assert main(["countermodel", "--formula", "D p -> p",
                 "--class", "quasi-filter", "--max-states", "1"]) == 1
    assert "falsified" in capsys.readouterr().out
    assert main(["countermodel", "--formula", "D p <-> D ~p",
                 "--class", "c", "--max-states", "2"]) == 0
    capsys.readouterr()


def test_enumerate_command(capsys):
    assert main(["enumerate", "--states", "1", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["enumerate", "--states", "2", "--class", "quasi-filter",
                 "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["--format", "json", "enumerate", "--states", "3", "--class",
                 "c", "--count-only", "--limit", "5"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": 5}
    assert main(["enumerate", "--states", "1", "--limit", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and json.loads(lines[0])["type"] == "neighborhood"


def test_equiv_partition_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "type": "neighborhood", "states": ["s", "t"],
        "N": {"s": [[], ["s", "t"]], "t": [[], ["s", "t"]]}, "V": {}}))
    assert main(["equiv-partition", "--models", str(path), "--vocab", "p",
                 "--semantics", "new"]) == 0
    out = capsys.readouterr().out
    assert "0:s" in out and "0:t" in out


def test_json_reports_are_byte_identical(capsys):
    main(["--format", "json", "definability", "--builtin", "t",
          "--max-states", "2"])
    first = capsys.readouterr().out
    main(["--format", "json", "definability", "--builtin", "t",
          "--max-states", "2"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["confirmed"] is True


def test_budget_env_override(tmp_path, nbh_path, monkeypatch, capsys):
    # the variable is read on every call, so the same argv in the same
    # process is refused, then runs, then is refused as malformed
    argv = ["countermodel", "--formula", "D p & D q & D r -> p",
            "--class", "c", "--max-states", "2"]
    monkeypatch.setenv("DELTA_LAB_BUDGET", "1")
    assert main(argv) == 2
    capsys.readouterr()
    monkeypatch.delenv("DELTA_LAB_BUDGET")
    assert main(argv) == 1
    assert capsys.readouterr().out == "falsified at state s0\n"
    for malformed in ("x", "-1"):
        monkeypatch.setenv("DELTA_LAB_BUDGET", malformed)
        assert main(argv) == 2, malformed
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, malformed
        assert err.startswith("error: DELTA_LAB_BUDGET: "), malformed
    # the flag wins over the variable
    assert main(["--budget", "24", *argv]) == 1
    capsys.readouterr()


def test_parser_is_reused_without_state(capsys):
    # alternating subcommands in one process: each call gets its own
    # defaults (--max-states 2, --class all), whatever the call before set
    for _ in range(2):
        assert main(["--format", "json", "countermodel", "--formula",
                     "D p <-> D ~p", "--class", "c", "--max-states", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"found": False,
                                                       "max_states": 3}
        assert main(["enumerate", "--states", "1", "--class", "c",
                     "--count-only"]) == 0
        assert capsys.readouterr().out == "2\n"
        assert main(["--format", "json", "countermodel", "--formula",
                     "D p <-> D ~p"]) == 1
        assert json.loads(capsys.readouterr().out)["found"] is True
        assert main(["--format", "json", "countermodel",
                     "--formula", "top"]) == 0
        assert json.loads(capsys.readouterr().out) == {"found": False,
                                                       "max_states": 2}
        assert main(["enumerate", "--states", "1", "--count-only"]) == 0
        assert capsys.readouterr().out == "4\n"
    assert _build_parser.cache_info().misses <= 1


def test_import_builds_no_parser():
    code = ("import delta_lab.cli as cli; "
            "print(cli._build_parser.cache_info().misses)")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0\n"


def test_usage_error_exit_code(tmp_path, nbh_path, capsys):
    assert main(["--help"]) == 0
    assert "usage: delta-lab" in capsys.readouterr().out
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps({"type": "neighborhood", "states": ["s"],
                                 "N": {"zz": [["s"]]}}))
    # a string where an array of names belongs is refused, not split into
    # characters
    strung = {}
    for name, data in (
            ("states", dict(NBH, states="st")),
            ("family", dict(NBH, N={"s": "st", "t": [["s", "t"]]})),
            ("valuation", dict(NBH, V={"p": "st"})),
            ("successors", dict(KRIPKE, R={"s": "st"})),
            ("pairs", {"pairs": ["st"]}), ("good", NBH)):
        strung[name] = tmp_path / f"{name}.json"
        strung[name].write_text(json.dumps(data))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"type": "kripke",
                                "states": [f"s{i}" for i in range(17)],
                                "R": {"s0": ["s1"]}}))
    for argv in (
            ["no-such-command"],
            ["eval", "--model", nbh_path, "--state", "s", "--formula", "p",
             "--semantics", "bogus"],
            ["--jobs", "x", "enumerate", "--states", "1"],
            ["eval", "--state", "s", "--formula", "p", "--semantics", "new"],
            ["audit", "--system", "Q"],
            ["audit", "--system", "E", "--negative", "zz"],
            ["eval", "--model", str(not_utf8), "--state", "s",
             "--formula", "p", "--semantics", "new"],
            ["transform", "c-variation", "--model", nbh_path,
             "--out", str(tmp_path / "no" / "such" / "x.json")],
            ["eval", "--model", str(stray), "--state", "s", "--formula", "p",
             "--semantics", "new"],
            *(["eval", "--model", str(strung[name]), "--state", "s",
               "--formula", "p", "--semantics", semantics]
              for name, semantics in (("states", "new"), ("family", "new"),
                                      ("valuation", "new"),
                                      ("successors", "kripke"))),
            ["bisim", "check", "--kind", "c", "--left", str(strung["good"]),
             "--right", str(strung["good"]), "--pairs", str(strung["pairs"])],
            ["transform", "qf-variation", "--model", str(wide)],
            ["enumerate", "--kind", "kripke", "--states", "2", "--class", "c"],
            ["enumerate", "--kind", "kripke", "--states", "2",
             "--mode", "random"],
            ["--jobs", "0", "enumerate", "--states", "1"],
            ["--jobs", "-2", "audit", "--system", "E", "--max-states", "1"],
            ["--budget", "-3", "enumerate", "--states", "1"],
            ["enumerate", "--states", "-1"],
            ["enumerate", "--states", "0", "--count-only"],
            ["enumerate", "--states", "2", "--class", "n,c,d",
             "--mode", "random"],
            ["definability", "--property", "zz", "--formula", "p"],
            ["definability", "--builtin", "i", "--max-states", "-1"],
            ["audit", "--system", "K", "--max-states", "0"],
            ["audit", "--system", "E", "--negative", "filter-deltaequ",
             "--max-states", "0"],
            ["countermodel", "--formula", "D p", "--max-states", "0"],
            ["--jobs", "2", "audit", "--system", "E", "--max-states", "4"],
            ["--jobs", "2", "definability", "--builtin", "i",
             "--max-states", "4"],
            ["enumerate", "--kind", "kripke", "--states", "5"],
            ["enumerate", "--states", "24", "--class", "cs",
             "--mode", "random"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv
        assert err.count("\n") == 1, argv


def test_huge_sizes_are_refused_at_once(capsys):
    for argv in (["enumerate", "--states", "1000000000"],
                 ["enumerate", "--kind", "kripke", "--states", "1000000000"],
                 ["enumerate", "--states", "1000000000", "--mode", "random"],
                 ["audit", "--system", "K", "--max-states", "1000000000"]):
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 0.1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, argv
        assert "16,777,216" in err, argv


def test_four_state_refusals_build_no_list(capsys, monkeypatch):
    # a shipped class's frame count has a closed form, so refusing 2^32
    # c-frames at 4 states filters none of the 2^16 family codes
    from delta_lab import generators

    def refuse(*args):
        raise AssertionError("an admissible list was built")

    monkeypatch.setattr(generators, "admissible_space", refuse)
    for argv in (["audit", "--system", "E", "--max-states", "4"],
                 ["enumerate", "--states", "4", "--class", "c",
                  "--count-only"]):
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 0.1, argv
        out, err = capsys.readouterr()
        assert out == "" and "4,294,967,296 frames" in err, argv
        assert err.count("\n") == 1, argv


def test_parallel_sweeps_match_sequential(capsys):
    for argv in (
            ["definability", "--builtin", "c", "--max-states", "2"],
            ["definability", "--property", "t", "--formula", "D p",
             "--background", "c", "--max-states", "2"],
            ["audit", "--system", "M", "--max-states", "2"],
            ["audit", "--system", "R", "--negative", "filter-deltaequ",
             "--max-states", "2"],
            ["countermodel", "--formula", "D p -> D D p", "--class", "c",
             "--max-states", "3"],
            ["definability", "--builtin", "5", "--max-states", "3"],
            ["countermodel", "--formula", "D p <-> D ~p", "--class", "c",
             "--max-states", "2"],
            ["enumerate", "--states", "2", "--class", "c", "--count-only"],
            ["audit", "--system", "K", "--max-states", "4"]):
        sequential = main(["--format", "json", "--jobs", "1", *argv])
        expected = capsys.readouterr().out
        assert main(["--format", "json", "--jobs", "2", *argv]) == sequential
        assert capsys.readouterr().out == expected, argv


def test_witness_frames_round_trip_through_model_format(capsys):
    assert main(["--format", "json", "definability", "--property", "d",
                 "--formula", "N p", "--background", "all",
                 "--max-states", "1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    frame = model_from_json(payload["frame"])
    assert isinstance(frame, NeighborhoodModel)
    assert main(["--format", "json", "countermodel", "--formula", "D p -> p",
                 "--class", "quasi-filter", "--max-states", "1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    model = model_from_json(payload["model"])
    assert payload["state"] in model.states


def test_bisim_max_reports_no_bisimilar_pairs(tmp_path, capsys):
    left = tmp_path / "l.json"
    left.write_text(json.dumps({
        "type": "neighborhood", "states": ["s"], "N": {"s": [[], ["s"]]},
        "V": {"p": ["s"]}}))
    right = tmp_path / "r.json"
    right.write_text(json.dumps({
        "type": "neighborhood", "states": ["t"], "N": {"t": [[], ["t"]]},
        "V": {"p": []}}))
    assert main(["bisim", "max", "--kind", "c", "--left", str(left),
                 "--right", str(right)]) == 0
    assert capsys.readouterr().out.strip() == "no bisimilar pairs"


def test_bisim_check_has_no_size_cap(tmp_path, capsys):
    # 13+13 states with z = {(s0, s0)} have 2^25 coherent pairs; the check
    # reads Z's partition and needs no budget
    names = [f"s{i}" for i in range(13)]
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"type": "neighborhood", "states": names,
                                 "N": {}}))
    pairs = tmp_path / "z.json"
    pairs.write_text(json.dumps({"pairs": [["s0", "s0"]]}))
    assert main(["--format", "json", "bisim", "check", "--kind", "nbh-delta",
                 "--left", str(model), "--right", str(model),
                 "--pairs", str(pairs)]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True}


def test_bisim_max_and_partition_on_32_blocks(tmp_path, capsys):
    # Four atoms pair l<i> with r<i> at depth 0 (16 blocks); r<i> sees two
    # blocks and l<i> none, so depth 1 has 32 blocks, whose unions no
    # command sweeps.
    import time

    names = [str(i) for i in range(16)]

    def kripke(prefix, succ):
        states = [prefix + s for s in names]
        return {"type": "kripke", "states": states,
                "R": {prefix + s: succ(int(s)) for s in names},
                "V": {f"p{k}": [prefix + s for s in names if int(s) >> k & 1]
                      for k in range(4)}}

    left, right = tmp_path / "l.json", tmp_path / "r.json"
    left.write_text(json.dumps(kripke("l", lambda i: [])))
    right.write_text(json.dumps(kripke(
        "r", lambda i: [f"r{i}", f"r{(i + 1) % 16}"])))
    start = time.perf_counter()
    assert main(["--format", "json", "bisim", "max", "--kind", "rel-delta",
                 "--left", str(left), "--right", str(right)]) == 0
    assert json.loads(capsys.readouterr().out) == {"pairs": []}
    assert main(["--format", "json", "equiv-partition", "--models", str(left),
                 str(right), "--vocab", "p0,p1,p2,p3",
                 "--semantics", "kripke"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["depth"] == 1 and len(payload["blocks"]) == 32
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("data, rule", [
    ({"states": ["s"], "N": {}}, "missing key 'type'"),
    ({"type": "kripke", "R": {}}, "missing key 'states'"),
    ([NBH], "must be a JSON object"),
    ("neighborhood", "must be a JSON object"),
    (7, "must be a JSON object"),
    (dict(NBH, V=[["s"]]), "V must be a JSON object"),
    (dict(NBH, N=[["s"]]), "N must be a JSON object"),
    (dict(KRIPKE, R=["s"]), "R must be a JSON object"),
])
def test_model_file_refusals_name_the_file(tmp_path, nbh_path, capsys,
                                           data, rule):
    # the multi-file commands must say which file is wrong, and what
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for argv in (["bisim", "max", "--kind", "c", "--left", nbh_path,
                  "--right", str(bad)],
                 ["bisim", "check", "--kind", "c", "--left", str(bad),
                  "--right", nbh_path, "--pairs", nbh_path],
                 ["equiv-partition", "--models", nbh_path, str(bad),
                  "--vocab", "p", "--semantics", "new"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith("error: ") and str(bad) in err, err
        assert rule in err, err


@pytest.mark.parametrize("data, rule", [
    ({"pair": [["s", "s"]]}, "missing key 'pairs'"),
    ([["s", "s"]], "must be a JSON object"),
    (None, "must be a JSON object"),
])
def test_pair_file_refusals_name_the_file(tmp_path, nbh_path, capsys,
                                          data, rule):
    bad = tmp_path / "z.json"
    bad.write_text(json.dumps(data))
    assert main(["bisim", "check", "--kind", "c", "--left", nbh_path,
                 "--right", nbh_path, "--pairs", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert str(bad) in err and rule in err, err
