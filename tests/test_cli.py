import argparse
import json
import sys
import time
from types import SimpleNamespace

import pytest

from finmodel import cli
from finmodel.graph import cycle_graph, make_graph
from finmodel.serialize import graph_to_json, structure_to_json
from finmodel.universe import build_hierarchy

from conftest import is_fm_report, run_fm


@pytest.fixture()
def fixtures(tmp_path):
    (tmp_path / "v3.json").write_text(
        json.dumps(structure_to_json(build_hierarchy(3).structure))
    )
    (tmp_path / "v4.json").write_text(
        json.dumps(structure_to_json(build_hierarchy(4).structure))
    )
    (tmp_path / "c3.json").write_text(json.dumps(graph_to_json(cycle_graph(3))))
    (tmp_path / "c4.json").write_text(json.dumps(graph_to_json(cycle_graph(4))))
    (tmp_path / "k4.json").write_text(
        json.dumps(graph_to_json(make_graph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])))
    )
    (tmp_path / "pack.json").write_text(
        json.dumps({"name": "empty-set", "formulas": ["Ex Ay ~(y in x)"]})
    )
    bad_split = [
        graph_to_json(make_graph(range(4), [(0, 1), (2, 3)])),
        graph_to_json(make_graph(range(4), [(1, 2), (0, 3)])),
    ]
    (tmp_path / "bad_split.json").write_text(json.dumps(bad_split))
    (tmp_path / "stages.json").write_text(json.dumps([[], [0, 1, 3], [0, 1, 2, 3, 5, 6]]))
    (tmp_path / "family.json").write_text(json.dumps([[1, 2], [1, 3], [1, 4]]))
    (tmp_path / "map.json").write_text(json.dumps({"1": [2], "2": []}))
    (tmp_path / "corpus.json").write_text(
        json.dumps({"generator": {"model": "gnp", "n": 3, "p": 0.5, "count": 4}, "seed": 5})
    )
    return tmp_path


def test_eval_reports_value(fixtures):
    proc = run_fm(
        ["eval", "--structure", "v3.json", "--formula", "Ex Ay ~(y in x)"], fixtures
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema"] == "fm-report/1"
    assert report["result"] == {"value": True}


def test_hull_validates(fixtures):
    proc = run_fm(
        ["hull", "--structure", "v4.json", "--pack", "pack.json",
         "--seed-elems", "0,1", "--validate"],
        fixtures,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["validated"] is True
    assert set(result["seed"]) <= set(result["carrier"])


def test_bondfaithful_check_violation_exit(fixtures):
    proc = run_fm(
        ["bondfaithful", "check", "--graph", "c4.json",
         "--parts", "bad_split.json", "--kappa", "2"],
        fixtures,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout)["result"]
    assert result["verdict"] is False
    assert result["foreign_bonds"]


def test_probe_counterexample_exit(fixtures):
    proc = run_fm(
        ["probe", "--graph", "c3.json", "--pack", "path-existence", "--property", "nw"],
        fixtures,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout)["result"]
    assert result["counterexample_count"] >= 1


def test_usage_error_exit_codes(fixtures):
    assert run_fm(["eval", "--structure", "missing.json", "--formula", "x = x"], fixtures).returncode == 2
    assert run_fm(["no-such-command"], fixtures).returncode == 2
    assert run_fm(["eval", "--structure", "v3.json", "--formula", "(x in"], fixtures).returncode == 2


def test_budget_exit_code(fixtures):
    proc = run_fm(
        ["eval", "--structure", "v4.json", "--formula", "Ex Ey Ez (x in (y))"],
        fixtures,
        env_extra={"FM_EVAL_BUDGET": "5"},
    )
    # "(y)" is not a term: a parse error stays a usage error under a budget
    assert proc.returncode == 2
    assert proc.stderr.startswith("fm: error:")
    # formula text is fine; the budget dies first
    proc = run_fm(
        ["eval", "--structure", "v4.json", "--formula", "Ex Ey Ez ((x in y) | (y in z))"],
        fixtures,
        env_extra={"FM_EVAL_BUDGET": "5"},
    )
    assert proc.returncode == 3
    assert "budget" in proc.stderr


def test_budget_zero_is_honoured(fixtures):
    proc = run_fm(
        ["--budget", "0", "eval", "--structure", "v4.json",
         "--formula", "Ex Ey ((x in y) | (y in x))"],
        fixtures,
    )
    assert proc.returncode == 3
    assert "budget" in proc.stderr


def test_sampled_bond_faithful_pass_exits_3(fixtures):
    # a 22-vertex path is past the 20-vertex enumeration cap, where a pass
    # once rested on sampled host bonds and exited 3; its blocks are its
    # edges, split by no partition, so every answer is exact
    (fixtures / "path22.json").write_text(
        json.dumps(graph_to_json(make_graph(range(22), [(i, i + 1) for i in range(21)])))
    )
    singles = [graph_to_json(make_graph([i, i + 1], [(i, i + 1)])) for i in range(21)]
    (fixtures / "singles.json").write_text(json.dumps(singles))
    pairs = [
        graph_to_json(make_graph([i, i + 1, i + 2], [(i, i + 1), (i + 1, i + 2)]))
        for i in range(0, 20, 2)
    ] + [graph_to_json(make_graph([20, 21], [(20, 21)]))]
    (fixtures / "pairs.json").write_text(json.dumps(pairs))

    search = run_fm(["bondfaithful", "search", "--graph", "path22.json", "--kappa", "1"], fixtures)
    assert search.returncode == 0
    result = json.loads(search.stdout)["result"]
    assert result["status"] == "found" and result["report"]["sampled"] is False

    check = run_fm(
        ["bondfaithful", "check", "--graph", "path22.json", "--parts", "singles.json", "--kappa", "1"],
        fixtures,
    )
    assert check.returncode == 0
    result = json.loads(check.stdout)["result"]
    assert result["verdict"] is True and result["sampled"] is False

    # the pairs are oversized at kappa 1, and hold whole blocks
    failing = run_fm(
        ["bondfaithful", "check", "--graph", "path22.json", "--parts", "pairs.json", "--kappa", "1"],
        fixtures,
    )
    assert failing.returncode == 1
    result = json.loads(failing.stdout)["result"]
    assert result["oversized_members"] == list(range(10)) and result["split_bonds"] == []
    assert result["sampled"] is False


def test_member_bonds_past_the_cap_are_sampled(fixtures):
    # a 22-vertex member holding the whole 22-vertex path splits no block,
    # so neither its bonds nor the host's are enumerated, and the pass is
    # exact
    path = make_graph(range(22), [(i, i + 1) for i in range(21)])
    (fixtures / "path22.json").write_text(json.dumps(graph_to_json(path)))
    (fixtures / "whole.json").write_text(json.dumps([graph_to_json(path)]))
    search = run_fm(["bondfaithful", "search", "--graph", "path22.json", "--kappa", "25"], fixtures)
    assert search.returncode == 0, search.stderr
    result = json.loads(search.stdout)["result"]
    assert result["status"] == "found" and result["report"]["verdict"] is True
    assert result["report"]["sampled"] is False
    check = run_fm(
        ["bondfaithful", "check", "--graph", "path22.json", "--parts", "whole.json", "--kappa", "25"],
        fixtures,
    )
    assert check.returncode == 0, check.stderr
    result = json.loads(check.stdout)["result"]
    assert result["verdict"] is True and result["sampled"] is False


def test_bond_faithful_checks_past_the_cap_enumerate_split_blocks_only(fixtures):
    # two 12-cycles sharing vertex 0 make a connected 23-vertex host, past
    # the 20-vertex enumeration cap, with two blocks of 12 vertices
    first = [tuple(sorted((i, (i + 1) % 12))) for i in range(12)]
    ring = [0, *range(12, 23)]
    second = [tuple(sorted((ring[i], ring[(i + 1) % 12]))) for i in range(12)]
    host = make_graph(range(23), first + second)
    (fixtures / "twin.json").write_text(json.dumps(graph_to_json(host)))

    def parts(name, *edge_lists):
        (fixtures / name).write_text(json.dumps(
            [graph_to_json(make_graph({v for e in es for v in e}, es)) for es in edge_lists]
        ))

    def check(graph, parts_file, kappa):
        return run_fm(["bondfaithful", "check", "--graph", graph, "--parts", parts_file,
                       "--kappa", str(kappa)], fixtures)

    parts("by_cycle.json", first, second)
    passed = check("twin.json", "by_cycle.json", 12)
    assert passed.returncode == 0, passed.stderr
    assert json.loads(passed.stdout)["result"]["verdict"] is True

    # halving the second cycle splits its block: each of the 36 pairs of
    # edges, one from each half, is a host bond no part holds, and each
    # edge of a half is a bond of its part but not of the host
    parts("halved.json", first, second[:6], second[6:])
    failed = check("twin.json", "halved.json", 12)
    assert failed.returncode == 1, failed.stderr
    result = json.loads(failed.stdout)["result"]
    assert sorted(sorted(map(tuple, b)) for b in result["split_bonds"]) == sorted(
        sorted([e, f]) for e in second[:6] for f in second[6:]
    )
    assert len(result["foreign_bonds"]) == 12 and result["sampled"] is False

    # a 24-cycle cut in halves splits a block of 24 vertices: an input
    # error that names the block and the cap; at kappa 1 no block has a
    # bond to list, and the single edges pass
    c24 = make_graph(range(24), [(i, (i + 1) % 24) for i in range(24)])
    (fixtures / "c24.json").write_text(json.dumps(graph_to_json(c24)))
    half = sorted(c24.edges)
    parts("c24_halves.json", half[:12], half[12:])
    usage = check("c24.json", "c24_halves.json", 12)
    assert usage.returncode == 2
    assert "split block at edge [0, 1] has 24 vertices" in usage.stderr
    assert "cap of 20" in usage.stderr
    parts("c24_singles.json", *[[e] for e in half])
    assert check("c24.json", "c24_singles.json", 1).returncode == 0
    search = run_fm(["bondfaithful", "search", "--graph", "c24.json", "--kappa", "1"], fixtures)
    assert search.returncode == 0
    assert json.loads(search.stdout)["result"]["status"] == "found"


def test_bondfaithful_search_spends_its_budget(fixtures):
    # K4 plus a 3-edge tail has 9 edges; its 6-edge block decides: no
    # bond-faithful decomposition at kappa 3, and K4 with the tail edges
    # at kappa 6
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    G = make_graph(range(7), k4 + [(3, 4), (4, 5), (5, 6)])
    (fixtures / "k4tail.json").write_text(json.dumps(graph_to_json(G)))
    absent = run_fm(["bondfaithful", "search", "--graph", "k4tail.json", "--kappa", "3"], fixtures)
    assert absent.returncode == 1
    assert json.loads(absent.stdout)["result"]["status"] == "proven-absent"
    found = run_fm(["bondfaithful", "search", "--graph", "k4tail.json", "--kappa", "6"], fixtures)
    assert found.returncode == 0
    result = json.loads(found.stdout)["result"]
    assert result["status"] == "found" and len(result["parts"]) == 4


# each --validate handler, with the oracle name it calls replaced by a
# lying stand-in, must report "validated": false and exit 1
_LYING_ORACLES = [
    (["hull", "--structure", "v4.json", "--pack", "pack.json", "--seed-elems", "0,1"],
     "verify_hull", lambda *a: False),
    (["chain", "--structure", "v4.json", "--pack", "pairing"],
     "is_sigma_elementary", lambda *a: False),
    (["graph", "bonds", "--graph", "c4.json"], "bonds_by_definition", lambda G: []),
    (["graph", "gamma", "--graph", "c4.json", "--x", "0", "--y", "2"],
     "edge_connectivity_brute", lambda *a: -1),
    (["graph", "veblen", "--graph", "c4.json"], "is_cycle", lambda p: False),
    (["graph", "bridges", "--graph", "c4.json"], "bridges_by_deletion", lambda G: [(0, 1)]),
    (["graph", "dcc", "--graph", "c3.json"], "is_double_cover", lambda *a: False),
    (["bondfaithful", "check", "--graph", "c4.json", "--parts", "singles.json", "--kappa", "1"],
     "bond_faithful_by_definition", lambda *a: False),
    (["bondfaithful", "search", "--graph", "c4.json", "--kappa", "1"],
     "first_bond_faithful_partition", lambda *a: None),
    (["sunflower", "max", "--family", "family.json"],
     "max_sunflower_by_kernels", lambda family: SimpleNamespace(indices=())),
    (["sunflower", "trace", "--family", "family.json"], "is_maximal_for_kernel", lambda *a: False),
    (["freeset", "--map", "map.json"], "is_free", lambda *a: False),
]


@pytest.mark.parametrize(
    "argv, oracle, liar", _LYING_ORACLES, ids=[case[1] for case in _LYING_ORACLES]
)
def test_failed_validation_exits_1(fixtures, monkeypatch, capsys, argv, oracle, liar):
    singles = [graph_to_json(make_graph([u, v], [(u, v)])) for u, v in cycle_graph(4).edges]
    (fixtures / "singles.json").write_text(json.dumps(singles))
    monkeypatch.chdir(fixtures)
    assert cli.main(argv + ["--validate"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["validated"] is True
    monkeypatch.setattr(cli, oracle, liar)
    assert cli.main(argv + ["--validate"]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["validated"] is False


def _subcommands(parser, prefix=()):
    """Each leaf subcommand of *parser*, as its words, with its parser."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield " ".join(prefix), parser
    for action in actions:
        for name, sub in action.choices.items():
            yield from _subcommands(sub, (*prefix, name))


def test_exactly_the_routed_subcommands_take_validate():
    validated = {
        name for name, p in _subcommands(cli.build_parser())
        if any("--validate" in a.option_strings for a in p._actions)
    }
    assert validated == set(cli.ROUTES) == {
        "hull", "chain", "graph bonds", "graph gamma", "graph veblen", "graph bridges",
        "graph dcc", "bondfaithful check", "bondfaithful search", "sunflower", "freeset",
    }


def test_bondfaithful_search_validates_status_and_parts(fixtures, monkeypatch, capsys):
    # proven-absent is judged by the oracle's existence answer alone,
    # found parts by the definition too; DOT output carries no answer to
    # judge
    monkeypatch.chdir(fixtures)
    search = ["bondfaithful", "search", "--graph", "c4.json", "--validate", "--kappa"]
    assert cli.main(search + ["2"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == {"status": "proven-absent", "validated": True}
    # the oracle walks edge partitions, so it takes at most 12 edges
    rows = [(v, v + 1) for v in range(12) if v % 4 < 3]
    grid = make_graph(range(12), rows + [(v, v + 4) for v in range(8)])
    (fixtures / "grid.json").write_text(json.dumps(graph_to_json(grid)))
    assert cli.main(["bondfaithful", "search", "--graph", "grid.json", "--kappa", "3", "--validate"]) == 2
    assert capsys.readouterr() == ("", "fm: error: 17 edges exceed the partition gate\n")
    with monkeypatch.context() as m:
        m.setattr(cli, "first_bond_faithful_partition", lambda *a: [])
        assert cli.main(search + ["2"]) == 1
        assert json.loads(capsys.readouterr().out)["result"]["validated"] is False
    monkeypatch.setattr(cli, "bond_faithful_by_definition", lambda *a: False)
    assert cli.main(search + ["1"]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["validated"] is False
    assert cli.main(["--format", "dot"] + search + ["1"]) == 0
    assert capsys.readouterr().out.startswith("graph G {")


def test_failed_veblen_validation_prints_the_report_not_dot(fixtures, monkeypatch, capsys):
    monkeypatch.chdir(fixtures)
    argv = ["--format", "dot", "graph", "veblen", "--graph", "c4.json", "--validate"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("graph G {")
    monkeypatch.setattr(cli, "is_cycle", lambda p: False)
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["result"]["validated"] is False


def test_graph_nw_answers_past_the_old_cap_alike_in_both_modes(fixtures):
    # odd cuts are decided by degree parity, so a 24-cycle, past the
    # 20-vertex cap the bipartition scan had, has none in either mode
    (fixtures / "c24.json").write_text(json.dumps(graph_to_json(cycle_graph(24))))
    runs = [run_fm(["graph", "nw", "--graph", "c24.json", *mode], fixtures)
            for mode in ([], ["--mode", "exhaustive"])]
    for run in runs:
        assert run.returncode == 0 and json.loads(run.stdout)["result"]["nw"] is True
    assert runs[0].stdout == runs[1].stdout


def test_graph_subcommands(fixtures):
    nw = run_fm(["graph", "nw", "--graph", "c4.json"], fixtures)
    assert nw.returncode == 0 and json.loads(nw.stdout)["result"]["nw"] is True

    odd = run_fm(["graph", "nw", "--graph", "k4.json", "--mode", "exhaustive"], fixtures)
    assert odd.returncode == 1

    bonds = run_fm(["graph", "bonds", "--graph", "c4.json", "--validate"], fixtures)
    assert bonds.returncode == 0
    assert json.loads(bonds.stdout)["result"]["validated"] is True

    gamma = run_fm(
        ["graph", "gamma", "--graph", "k4.json", "--x", "0", "--y", "1",
         "--paths", "3", "--validate"],
        fixtures,
    )
    assert gamma.returncode == 0
    assert json.loads(gamma.stdout)["result"]["gamma"] == 3

    veb = run_fm(["graph", "veblen", "--graph", "c4.json", "--validate"], fixtures)
    assert veb.returncode == 0

    br = run_fm(["graph", "bridges", "--graph", "c4.json", "--validate"], fixtures)
    assert json.loads(br.stdout)["result"]["bridges"] == []

    dcc = run_fm(["graph", "dcc", "--graph", "c3.json"], fixtures)
    assert dcc.returncode == 0
    assert json.loads(dcc.stdout)["result"]["status"] == "found"

    (fixtures / "diamond.json").write_text(
        json.dumps(graph_to_json(make_graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])))
    )
    diamond = run_fm(["graph", "dcc", "--graph", "diamond.json", "--validate"], fixtures)
    assert diamond.returncode == 0
    result = json.loads(diamond.stdout)["result"]
    assert result["status"] == "found" and result["validated"] is True

    starved = run_fm(["graph", "dcc", "--graph", "k4.json", "--search-budget", "1"], fixtures)
    assert starved.returncode == 3


def test_slice_and_chain_and_universe(fixtures):
    sl = run_fm(["slice", "--graph", "c3.json", "--stages", "stages.json"], fixtures)
    assert sl.returncode == 0
    result = json.loads(sl.stdout)["result"]
    assert result["partition"] is True

    ch = run_fm(
        ["chain", "--structure", "v4.json", "--pack", "pairing,members",
         "--seed-elems", "", "--cover-elems", "0,1,2,3,5,6"],
        fixtures,
    )
    assert ch.returncode == 0
    assert json.loads(ch.stdout)["result"]["coherent"] is True

    ud = run_fm(["universe", "dump", "--rank", "2"], fixtures)
    assert ud.returncode == 0
    assert json.loads(ud.stdout)["result"]["size"] == 2


def test_sunflower_freeset_corpus_parse(fixtures):
    sf = run_fm(["sunflower", "find", "--family", "family.json"], fixtures)
    assert json.loads(sf.stdout)["result"]["kernel"] == [1]

    mx = run_fm(["sunflower", "max", "--family", "family.json", "--validate"], fixtures)
    assert mx.returncode == 0
    assert json.loads(mx.stdout)["result"]["indices"] == [0, 1, 2]

    tr = run_fm(["sunflower", "trace", "--family", "family.json", "--validate"], fixtures)
    assert tr.returncode == 0

    fs = run_fm(["freeset", "--map", "map.json", "--validate"], fixtures)
    assert json.loads(fs.stdout)["result"]["chosen"] == [1]

    cg = run_fm(["corpus", "gen", "--spec", "corpus.json"], fixtures)
    assert cg.returncode == 0
    assert len(json.loads(cg.stdout)["result"]["graphs"]) == 4

    pr = run_fm(["parse", "--formula", "Ex (x in #2)"], fixtures)
    assert json.loads(pr.stdout)["result"]["free_vars"] == []

    rl = run_fm(["relativize", "--formula", "Ex (x = x)"], fixtures)
    assert json.loads(rl.stdout)["result"]["rendered"].startswith("Ex:M")


def test_reports_are_byte_identical(fixtures):
    commands = [
        ["eval", "--structure", "v3.json", "--formula", "Ex Ay ~(y in x)"],
        ["hull", "--structure", "v4.json", "--pack", "pack.json", "--seed-elems", "0,1"],
        ["graph", "bonds", "--graph", "c4.json"],
        ["probe", "--graph", "c3.json", "--pack", "path-existence", "--property", "nw"],
        ["corpus", "gen", "--spec", "corpus.json"],
        ["sunflower", "max", "--family", "family.json"],
    ]
    for cmd in commands:
        first = run_fm(cmd, fixtures)
        second = run_fm(cmd, fixtures)
        assert first.stdout == second.stdout and first.stdout
        assert first.returncode == second.returncode


def test_probe_workers_deterministic(fixtures):
    base = ["probe", "--corpus", "corpus.json", "--pack", "pairing,members", "--property", "nw"]
    solo = run_fm(base + ["--workers", "1"], fixtures)
    duo = run_fm(base + ["--workers", "2"], fixtures)
    assert solo.returncode == 0 and duo.returncode == 0
    assert is_fm_report(solo.stdout) and is_fm_report(duo.stdout)
    assert solo.stdout == duo.stdout


@pytest.mark.parametrize("name", [5, "x y"])
def test_pack_with_a_bad_variable_name_is_a_usage_error(fixtures, name):
    atom = {"tag": "equality", "left": {"var": name}, "right": {"var": name}}
    pack = {"name": "bad", "formulas": [{"tag": "exists", "var": name, "body": atom}]}
    (fixtures / "s3.json").write_text(json.dumps({"size": 3, "pairs": [[0, 1]]}))
    (fixtures / "bad.json").write_text(json.dumps(pack))
    proc = run_fm(
        ["hull", "--structure", "s3.json", "--pack", "bad.json", "--seed-elems", "1"], fixtures
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("fm: error: not a variable name")
    assert proc.stdout == ""


# input files (and one --valuation) of the wrong JSON shape; each used to
# end in a traceback with exit 1, or, for a negative member index, pass
_WRONG_SHAPES = [
    pytest.param(["freeset", "--map", "list.json"], "list.json", id="freeset-map-list"),
    pytest.param(["slice", "--graph", "c3.json", "--stages", "number.json"], "number.json",
                 id="slice-stages-number"),
    pytest.param(["bondfaithful", "check", "--graph", "c4.json", "--parts", "number.json",
                  "--kappa", "1"], "number.json", id="bondfaithful-parts-number"),
    pytest.param(["corpus", "gen", "--spec", "list.json"], "list.json", id="corpus-spec-list"),
    pytest.param(["probe", "--corpus", "list.json", "--pack", "pairing", "--property", "nw"],
                 "list.json", id="probe-corpus-list"),
    pytest.param(["graph", "bonds", "--graph", "list.json"], "list.json", id="bonds-graph-list"),
    pytest.param(["eval", "--structure", "number.json", "--formula", "x = x"], "number.json",
                 id="eval-structure-number"),
    pytest.param(["hull", "--structure", "number.json", "--pack", "pairing"], "number.json",
                 id="hull-structure-number"),
    pytest.param(["eval", "--structure", "v3.json", "--formula", "x = x", "--valuation", "[0]"],
                 "--valuation", id="eval-valuation-list"),
    pytest.param(["sunflower", "trace", "--family", "family.json", "--m", "number.json"],
                 "number.json", id="sunflower-m-number"),
    pytest.param(["sunflower", "trace", "--family", "family.json", "--m", "member9.json"],
                 "member9.json", id="sunflower-m-index-9"),
    pytest.param(["sunflower", "trace", "--family", "family.json", "--m", "member-1.json"],
                 "member-1.json", id="sunflower-m-index-minus-1"),
]


@pytest.mark.parametrize("argv, source", _WRONG_SHAPES)
def test_input_of_the_wrong_json_shape_is_a_usage_error(fixtures, monkeypatch, capsys, argv, source):
    (fixtures / "list.json").write_text("[1, 2]")
    (fixtures / "number.json").write_text("2")
    (fixtures / "member9.json").write_text(json.dumps({"members": [9]}))
    (fixtures / "member-1.json").write_text(json.dumps({"members": [-1]}))
    monkeypatch.chdir(fixtures)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"fm: error: wrong JSON shape in {source}: ")


# input that fails a check made where it is read or checked, outside the
# JSON readers above; each message is the one fm printed before these
# checks raised InputError
_CHECKED_INPUTS = [
    (["hull", "--structure", "v4.json", "--pack", "pairing", "--seed-elems", "99"],
     "seed element 99 outside the universe"),
    (["hull", "--structure", "v4.json", "--pack", "pairing", "--seed-elems", "a"],
     "invalid literal for int() with base 10: 'a'"),
    (["hull", "--structure", "v4.json", "--pack", "closed.json", "--seed-elems", "1"],
     "pack must be closed under subformulas; call subformula_closure first"),
    (["chain", "--structure", "v4.json", "--pack", "pairing", "--cover-elems", "99"],
     "cover element 99 outside the universe"),
    (["eval", "--structure", "bad.txt", "--formula", "x = x"], "row 1 is not 2 characters of 0/1"),
    (["universe", "dump", "--rank", "6"], "rank must be between 0 and 5"),
    (["slice", "--graph", "c3.json", "--stages", "decreasing.json"],
     "stages must be strictly increasing"),
    (["graph", "gamma", "--graph", "c4.json", "--x", "0", "--y", "9"], "endpoints must be vertices"),
    (["graph", "gamma", "--graph", "c4.json", "--x", "0", "--y", "2", "--paths", "5"],
     "asked for 5 paths but connectivity is 2"),
    (["graph", "bonds", "--graph", "c24.json"], "component with 24 vertices exceeds the enumeration cap"),
    (["graph", "bonds", "--graph", "c18.json", "--validate"], "18 vertices exceed the bipartition gate"),
    (["bondfaithful", "search", "--graph", "c4.json", "--kappa", "0"], "kappa must be at least 1"),
    (["bondfaithful", "check", "--graph", "c4.json", "--parts", "c3list.json", "--kappa", "2"],
     "parts do not form a decomposition of the host"),
    (["sunflower", "trace", "--family", "family.json", "--m", "all.json"],
     "every family member already belongs to M"),
    (["sunflower", "max", "--family", "family40.json"], "family of 40 sets exceeds the exhaustive scan gate"),
    (["freeset", "--map", "map.json", "--ground", "1,7"], "--ground element 7 is not a key of --map map.json"),
    (["hull", "--structure", "v4.json", "--pack", "nokey.json", "--seed-elems", "1"],
     "wrong JSON shape in nokey.json: no key 'formulas'"),
    (["sunflower", "find", "--family", "mixed.json"], "family member 1 holds 'a', which is not an integer"),
    (["eval", "--formula", "Ex (x = x)", "--structure", "negative.json"], "structure size -2 is negative"),
    (["hull", "--pack", "pairing", "--structure", "negative.json"], "structure size -2 is negative"),
    (["chain", "--pack", "pairing", "--structure", "negative.json"], "structure size -2 is negative"),
    (["corpus", "gen", "--model", "regular", "--n", "5", "--d", "3"], "no 3-regular graph on 5 vertices"),
    (["chain", "--seed-elems", "99", "--structure", "v4.json", "--pack", "pairing", "--cover-elems", "0"],
     "seed element 99 outside the universe"),
    (["chain", "--seed-elems=-1", "--structure", "v4.json", "--pack", "pairing", "--cover-elems", "0"],
     "seed element -1 outside the universe"),
    (["eval", "--relativize-to", "0,99", "--structure", "v3.json", "--formula", "Ex (x in x)"],
     "designated subset element 99 outside the universe"),
    (["eval", "--relativize-to", "0,99", "--structure", "v3.json", "--formula", "Ex (x = x)"],
     "designated subset element 99 outside the universe"),
    (["probe", "--pack", "pairing", "--property", "nw"], "probe needs --corpus or --graph"),
    (["chain", "--structure=badcodes.json", "--pack", "pairing"],
     "codes must be nonnegative and strictly ascending"),
    # a float or a bool where an integer belongs is refused, not truncated
    (["eval", "--valuation", '{"x": 0.9, "y": 1}', "--structure", "v3.json", "--formula", "x in y"],
     "--valuation of 'x' holds 0.9, which is not an integer"),
    (["eval", '--valuation={"x": true}', "--structure", "v3.json", "--formula", "x = x"],
     "--valuation of 'x' holds True, which is not an integer"),
    (["graph", "bridges", "--graph", "vertexfloat.json"], "the vertex list holds 2.7, which is not an integer"),
    (["graph", "veblen", "--graph", "edgefloat.json"], "edge [1, 2.2] holds 2.2, which is not an integer"),
    (["hull", "--seed-elems", "0", "--structure", "sizefloat.json", "--pack", "pairing"],
     "structure size holds 2.9, which is not an integer"),
    (["chain", "--cover-elems", "0", "--structure", "pairfloat.json", "--pack", "pairing"],
     "relation pair [0, 1.5] holds 1.5, which is not an integer"),
    (["probe", "--corpus", "specfloat.json", "--pack", "pairing", "--property", "nw"],
     "the generator's n holds 3.9, which is not an integer"),
]


@pytest.mark.parametrize("argv, message", _CHECKED_INPUTS, ids=[" ".join(a[:2]) for a, _ in _CHECKED_INPUTS])
def test_checked_input_is_a_usage_error(fixtures, monkeypatch, capsys, argv, message):
    (fixtures / "closed.json").write_text(json.dumps(
        {"name": "c", "formulas": ["Ex Ay ~(y in x)"], "closed_under_subformulas": True}
    ))
    (fixtures / "bad.txt").write_text("01\n0\n")
    (fixtures / "nokey.json").write_text(json.dumps({"name": "p"}))
    (fixtures / "decreasing.json").write_text("[[0, 1, 3], [0]]")
    for n in (18, 24):
        (fixtures / f"c{n}.json").write_text(json.dumps(graph_to_json(cycle_graph(n))))
    (fixtures / "c3list.json").write_text(json.dumps([graph_to_json(cycle_graph(3))]))
    (fixtures / "all.json").write_text(json.dumps({"members": [0, 1, 2]}))
    (fixtures / "family40.json").write_text(json.dumps([[i, i + 1] for i in range(40)]))
    (fixtures / "mixed.json").write_text(json.dumps([[1], [1, "a"]]))
    (fixtures / "negative.json").write_text(json.dumps({"size": -2, "pairs": []}))
    (fixtures / "badcodes.json").write_text(
        json.dumps({"size": 3, "pairs": [[0, 2], [1, 2]], "codes": ["0", "0", "3"]})
    )
    (fixtures / "vertexfloat.json").write_text(json.dumps({"vertices": [0, 1, 2.7], "edges": [[0, 1]]}))
    (fixtures / "edgefloat.json").write_text(json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2.2]]}))
    (fixtures / "sizefloat.json").write_text(json.dumps({"size": 2.9, "pairs": []}))
    (fixtures / "pairfloat.json").write_text(json.dumps({"size": 2, "pairs": [[0, 1.5]]}))
    (fixtures / "specfloat.json").write_text(json.dumps(_FLOAT_SPEC))
    monkeypatch.chdir(fixtures)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"fm: error: {message}\n")


_FLOAT_SPEC = {"generator": {"model": "gnp", "n": 3.9, "p": 0.5, "count": 1.5}, "seed": 0.5}


def test_a_float_in_a_corpus_spec_is_refused(fixtures, monkeypatch, capsys):
    # each integer field of a spec, one float at a time; p stays a float
    gnp = {"model": "gnp", "n": 6, "p": 0.5}
    cases = [
        (_FLOAT_SPEC, "the generator's n holds 3.9"),
        ({"generator": {**gnp, "count": 2.5}}, "the generator's count holds 2.5"),
        ({"generator": gnp, "seed": 2.5}, "the corpus seed holds 2.5"),
        ({"generator": {"model": "regular", "n": 6, "d": 2.5}}, "the generator's d holds 2.5"),
        ({"generator": {"model": "union-of-cycles", "n": 6, "cycles": 2.5}}, "the generator's cycles holds 2.5"),
    ]
    monkeypatch.chdir(fixtures)
    for spec, message in cases:
        (fixtures / "spec.json").write_text(json.dumps(spec))
        assert cli.main(["corpus", "gen", "--spec", "spec.json"]) == 2, message
        assert capsys.readouterr() == ("", f"fm: error: {message}, which is not an integer\n")


def test_a_bad_budget_in_the_environment_is_a_usage_error(fixtures):
    proc = run_fm(["eval", "--structure", "v3.json", "--formula", "x = x", "--valuation", '{"x": 0}'],
                  fixtures, {"FM_EVAL_BUDGET": "lots"})
    assert proc.returncode == 2
    assert proc.stderr == "fm: error: invalid literal for int() with base 10: 'lots'\n"


def _raise(exc):
    def fault(*args, **kwargs):
        raise exc
    return fault


# a ValueError or KeyError from inside a search is a fault in the
# program, not a usage error: fm must not exit 2 on it
_FAULTS = [
    (["bondfaithful", "search", "--graph", "c4.json", "--kappa", "2"],
     "decompose", "biconnected_blocks", ValueError("injected")),
    (["graph", "dcc", "--graph", "c4.json"], "graph", "enumerate_cycles", KeyError("injected")),
    (["hull", "--structure", "v4.json", "--pack", "pairing", "--seed-elems", "0,1"],
     "hull", "_close", KeyError("injected")),
    (["chain", "--structure", "v4.json", "--pack", "pairing", "--validate"],
     "structure", "is_absolute", ValueError("injected")),
]


@pytest.mark.parametrize("argv, module, name, exc", _FAULTS, ids=[f"{m}.{n}" for _, m, n, _ in _FAULTS])
def test_a_fault_inside_a_search_is_not_a_usage_error(fixtures, monkeypatch, argv, module, name, exc):
    monkeypatch.chdir(fixtures)
    monkeypatch.setattr(sys.modules[f"finmodel.{module}"], name, _raise(exc))
    with pytest.raises(type(exc), match="injected"):
        cli.main(argv)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(range(10), outer + inner + [(i, i + 5) for i in range(5)])


_DENSE_HOSTS = {
    "k5": make_graph(range(5), [(a, b) for a in range(5) for b in range(a + 1, 5)]),
    "k6": make_graph(range(6), [(a, b) for a in range(6) for b in range(a + 1, 6)]),
    "petersen": _petersen(),
}


@pytest.mark.parametrize("kappa", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(_DENSE_HOSTS))
def test_bondfaithful_search_proves_dense_hosts_absent(fixtures, name, kappa):
    # K5, K6 and the Petersen graph are each one block of more than 4
    # edges, so no decomposition exists
    (fixtures / f"{name}.json").write_text(json.dumps(graph_to_json(_DENSE_HOSTS[name])))
    start = time.perf_counter()
    proc = run_fm(["bondfaithful", "search", "--graph", f"{name}.json", "--kappa", str(kappa)], fixtures)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["result"] == {"status": "proven-absent"}
    assert elapsed < 1.0, f"{name} at kappa {kappa} took {elapsed:.2f} s"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize("argv", [
    ["parse"], ["relativize"], ["eval", "--structure", "v3.json"],
])
def test_a_constant_past_the_digit_limit_is_a_parse_error(fixtures, argv):
    # int() refuses strings of more than 4,300 digits
    formula = "x = #" + "1" * 5000
    proc = run_fm([*argv, "--formula", formula], fixtures)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "fm: error: constant of 5000 digits is too long (at position 4)\n"


def test_a_report_nested_past_the_recursion_limit_is_an_input_error(fixtures):
    # both report writers recurse once per nesting level: a formula nested
    # 1,000 deep exits 2 with a message naming the limit, not a traceback
    for command in ("parse", "relativize"):
        for fmt in ("json", "text"):
            proc = run_fm(["--format", fmt, command, "--formula", "~" * 1000 + "x in y"], fixtures)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == "fm: error: the report nests past the recursion limit of 1000\n"
