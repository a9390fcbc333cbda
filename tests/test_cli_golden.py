"""Byte-identity of ``fm``: a fixed list of ``cli.main`` calls, run in
process, whose argv, exit codes, stdout and stderr hash to a digest
recorded from an earlier version of the code.

The list covers the acceptance suite's CLI subcommands, every README
example, ``--validate`` on each ``graph`` subcommand, bond-faithful
checks and searches (found and absent outcomes, past the enumeration
cap too), ``hull`` and ``chain`` on V_4, ``--format text|dot`` and
missing and broken input files.  The fixtures are written to a
temporary directory, which is also the working directory, so no
absolute path reaches the output.  A change that is meant to alter one
of these outputs records a new digest and says why.
"""

import hashlib
import json

from finmodel import cli
from finmodel.graph import complete_graph, cycle_graph, make_graph
from finmodel.serialize import graph_to_json, structure_to_json
from finmodel.universe import build_hierarchy

DIGEST = "69828c260c9b91424c73d7b4ca15b913bc2db57bf947f3e102f94b3e1b363ad0"

K4_TAIL = list(complete_graph(4).edges) + [(3, 4), (4, 5), (5, 6)]
BOWTIE = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]


def _write_fixtures(root):
    def graph(name, G):
        (root / name).write_text(json.dumps(graph_to_json(G)))

    def raw(name, obj):
        (root / name).write_text(json.dumps(obj))

    raw("v3.json", structure_to_json(build_hierarchy(3).structure))
    raw("v4.json", structure_to_json(build_hierarchy(4).structure))
    (root / "s3.txt").write_text("010\n001\n000\n")
    graph("c3.json", cycle_graph(3))
    graph("c4.json", cycle_graph(4))
    graph("k4.json", complete_graph(4))
    graph("g.json", make_graph(range(5), BOWTIE))
    graph("k4tail.json", make_graph(range(7), K4_TAIL))
    graph("diamond.json", make_graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]))
    graph("path22.json", make_graph(range(22), [(i, i + 1) for i in range(21)]))
    (root / "c4.txt").write_text("0 1\n1 2\n2 3\n0 3\n")
    raw("singles22.json", [graph_to_json(make_graph([i, i + 1], [(i, i + 1)])) for i in range(21)])
    raw("pairs22.json", [
        graph_to_json(make_graph([i, i + 1, i + 2], [(i, i + 1), (i + 1, i + 2)]))
        for i in range(0, 20, 2)
    ] + [graph_to_json(make_graph([20, 21], [(20, 21)]))])
    raw("parts.json", [
        graph_to_json(make_graph(range(4), [(0, 1), (2, 3)])),
        graph_to_json(make_graph(range(4), [(1, 2), (0, 3)])),
    ])
    raw("singles.json", [graph_to_json(make_graph(e, [e])) for e in sorted(cycle_graph(4).edges)])
    raw("pack.json", {"name": "empty-set", "formulas": ["Ex Ay ~(y in x)"]})
    raw("stages.json", [[], [0, 1, 3], [0, 1, 2, 3, 5, 6]])
    raw("family.json", [[1, 2], [1, 3], [1, 4]])
    raw("m.json", {"elements": [1], "members": [0]})
    raw("map.json", {"1": [2], "2": []})
    raw("corpus.json", {"generator": {"model": "gnp", "n": 3, "p": 0.5, "count": 3}, "seed": 5})
    raw("nokey.json", {"edges": []})
    (root / "broken.json").write_text("{")


# the acceptance suite's CLI subcommands
_CRITERION_11 = [
    ["parse", "--formula", "Ex Ay ~(y in x)"],
    ["eval", "--structure", "v3.json", "--formula", "Ex Ay ~(y in x)"],
    ["relativize", "--formula", "Ex (x = x)"],
    ["universe", "dump", "--rank", "3"],
    ["hull", "--structure", "v4.json", "--pack", "pack.json", "--seed-elems", "0,1"],
    ["chain", "--structure", "v4.json", "--pack", "pairing,members",
     "--seed-elems", "", "--cover-elems", "0,1,2,3,5,6"],
    ["slice", "--graph", "c3.json", "--stages", "stages.json"],
    ["probe", "--graph", "c3.json", "--pack", "path-existence", "--property", "nw"],
    ["graph", "bonds", "--graph", "c4.json"],
    ["graph", "gamma", "--graph", "c4.json", "--x", "0", "--y", "2"],
    ["graph", "nw", "--graph", "c4.json"],
    ["graph", "veblen", "--graph", "c4.json"],
    ["graph", "bridges", "--graph", "c4.json"],
    ["graph", "dcc", "--graph", "c3.json"],
    ["bondfaithful", "check", "--graph", "c4.json", "--parts", "parts.json", "--kappa", "2"],
    ["bondfaithful", "search", "--graph", "c4.json", "--kappa", "1"],
    ["sunflower", "find", "--family", "family.json"],
    ["sunflower", "max", "--family", "family.json"],
    ["sunflower", "trace", "--family", "family.json"],
    ["freeset", "--map", "map.json"],
    ["corpus", "gen", "--spec", "corpus.json"],
    ["eval", "--structure", "v3.json", "--formula", "Ex (x = x)"],
    ["eval", "--structure", "absent.json", "--formula", "x = x"],
    ["--budget", "5", "eval", "--structure", "v4.json",
     "--formula", "Ex Ey ((x in y) | (y in x))"],
]

# the README's examples
_README = [
    ["parse", "--formula", "Ex Ay ~(y in x)"],
    ["eval", "--structure", "v3.json", "--formula", "Ex Ay ~(y in x)"],
    ["eval", "--structure", "v3.json", "--formula", "Ex (x in y)", "--valuation", '{"y": 2}'],
    ["relativize", "--formula", "Ex (x = x)"],
    ["universe", "dump", "--rank", "3"],
    ["hull", "--structure", "v4.json", "--pack", "pairing", "--seed-elems", "0,1", "--validate"],
    ["chain", "--structure", "v4.json", "--pack", "pairing,members",
     "--cover-elems", "0,1,2,3,5,6"],
    ["slice", "--graph", "c3.json", "--stages", "stages.json"],
    ["probe", "--corpus", "corpus.json", "--pack", "path-existence", "--property", "nw",
     "--workers", "2"],
    ["graph", "bonds", "--graph", "c4.json", "--validate"],
    ["graph", "gamma", "--graph", "k4.json", "--x", "0", "--y", "1", "--paths", "3", "--validate"],
    ["graph", "nw", "--graph", "c4.json", "--mode", "exhaustive"],
    ["graph", "veblen", "--graph", "k4.json", "--validate"],
    ["graph", "bridges", "--graph", "g.json", "--validate"],
    ["graph", "dcc", "--graph", "k4.json", "--validate"],
    ["bondfaithful", "check", "--graph", "c4.json", "--parts", "parts.json", "--kappa", "2"],
    ["bondfaithful", "search", "--graph", "g.json", "--kappa", "3"],
    ["sunflower", "max", "--family", "family.json", "--validate"],
    ["sunflower", "trace", "--family", "family.json", "--m", "m.json"],
    ["freeset", "--map", "map.json", "--validate"],
    ["corpus", "gen", "--model", "gnp", "--n", "6", "--p", "0.4", "--count", "10", "--seed", "1"],
]

_MORE = [
    # --validate on each graph subcommand that has it, on more graphs
    ["graph", "bonds", "--graph", "k4tail.json", "--max-size", "2", "--validate"],
    ["graph", "gamma", "--graph", "g.json", "--x", "0", "--y", "4", "--validate"],
    ["graph", "veblen", "--graph", "g.json", "--validate"],
    ["graph", "veblen", "--graph", "k4tail.json", "--validate"],
    ["graph", "bridges", "--graph", "k4tail.json", "--validate"],
    ["graph", "dcc", "--graph", "diamond.json", "--validate"],
    ["graph", "dcc", "--graph", "k4.json", "--search-budget", "1"],
    ["graph", "dcc", "--graph", "k4tail.json"],
    ["graph", "nw", "--graph", "k4.json", "--mode", "exhaustive"],
    ["graph", "nw", "--graph", "k4tail.json"],
    # bond-faithful checks and searches
    ["bondfaithful", "check", "--graph", "c4.json", "--parts", "singles.json", "--kappa", "1",
     "--validate"],
    ["bondfaithful", "check", "--graph", "c4.json", "--parts", "parts.json", "--kappa", "2",
     "--validate"],
    ["bondfaithful", "check", "--graph", "path22.json", "--parts", "singles22.json",
     "--kappa", "1"],
    ["bondfaithful", "check", "--graph", "path22.json", "--parts", "pairs22.json",
     "--kappa", "1"],
    ["bondfaithful", "search", "--graph", "k4tail.json", "--kappa", "3"],
    ["bondfaithful", "search", "--graph", "k4tail.json", "--kappa", "6"],
    ["bondfaithful", "search", "--graph", "path22.json", "--kappa", "1"],
    ["bondfaithful", "search", "--graph", "k4.json", "--kappa", "2"],
    ["bondfaithful", "search", "--graph", "diamond.json", "--kappa", "3"],
    # hull and chain on V_4
    ["hull", "--structure", "v4.json", "--pack", "pairing,members", "--seed-elems", "1,2",
     "--validate"],
    ["hull", "--structure", "v4.json", "--pack", "pack.json", "--seed-elems", "0,1",
     "--validate"],
    ["chain", "--structure", "v4.json", "--pack", "pairing", "--validate"],
    ["chain", "--structure", "v4.json", "--pack", "pairing,members", "--seed-elems", "1",
     "--cover-elems", "0,1,2,3,5,6", "--validate"],
    ["eval", "--structure", "s3.txt", "--formula", "Ex Ey (x in y)"],
    ["eval", "--structure", "v3.json", "--formula", "Ex (x in y)",
     "--relativize-to", "0,1", "--valuation", '{"y": 1}'],
    ["graph", "bonds", "--graph", "c4.txt"],
    # output formats
    ["--format", "text", "graph", "bonds", "--graph", "c4.json"],
    ["--format", "text", "hull", "--structure", "v4.json", "--pack", "pairing",
     "--seed-elems", "0,1"],
    ["--format", "text", "bondfaithful", "search", "--graph", "c4.json", "--kappa", "1"],
    ["--format", "dot", "graph", "veblen", "--graph", "k4.json"],
    ["--format", "dot", "slice", "--graph", "c3.json", "--stages", "stages.json"],
    ["--format", "dot", "bondfaithful", "search", "--graph", "c4.json", "--kappa", "1"],
    # missing and broken inputs, and other usage errors
    ["graph", "bonds", "--graph", "missing.json"],
    ["graph", "bonds", "--graph", "broken.json"],
    ["graph", "bonds", "--graph", "nokey.json"],
    ["hull", "--structure", "v4.json", "--pack", "broken.json"],
    ["sunflower", "find", "--family", "missing.json"],
    ["slice", "--graph", "c3.json", "--stages", "broken.json"],
    ["eval", "--structure", "v3.json", "--formula", "(x in"],
    ["eval", "--structure", "v3.json", "--formula", "x = x", "--valuation", '{"x": "a"}'],
    ["eval", "--structure", "v3.json", "--formula", "x = x", "--valuation", "{"],
    ["graph", "gamma", "--graph", "c4.json", "--x", "0", "--y", "0"],
    ["no-such-command"],
]

COMMANDS = _CRITERION_11 + _README + _MORE


def test_fm_outputs_match_recorded_digest(tmp_path, monkeypatch, capsys):
    _write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FM_EVAL_BUDGET", raising=False)
    # argparse wraps usage errors to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in COMMANDS:
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        digest.update(repr((argv, code, out, err)).encode())
    assert len(COMMANDS) == 88
    assert digest.hexdigest() == DIGEST
