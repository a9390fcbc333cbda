import json
import os
import random
import subprocess
import sys
from pathlib import Path

import finmodel
from finmodel.graph import Graph, make_graph
from finmodel.hull import _WitnessOracle
from finmodel.formula import FormulaPack, constants
from finmodel.structure import FinStructure

from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")

# The directory that holds the ``finmodel`` package this suite imported.
FINMODEL_ROOT = str(Path(finmodel.__file__).resolve().parent.parent)


def run_fm(args, cwd, env_extra=None):
    """Run ``python -m finmodel *args`` in ``cwd`` and capture its output.

    The child imports the same ``finmodel`` as this process: its source
    root goes first on the child's ``PYTHONPATH``, ahead of the inherited
    entries, so neither a relative entry (which would resolve against
    ``cwd``) nor an installed copy can stand in for it. A budget set in
    the environment is dropped unless ``env_extra`` sets one.
    """
    env = dict(os.environ)
    env.pop("FM_EVAL_BUDGET", None)
    if env_extra:
        env.update(env_extra)
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([FINMODEL_ROOT, *inherited])
    return subprocess.run(
        [sys.executable, "-m", "finmodel", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def is_fm_report(text: str) -> bool:
    """Whether ``text`` is a JSON report as ``fm`` prints it."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return False
    return isinstance(report, dict) and report.get("schema") == "fm-report/1"


def bowtie() -> Graph:
    # two triangles sharing vertex 2
    return make_graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def random_bitmask_graph(n: int, mask: int) -> Graph:
    """Graph on n labelled vertices from an edge bitmask over the
    lexicographic edge slots of the complete graph."""
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
    return make_graph(range(n), edges)


def edge_slot_count(n: int) -> int:
    return n * (n - 1) // 2


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def structure_of_pairs(n: int, pairs) -> FinStructure:
    return FinStructure(n, frozenset(pairs))


def witness_search(phi, metered=True):
    """The witness search :mod:`finmodel.hull` runs for the existential
    *phi*: ``search(N, budget, valuations)``, taken from a hull oracle
    over *phi* alone, whose budget the static step bound cannot cover
    (metered) or does (unmetered).  A relativized *phi* has none and
    raises ``EvalError``."""
    host = FinStructure(1 + max(constants(phi), default=-1), frozenset())
    oracle = _WitnessOracle(host, FormulaPack("one", (phi,)), -1 if metered else sys.maxsize)
    return oracle.searches[0]
