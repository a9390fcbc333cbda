"""finmodel benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a finmodel checkout; finmodel is imported from
``src/``.  The workload's items are made from the seed, built into
program inputs, then worked through in whole rounds of the same items
until the items have taken at least S seconds and at least MIN_ITEMS
items are done.  Every answer is checked against ``reference``.
``setup_s`` is measured in fresh interpreters spread over the run.
The in-process workloads' item times are scaled to a reference host
speed measured in the same run (``hostspeed``).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of one untraced and one traced round, and the spans are
written to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import workloads
from hostspeed import REFERENCE_KERNEL_S, HostSpeed, kernel_time
from tracing import MODULES, Tracer, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_ITEMS = 100
SETUP_REPEATS = 11
WALL_LIMIT_S = 140


def load_fm():
    package = importlib.import_module("finmodel")
    mods = {m: importlib.import_module(f"finmodel.{m}") for m in MODULES}
    return types.SimpleNamespace(package=package, **mods)


def timed_child(argv: list[str], cwd: Path) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=cwd, env=workloads.child_env(SRC), check=True,
                   stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep this process and its children on the highest-numbered CPU it
    may use.  On a shared host the CPUs can run at different speeds, and
    a process that lands on or moves to another one changes its timings
    by as much as a quarter."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload, seed: int) -> None:
    """Child side of ``setup_s``: import finmodel and build the inputs."""
    made = workload.make(seed)
    workdir = OUT / f"setup-{os.getpid()}"
    try:
        start = time.perf_counter()
        fm = load_fm()
        workload.prepare(fm, made, workdir)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


class SetupProbes:
    """``setup_s`` samples, each in a fresh interpreter so the import is
    never cached.  The SETUP_REPEATS probes are spread evenly over the
    run's item time, between items, so that they see the same host
    speed as the items do; the run reports their median."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--setup-probe"]
        self.step = seconds / SETUP_REPEATS
        self.times: list[float] = []

    def probe(self) -> None:
        proc = subprocess.run(
            self.argv, cwd=ROOT, env=workloads.child_env(SRC), check=True,
            capture_output=True, text=True, timeout=120,
        )
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))

    def due(self, busy: float) -> None:
        """Run the probes whose turn has come after *busy* item seconds."""
        while len(self.times) < SETUP_REPEATS and busy >= len(self.times) * self.step:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return statistics.median(self.times)


# ---------------------------------------------------------------------------
# rounds


class Run:
    """Rounds over one item list.  The first answer to each item is
    checked against the reference; a later answer to the same item must
    equal the checked one, so the reference's memory does not build up."""

    def __init__(self, fm, workload, items):
        self.fm, self.workload, self.items = fm, workload, items
        self.times: list[float] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.wrong: list[str] = []
        self.checked: dict[int, str] = {}
        self.peak_child_kib = 0
        self.busy = 0.0
        self.tracer = None
        self.after_item = None
        self.host = None

    def round(self) -> float:
        """Work through every item once; returns the seconds items took."""
        total = 0.0
        for index, item in enumerate(self.items):
            if self.tracer is not None:
                self.tracer.item = index
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = self.workload.run(self.fm, item)
            except Exception:
                self.failed += 1
                self.errors.append(traceback.format_exc(limit=3))
                continue
            elapsed = time.perf_counter() - start
            total += elapsed
            self.busy += elapsed
            self.times.append(elapsed)
            if self.host is not None:
                self.host.after_item(elapsed)
            if self.workload.name == "fm-cli":
                self.peak_child_kib = max(self.peak_child_kib, out[2])
            try:
                self.check(index, item, out)
            except Exception:
                self.wrong.append(f"item {index}: checking the answer raised "
                                  f"{traceback.format_exc(limit=3)}")
            if self.after_item is not None:
                self.after_item(self.busy)
        return total

    def check(self, index, item, out) -> None:
        digest = hashlib.sha1(repr(self.workload.summary(out)).encode()).hexdigest()
        if index in self.checked:
            if digest != self.checked[index]:
                self.wrong.append(f"item {index}: answer differs from the checked one")
            return
        failed, problem = self.workload.verify(item, out)
        self.failed += failed
        if problem:
            self.wrong.append(problem)
        elif not failed:
            self.checked[index] = digest


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float | None, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, fm, workload, items) -> dict:
    """Whole rounds until the items have taken args.seconds and at least
    MIN_ITEMS items are done.  A run in which no item succeeds stops
    after one round; one that reaches WALL_LIMIT_S stops after its
    round.

    On the in-process workloads each item's time is scaled to the
    reference host speed by its round's kernel mean (see ``hostspeed``);
    ``fm-cli`` and ``setup_s`` are not scaled.  ``items_per_s`` is the
    median of the rounds' rates.  Metrics that the finished items cannot
    give read null."""
    probes = SetupProbes(args.workload, args.seed, args.seconds)
    run = Run(fm, workload, items)
    run.after_item = probes.due
    run.host = host = None if workload.name == "fm-cli" else HostSpeed()
    scaled, rates = [], []
    wall = time.perf_counter()
    while run.busy < args.seconds or len(run.times) < MIN_ITEMS:
        done = len(run.times)
        if host is not None:
            host.new_round()
        run.round()
        if len(run.times) == done:
            break
        factor = host.scale() if host is not None else 1.0
        times = [t * factor for t in run.times[done:]]
        scaled.extend(times)
        rates.append(len(times) / sum(times))
        if time.perf_counter() - wall > WALL_LIMIT_S:
            print(f"warning: stopped at the wall limit of {WALL_LIMIT_S} s with "
                  f"{len(run.times)} items done", file=sys.stderr)
            break
    if len(run.times) < MIN_ITEMS:
        print(f"warning: {len(run.times)} items done, fewer than {MIN_ITEMS}", file=sys.stderr)
    if workload.name == "fm-cli":
        rss_kib = run.peak_child_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    enough = len(scaled) >= 2
    metrics = {
        "items_per_s": metric(statistics.median(rates) if rates else None, "items/s"),
        "item_p50_ms": metric(1000 * statistics.median(scaled) if enough else None, "ms"),
        "item_p90_ms": metric(1000 * percentile(scaled, 90) if enough else None, "ms"),
        "setup_s": metric(probes.median(), "s"),
        "peak_rss_mb": metric(rss_kib / 1024 if rss_kib else None, "MB"),
    }
    print(f"{workload.name}: {len(run.times)} items in {run.busy:.2f} s over "
          f"{len(rates)} rounds, {time.perf_counter() - wall:.1f} s of wall time", file=sys.stderr)
    if enough and host is not None:
        print(f"unscaled: {len(run.times) / run.busy:.4g} items/s, "
              f"p50 {1000 * statistics.median(run.times):.4g} ms, "
              f"p90 {1000 * percentile(run.times, 90):.4g} ms; kernel "
              f"{1000 * host.kernel_s():.4g} ms against {1000 * REFERENCE_KERNEL_S:g} ms",
              file=sys.stderr)
    return finish(run, metrics)


def traced(args, fm, workload, items) -> dict:
    extra: dict[str, float] = {}
    items = items[:getattr(workload, "TRACED_ITEMS", len(items))]
    run = Run(fm, workload, items)
    if workload.name == "fm-cli":
        bare = [timed_child([sys.executable, "-c", "pass"], ROOT) for _ in range(5)]
        imp = [timed_child([sys.executable, "-c", "import finmodel.cli"], ROOT) for _ in range(5)]
        run.round()
        extra["cli.interpreter_s"] = statistics.median(bare)
        extra["cli.import_s"] = statistics.median(imp)
        extra["cli.process_s"] = statistics.median(run.times)
        run = Run(fm, InProcessCli(workload), items)
    untraced_s = run.round()
    extra["host.kernel_ms"] = 1000 * statistics.fmean(kernel_time() for _ in range(200))
    tracer = Tracer()
    tracer.install()
    run.tracer = tracer
    try:
        traced_s = run.round()
    finally:
        tracer.uninstall()
    extra["trace.untraced_s"] = untraced_s
    extra["trace.traced_s"] = traced_s
    extra["trace.overhead_pct"] = 100 * (traced_s / untraced_s - 1)
    values, absent = per_layer(tracer, extra)
    write_trace(args, tracer, values, absent)
    for name in absent:
        print(f"absent: {name} is not a function of this finmodel", file=sys.stderr)
    print(f"tracing overhead: {extra['trace.overhead_pct']:.1f}% "
          f"({untraced_s:.3f} s untraced, {traced_s:.3f} s traced)", file=sys.stderr)
    return finish(run, {k: metric(v, u) for k, (v, u) in values.items()})


class InProcessCli:
    """The fm-cli calls through ``finmodel.cli.main`` in this process, so
    handler time separates from interpreter start-up."""

    name = "fm-cli"

    def __init__(self, workload):
        self.workload = workload

    def run(self, fm, item):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workload.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fm.cli.main(list(item.argv))
        finally:
            os.chdir(cwd)
        return code, out.getvalue(), 0

    def verify(self, item, out):
        return self.workload.verify(item, out)

    def summary(self, out):
        return self.workload.summary(out)


def write_trace(args, tracer, values, absent) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    rows = tracer.table()
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "span_fields": ["id", "parent", "name", "start", "end", "item"],
            "spans": tracer.spans,
            "table": rows,
            "metrics": {k: v for k, (v, _) in values.items()},
            "absent": absent,
        }, fh)
    print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    print(f"{'function':44} {'calls':>9} {'busy_s':>10} {'self_s':>10}", file=sys.stderr)
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])[:25]:
        print(f"{name:44} {row['calls']:9d} {row['busy_s']:10.4f} {row['self_s']:10.4f}", file=sys.stderr)


def finish(run: Run, metrics: dict) -> dict:
    for error in run.errors[:3]:
        print(f"failed: {error}", file=sys.stderr)
    for problem in run.wrong[:10]:
        print(f"wrong: {problem}", file=sys.stderr)
    return {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_to_one_cpu()

    if not (SRC / "finmodel" / "__init__.py").is_file():
        print(f"error: no finmodel sources under {SRC}; run from a finmodel checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    fm = load_fm()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        items = workload.prepare(fm, workload.make(args.seed), workdir)
        result = (traced if args.trace else end_to_end)(args, fm, workload, items)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
