"""The host's speed, measured in the same run as the items, so that the
times of the in-process workloads can be given at one reference speed.

The benchmark runs on a shared host whose speed wanders over minutes:
the same 270 ``absoluteness`` items of one seed, run over and over for
five minutes on one pinned CPU, gave rates whose quartiles over 10-30 s
windows lay 18-20% apart, with CPU time equal to wall time.  Longer runs
did not narrow that, and a run's times said more about the host than
about the program.

So after each timed item the benchmark runs :func:`kernel`, a fixed
piece of pure-Python work of the kind finmodel does (set lookups, small
dicts, tuples from ``itertools.product``), for at least SHARE of the
item's time and at least once.  The kernel's mean time over a round is
the host's speed in that round, and each item's time in the round is
multiplied by REFERENCE_KERNEL_S over that mean: the time the item
would have taken on a host where the kernel takes REFERENCE_KERNEL_S,
which is near its usual time on the machine the benchmark was written
on.  On the five-minute recording above, so scaled, the rate's
quartiles lay 2% apart and the median item time's 3%.  Scaling each
item by the kernel runs just after it, instead of by its round's mean,
followed the host no better and spread the 90th percentile of
``hull-chain`` four times as far between runs.

The kernel imports nothing from finmodel, so no change to the program
changes its work, and it runs with the garbage collector off, so the
program's heap does not slow it either.

``fm-cli`` and ``setup_s``, whose work is in child interpreters, are not
scaled: the kernel did not follow them.  Over eight ``fm-cli`` runs the
quartiles of the rate lay 5% apart unscaled and 17% apart scaled by the
kernel; scaling by a bare interpreter start instead helped in one set of
runs and hurt in the next.
"""

from __future__ import annotations

import gc
import itertools
import time

REFERENCE_KERNEL_S = 0.0015
SHARE = 0.1

_PAIRS = frozenset((a, b) for a in range(40) for b in range(40) if (7 * a + 3 * b) % 5 == 0)


def kernel() -> int:
    """About 1.5 ms of interpreter work on this host."""
    pairs = _PAIRS
    hits = 0
    for combo in itertools.product(range(40), repeat=2):
        env = dict(zip("xy", combo))
        if (env["x"], env["y"]) in pairs:
            hits += 1
    return hits


def kernel_time() -> float:
    """Seconds one :func:`kernel` takes, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Kernel times between items, kept per round."""

    def __init__(self):
        self.rounds: list[list[float]] = []

    def new_round(self) -> None:
        self.rounds.append([])

    def after_item(self, item_s: float) -> None:
        """Run the kernel for at least SHARE of *item_s*, and at least once."""
        times = self.rounds[-1]
        spent = 0.0
        while not spent or spent < SHARE * item_s:
            elapsed = kernel_time()
            times.append(elapsed)
            spent += elapsed

    def scale(self) -> float:
        """What to multiply the last round's item times by."""
        times = self.rounds[-1]
        return REFERENCE_KERNEL_S * len(times) / sum(times)

    def kernel_s(self) -> float:
        """The kernel's mean time over the whole run."""
        times = [t for r in self.rounds for t in r]
        return sum(times) / len(times)
