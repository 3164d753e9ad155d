"""Timings at a nominal machine speed, for a shared host whose speed drifts.

On a shared virtual machine the same code runs up to about 1.7x slower for
spells of a fraction of a second to minutes, as other tenants load the host;
CPU time rises with wall time, so neither measures the program alone. While
timed code runs, ``Speedometer`` interrupts it every ``INTERVAL_S`` seconds
(SIGALRM) and times ``probe()``, a fixed piece of pure-Python work. Samples
are spread evenly over wall time, so the mean of ``NOMINAL_S / probe time`` is
the share of nominal speed the machine gave over the interval, and::

    nominal seconds = (measured seconds - time spent in probes) * speed

is how long the timed work takes on a machine where the probe takes
``NOMINAL_S``, about what it takes on a quiet 2-vCPU Xeon VM with Python
3.11, so nominal seconds are close to that machine's quiet seconds.

Run as a script, it runs one brandt-ranks CLI command in-process under a
``Speedometer``, captures the command's stdout and prints one JSON document
``{"rc", "stdout", "speed", "probe_s", "probes"}``; its exit code is the
command's:

    python3 perfbench/speed.py verify --n 2 --format json
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import statistics
import sys
import time

INTERVAL_S = 0.02
NOMINAL_S = 0.00075
PROBE_ITERS = 1500
# a fixed random 40-element multiplication table for the probe's closures
_rng = random.Random(2)
_TABLE = [[_rng.randrange(40) for _ in range(40)] for _ in range(40)]


def _closure(gens: tuple[int, ...]) -> int:
    """Bitmask closure of ``gens`` under ``_TABLE``, shaped like the engine's kernel."""
    have = 0
    for g in gens:
        have |= 1 << g
    elems, i = list(gens), 0
    while i < len(elems):
        a = elems[i]
        row = _TABLE[a]
        for b in elems[: i + 1]:
            for c in (row[b], _TABLE[b][a]):
                if not have >> c & 1:
                    have |= 1 << c
                    elems.append(c)
        i += 1
    return have


def probe() -> float:
    """Seconds taken by fixed integer, bit and dict work and two small closures.

    Slow spells slow some kinds of work more than others, so the probe mixes
    a tight arithmetic loop with work shaped like the program's own.
    """
    start = time.perf_counter()
    x, acc, seen = 12345, 0, {}
    for _ in range(PROBE_ITERS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc |= 1 << (x & 63)
        seen[x & 255] = acc
    _closure((3, 17))
    _closure((5, 11))
    return time.perf_counter() - start


class Speedometer:
    """Samples the machine's speed while the ``with`` block runs.

    One probe runs just before and one just after the block, so even a block
    shorter than the interval has two samples. Only probes inside the block
    are counted in ``probe_s``.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.probe_s = 0.0
        self.elapsed_s = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            took = probe()
            self.samples.append(took)
            self.probe_s += took
        finally:
            self._busy = False

    def __enter__(self) -> "Speedometer":
        self.samples.append(probe())
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(probe())

    @property
    def speed(self) -> float:
        return statistics.fmean(NOMINAL_S / p for p in self.samples)

    def nominal(self, seconds: float) -> float:
        """``seconds`` measured around the block, at nominal speed."""
        return (seconds - self.probe_s) * self.speed


def main(argv: list[str]) -> int:
    out = io.StringIO()
    with Speedometer() as meter, contextlib.redirect_stdout(out):
        from brandt_ranks import cli

        rc = cli.run(argv)
    json.dump({"rc": rc, "stdout": out.getvalue(), "speed": meter.speed,
               "probe_s": meter.probe_s, "probes": len(meter.samples)}, sys.stdout)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
