"""Fixed reference computations that measure the host's momentary speed.

On a host whose physical cores are shared with other tenants, code runs up
to about 1.6x slower for stretches of seconds to minutes, while thread CPU
time still equals wall time.  Run-to-run spread of raw wall times then
reflects the neighbours, not the program.  The benchmark times a probe
right before and right after every job and every cold start, and rescales
the wall time in between to the probe's fixed reference time: a job that
took 30 ms while the probe took twice its reference time is reported as
15 ms.  A change to gncoder moves the job's time and not the probe's, so it
moves the rescaled time in full.

A probe imports nothing from gncoder and never changes with it.  Each
workload uses the probe whose work slows down with the host the way its
jobs do (README.md has the measurements):

- ``interpreter``: a pure-Python loop, for jobs bound by the interpreter
  and small-array numpy calls;
- ``tall-qr``: a LAPACK QR of a tall 16384x12 matrix, for jobs bound by
  memory bandwidth and BLAS on tall matrices.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Probe:
    name: str
    #: Median time of one probe on the reference machine (README.md).
    #: Rescaled times read as wall times on that machine at that speed.
    reference_ms: float
    work: Callable[[], object]
    #: Runs of ``work`` per probe; more than one ignores a lone outlier.
    repeats: int = 1

    def time(self) -> float:
        """Median wall time in seconds of ``repeats`` runs of the work."""
        times = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, before: float, after: float) -> float:
        """Factor that rescales a wall time bracketed by two probe times."""
        return self.reference_ms / (1e3 * (before + after) / 2)


def _interpreter_loop() -> int:
    total = 0
    for i in range(20000):
        total += i * i
    return total


_TALL = np.random.default_rng(0).standard_normal((16384, 12))


def _tall_qr():
    return np.linalg.qr(_TALL)


PROBES = {
    p.name: p
    for p in (
        Probe("interpreter", 1.6, _interpreter_loop),
        # Three QRs cost 1% of a solve-wide job; a single one read up to
        # 3x its median now and then.
        Probe("tall-qr", 4.3, _tall_qr, repeats=3),
    )
}
