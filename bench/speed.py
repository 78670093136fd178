"""Times at a fixed reference speed of the host.

The shared host this benchmark was written on runs the same code up to 1.7x
slower in phases of 10-60 s, in CPU time as much as in wall time, so raw
times of unchanged code spread by more than a quarter from run to run. The
benchmark therefore times a fixed computation, the probe, right before and
right after every measured span, and scales the span by REFERENCE_S over the
mean of the two probe times. A change of host speed moves span and probe
alike and cancels; a change to the program moves only the span, since the
probe runs none of the program's code. The probe is the program's kind of
work (small-matrix numpy calls and interpreted Python). REFERENCE_S is the
probe's time on that host in a fast phase, so scaled times read as times on
an unloaded host. Raw wall times are kept beside the scaled ones.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

import numpy as np

REFERENCE_S = 4.0e-3  # probe() on a 2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6, fast phase

_rng = np.random.default_rng(0)
_REAL = _rng.standard_normal((4, 4))
_REAL = _REAL + _REAL.T
_HERM = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_HERM = _HERM + _HERM.conj().T
_UP = np.diag([1.0, 0.0]).astype(complex)

T = TypeVar("T")


def probe() -> float:
    """Wall seconds of the fixed computation, about REFERENCE_S: real and
    complex 4x4 eigenproblems, projector products and traces, generator
    sums and dict churn. Each part alone tracked the host's phases worse on
    one workload or another than the mix does."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(2):
        for _ in range(20):
            acc += float(np.linalg.eigvalsh(_REAL).sum())
            acc += sum(i * 0.5 for i in range(300))
        for _ in range(25):
            acc += float(np.real(np.trace(_HERM @ np.kron(_UP, _UP.conj()))))
            acc += float(np.linalg.eigh(_HERM)[0][0])
        table = {str(i): [i, i * 0.5] for i in range(1500)}
        acc += sum(v[1] for v in table.values())
    return time.perf_counter() - start


class Clock:
    """Times spans at reference speed. Each span is followed by a probe,
    which also serves as the probe before the next span. With probed=False
    (the warm-up inside a timed set-up, which must not pay for probes) the
    clock reads wall time."""

    def __init__(self, probed: bool = True) -> None:
        self.probed = probed
        self._before = probe() if probed else REFERENCE_S
        self.factors: list[float] = []  # REFERENCE_S over the probes, per span

    def time(self, fn: Callable[[], T]) -> tuple[float, float, T]:
        """(wall seconds, seconds at reference speed, result) of fn()."""
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = probe() if self.probed else REFERENCE_S
        factor = 2.0 * REFERENCE_S / (self._before + after)
        self._before = after
        self.factors.append(factor)
        return wall, wall * factor, result
