"""The host's momentary speed, read from a fixed reference kernel.

The benchmark's host shares its cores with other machines: for stretches
of seconds to minutes the same work runs up to twice as slowly, and a
run can fall wholly inside such a stretch, where no fastest-of-n
estimate escapes it.  The reference kernel does what the package's inner
loops do (small complex products, Hermitian eigenproblems, norms) and
slows down with it.  A measured time scaled by ``NOMINAL_S / sample``
is the time the work would take at the reference speed, that of an idle
2-vCPU Xeon VM; the benchmark reports its times scaled this way.  The
kernel does not touch the package, so a change to the package moves the
scaled times in the same proportion as the measured ones.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_MATS = [
    _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16)) for _ in range(3)
]

# Median of five reference runs on an idle 2-vCPU Xeon VM.
NOMINAL_S = 1.9e-4


def _kernel() -> float:
    acc = 0.0
    for a in _MATS:
        q = a @ a.conj().T
        acc += float(np.linalg.eigh(q)[0][-1]) + float(np.linalg.norm(q))
    return acc


def sample() -> float:
    """Median time of five runs of the reference kernel, in seconds."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def scale(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the reference took ``reference_s``,
    scaled to the reference speed."""
    return seconds * NOMINAL_S / reference_s
