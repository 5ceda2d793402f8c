"""A fixed CPU probe that measures how fast the host runs right now.

The benchmark's host is a few cores of a shared machine whose speed drifts
by 20-70 % over seconds to minutes (other tenants, frequency changes), which
is invisible from inside: CPU time tracks wall time and no time is stolen.
A run therefore repeats ``probe_s()`` after every trial and scales its
medians by ``(REFERENCE_S / median(probe readings)) ** SENSITIVITY``: the
scaled times estimate what the run would take on a host where the probe
takes ``REFERENCE_S``.  The raw medians are kept beside them.

The probe does not touch dqsolve, so no change to the program can move it.
Its mix follows the workloads: an interpreter loop, many numpy calls on
16-amplitude states (batch-of-one circuit runs) and a few on a 420-row
batch.  Changing it changes every scaled number: compare two commits only
with the same probe.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# probe_s() on the host the benchmark was defined on (2 vCPUs, Python 3.11,
# numpy 2.4.6, one BLAS thread); scaled times are in that host's seconds
REFERENCE_S = 0.040
# How far the workloads' times follow the probe's: over ten 30-second runs
# per workload, the log-log slope of the raw run medians on the median probe
# reading was 0.43-0.79 (correlation 0.80-0.90), so a slow host stretches
# the probe about twice as much as the benchmark's own work.
SENSITIVITY = 0.5

_rng = np.random.default_rng(0)
_GATE = (_rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))) / 4
_BATCH = _rng.standard_normal((420, 16)) + 1j * _rng.standard_normal((420, 16))
_ANGLES = _rng.standard_normal(64)


def probe_s() -> float:
    """Seconds taken by one fixed piece of work (about REFERENCE_S)."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(90_000):
        total += (i * i) % 7
        table[i % 97] = i
    state, angles = np.full(16, 0.25 + 0j), _ANGLES
    for _ in range(1_800):
        angles = np.cos(angles) * 0.5 + np.sin(_ANGLES)
        state = _GATE @ state
        state /= np.linalg.norm(state)
    for i in range(60):
        (_BATCH * np.exp(0.1j * i)) @ _GATE
    return time.perf_counter() - start


def scale(readings: list[float]) -> float:
    """Factor that turns this run's seconds into reference seconds."""
    return (REFERENCE_S / median(readings)) ** SENSITIVITY
