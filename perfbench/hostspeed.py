"""Host-speed probes, for pass times that do not move with the host.

On a shared host the speed of this process drifts by tens of percent over
minutes, as other tenants load the cores, and every pass time drifts with
it. So the benchmark runs a short fixed probe at the start of each timed
pass, between its units (library calls) and at its end, for a fixed share of
the pass time (``Sampler``). It takes the probes' time out of the pass time
and reports pass time over mean probe time, scaled by the probe's reference
time: the pass time at the host speed the reference was taken at. Probing
inside the pass, not only around it, samples the host over the whole pass.
A probe is built from numpy and plain Python only, never from monolab, so a
change to monolab moves the pass and not the probe, while a change in host
speed moves both.

Each workload has the probe shaped like its own time: ``serial`` is many
small eigensolves and Python-level arithmetic in one thread (hill_climb,
verify_ensembles); ``pool`` is white-noise points of a 6-qubit sweep, with
their 64x64 partial transposes and eigensolves, mapped over a thread pool
sized as the CLI sizes its own (noise_sweep). A probe shaped like a plain
thread-pool loop tracked noise_sweep worse than no probe at all.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a + a.conj().T


# median seconds of one probe on the reference host: 2 vCPUs of a shared
# x86_64 host, Python 3.11, numpy 2.4 with one OpenBLAS thread
REFERENCE_S = {"serial": 0.027, "pool": 0.034}


class Probe:
    """One fixed kernel; ``__call__`` runs it once and returns its seconds."""

    def __init__(self, name: str):
        self.name = name
        self.reference_s = REFERENCE_S[name]
        rng = np.random.default_rng(0)
        self._small = [_hermitian(rng, d) for d in (4, 8, 16) for _ in range(4)]
        self._big = [_hermitian(rng, 64) for _ in range(8)]

    def _serial(self) -> None:
        s = 0.0
        for _ in range(50):
            for m in self._small:
                s += float(np.linalg.eigvalsh(m @ m)[0])
            for i in range(1500):
                s += (i % 7) * 0.5

    def _point(self, i: int) -> float:
        """One white-noise point of a 6-qubit sweep: mix, validate, and the
        six single-qubit partial transposes with their eigensolves."""
        p = (i % 16) / 15
        rho = (1 - p) * self._big[i % len(self._big)] + p * np.eye(64) / 64
        s = float(np.linalg.eigvalsh(rho)[0])
        for q in range(6):
            pt = np.swapaxes(rho.reshape((2,) * 12), q, q + 6).reshape(64, 64)
            s += float(np.abs(np.linalg.eigvalsh(pt)).sum())
        return s

    def _pool(self) -> None:
        workers = min(os.cpu_count() or 1, 4)  # the CLI's default pool size
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(self._point, range(8)))

    def __call__(self) -> float:
        kernel = self._pool if self.name == "pool" else self._serial
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0


class Sampler:
    """Called at the start of a pass, between its units and at its end, it
    runs its probe until the probes have taken ``SHARE`` of the pass time so
    far (at least once per pass), so the host is sampled in proportion to
    the time each part of the pass took."""

    SHARE = 0.1

    def __init__(self, probe: Probe):
        self.probe = probe
        self.times: list[float] = []
        self._start = time.perf_counter()

    def reset(self) -> None:
        self.times.clear()
        self._start = time.perf_counter()

    def __call__(self) -> None:
        while True:
            probed = sum(self.times)
            if self.times and probed >= self.SHARE * (time.perf_counter() - self._start - probed):
                return
            self.times.append(self.probe())
