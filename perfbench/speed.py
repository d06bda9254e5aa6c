"""Reference-speed probe: how fast is this core right now?

On a shared virtual machine the same single-threaded mission can take
1.8x longer in one minute than in the next, because the host's load moves
under it; repeats of identical work spread far wider than any useful
regression bound. While a mission runs, `SpeedProbe` interrupts it every
PERIOD_S seconds of wall time (SIGALRM) and times a small fixed kernel of
the same kind of work (a scipy SLSQP solve driven by numpy callbacks).
The kernel's mean time over the mission measures the core's average speed
over that same interval. Over 18 back-to-back one-block missions on a
2-vCPU Xeon VM it tracked the mission's own time with a correlation of
0.97, and rescaling cut the mission time's coefficient of variation from
16% to 5%.

`rescale` turns a measured time into seconds at the reference speed, the
speed at which the kernel takes REF_KERNEL_S. Set-up is too short to
sample while it runs; `calibrate` measures the speed right after it. The kernel's own time is
subtracted first. A change to the program does not change the kernel, so
a real speed-up or slow-down of the program shows in full.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.optimize import minimize

PERIOD_S = 0.05
REF_KERNEL_S = 1.0e-3  # about the fastest kernel time seen on a 2.1 GHz Xeon VM core


class SpeedProbe:
    """Context manager sampling the reference kernel while its body runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.uniform(0.1, 1.0, size=(6, 12))
        self._b = np.log1p(self._a.sum(axis=1) * 0.3)
        self.wall = []
        self.cpu = []
        self._kernel()  # first call pays scipy's lazy set-up

    def _kernel(self):
        a, b = self._a, self._b
        minimize(
            lambda x: x.sum(), np.ones(12), jac=lambda x: np.ones(12), method="SLSQP",
            constraints=[{"type": "ineq", "fun": lambda x: np.log1p(a @ x) - b,
                          "jac": lambda x: a / (1.0 + a @ x)[:, None]}],
            bounds=[(0.0, 10.0)] * 12, options={"maxiter": 100, "ftol": 1e-9},
        )

    def _sample(self, _signum, _frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self._kernel()
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)

    def __enter__(self):
        self.wall, self.cpu = [], []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrate(self, seconds: float) -> float:
        """Core speed over `seconds` of back-to-back kernel runs, for work
        too short to sample while it runs (set-up)."""
        wall = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            w0 = time.perf_counter()
            self._kernel()
            wall.append(time.perf_counter() - w0)
        return REF_KERNEL_S * len(wall) / sum(wall)

    def rescale(self, wall_s: float, cpu_s: float) -> tuple:
        """(wall, cpu) with the kernel's share removed, in reference seconds."""
        factor = self.speed()
        return (wall_s - sum(self.wall)) * factor, (cpu_s - sum(self.cpu)) * factor

    def speed(self) -> float:
        """Core speed over the body relative to the reference speed (1 = reference)."""
        if not self.wall:
            raise RuntimeError(f"no speed sample: the body ran under {PERIOD_S} s")
        return REF_KERNEL_S * len(self.wall) / sum(self.wall)
