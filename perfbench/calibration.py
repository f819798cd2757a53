"""Machine-speed calibration measured next to each op.

The shared machine's speed drifts by tens of percent over seconds to minutes.
A run divides each op's wall time by the time of a fixed kernel measured just
before it, and each set-up time by the kernel's time just after it; the
ratio cancels most of that drift.  Neither kernel calls
beatnote, so a change to the package moves the ratio by its own speed-up.
"""

import subprocess
import sys
import time

import numpy as np

CAL_EVERY_S = 0.25  # re-measure the machine's speed at most this often


class Calibration:
    """A kernel whose time tracks the machine's current speed."""

    def once(self):
        raise NotImplementedError

    def measure(self):
        """Median of three runs of the kernel, in seconds."""
        return sorted(self.once() for _ in range(3))[1]


class ComputeCalibration(Calibration):
    """A fixed mix of interpreter, numpy and memory work, for in-process ops."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.to_sort = rng.standard_normal(100_000)
        self.to_transform = rng.standard_normal(1 << 16)
        self.source = rng.standard_normal(500_000)
        self.target = np.empty_like(self.source)

    def once(self):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        np.sort(self.to_sort)
        np.fft.rfft(self.to_transform)
        np.copyto(self.target, self.source)
        return time.perf_counter() - start


class StartupCalibration(Calibration):
    """An interpreter start that imports numpy, for ops that are mostly
    process start-up and imports."""

    def once(self):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        return time.perf_counter() - start
