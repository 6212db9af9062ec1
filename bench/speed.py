"""Machine-speed calibration, so that timings survive a drifting machine.

On a shared machine the speed of pure-Python work can drift by a factor of
two within tens of seconds, far more than any regression bound, and runs
of the same code then disagree.  The benchmark therefore times a fixed
reference computation (the benchmark's own exact arithmetic, never the
package under test) between calls, outside the timed region, and reports
every time scaled to the speed at which that computation takes
``REFERENCE_NS``:

    reported = measured * REFERENCE_NS / local reference time

where the local reference time is the median of the samples taken within
WINDOW samples of the call's start (about a second of busy time either
side).  The unscaled figures
are printed in the report line next to the scaled ones.  The garbage
collector is paused while sampling, so the reference time does not depend
on how many objects the package under test keeps alive.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import exact
import inputs

REFERENCE_NS = 5_000_000
INTERVAL_NS = 250_000_000  # busy time between two samples
WINDOW = 4


def _reference_inputs():
    rng = inputs.case_rng(0, "calibration", 0)
    a = [[inputs.small_scalar(rng, 3) for _ in range(6)] for _ in range(6)]
    b = [[(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
           Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(6)] for _ in range(6)]
    return a, b


class Speed:
    """Reference-computation samples taken between calls."""

    def __init__(self):
        self.samples = []
        self._busy = 0
        self._a, self._b = _reference_inputs()

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            for _ in range(2):
                product = exact.matmul(self._a, self._b)
                exact.det(product)
                exact.rank(product)
            self.samples.append(time.perf_counter_ns() - start)
        finally:
            if enabled:
                gc.enable()

    @property
    def epoch(self):
        """Index of the latest sample; a call is tagged with it when it starts."""
        return len(self.samples) - 1

    def after_call(self, latency_ns):
        """Count a call's busy time and sample when the interval is up."""
        self._busy += latency_ns
        if self._busy >= INTERVAL_NS:
            self._busy = 0
            self.sample()

    def scale(self, latency_ns, epoch):
        """latency_ns at the reference speed, from the samples around epoch."""
        local = statistics.median(self.samples[max(0, epoch - WINDOW):epoch + WINDOW + 1])
        return latency_ns * REFERENCE_NS / local

    def run_factor(self):
        """REFERENCE_NS over the median sample of the whole run."""
        return REFERENCE_NS / statistics.median(self.samples)

    def report(self):
        return {"reference_ms": REFERENCE_NS / 1e6, "samples": len(self.samples),
                "median_sample_ms": statistics.median(self.samples) / 1e6}
