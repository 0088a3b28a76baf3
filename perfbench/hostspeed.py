"""Host speed, sampled while the benchmark times the program.

On a shared virtual machine the vCPU runs up to 1.7 times slower in
spells that last from seconds to minutes, so raw wall times of the same
code spread more between runs than a regression bound can tolerate.  The
benchmark therefore times a fixed calibration kernel, which does not
touch the package, next to every call and reports the call's time scaled
to the kernel's reference time ``REFERENCE_S``:

    scaled = (wall - time spent in the kernel) * REFERENCE_S / median kernel time

A change to the package moves ``scaled`` as it moves the raw time; a
slow spell of the host moves the kernel and the call alike and cancels.

``SpeedProbe`` samples the kernel from a ``SIGALRM`` interval timer, so
the samples are spread over the call rather than taken only at its ends.
The handler runs in the main thread between bytecodes and leaves the
program's state alone.  A sample takes about 2 ms every ``INTERVAL_S``,
so a call takes about 2% longer; ``scaled`` leaves that time out.
Sampling pauses while a worker pool is alive, since the kernel would then
compete with the workers for the CPUs.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1  # time between two kernel samples during a call
EDGE_SAMPLES = 5  # kernel samples taken just before and just after a call
KERNEL_ITERS = 24000
# Kernel time on the host the baseline was taken on (2-vCPU Intel Xeon
# virtual machine, Python 3.11), at its usual speed.
REFERENCE_S = 0.002


def kernel():
    """A fixed pure-Python loop: it tracked the package's speed on the
    host better than kernels with numpy calls or large arrays."""
    acc = 0
    for i in range(KERNEL_ITERS):
        acc += i * i % 7
    return acc


def timed_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(seconds, samples):
    """``seconds`` at the reference host speed, given kernel samples."""
    return seconds * REFERENCE_S / statistics.median(samples)


class SpeedProbe:
    """Kernel samples before, during and after a timed call.

    ``with probe: <call>`` takes the samples; ``probe.scaled(wall)`` then
    gives the call's scaled time.  In-call sampling pauses while
    ``paused`` is above 0, which the benchmark sets while a worker pool is
    alive: the kernel would then compete with the workers for the CPUs.
    """

    def __init__(self):
        self.samples = []  # kernel times of the last call
        self.spent = 0.0  # time the in-call samples took
        self.paused = 0

    def _tick(self, signum, frame):
        if not self.paused:
            d = timed_kernel()
            self.samples.append(d)
            self.spent += d

    def scaled(self, wall):
        """Wall time ``wall`` of the last call at the reference host speed."""
        return scale(wall - self.spent, self.samples)

    def __enter__(self):
        self.samples = [timed_kernel() for _ in range(EDGE_SAMPLES)]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += [timed_kernel() for _ in range(EDGE_SAMPLES)]
        return False
