"""Time at a reference CPU speed, for steady figures on a shared host.

On a virtual machine shared with other tenants a vCPU's speed changes
from moment to moment: with the other hardware thread of its core busy,
the same interpreter work takes up to about twice as long, in spells of
tens of milliseconds to seconds.  A time measured by the wall clock then
says as much about the neighbours as about the program.

A `Sampler` runs in the measured process itself.  Every INTERVAL_S a
timer signal runs a short fixed kernel of interpreter work and records
when it started and how long it took.  The kernel shares the vCPU with
the program at that moment, so its duration says how fast the vCPU is.
`scaled` turns a stretch of wall time into the time it would have taken
at the reference speed, REFERENCE_S per kernel: each piece of the
stretch between two samples is multiplied by REFERENCE_S over the
kernel's duration there.  The kernel's own time is left out.

REFERENCE_S is the kernel's time on an uncontended vCPU of the machine
the benchmark was written on (Intel Xeon, family 6 model 207, KVM guest,
Python 3.11), so scaled times read about as fast runs do there.  Any
constant would do: a comparison only needs the same one on both sides.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01
REFERENCE_S = 80e-6


def now() -> float:
    """The clock every process of the benchmark shares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_MASKS = [(i * 0x9E3779B97F4A7C15 >> 7) & ((1 << 70) - 1) for i in range(56)]


def kernel() -> int:
    """Fixed interpreter work like the program's hot loops: a search step
    over 70-bit masks that builds a frozenset of banned indices as it goes.
    It allocates like the program does, collections included; kernels
    without allocation tracked the program's slowdowns less well."""
    covered = 0
    for first in range(4):
        banned = frozenset()
        uncovered = (1 << 70) - 1
        for index in range(first, first + 30):
            if index in banned:
                continue
            left = uncovered & ~_MASKS[index % 56]
            covered += left.bit_count()
            if left != uncovered:
                banned = banned | frozenset((index,))
    return covered


class Sampler:
    """Kernel timings taken every INTERVAL_S in this process, on SIGALRM."""

    def __init__(self):
        self.samples = []  # [start, duration]

    def sample(self, *_) -> None:
        start = now()
        kernel()
        self.samples.append([start, now() - start])

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return self.samples


def scaled(samples, begin: float, end: float) -> float:
    """Seconds that [begin, end] would have taken at the reference speed.

    Between two samples the speed is taken from the median kernel time of
    the four samples around that gap, which rides over a kernel that was
    itself interrupted.  Before the first sample and after the last, the
    nearest sample's speed holds.  Kernel time is not counted."""
    if not samples:
        raise ValueError("no speed samples")
    durations = [d for _, d in samples]

    def ratio(i: int) -> float:
        return REFERENCE_S / statistics.median(durations[max(0, i - 1): i + 3])

    total = 0.0
    first_start = samples[0][0]
    if begin < first_start:
        total += (min(end, first_start) - begin) * ratio(0)
    for i in range(len(samples) - 1):
        lo = max(begin, samples[i][0] + samples[i][1])
        hi = min(end, samples[i + 1][0])
        if hi > lo:
            total += (hi - lo) * ratio(i)
    last_end = samples[-1][0] + samples[-1][1]
    if end > last_end:
        total += (end - max(begin, last_end)) * ratio(len(samples) - 1)
    return total


def kernel_seconds(samples, begin: float, end: float) -> float:
    """Seconds of [begin, end] spent in the kernel itself."""
    return sum(max(0.0, min(end, s + d) - max(begin, s)) for s, d in samples)
