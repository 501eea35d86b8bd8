"""Machine-speed reference used to normalise wall-clock times.

Shared 2-vCPU virtual machines, like the one the baseline in README.md was
measured on, have bursts, from under a second to minutes long, in which the
same code runs up to 1.8x slower; the two vCPUs burst independently. So the speed is sampled on the benchmark's own thread
while it works: a timer signal every ``INTERVAL`` seconds runs three fixed
reference kernels that belong to the benchmark, never to the program under
test, and records how slow each ran relative to its time in the machine's
fast state. The time the samples take is subtracted from the phase they
interrupt. A phase's normalised time is

    normalised = raw * mean(1 / slowness of the samples taken during it,
                            just before it and just after it)

which is "seconds on the measuring machine in its fast state". Parent and change run
the same kernels, so a change to the program moves the normalised time
exactly as it moves the raw time.

The kernels react to bursts differently, and so do the program's phases:

* ``small``: a Python loop over small-array numpy ops that records closures and
  replays them, like the per-sample autodiff tape (demo-sized arrays);
* ``bulk``: an elementwise pass and a contraction over a 2 MB (100, 100, 25)
  array, like the paper config's attention pair tensor;
* ``fault``: first touches of freshly mapped pages, which tracks the memory
  system.

slowness is the mix of the three ratios given by each workload's ``mix``,
fitted with ``calibrate.py``.
"""

from __future__ import annotations

import contextlib
import mmap
import signal
import time

import numpy as np

# Kernel times, in seconds, in the machine's fast state.
REFERENCE = (0.00088, 0.0024, 0.0012)
INTERVAL = 0.1
FAULT_PAGES = 512

_RNG = np.random.default_rng(20230312)
_A = _RNG.standard_normal((20, 16))
_B = _RNG.standard_normal((16, 16))
_BIG = _RNG.standard_normal((100, 100, 25))
_V = _RNG.standard_normal(25)


def small_kernel():
    rules = []
    for _ in range(100):
        c = _A @ _B
        d = np.where(c > 0, c, 0.2 * c)
        e = d.sum(axis=0)
        rules.append(lambda g, e=e: g * e)
    for rule in reversed(rules):
        rule(1.0)


def bulk_kernel():
    y = np.where(_BIG > 0, _BIG, 0.2 * _BIG)
    y @ _V


def fault_kernel():
    region = mmap.mmap(-1, FAULT_PAGES * mmap.PAGESIZE)
    pages = np.frombuffer(region, dtype=np.uint8)
    pages[:: mmap.PAGESIZE] = 1
    del pages
    region.close()


KERNELS = (small_kernel, bulk_kernel, fault_kernel)


def slowness_now(mix, samples: int = 5) -> float:
    """Median mix-weighted slowness over a few back-to-back kernel samples."""
    ratios = []
    for _ in range(samples):
        t0 = time.perf_counter()
        row = []
        for kernel, ref in zip(KERNELS, REFERENCE):
            kernel()
            t1 = time.perf_counter()
            row.append((t1 - t0) / ref)
            t0 = t1
        ratios.append(float(np.dot(row, mix)))
    return float(np.median(ratios))


class Clock:
    """Raw and speed-normalised seconds per named phase.

    Use as a context manager around the timed passes; ``phase`` times a block.
    ``mix`` weights the (small, bulk, fault) kernels. ``samples`` keeps
    (time, slowness of each kernel) and ``phases`` keeps (name, first sample,
    end sample, raw seconds) for ``calibrate.py``; ``stolen`` is the total
    time the samples have taken.
    """

    def __init__(self, mix: tuple[float, float, float]):
        if len(mix) != len(KERNELS) or min(mix) < 0 or abs(sum(mix) - 1.0) > 1e-9:
            raise ValueError(f"mix must be {len(KERNELS)} non-negative weights summing to 1, got {mix}")
        self.mix = np.asarray(mix)
        self.samples: list[tuple[float, ...]] = []
        self.phases: list[tuple[str, int, int, float]] = []
        self.raw: dict[str, float] = {}
        self.norm: dict[str, float] = {}
        self.stolen = 0.0
        self._sampling = False
        self._previous = None

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_timer(self, signum, frame):
        if not self._sampling:
            self.sample()

    def sample(self):
        self._sampling = True
        start = t0 = time.perf_counter()
        ratios = []
        for kernel, ref in zip(KERNELS, REFERENCE):
            kernel()
            t1 = time.perf_counter()
            ratios.append((t1 - t0) / ref)
            t0 = t1
        self.samples.append((start, *ratios))
        self.stolen += t0 - start
        self._sampling = False

    @contextlib.contextmanager
    def phase(self, name: str, mix=None):
        """Time a block; ``mix`` overrides the clock's kernel mix for it."""
        self.sample()
        first = len(self.samples) - 1
        t0, stolen0 = time.perf_counter(), self.stolen
        try:
            yield
        finally:
            t1 = time.perf_counter()
            raw = (t1 - t0) - (self.stolen - stolen0)
            self.sample()   # a short phase still gets samples on both sides
            self.phases.append((name, first, len(self.samples), raw))
            weights = self.mix if mix is None else np.asarray(mix)
            slowness = np.array([r[1:] for r in self.samples[first:]]) @ weights
            inv = float(np.mean(1.0 / slowness))
            self.raw[name] = self.raw.get(name, 0.0) + raw
            self.norm[name] = self.norm.get(name, 0.0) + raw * inv

    def reset(self):
        """Start a new pass: forget the per-phase sums and old samples."""
        self.raw, self.norm = {}, {}
        self.samples.clear()
        self.phases.clear()
