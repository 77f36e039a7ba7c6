"""Fixed reference kernels that gauge the host's current speed.

On a shared host the cores' speed drifts by up to half again over minutes,
in both directions, and a 25 s run cannot average it out. A fixed kernel
doing the same kind of work as a workload slows down with it. Two kinds of
slowdown showed on a 2-vCPU Xeon VM: one hits cache-resident compute, the
other memory traffic. So each workload names the kernel that matches its
work: `Reference` (small float32 GEMMs, FFT round trips, elementwise numpy,
a pure-Python loop) for text-to-speech and training, `StreamingReference`
(GEMMs whose right-hand side does not fit a core's L2 cache, and streaming
elementwise passes) for batch spectrogram rendering, whose large conv GEMMs
and temporaries stream memory.

The gated times are reported at a fixed nominal speed: each one is
multiplied by nominal_s / (the kernel's time around it). They read as
seconds on a host where the kernel takes nominal_s. The two nominal times
were measured side by side, so both kernels name the same host speed. The
kernels' inputs are fixed and never touch the program, so a change to
melsynth moves only the operation's side.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    """Cache-resident compute: what Griffin-Lim and the toy training do."""

    nominal_s = 0.030

    def __init__(self):
        rng = np.random.default_rng(0)
        self.lhs = rng.standard_normal((256, 1280), dtype=np.float32)
        self.rhs = rng.standard_normal((1280, 400), dtype=np.float32)
        self.frames = rng.standard_normal((200, 1024))
        self.signal = rng.standard_normal(1 << 16)
        self.run()  # the first run also pays for BLAS start-up and FFT plans

    def kernel(self):
        for _ in range(8):
            self.lhs @ self.rhs
        for _ in range(4):
            np.fft.irfft(np.fft.rfft(self.frames, axis=1), axis=1)
        for _ in range(8):
            np.exp(np.tanh(self.signal)).sum()
        total = 0
        for i in range(60000):
            total += i

    def run(self):
        """Seconds the kernel takes now."""
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def scale(self, before, after):
        """Factor taking seconds timed between two kernel runs to nominal."""
        return 2.0 * self.nominal_s / (before + after)


class StreamingReference(Reference):
    """Memory traffic: what batch-16 conv GEMMs and their temporaries do.
    Its arrays (about 15 MB) stay allocated for the whole run."""

    nominal_s = 0.019

    def __init__(self):
        rng = np.random.default_rng(0)
        self.lhs = rng.standard_normal((256, 1280), dtype=np.float32)
        self.rhs = rng.standard_normal((1280, 1000), dtype=np.float32)
        self.signal = rng.standard_normal(1 << 19)
        self.out = np.empty_like(self.signal)
        self.run()

    def kernel(self):
        for _ in range(3):
            self.lhs @ self.rhs
        for _ in range(5):
            np.multiply(self.signal, 1.5, out=self.out)
            np.add(self.out, self.signal, out=self.out)
            self.out.sum()
