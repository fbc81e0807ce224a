"""Time a fixed reference kernel, to measure how fast the machine is right now.

Usage (normally started by ``run.py``)::

    python3 perfbench/calibrate.py

Prints the kernel's time in seconds as its last stdout line.  The host's speed
drifts by up to 1.7x over seconds to minutes (other tenants share it), and no
run length averages that away, so ``run.py`` times this kernel in its own
process before and after every iteration, on the same vCPU, and rescales the
iteration's times by it.  The kernel imports no nsvsim code and runs in a
process of its own, so nothing the program does can change it.  It is the mix
the workloads spend their time on, at sizes no workload uses: small 2-D FFTs,
matmuls, ``exp`` and interpreted Python (per-call overhead, as in
``ensemble``); a pass over 64 MB arrays (memory bandwidth); 96x96 FFTs
(``hires_path``); and a 400x400 BLAS matmul (``bogovskii``).  Without the
last three, the Bogovskii iterations tracked the kernel worse than raw time.
"""

from __future__ import annotations

import time

import numpy as np

# Repetitions of each part; each part takes about a quarter of the kernel.
SMALL_REPS = 250
STREAM_REPS = 8
FFT_REPS = 40
MATMUL_REPS = 50


def kernel() -> float:
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((2, 40, 40))
    mat = rng.standard_normal((120, 120))
    vec = rng.standard_normal(30_000)
    stream = rng.standard_normal(8_000_000)
    stream_out = np.empty_like(stream)
    fields = rng.standard_normal((4, 96, 96))
    big = rng.standard_normal((400, 400))
    t0 = time.perf_counter()
    for _ in range(SMALL_REPS):
        np.fft.ifft2(np.fft.fft2(grid))
        mat @ mat
        np.exp(-vec * vec)
        total = 0.0
        for x in range(1000):
            total += x * 0.5
    for _ in range(STREAM_REPS):
        np.multiply(stream, 1.0001, out=stream_out)
    for _ in range(FFT_REPS):
        np.fft.ifft2(np.fft.fft2(fields))
    for _ in range(MATMUL_REPS):
        big @ big
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(kernel()))
