"""A fixed calibration kernel that measures how fast the machine runs right now.

The benchmark's host shares its cores: a fixed amount of work can take twice
as long in one minute as in the next. The kernel runs the same kinds of work
as the ops (Python-level dict, set and tuple code, small NumPy calls and a
dense complex matrix product through BLAS) and never calls ``gqm``, so a
change to the program cannot change it. Ops are timed next to it, and their
times are scaled by ``NOMINAL_S / kernel time``: seconds at a fixed nominal
machine speed.
"""

from time import perf_counter

import numpy as np

NOMINAL_S = 0.005  # the kernel's time on an idle 2-core host of the reference machine

_RNG = np.random.default_rng(0)
_A = (_RNG.standard_normal((144, 144)) + 1j * _RNG.standard_normal((144, 144))) / 12.0
_IDX = _RNG.integers(0, 144, 4096)


def kernel() -> float:
    table: dict = {}
    seen = set()
    for i in range(6000):
        key = (i % 97, i % 13)
        table[key] = table.get((i % 89, i % 7), 0) + i
        seen.add((key, i % 5))
    acc = np.zeros(144, dtype=complex)
    for _ in range(10):
        np.add.at(acc, _IDX, _A[0, _IDX])
    b = _A
    for _ in range(4):
        b = _A @ b
    return float(abs(b[0, 0]) + len(seen) + len(table))


def measure(reps: int = 1) -> float:
    """Median wall time of ``reps`` kernel runs."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return sorted(times)[len(times) // 2]
