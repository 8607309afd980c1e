"""Machine-speed reference for calibrated timings.

A shared 2-vCPU Xeon VM runs in speed states that last from seconds to
minutes.  There the same kernels_zz round took from 137 to 256 ms
depending on the state, so raw wall times of two runs of the same code
could differ by more than any useful regression bound.

Every timed round is therefore bracketed by runs of a reference
kernel: a subset-DP determinant of a fixed 11 x 11 integer matrix on
plain Python ints and dicts.  It has the same instruction mix as the
library's L1 kernels (dict updates, small-int arithmetic, bit tricks)
and shares no code with ringmat, so no change to the library moves it.
A calibrated time is the raw time scaled by REFERENCE_S / (mean of the
reference times just before and just after it): the time the work
would take in a machine state where the reference takes REFERENCE_S.  On the machine above, the
ratio of a kernels_zz round to the reference stayed within 31.3-33.5
while the raw round time moved by a factor of 1.9.

The reference kernel and REFERENCE_S are frozen.  Changing either
rescales every calibrated metric, so that is a benchmark change that
must re-measure the baseline.
"""

from __future__ import annotations

import gc
import random
import time

# Nominal reference time: roughly what the reference takes on a
# shared 2-vCPU Xeon VM under CPython 3.11.
REFERENCE_S = 0.005

_N = 11
_RNG = random.Random("ringbench-reference")
_MATRIX = tuple(_RNG.randint(-9, 9) for _ in range(_N * _N))


def _subset_dp_det(e, n):
    table = {0: 1}
    for r in range(n):
        nxt = {}
        base = r * n
        for mask, val in table.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit or not e[base + j]:
                    continue
                term = e[base + j] * val
                if (r + (mask & (bit - 1)).bit_count()) & 1:
                    term = -term
                nm = mask | bit
                nxt[nm] = nxt.get(nm, 0) + term
        table = nxt
    return table.get((1 << n) - 1, 0)


def reference_s() -> float:
    """Seconds for one run of the reference kernel.

    The cyclic collector is paused, so a large heap left behind by the
    code under test cannot slow the reference and flatter that code.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _subset_dp_det(_MATRIX, _N)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scales(refs) -> list:
    """Calibration factor for each round.  refs[i] was measured just
    before round i and refs[i + 1] just after it; round i uses their
    mean."""
    return [2 * REFERENCE_S / (before + after)
            for before, after in zip(refs, refs[1:])]
