"""Pool-adjacent-violators monotone repair (unweighted L2)."""

from __future__ import annotations

import numpy as np


def pav_nondecreasing(y):
    """Least-squares nondecreasing fit to y; returns (fitted, max_adjustment).

    Standard pool-adjacent-violators: maintain a stack of blocks with their
    means and merge while the means decrease. Nondecreasing input is returned
    as a copy. The stack holds Python floats, whose arithmetic is numpy's
    float64 arithmetic without the per-scalar overhead.
    """
    y = np.asarray(y, dtype=np.float64)
    if not y.size:
        return y.copy(), 0.0
    if np.all(y[1:] >= y[:-1]):
        out = y.copy()
    else:
        means, counts = [], []
        for mean in y.tolist():
            count = 1
            while means and means[-1] > mean:
                prev = counts.pop()
                total = means.pop() * prev + mean * count
                count += prev
                mean = total / count
            means.append(mean)
            counts.append(count)
        out = np.repeat(means, counts)
    return out, float(np.max(np.abs(out - y)))
