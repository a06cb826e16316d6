"""Small shared helpers: the trapezoid end weights."""

from __future__ import annotations

import numpy as np


def trapezoid_weights(n: int) -> np.ndarray:
    """Trapezoid-rule weights over n equally spaced nodes, in units of the step."""
    wts = np.ones(n)
    wts[0] = wts[-1] = 0.5
    return wts
