"""One shared helper: the correctly rounded sum of a float64 or complex array (moment and character sums)."""

from __future__ import annotations

import math

import numpy as np

# below this length math.fsum beats the numpy passes of exact_sum (measured crossover)
_FSUM_BELOW = 512
# below this many terms each exponent bin's float64 total of halves under 2^27 is exact
_BIN_TERMS = 1 << 26


def exact_sum(values) -> float | complex:
    """The correctly rounded sum of a 1-D float64 array: math.fsum's bits at numpy speed.
    A complex array gives complex(exact_sum(real part), exact_sum(imaginary part)).

    Each x = m 2^e (np.frexp, 1/2 <= |m| < 1) splits its 53-bit mantissa
    m 2^53 exactly into floor(m 2^27) 2^26 and a remainder below 2^26; one
    np.bincount per half adds them in the bin of e, exactly in float64 for
    fewer than 2^26 terms, and the nonzero bins are combined as Python ints
    and rounded once by int true division.  These are the exponent bins of
    Neal, "Fast exact summation using small and large superaccumulators"
    (arXiv:1505.05571).  Short inputs, non-finite values and sums that may
    reach 2^1023 go to math.fsum, so every input on which fsum raises still
    raises from fsum.
    """
    if np.iscomplexobj(values):
        return complex(exact_sum(np.real(values)), exact_sum(np.imag(values)))
    if len(values) < _FSUM_BELOW:
        return math.fsum(values)
    x = np.asarray(values, dtype=np.float64)
    if not (float(np.max(np.abs(x))) * x.size < 2.0**1023 and x.size < _BIN_TERMS):
        return math.fsum(x)
    mant, exp = np.frexp(x)
    hi = np.floor(mant * 2.0**27)
    exp += 1074  # frexp exponents start at -1073 (5e-324): bin index = exponent + 1074
    his = np.bincount(exp, weights=hi)
    los = np.bincount(exp, weights=mant * 2.0**53 - hi * 2.0**26)
    nz = np.flatnonzero(np.logical_or(his, los))
    if not nz.size:  # an exact zero: fsum's sign depends only on whether every term is -0.0
        return math.fsum(x[:1]) if np.signbit(x).all() else 0.0
    b0 = int(nz[0])
    total = sum(((int(h) << 26) + int(lo)) << (b - b0)
                for b, h, lo in zip(nz.tolist(), his[nz].tolist(), los[nz].tolist()))
    shift = b0 - 1074 - 53  # bin b holds integer mantissas of weight 2^(b - 1074 - 53)
    return float(total << shift) if shift >= 0 else total / (1 << -shift)
