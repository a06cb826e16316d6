"""Sieve-backed generation of multiplicative coefficient sequences.

Everything here is dense up to a cutoff N, as a plain array of length N + 1
whose slot n is the coefficient of n^{-s} (slot 0 is 0): generalized divisor
coefficients d_alpha(n) (the Dirichlet coefficients of zeta(s)^alpha), the
Mobius function, log-weighted polynomial coefficients, mu-twisted mollifier
coefficients with squared log weights, and complex-shifted convolution series.
The multiplicative sequences come from one generator fed their Euler factors
f(p^e), one list per sequence computed once per call, which sieves the smallest
prime factors up to its own cutoff; the rest are Dirichlet convolutions of such
pieces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

# Shift real parts below this make the Euler products behind the shifted
# series diverge; reject them at construction time.
SHIFT_RE_MIN = -3.0 / 16.0

# Largest cutoff of a multiplicative series: its smallest-prime-factor table
# is then 40 MB of int32.
SIEVE_CAP = 10**7

# Largest block of n that _multiplicative completes at once, bounding its
# temporaries to a few MB whatever the cutoff.
_BLOCK = 1 << 16


def _smallest_prime_factors(limit: int) -> np.ndarray:
    """int32 spf[n], the least prime dividing n, for 2 <= n <= limit.

    spf[p] = p for prime p; spf[0] = 0 and spf[1] = 1 are sentinels.
    """
    if not 0 <= limit <= SIEVE_CAP:
        raise DomainError(f"series cutoff must be in [0, {SIEVE_CAP}], got {limit}")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    untouched = spf == 0
    spf[untouched] = np.arange(limit + 1, dtype=np.int32)[untouched]
    return spf


@dataclass(frozen=True)
class ShiftVector:
    """Ordered finite complex shifts with real parts bounded below by -3/16."""

    shifts: tuple[complex, ...]

    def __post_init__(self):
        if len(self.shifts) < 1:
            raise DomainError("shift vector must contain at least one shift")
        for w in self.shifts:
            if not cmath.isfinite(w):
                raise DomainError(f"shift {w} is not finite")
            if complex(w).real < SHIFT_RE_MIN:
                raise DomainError(f"shift {w} has real part below {SHIFT_RE_MIN}")


def _exact(alpha) -> Fraction:
    """alpha at its exact value, a float at its exact binary value."""
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    return Fraction(alpha)


def _euler_coeffs(alpha, count: int) -> list[float]:
    """d_alpha(p^e) for e < count: c_0 = 1, c_{e+1} = c_e (alpha + e)/(e + 1)
    in Fractions, each rounded once."""
    a, c, coeffs = _exact(alpha), Fraction(1), []
    for e in range(count):
        coeffs.append(float(c))
        c = c * (a + e) / (e + 1)
    return coeffs


def _mu_twisted(beta: float, count: int) -> list[float]:
    """The Euler factors of d_beta(n) mu(n) for e < count: 1, -beta, 0, 0, ..."""
    return ([1.0, -beta] + [0.0] * count)[:count]


def divisor_coeff(alpha, n: int) -> float:
    """d_alpha(n) = prod over p^e || n of prod_{i<e} (alpha+i)/(i+1), exact, rounded once.

    n is factored by trial division, independently of the sieve behind the series.
    """
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    a, acc = _exact(alpha), Fraction(1)
    m, p = int(n), 2
    while m > 1:
        if p * p > m:
            p = m  # what is left is prime
        i = 0
        while m % p == 0:
            m, acc, i = m // p, acc * (a + i) / (i + 1), i + 1
        p += 1
    return float(acc)


def _multiplicative(local, cutoff: int, dtype=float) -> np.ndarray:
    """Dense f(n), n <= cutoff, of the multiplicative f with f(p^e) = local(p, e).

    local(p, e) takes an int array of primes and one exponent e >= 1.  With
    p = spf(n) and p^e || n, f(n) = f(p^e) f(n/p^e): prime powers come straight
    from local, every other n in blocks [lo, hi) with hi <= 2 lo, so that
    n/p^e <= n/2 < lo is final before its block starts.  Slot 0 is 0.
    """
    spf = _smallest_prime_factors(cutoff)
    f = np.zeros(cutoff + 1, dtype=dtype)
    f[1:2] = 1
    primes = np.flatnonzero(spf == np.arange(cutoff + 1, dtype=np.int32))[2:]
    pk, k = primes, 1
    while pk.size:  # the prime powers p^k <= cutoff, one exponent at a time
        f[pk] = local(primes[: pk.size], k)
        pk = pk * primes[: pk.size]
        pk, k = pk[pk <= cutoff], k + 1
    lo = 2
    while lo <= cutoff:
        hi = min(2 * lo, lo + _BLOCK, cutoff + 1)
        n, p = np.arange(lo, hi, dtype=np.int32), spf[lo:hi]
        pe = p.copy()  # grows to p^e || n
        grow = np.flatnonzero(n // p % p == 0)
        while grow.size:
            pe[grow] *= p[grow]
            grow = grow[n[grow] // pe[grow] % p[grow] == 0]
        # n = p^e m with f(p^e) = 0 stays 0
        keep = (pe != n) & (f[pe] != 0)
        n, pe = n[keep], pe[keep]
        f[n] = f[pe] * f[n // pe]
        lo = hi
    return f


def _series(euler: list[float], cutoff: int) -> np.ndarray:
    """Dense f(n), n <= cutoff, of the multiplicative f with f(p^e) = euler[e]."""
    return _multiplicative(lambda p, e: euler[e], cutoff)


def divisor_series(alpha, cutoff: int) -> np.ndarray:
    """Dense d_alpha(n) for n <= cutoff, each d_alpha(p^e) rounded once from its exact value."""
    return _series(_euler_coeffs(alpha, cutoff.bit_length()), cutoff)


def mobius_series(cutoff: int) -> np.ndarray:
    """Dense Mobius function mu(n) for n <= cutoff."""
    return _series(_mu_twisted(1.0, cutoff.bit_length()), cutoff)


def dirichlet_convolve(f: np.ndarray, g: np.ndarray, cutoff: int) -> np.ndarray:
    """Dirichlet convolution out[n] = sum_{d|n} f[d] g[n/d] for n <= cutoff.

    Hyperbola split at r = isqrt(cutoff): one slice update per d <= r, then one
    per quotient e = r, ..., 1 for the divisors d > r, so every out[n] still
    adds its terms in increasing d.
    """
    if f.size <= cutoff or g.size <= cutoff:
        raise DomainError(f"convolution cutoff {cutoff} exceeds input cutoffs ({f.size - 1}, {g.size - 1})")
    out = np.zeros(cutoff + 1, dtype=np.result_type(f, g))
    r = math.isqrt(cutoff)
    for d in range(1, r + 1):
        out[d::d] += f[d] * g[1 : cutoff // d + 1]
    for e in range(r, 0, -1):
        out[(r + 1) * e :: e] += f[r + 1 : cutoff // e + 1] * g[e]
    return out


def _log_weighted(euler: list[float], A: int, x: float, power: int, cutoff: int) -> np.ndarray:
    """A-fold Dirichlet power of f(n) log^power(x/n)/log^power(x) on n <= floor(x),
    for the multiplicative f with f(p^e) = euler[e]."""
    support = min(cutoff, int(math.floor(x)))
    head = _series(euler, support)[1:] * (np.log(x / np.arange(1, support + 1)) / math.log(x)) ** power
    base = np.zeros(cutoff + 1)
    base[1 : support + 1] = head
    out = base
    for _ in range(A - 1):
        out = dirichlet_convolve(out, base, cutoff)
    return out


def _check_weights(A: int, B: int, name: str, x: float) -> None:
    if A < 1 or B < 1:
        raise DomainError("A and B must be positive integers")
    if not (math.isfinite(x) and x > 1.0):
        raise DomainError(f"{name} must be finite and exceed 1, got {x}")


def weighted_poly_coeffs(A: int, B: int, x: float, cutoff: int) -> np.ndarray:
    """Coefficients of the A-fold log-weighted short polynomial.

    out[n] = sum over ordered factorizations n_1 ... n_A = n with every
    n_i <= x of prod_i d_{1/B}(n_i) * log(x/n_i)/log(x).  The factor cutoff
    compares n_i against floor(x); the log weight uses the real x.
    """
    _check_weights(A, B, "x", x)
    return _log_weighted(_euler_coeffs(Fraction(1, B), cutoff.bit_length()), A, x, 1, cutoff)


def mollifier_coeffs(A: int, B: int, y: float, cutoff: int) -> np.ndarray:
    """Coefficients of the A-fold mu-twisted mollifier with squared log weights.

    out[n] = 2^{-A} * sum over ordered factorizations n_1 ... n_A = n with
    n_i <= y of prod_i d_{1/B}(n_i) mu(n_i) log^2(y/n_i)/log^2(y).
    """
    _check_weights(A, B, "y", y)
    return _log_weighted(_mu_twisted(1 / B, cutoff.bit_length()), A, y, 2, cutoff) * 0.5**A


def shifted_series(mode: str, shifts, s_param: int, cutoff: int) -> np.ndarray:
    """Complex convolution series over ordered factorizations.

    mode "sigma": factors d_{1/2s}(n_i) n_i^{-w_i}.
    mode "rho":   factors d_{1/s}(n_i) mu(n_i) n_i^{-z_i}.
    mode "psi":   shifts is a pair (w_vec, z_vec); sigma-type factors for the
                  w shifts followed by rho-type factors for the z shifts.

    Every factor is multiplicative, so the series is too: its local factor at
    p^e is the Cauchy product in e of the factors' local factors.
    """
    if s_param < 1:
        raise DomainError("s parameter must be a positive integer")

    def vector(sv):
        # past Re w = 1100 every p^{-w} is 0 in double, its true limit; the cap keeps -w j log p finite
        shifts = map(complex, (sv if isinstance(sv, ShiftVector) else ShiftVector(tuple(sv))).shifts)
        return [complex(min(w.real, 1100.0), w.imag) for w in shifts]

    if mode == "psi":
        if not (isinstance(shifts, (tuple, list)) and len(shifts) == 2):
            raise DomainError("psi mode requires a pair of shift vectors")
        ws, zs = (vector(sv) for sv in shifts)
    elif mode in ("sigma", "rho"):
        ws, zs = (vector(shifts), ()) if mode == "sigma" else ((), vector(shifts))
    else:
        raise DomainError(f"unknown shifted-series mode {mode!r}")
    count = cutoff.bit_length()
    sigma, rho = _euler_coeffs(Fraction(1, 2 * s_param), count), _mu_twisted(1 / s_param, count)
    specs = [(sigma, w) for w in ws] + [(rho, z) for z in zs]

    def local(p, e):
        logp = np.log(p)
        acc = [np.ones(p.size, dtype=complex)] + [0] * e  # coefficients of p^0 .. p^e
        for coef, shift in specs:
            fac = [c * np.exp(-complex(shift) * j * logp) for j, c in enumerate(coef[: e + 1])]
            acc = [sum(acc[i] * fac[j - i] for i in range(j + 1)) for j in range(e + 1)]
        return acc[e]

    return _multiplicative(local, cutoff, complex)
