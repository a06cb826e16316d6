"""Sieve-backed generation of multiplicative coefficient sequences.

Everything here is dense up to a cutoff N, as a plain array of length N + 1
whose slot n is the coefficient of n^{-s} (slot 0 is 0): generalized divisor
coefficients d_alpha(n) (the Dirichlet coefficients of zeta(s)^alpha), the
Mobius function, log-weighted polynomial coefficients, mu-twisted mollifier
coefficients with squared log weights, and complex-shifted convolution series.
The multiplicative sequences come from one generator fed their Euler factors
f(p^e), one list per sequence computed once per call, which makes one strided
pass over the multiples of each prime up to the square root of its cutoff; the
rest are Dirichlet convolutions of such pieces.
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

# Largest cutoff of a multiplicative series: its cofactor table is then 40 MB
# of int32.
SIEVE_CAP = 10**7

# Largest run of n that _multiplicative scans or updates at once, bounding its
# temporaries to a few MB whatever the cutoff.
_BLOCK = 1 << 16


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


def _multiplicative(local, cutoff: int, dtype=float) -> np.ndarray:
    """Dense f(n), n <= cutoff, of the multiplicative f with f(p^e) = local(p, e).

    local(p, e) takes an int array of primes and one exponent e >= 1; it is called once for each
    e = 1, 2, ..., in that order, with p the primes whose p^e <= cutoff, so each p is a prefix
    of the last and p.size never grows.  Dividing
    every small prime p <= sqrt(cutoff) out of rest = n leaves rest[n] = 1 or
    the one prime factor P > sqrt(cutoff) of n, so f starts at f(P) or 1; then
    each small prime, largest first, multiplies f(p^e) into f[p::p] as the left
    operand: f(n) = f(p1^e1) (f(p2^e2) (... f(P))) for p1 < p2 < ... < P.
    Slot 0 is 0 and every zero is +0.
    """
    if not 0 <= cutoff <= SIEVE_CAP:
        raise DomainError(f"series cutoff must be in [0, {SIEVE_CAP}], got {cutoff}")
    root = math.isqrt(cutoff)
    f = np.zeros(cutoff + 1, dtype=dtype)  # first, so the scratch arrays free above it on the heap
    rest, small = np.arange(cutoff + 1, dtype=np.int32), []
    for p in range(2, root + 1):
        if rest[p] == p:  # no smaller prime divides p
            small.append(p)
            q = p
            while q <= cutoff:
                rest[q::q] //= p
                q *= p
    primes = np.concatenate([np.array(small, dtype=np.intp)] + [  # then the n > root with rest[n] = n
        lo + np.flatnonzero(rest[lo : lo + _BLOCK] == np.arange(lo, min(lo + _BLOCK, cutoff + 1)))
        for lo in range(root + 1, cutoff + 1, _BLOCK)])
    powers, pk = [], primes  # powers[k - 1][i] = local(primes[i], k) while primes[i]^k <= cutoff
    while pk.size:
        powers.append(np.empty(pk.size, dtype=dtype))
        powers[-1][:] = local(primes[: pk.size], len(powers))
        pk = pk * primes[: pk.size]
        pk = pk[pk <= cutoff]
    f[1 : root + 1] = 1  # f(rest[n]), which is f(1) for every n <= root
    if powers:
        f[primes[len(small) :]] = powers[0][len(small) :]
    for lo in range(root + 1, cutoff + 1, _BLOCK):
        f[lo : lo + _BLOCK] = f[rest[lo : lo + _BLOCK]]
    del rest
    for i in reversed(range(len(small))):
        p, view = small[i], f[small[i] :: small[i]]  # view[m - 1] = f(p m)
        own = [w[i] for w in powers if i < w.size]  # f(p), f(p^2), ...
        for lo in range(0, view.size, _BLOCK):
            loc, q = np.full(min(_BLOCK, view.size - lo), own[0]), p
            for value in own[1:]:  # loc[t] = f(p^e) where p^(e-1) || m = lo + 1 + t
                loc[-(lo + 1) % q :: q] = value
                q *= p
            block = view[lo : lo + _BLOCK]
            np.multiply(loc, block, out=block)  # loc on the left: numpy's fused complex product is not commutative
    f += 0.0  # -0 + 0 = +0
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
    base[1 : support + 1] = head + 0.0  # the weight is 0 at n = x, and -0 + 0 = +0
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


def shifted_series(ws: ShiftVector | None, zs: ShiftVector | None, s_param: int, cutoff: int) -> np.ndarray:
    """Convolution series over ordered factorizations.

    One factor d_{1/2s}(n_i) n_i^{-w_i} per shift w_i of ws (sigma), then one
    factor d_{1/s}(n_i) mu(n_i) n_i^{-z_i} per shift z_i of zs (rho); psi takes
    both.  Either vector may be None, but not both.

    Every factor is multiplicative, so the series is too: its local factor at
    p^e is the Cauchy product in e of the factors' local factors.  When every
    shift is real, so is every local factor, and the series is sieved and
    returned in float64; otherwise it is complex.
    """
    if s_param < 1:
        raise DomainError("s parameter must be a positive integer")
    if ws is None and zs is None:
        raise DomainError("a shifted series needs a w or a z shift vector")
    count = cutoff.bit_length()
    sigma, rho = _euler_coeffs(Fraction(1, 2 * s_param), count), _mu_twisted(1 / s_param, count)
    # past Re w = 1100 every p^{-w} is 0 in double, its true limit; the cap keeps -w j log p finite
    specs = [(coef, complex(min(w.real, 1100.0), w.imag))
             for coef, sv in ((sigma, ws), (rho, zs)) if sv is not None for w in map(complex, sv.shifts)]
    real = all(shift.imag == 0 for _, shift in specs)
    # fac[k][j] is the k-th factor's coefficient of p^j and acc[k][j] that of the first k factors'
    # product, whose degrees past 0 start as the int 0 each sum starts from
    fac, acc = [[] for _ in specs], [[] for _ in range(len(specs) + 1)]

    def local(p, e):
        # e rises by one per call on ever shorter p, so the lower degrees are kept, cut to p, and
        # degree e costs e + 1 products per factor
        for row in fac + acc:
            row[:] = [a[: p.size] if isinstance(a, np.ndarray) else a for a in row]
        logp = np.log(p)
        for d in range(len(acc[0]), e + 1):
            acc[0].append(np.ones(p.size, dtype=complex) if d == 0 else 0)
            for k, (coef, shift) in enumerate(specs):
                fac[k].append(coef[d] * np.exp(-shift * d * logp))
                acc[k + 1].append(sum(acc[k][i] * fac[k][d - i] for i in range(d + 1)))
        return acc[-1][e].real if real else acc[-1][e]

    # a real factor's imaginary parts are signed zeros, so each float product is the complex one's real part
    return _multiplicative(local, cutoff, float if real else complex)
