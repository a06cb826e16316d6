"""Numerical contour integration bench for the identities the moment bounds rest on.

Checks implemented here, each against an independent closed form or
divisor-sum oracle:

* the Perron weights (1/2 pi i) int x^w w^{-m} dw for m = 2, 3,
* Hankel's integral (1/2 pi i) int_(c) e^w w^{-alpha} dw = 1/Gamma(alpha),
* fractional powers of zeta on the principal branch, with continuity
  tracking along a homotopy from the real ray,
* the paired-shift double integral
  (1/2 pi i)^2 iint zeta^beta(1 + z1 + z2) y^{z1+z2} (z1 z2)^{-alpha} dz
  on the saddle lines Re z = c/log y, whose exact expansion is a weighted divisor
  sum (the quarter-power final integral is its alpha=5/2, beta=1/4 instance),
* stability of the correction factor eta in the Euler-product factorization
  sum_n sigma_shifts(n) n^{-(1+w0)} = prod_i zeta^{1/2s}(1 + w0 + w_i) * eta.

Every line integral, Perron's, Hankel's and the paired shift's, is summed on one Perron axis
after z = (c + i t)/L with c = max(6, alpha - 1): a coarse trapezoid grid with an Euler-summed
tail (Trefethen and Weideman, SIAM Review 56, 2014).  The paired shift's two axes decouple
through one convolution over t1 + t2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .lvalues import zeta_progression
from .sieve import ShiftVector, divisor_series, shifted_series

# ---------------------------------------------------------------------------
# The Perron axis: Perron weights and 1/Gamma
# ---------------------------------------------------------------------------


# The Perron axis: step h, last plain node T = _AXIS_NODES h, _AXIS_TAIL Euler nodes past each end, and
# the least line c, where the aliasing error e^{c - 2 pi c/h} of the terms is e^-31.  A term with no
# oscillation left (zeta's at n ~ y) escapes Euler's sum, and its tail shrinks like (c/T)^alpha: so T = 500.
_AXIS_STEP, _AXIS_NODES, _AXIS_TAIL, _AXIS_C = 1.0, 500, 8, 6.0


def _perron_axis(alpha: float, sign: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The line c, the nodes t and terms phi with sum_k phi_k ~ int e^{i sign t} (1 + it/c)^{-alpha} dt.

    c = max(_AXIS_C, alpha - 1): at the saddle alpha - 1 of e^w w^{-alpha} the terms are about the size
    of the integral, so no digits cancel at any alpha.  The nodes t_k = k h with |t_k| <= T weigh
    h e^{i sign t_k}.  The grid tail h sum_{k>=1} z^k f(T + kh), z = e^{i sign h}, is Euler's
    h sum_{j<J} r^{j+1} Delta^j f(T + h), r = z/(1 - z): fixed weights on the J nodes past T, and past -T
    the same with z conjugated.
    """
    h, K, J = _AXIS_STEP, _AXIS_NODES, _AXIS_TAIL
    c = max(_AXIS_C, alpha - 1)
    z = cmath.exp(1j * sign * h)
    r = z / (1 - z)
    # Delta^j f_1 = sum_{i<=j} (-1)^{j-i} C(j, i) f_{1+i}
    tail = np.array([sum(r ** (j + 1) * (-1) ** (j - i) * math.comb(j, i) for j in range(i, J)) for i in range(J)])
    t = np.arange(-(K + J), K + J + 1) * h
    w = np.exp(1j * sign * t)
    w[-J:] = cmath.exp(1j * sign * K * h) * tail
    w[:J] = (cmath.exp(-1j * sign * K * h) * tail.conj())[::-1]
    return c, t, h * w * (1 + 1j * t / c) ** (-alpha)


def _line(alpha: float, sign: float) -> complex:
    """(1/2 pi i) int_(c) e^{sign w} w^{-alpha} dw on the Perron axis.

    After w = c + it it is e^{sign c} c^{-alpha}/(2 pi) int e^{i sign t} (1 + it/c)^{-alpha} dt, with the
    prefactor in logs: at large alpha e^c and c^{-alpha} over- and underflow apart.
    """
    c, _, phi = _perron_axis(alpha, sign)
    return cmath.exp(sign * c - alpha * math.log(c) - math.log(2 * math.pi) + cmath.log(complex(np.sum(phi))))


def perron_weight(order: int, x: float) -> float:
    """(1/2 pi i) int_(c) x^w w^{-order} dw: log^{order-1}(x)/(order-1)! for x > 1 and 0 for x < 1.

    After w -> w/|log x| it is |log x|^{order-1} times the Perron line at sign sgn(log x).
    """
    if order not in (2, 3):
        raise DomainError("Perron weight implemented for orders 2 and 3")
    if x <= 0:
        raise DomainError("x must be positive")
    if x == 1.0:
        raise DomainError("x = 1 is the boundary case and is excluded")
    L = math.log(x)
    return abs(L) ** (order - 1) * _line(order, math.copysign(1.0, L)).real


def perron_weight_closed_form(order: int, x: float) -> float:
    if x < 1:
        return 0.0
    return math.log(x) ** (order - 1) / math.factorial(order - 1)


def hankel_recip_gamma(alpha: float) -> float:
    """1/Gamma(alpha) from Hankel's (1/2 pi i) int_(c) e^w w^{-alpha} dw, the Perron line at sign +1.

    Below alpha = 1 it is alpha/Gamma(alpha + 1): the line's absolute error, about 5e-13, would swamp
    1/Gamma(alpha) ~ alpha as alpha -> 0.  For alpha >= 172, 1/Gamma(alpha) is subnormal or 0 as a
    double, and so is the result.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"alpha must be finite and positive, got {alpha}")
    if alpha < 1:
        return alpha * _line(alpha + 1, 1.0).real
    return _line(alpha, 1.0).real


# ---------------------------------------------------------------------------
# Fractional powers of zeta
# ---------------------------------------------------------------------------


def _step_logs(to: np.ndarray, frm: np.ndarray) -> np.ndarray:
    """Principal log(to/frm) per step of a branch-tracked walk.  Summed step
    logs follow the branch only while each step turns zeta well under pi, so a
    step past pi/4 (a grid too coarse to see which way zeta wound) is refused."""
    steps = np.log(to / frm)
    turn = np.abs(steps.imag).max(initial=0.0)
    if turn > math.pi / 4:
        raise ConvergenceError(f"zeta turns by {turn:.3g} rad in one step (> pi/4): branch not tracked")
    return steps


def _tracked_logs(zv: np.ndarray, anchor: int) -> np.ndarray:
    """log zeta along a walk of zeta values, continued from the principal log at
    zv[anchor] by the cumulative step logs on each side of it."""
    logs = np.empty(zv.size, dtype=complex)
    logs[anchor] = np.log(zv[anchor])
    logs[anchor + 1 :] = logs[anchor] + np.cumsum(_step_logs(zv[anchor + 1 :], zv[anchor:-1]))
    logs[:anchor] = (logs[anchor] + np.cumsum(_step_logs(zv[:anchor], zv[1 : anchor + 1])[::-1]))[::-1]
    return logs


def zeta_frac_power(alpha: float, s: complex) -> complex:
    """zeta(s)^alpha on the principal branch continued from the real ray.

    On Re s >= 2, |zeta(s) - 1| <= zeta(2) - 1 < 1, so the principal log is
    the continued branch there and no walk is needed.  Left of that line zeta
    is evaluated on the progression from s to 2 + i Im s, in steps of at most
    a quarter of the walk's distance to the pole, and the log is tracked back
    from that end to s.  Real s on (1/2, 1] is refused: the only
    continuation paths cross the pole from one side or the other, so the
    branch there is genuinely ambiguous.
    """
    s = complex(s)
    if s == 1:
        raise DomainError("zeta has a pole at s = 1")
    if s.real <= 0.5:
        raise DomainError("require Re s > 1/2")
    if s.imag == 0 and s.real <= 1:
        raise DomainError("real s <= 1: branch ambiguous across the pole")
    count, ds = 1, 0.0
    if s.real < 2:
        dist = max(abs(s.imag) if s.real <= 1 else abs(s - 1), 1e-4)
        count = max(8, int((2 - s.real) / min(0.02, dist / 4)) + 2)
        ds = (2 - s.real) / (count - 1)
    logs = _tracked_logs(zeta_progression(s, ds, count), count - 1)
    return complex(np.exp(alpha * logs[0]))


def zeta_power_line(beta: float, s0: complex, ds: complex, count: int) -> np.ndarray:
    """zeta^beta at s0 + k ds for k < count, branch-tracked from the midpoint,
    where zeta is (nearly) real positive on the symmetric lines used."""
    return np.exp(beta * _tracked_logs(zeta_progression(s0, ds, count), count // 2))


# ---------------------------------------------------------------------------
# The paired-shift double integral and its divisor-sum oracle
# ---------------------------------------------------------------------------


# The quarter-power final integral as (m, alpha, beta): its oracle is
# sum_{n<y} d_{1/4}(n)/n (log^{3/2}(y/n)/Gamma(5/2))^2 and it grows like
# (log y)^gamma with gamma = 2*5/2 + 1/4 - 2 = 13/4.
QUARTER = (1, 2.5, 0.25)

# The m = 2 oracle is refused beyond this y.
M2_ORACLE_YMAX = 3000


@dataclass
class PairedShiftReport:
    gamma: float
    oracle: float
    numeric: Optional[float] = None
    rel_err: Optional[float] = None
    # (y, oracle, oracle/(log y)^gamma) per sweep point, the ratio the lower bound controls
    sweep_rows: list[tuple[float, float, float]] = field(default_factory=list)


def _self_convolve(phi: np.ndarray) -> np.ndarray:
    """Full linear convolution phi * phi by FFT, padded as scipy's fftconvolve pads complex input: to the
    least 11-smooth length >= 2 len(phi) - 1, the least such divisor of 2310^64 (2310 = 2*3*5*7*11)."""
    size = n = 2 * phi.size - 1
    while 2310**64 % n:
        n += 1
    return np.fft.ifft(np.fft.fft(phi, n) ** 2)[:size]


def paired_shift_numeric(alpha: float, beta: float, y: float) -> complex:
    """The 2-D line integral after z = (c + i t)/log y on both axes, summed on the Perron axis.

    The zeta factor depends only on t1 + t2, so the double sum phi^T K phi (K Hankel) is one
    self-convolution of phi against one zeta line of 2n - 1 points.
    """
    L = math.log(y)
    c, t, phi = _perron_axis(alpha, 1.0)
    # zeta^beta at 1 + (2c + i tau)/L for the 2n - 1 sums tau = t_j + t_k, from 2 t_0 in steps of h
    zb = zeta_power_line(beta, 1 + (2 * c + 2j * t[0]) / L, 1j * _AXIS_STEP / L, 2 * t.size - 1)
    total = complex(np.sum(zb * _self_convolve(phi)))
    # e^{2c} L^{2 alpha - 2} c^{-2 alpha}/(2 pi)^2 in logs: at large alpha its factors over- and underflow apart
    log_pref = 2 * c + (2 * alpha - 2) * math.log(L) - 2 * alpha * math.log(c) - 2 * math.log(2 * math.pi)
    return cmath.exp(log_pref + cmath.log(total))


@np.errstate(over="raise")  # log^{alpha-1} at alpha ~ 1e5 raises FloatingPointError, not a warning
def paired_shift_oracle(m: int, alpha: float, d: np.ndarray, y: float) -> float:
    """Exact divisor-sum expansion of the paired-shift integral from the
    divisor series d = d_beta, sieved to at least y - 1.

    With D(n) = d_beta(n)/n and the Perron weight f(u) = log^{alpha-1}(y/u)/Gamma(alpha)
    for u < y (0 from y on), m = 1 is sum_n D(n) f(n)^2 and m = 2 is
    sum_{a,b,c,e} D(a) D(b) D(c) D(e) f(ab) f(bc) f(ce) f(ea) = tr(M^4), M = DK, K[a, b] = f(ab).
    """
    if m not in (1, 2):
        raise DomainError("oracle implemented for m = 1 and m = 2")
    if m == 2 and y > M2_ORACLE_YMAX:
        raise DomainError(f"m = 2 oracle limited to y <= {M2_ORACLE_YMAX}")
    N = math.ceil(y) - 1
    n = np.arange(1, N + 1)
    D, f = d[1 : N + 1] / n, np.log(y / n) ** (alpha - 1) / math.gamma(alpha)  # f[u - 1] = f(u)
    if m == 1:
        return float(np.sum(D * f * f))
    # a, b > s = isqrt(N) give ab > N, so M is 0 there; with P = M_SS and
    # G = M_SL M_LS (s x s), tr(M^4) = tr(P^4) + 4 tr(P^2 G) + 2 tr(G^2)
    s = math.isqrt(N)
    ab = n[:s, None] * n
    K = np.where(ab <= N, f[np.minimum(ab, N) - 1], 0.0)  # rows a <= s of K
    P = D[:s, None] * K[:, :s]
    G = (D[:s, None] * K[:, s:] * D[s:]) @ K[:, s:].T
    P2 = P @ P
    return float(np.sum(P2 * P2.T) + 4 * np.sum(P2 * G.T) + 2 * np.sum(G * G.T))


def paired_shift_check(m: int, alpha: float, beta: float, y: float, sweep: Sequence[float] = ()) -> PairedShiftReport:
    """Compare the 2m-fold contour integral with its divisor-sum oracle at y,
    and tabulate the oracle over the sweep.

    Each distinct y is expanded once, from one divisor series sieved to the
    largest y; m = 2 past M2_ORACLE_YMAX is refused before it is sieved, and an
    oracle or sweep ratio that underflows below a normal double after.  The
    numeric path is run only for m = 1 (a genuine 2-D quadrature); the m = 2
    numeric is not implemented yet, and the oracle alone is reported.  y and
    every sweep value must exceed 2: the m = 1 numeric at v sums zeta up to
    |Im s| = 1016/log v, whose Euler-Maclaurin tables grow without bound as v
    nears 1.
    gamma = 2 m alpha + m^2 beta - 2 m is the log-power the integral grows at.
    """
    sweep = [float(v) for v in sweep]
    if not all(map(math.isfinite, (alpha, beta, y, *sweep))):
        raise DomainError("alpha, beta, y and the sweep values must be finite")
    if m not in (1, 2):
        raise DomainError("m must be 1 or 2")
    if alpha <= 2:
        raise DomainError("require alpha > 2")
    if beta <= 0:
        raise DomainError("require beta > 0")
    if min([y, *sweep]) <= 2:
        raise DomainError(f"y and the sweep values must exceed 2; got y = {y:g} and sweep {sweep}")
    if m == 2 and max([y, *sweep]) > M2_ORACLE_YMAX:
        raise DomainError(f"m = 2 oracle limited to y <= {M2_ORACLE_YMAX}")
    gamma = 2 * m * alpha + m * m * beta - 2 * m
    d = divisor_series(beta, math.ceil(max([y, *sweep])) - 1)
    oracle = {v: paired_shift_oracle(m, alpha, d, v) for v in dict.fromkeys([y, *sweep])}
    rows = [(v, oracle[v], oracle[v] / math.log(v) ** gamma) for v in sweep]
    for v, *values in [(y, oracle[y]), *rows]:
        if not min(values) >= np.finfo(float).tiny:
            raise DomainError(f"at y = {v:g} the oracle or its ratio to (log y)^gamma is not a positive "
                              f"normal double: {values}")
    rep = PairedShiftReport(gamma, oracle[y], sweep_rows=rows)
    if m == 1:
        rep.numeric = paired_shift_numeric(alpha, beta, y).real
        rep.rel_err = abs(rep.numeric - rep.oracle) / rep.oracle
    return rep


# ---------------------------------------------------------------------------
# Stability of the Euler-product correction factor
# ---------------------------------------------------------------------------


@dataclass
class EtaStabilityReport:
    estimates: tuple
    drift: float


@np.errstate(over="raise")  # n^{-(1 + w0)} at w0 ~ 1e308 raises FloatingPointError, not a warning
def eta_stability(s_param: int, w0: complex, shifts: ShiftVector, levels: Sequence[int]) -> EtaStabilityReport:
    """Estimate eta = [sum_{n<=N} sigma_shifts(n) n^{-(1+w0)}] / prod_i
    zeta^{1/2s}(1 + w0 + w_i) at a ladder of cutoffs N.

    Successive estimates settling down is the convergence evidence; the exact
    factorization makes the limit 1, which the estimates approach.  Requires
    Re(w0 + w_i) > 0.2 so the truncated sums converge at desk cutoffs.
    """
    w0 = complex(w0)
    if not cmath.isfinite(w0):
        raise DomainError(f"w0 must be finite, got {w0}")
    for w in shifts.shifts:
        if (w0 + complex(w)).real <= 0.2:
            raise ConvergenceError(f"Re(w0 + {w}) <= 0.2: truncated sums will not settle at desk cutoffs")
    levels = tuple(sorted(int(N) for N in levels))
    if len(set(levels)) < 2 or levels[0] < 1:
        raise DomainError(f"need at least two distinct cutoff levels, each at least 1; got {levels}")
    Nmax = levels[-1]
    series = shifted_series("sigma", shifts, s_param, Nmax)
    n = np.arange(1, Nmax + 1)
    weighted = series[1:] * np.exp(-(1 + w0) * np.log(n))
    partial = np.cumsum(weighted)
    denom = 1 + 0j
    for w in shifts.shifts:
        denom *= zeta_frac_power(1.0 / (2 * s_param), 1 + w0 + complex(w))
    estimates = tuple(complex(partial[N - 1] / denom) for N in levels)
    drift = max(abs(estimates[i + 1] - estimates[i]) for i in range(len(estimates) - 1))
    return EtaStabilityReport(estimates=estimates, drift=drift)
