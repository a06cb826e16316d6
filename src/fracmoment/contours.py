"""Numerical contour integration bench for the identities the moment bounds rest on.

Checks implemented here, each against an independent closed form or
divisor-sum oracle:

* the Perron weights (1/2 pi i) int x^w w^{-m} dw for m = 2, 3,
* the truncated Hankel loop for 1/Gamma(alpha),
* fractional powers of zeta on the principal branch, with continuity
  tracking along a homotopy from the real ray,
* the paired-shift double integral
  (1/2 pi i)^2 iint zeta^beta(1 + z1 + z2) y^{z1+z2} (z1 z2)^{-alpha} dz
  on the lines Re z = 1/log y, whose exact expansion is a weighted divisor
  sum (the quarter-power final integral is its alpha=5/2, beta=1/4 instance),
* stability of the correction factor eta in the Euler-product factorization
  sum_n sigma_shifts(n) n^{-(1+w0)} = prod_i zeta^{1/2s}(1 + w0 + w_i) * eta.

The double integral is evaluated after substituting z = (1 + i t)/log y, which
moves all the log-y oscillation into a unit-frequency factor; the two axes then
decouple through one FFT convolution over t1 + t2.
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
from .util import trapezoid_weights

# ---------------------------------------------------------------------------
# Perron weights and the Hankel loop
# ---------------------------------------------------------------------------


def perron_weight(order: int, x: float) -> float:
    """(1/2 pi i) int_(c) x^w w^{-order} dw: log^{order-1}(x)/(order-1)! for
    x > 1 and 0 for x < 1.

    The line is taken at c = 1/|log x| and reparametrized so the oscillation
    has unit frequency (step h = 0.05 up to u = T = 4000); a first-order
    endpoint correction removes most of the truncation tail of the slowly
    decaying w^{-order} factor.
    """
    if order not in (2, 3):
        raise DomainError("Perron weight implemented for orders 2 and 3")
    if x <= 0:
        raise DomainError("x must be positive")
    if x == 1.0:
        raise DomainError("x = 1 is the boundary case and is excluded")
    T, h = 4000.0, 0.05
    L = math.log(x)
    aL = abs(L)
    sgn = 1.0 if L > 0 else -1.0
    c = 1.0 / aL
    u = np.arange(0.0, T + h / 2, h)
    phi = (c + 1j * u / aL) ** (-order)
    integral = complex(np.sum(np.exp(1j * sgn * u) * phi * trapezoid_weights(u.size))) * h
    # by parts: int_T^inf e^{i sgn u} phi du = -e^{i sgn T} phi(T)/(i sgn) + smaller
    integral += -np.exp(1j * sgn * T) * phi[-1] / (1j * sgn)
    return float((math.e * integral / (math.pi * aL)).real)


def perron_weight_closed_form(order: int, x: float) -> float:
    if x < 1:
        return 0.0
    return math.log(x) ** (order - 1) / math.factorial(order - 1)


def _hankel_level(alpha: float, arm: float, npu: int) -> float:
    pieces = []
    n1 = max(int(arm * npu), 33)
    sig = np.linspace(-arm, 0.0, n1)
    pieces.append((sig - 1j, np.full(n1, sig[1] - sig[0], dtype=complex)))
    n2 = max(int(math.pi * npu), 33)
    th = np.linspace(-math.pi / 2, math.pi / 2, n2)
    circ = np.exp(1j * th)
    pieces.append((circ, 1j * circ * (th[1] - th[0])))
    sig = np.linspace(0.0, -arm, n1)
    pieces.append((sig + 1j, np.full(n1, sig[1] - sig[0], dtype=complex)))
    total = 0j
    for w, dw in pieces:
        total += np.sum(np.exp(w) * w ** (-alpha) * dw * trapezoid_weights(w.size))
    return float((total / (2j * math.pi)).real)


@np.errstate(over="raise")  # w^{-alpha} at alpha ~ 1e20 raises FloatingPointError, not a warning
def hankel_recip_gamma(alpha: float, arm: float = 25.0) -> float:
    """1/Gamma(alpha) from the loop integral of w^{-alpha} e^w over a truncated
    Hankel contour (unit-radius loop, arms of length `arm` at height +-1,
    400 and then 800 nodes per unit length).

    The dropped arms beyond -arm contribute O(e^{-arm}); past arm = 100 that
    is below e^-100 ~ 4e-44 and only the node arrays grow, so arm is refused.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"alpha must be finite and positive, got {alpha}")
    if not (math.isfinite(arm) and 10 <= arm <= 100):
        raise DomainError(f"arm must lie in [10, 100], got {arm}")
    coarse = _hankel_level(alpha, arm, 400)
    fine = _hankel_level(alpha, arm, 800)
    # one Richardson step on the O(h^2) trapezoid error
    return fine + (fine - coarse) / 3.0


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

# The m = 1 numeric is refused past this alpha: its integral is ~Gamma(alpha)^-2 of its terms,
# so rounding leaves rel_err up to 4e-5 at alpha = 9 and 8e-3 at 10, at step 0.05 or 0.01.
PAIRED_SHIFT_ALPHA_MAX = 9.0
# The trapezoid step.  Its aliasing error is (2 pi/h + 1)^{alpha-1} e^{-2 pi/h} of the integral
# ((1 + it)^{-alpha} is Gamma(alpha)'s characteristic function), 2e-38 at PAIRED_SHIFT_ALPHA_MAX;
# against h = 0.01 the value moves by 0.2% (alpha = 3) and 0.02% (QUARTER) of the truncation error.
PAIRED_SHIFT_STEP = 0.05


@dataclass
class PairedShiftReport:
    gamma: float
    oracle: float
    numeric: Optional[float] = None
    numeric_imag: float = 0.0
    rel_err: Optional[float] = None
    # (y, oracle, oracle/(log y)^gamma) per sweep point, the ratio the lower bound controls
    sweep_rows: list[tuple[float, float, float]] = field(default_factory=list)


def _self_convolve(phi: np.ndarray) -> np.ndarray:
    """Full linear convolution phi * phi by FFT, padded as scipy's fftconvolve
    pads complex input: to the smallest 11-smooth length >= 2 len(phi) - 1,
    i.e. the smallest such divisor of 2310^64 (2310 = 2*3*5*7*11)."""
    size = n = 2 * phi.size - 1
    while 2310**64 % n:
        n += 1
    return np.fft.ifft(np.fft.fft(phi, n) ** 2)[:size]


def paired_shift_numeric(alpha: float, beta: float, y: float) -> complex:
    """The 2-D line integral after z = (1 + i t)/log y on both axes, by the
    trapezoid rule at step PAIRED_SHIFT_STEP on |t| <= T = 400.

    The zeta factor depends only on t1 + t2, so the double sum collapses to
    one convolution of the axis factor e^{it} (1 + it)^{-alpha} with itself.
    """
    if alpha > PAIRED_SHIFT_ALPHA_MAX:
        raise DomainError(f"paired-shift numeric limited to alpha <= {PAIRED_SHIFT_ALPHA_MAX:g}")
    T, h = 400.0, PAIRED_SHIFT_STEP
    L = math.log(y)
    t = np.arange(-T, T + h / 2, h)
    n = t.size
    phi = np.exp(1j * t) * (1 + 1j * t) ** (-alpha) * trapezoid_weights(n)
    conv = _self_convolve(phi)
    # zeta^beta at 1 + (2 + i tau)/L for tau = (k - (n - 1)) h, k < 2n - 1
    zb = zeta_power_line(beta, 1 + (2 - 1j * (n - 1) * h) / L, 1j * h / L, 2 * n - 1)
    total = complex(np.sum(zb * conv)) * h * h
    pref = math.e**2 * L ** (2 * alpha - 2) / (4 * math.pi**2)
    return pref * total


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
    largest y; m = 2 past M2_ORACLE_YMAX is refused before it is sieved.  The
    numeric path is run only for m = 1 (a genuine 2-D quadrature); for m = 2
    the 4-D grid is out of budget and the oracle alone is reported.
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
    if y <= 2:
        raise DomainError("require y > 2")
    if any(v <= 1 for v in sweep):
        raise DomainError(f"sweep values must exceed 1, where (log y)^gamma vanishes; got {sweep}")
    if m == 2 and max([y, *sweep]) > M2_ORACLE_YMAX:
        raise DomainError(f"m = 2 oracle limited to y <= {M2_ORACLE_YMAX}")
    gamma = 2 * m * alpha + m * m * beta - 2 * m
    d = divisor_series(beta, math.ceil(max([y, *sweep])) - 1)
    oracle = {v: paired_shift_oracle(m, alpha, d, v) for v in dict.fromkeys([y, *sweep])}
    rep = PairedShiftReport(gamma, oracle[y], sweep_rows=[(v, oracle[v], oracle[v] / math.log(v) ** gamma)
                                                          for v in sweep])
    if m == 1:
        val = paired_shift_numeric(alpha, beta, y)
        rep.numeric = float(val.real)
        rep.numeric_imag = float(val.imag)
        rep.rel_err = abs(rep.numeric - rep.oracle) / abs(rep.oracle)
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
            raise ConvergenceError(
                f"Re(w0 + {w}) <= 0.2: truncated sums will not settle at desk cutoffs"
            )
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
