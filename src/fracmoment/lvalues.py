"""Three independent routes to Dirichlet L-values at the critical point.

Route 1 (oracle): the exact finite decomposition L(1/2, chi) =
q^{-1/2} sum_{a=1}^{q-1} chi(a) zeta(1/2, a/q), with the Hurwitz zeta values
from high-order Euler-Maclaurin summation.  This is the reference everything
else is compared against.

Route 2 (smoothed): the exponentially smoothed Dirichlet sum
sum_m chi(m) m^{-1/2} e^{-m/X} with X = q^{5/4}, which approximates
L(1/2, chi) with an O(q^{-1/8} log q) error.

Route 3 (afe): the exact approximate-functional-equation identity
|L(1/2, chi)|^2 = 2 sum_{m,n} chi(m) chibar(n) (mn)^{-1/2} W_par(q/(pi m n)),
valid for primitive chi, with the smooth cutoff W_par evaluated by
vertical-line quadrature of its squared-Gamma Mellin integrand.

All-character batches ride on the group DFT from the character engine and are
memoized per modulus in one cache of read-only arrays; lvalue_table hands out
one route's values, squares and error estimate together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import loggamma

from .characters import CharacterTable, dft_all_characters
from .errors import DomainError
from .util import trapezoid_weights

# B_2, B_4, ..., B_26 as floats; 13 correction terms push the Euler-Maclaurin
# remainder far below double precision for the |Im s| ranges used here.
_BERN = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
    43867.0 / 798,
    -174611.0 / 330,
    854513.0 / 138,
    -236364091.0 / 2730,
    8553103.0 / 6,
)
_BERN_FACT = tuple(b / math.factorial(2 * k) for k, b in enumerate(_BERN, start=1))


# ---------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin
# ---------------------------------------------------------------------------

def _em_terms(im_s: float) -> int:
    # main-sum length grows with |Im s| to keep the correction series decaying
    return int(max(28, 1.3 * abs(im_s) + 24))


def _euler_maclaurin(s, a, terms: int) -> np.ndarray:
    """sum_{n < terms} (n + a)^{-s} plus the Euler-Maclaurin tail from N = terms + a.

    s and a broadcast against each other; this is zeta(s, a) for s != 1.
    """
    out = np.zeros(np.broadcast(s, a).shape, dtype=complex)
    for n in range(terms):
        out += np.exp(-s * np.log(n + a))
    Na = terms + a
    ln = np.log(Na)
    out += np.exp((1 - s) * ln) / (s - 1) + 0.5 * np.exp(-s * ln)
    fac = np.exp(-s * ln) / Na
    poch = s
    for k, bf in enumerate(_BERN_FACT, start=1):
        out += bf * poch * fac
        fac = fac / (Na * Na)
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
    return out


def hurwitz_zeta_over_a(s: complex, a: np.ndarray) -> np.ndarray:
    """zeta(s, a) for one complex s != 1 and an array of a in (0, 1]."""
    s = complex(s)
    if s == 1:
        raise DomainError("zeta(s, a) has a pole at s = 1")
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0) or np.any(a > 1):
        raise DomainError("a must lie in (0, 1]")
    return _euler_maclaurin(s, a, _em_terms(s.imag))


def zeta_values(s: np.ndarray) -> np.ndarray:
    """Riemann zeta for an array of complex s (no entry equal to 1)."""
    s = np.asarray(s, dtype=complex)
    if np.any(s == 1):
        raise DomainError("zeta(s) has a pole at s = 1")
    im_max = float(np.max(np.abs(s.imag))) if s.size else 0.0
    # at a = 1 the tail starts at N = terms + 1, so N itself follows _em_terms
    return _euler_maclaurin(s, 1.0, _em_terms(im_max) - 1)


def hurwitz_zeta(s: complex, a: float = 1.0) -> complex:
    """zeta(s, a) for scalar s != 1, a in (0, 1]; relative error ~1e-13."""
    return complex(hurwitz_zeta_over_a(s, np.array([a]))[0])


# ---------------------------------------------------------------------------
# The smooth cutoff W
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WWeightSpec:
    """Quadrature parameters for the Mellin integral defining W.

    c is the nominal vertical line (any c > 0 gives the same value); T the
    truncation height; nodes the trapezoid node count.  Evaluation shifts the
    line internally for conditioning: for x >= 4 the residue at w = 0 is
    extracted and the remainder integrated on Re w = -1/4, and for x < 1/4
    the line moves right to c = 3 to capture the x^3 decay.
    """

    c: float = 0.25
    T: float = 40.0
    nodes: int = 4001

    def __post_init__(self):
        if not (0 < self.c < 0.5):
            raise DomainError("W line must satisfy 0 < c < 1/2")
        if self.T < 10:
            raise DomainError("W truncation height must be >= 10")
        if self.nodes < 101:
            raise DomainError("W quadrature needs at least 101 nodes")


_DEFAULT_WSPEC = WWeightSpec()


def _w_line_values(x: np.ndarray, parity: int, c: float, T: float, nodes: int) -> np.ndarray:
    """(1/2 pi) int_{-T}^{T} G(c+it) x^{c+it} dt for the normalized Gamma kernel."""
    t = np.linspace(-T, T, nodes)
    w = c + 1j * t
    kernel = np.exp(2 * loggamma(0.25 + (w + parity) / 2) - 2 * loggamma(0.25 + parity / 2)) / w
    h = t[1] - t[0]
    kw = kernel * trapezoid_weights(nodes)
    lx = np.log(x)
    osc = np.exp(np.outer(1j * lx, t))
    return (osc @ kw).real * (h / (2 * math.pi)) * np.exp(c * lx)


def w_weight_many(
    x: np.ndarray, parity: int, spec: WWeightSpec = _DEFAULT_WSPEC
) -> np.ndarray:
    """W_parity(x) for an array of x > 0, by regime-split line quadrature."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("W weight requires x > 0")
    if parity not in (0, 1):
        raise DomainError("parity must be 0 (even) or 1 (odd)")
    out = np.empty(x.shape)
    big = x >= 4.0
    tiny = x < 0.25
    mid = ~big & ~tiny
    if np.any(big):
        out[big] = 1.0 + _w_line_values(x[big], parity, -0.25, spec.T, spec.nodes)
    if np.any(mid):
        out[mid] = _w_line_values(x[mid], parity, spec.c, spec.T, spec.nodes)
    if np.any(tiny):
        out[tiny] = _w_line_values(x[tiny], parity, 3.0, spec.T, spec.nodes)
    return out


def w_weight(x: float, parity: int, spec: WWeightSpec = _DEFAULT_WSPEC) -> float:
    """Smooth cutoff W_parity(x): ~1 for large x, power-small for x < 1."""
    return float(w_weight_many(np.array([float(x)]), parity, spec)[0])


def _w_bulk(x: np.ndarray, parity: int, spec: WWeightSpec) -> np.ndarray:
    """W on a large batch of x: cubic spline in log x over exact anchors.

    Anchor spacing 0.02 in log x keeps the interpolation error below ~1e-10,
    negligible against the 1e-6 tolerances of the AFE consumers.
    """
    if x.size <= 4000:
        return w_weight_many(x, parity, spec)
    u = np.log(x)
    ulo, uhi = float(u.min()) - 0.01, float(u.max()) + 0.01
    anchors = np.linspace(ulo, uhi, max(801, int((uhi - ulo) / 0.02) + 2))
    wa = w_weight_many(np.exp(anchors), parity, spec)
    return CubicSpline(anchors, wa)(u)


# ---------------------------------------------------------------------------
# The three routes, batched over all characters
# ---------------------------------------------------------------------------

_CACHE: dict = {}


def clear_caches() -> None:
    _CACHE.clear()


def _memo(key: tuple, build, *args):
    """build(*args) computed once per key; every array it returns is stored read-only."""
    if key not in _CACHE:
        value = build(*args)
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        _CACHE[key] = value
    return _CACHE[key]


def _oracle_batch(table: CharacterTable) -> np.ndarray:
    q = table.q
    hz = hurwitz_zeta_over_a(0.5, np.arange(1, q) / q)
    return dft_all_characters(table, hz / math.sqrt(q))


def oracle_values(table: CharacterTable) -> np.ndarray:
    """L(1/2, chi_j) for every j via the Hurwitz decomposition and one DFT.

    Slot 0 carries the principal-character value zeta(1/2)(1 - q^{-1/2}).
    """
    return _memo(("oracle", table.q), _oracle_batch, table)


def _smoothed_batch(table: CharacterTable, tail_multiplier: float) -> np.ndarray:
    q = table.q
    X = q**1.25
    M = int(tail_multiplier * X)
    acc = np.zeros(q)
    block = 1 << 22
    for lo in range(1, M + 1, block):
        m = np.arange(lo, min(lo + block, M + 1), dtype=np.int64)
        terms = np.exp(-m / X) / np.sqrt(m)
        keep = m % q != 0
        np.add.at(acc, m[keep] % q, terms[keep])
    return dft_all_characters(table, acc[1:].astype(complex))


def smoothed_values(table: CharacterTable, tail_multiplier: float = 40.0) -> np.ndarray:
    """Smoothed sums sum_{m <= tail_multiplier * X} chi_j(m) m^{-1/2} e^{-m/X} for all j."""
    key = ("smoothed", table.q, float(tail_multiplier))
    return _memo(key, _smoothed_batch, table, tail_multiplier)


def smoothed_tail_bound(q: int, tail_multiplier: float) -> float:
    """Bound on the dropped tail of the smoothed sum past m = tail_multiplier * X."""
    X = q**1.25
    tm = max(tail_multiplier, 1e-9)
    return math.sqrt(X) * math.exp(-tm) / math.sqrt(tm)


def _afe_batch(table: CharacterTable, xmin: float) -> tuple[np.ndarray, np.ndarray, float]:
    """AFE double sums for both parities, all characters at once.

    Pairs (m, n) with q/(pi m n) >= xmin are folded onto residues v = m/n mod q
    once per parity; the two DFTs then give
    2 sum_v S_v^{(par)} chi_j(v) = |L(1/2, chi_j)|^2 for chi_j of that parity.
    Returns (even_squares, odd_squares, error_estimate).
    """
    q = table.q
    Dmax = int(q / (math.pi * xmin))
    D = np.arange(1, Dmax + 1)
    x = q / (math.pi * D)
    spec = _DEFAULT_WSPEC
    invsq = 1.0 / np.sqrt(D)
    wD = [(_w_bulk(x, par, spec) * invsq) for par in (0, 1)]
    inv = np.zeros(q, dtype=np.int64)
    inv[1:] = [pow(int(a), q - 2, q) for a in range(1, q)]
    S = [np.zeros(q) for _ in (0, 1)]
    pairsum = 0.0
    for nn in range(1, math.isqrt(Dmax) + 1):
        if nn % q == 0:
            continue
        ms = np.arange(nn, Dmax // nn + 1, dtype=np.int64)
        ms = ms[ms % q != 0]
        if ms.size == 0:
            continue
        Dv = nn * ms
        v = (ms % q) * inv[nn % q] % q
        vb = nn % q * inv[ms % q] % q
        off = ms > nn
        for par in (0, 1):
            w = wD[par][Dv - 1]
            np.add.at(S[par], v, w)
            np.add.at(S[par], vb[off], w[off])
        pairsum += float(np.sum(np.abs(wD[0][Dv - 1])) + np.sum(np.abs(wD[0][Dv[off] - 1])))
    outs = [2.0 * dft_all_characters(table, s[1:].astype(complex)).real for s in S]
    err = 2e-10 * pairsum + 1e-9
    return outs[0], outs[1], err


def _afe_memo(table: CharacterTable, xmin: float) -> tuple[np.ndarray, np.ndarray, float]:
    return _memo(("afe", table.q, float(xmin)), _afe_batch, table, xmin)


def afe_squares(table: CharacterTable, xmin: float = 1e-3) -> np.ndarray:
    """|L(1/2, chi_j)|^2 for every j from the AFE route, parity-matched."""
    even, odd, _ = _afe_memo(table, xmin)
    return np.where(table.parity == 0, even, odd)


def lvalue_table(table: CharacterTable, method: str) -> tuple[Optional[np.ndarray], np.ndarray, float]:
    """(L(1/2, chi_j), |L(1/2, chi_j)|^2, error estimate) for every j by one route.

    method is 'oracle', 'smoothed' or 'afe'; the afe route yields squares
    only, so its values are None.  Slot 0 is the principal character.
    """
    q = table.q
    if method == "oracle":
        values, err = oracle_values(table), max(1e-12, math.sqrt(q) * 1e-13)
    elif method == "smoothed":
        values = smoothed_values(table)
        err = 10.0 * q ** (-0.125) * math.log(q) + smoothed_tail_bound(q, 40.0)
    elif method == "afe":
        return None, afe_squares(table), _afe_memo(table, 1e-3)[2]
    else:
        raise DomainError(f"unknown L-value method {method!r}")
    return values, np.abs(values) ** 2, err
