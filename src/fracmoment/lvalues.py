"""Three routes to Dirichlet L-values at the critical point.

Routes 1 and 2 are one DFT each of the residue-class sums S_c = sum_{k >= 0} f(c + kq),
f(u) = u^{-1/2} e^{-u/X}, summed to infinity by one kernel: ten terms of each
class directly, then Euler-Maclaurin in steps of q with the exact integral.

Route 1 (oracle): X = inf, continued analytically, so S_c = q^{-1/2} zeta(1/2, c/q), the exact
finite decomposition of L(1/2, chi); the reference everything else is compared against.

Route 2 (smoothed): X = q^{5/4}, the smoothed Dirichlet sum sum_m chi(m) m^{-1/2} e^{-m/X},
which approximates L(1/2, chi) with an O(q^{-1/8} log q) error.

Route 3 (afe): the exact approximate-functional-equation identity
|L(1/2, chi)|^2 = 2 sum_{m,n} chi(m) chibar(n) (mn)^{-1/2} W_par(q/(pi m n)),
valid for primitive chi, summed up to mn = q e^6/pi, past which the W table
reads exactly 0.  The pairs are binned by the exponent
dlog m - dlog n of m/n in the cyclic group, with one bincount per block of
pairs and no modular inverse.  The smooth cutoff W_par, the inverse Mellin
transform of Gamma(s + w/2)^2/Gamma(s)^2 with s = 1/4 + par/2, equals the
Bessel-K integral (2/Gamma(s)^2) int_{x^-2}^inf t^{s-1} K_0(2 sqrt t) dt; it
is read from one q-independent cumulative table per parity.  K_0 is computed
here in numpy (the scaled e^z K_0(z) by its power series, a trapezoid rule or
its asymptotic series, each where it holds to about an ulp), once per node set
for both parities, since K_0(2 sqrt t) does not depend on the parity.

All-character batches ride on the group DFT from the character engine and are
computed on each call; only the q-independent W tables are kept between calls.
lvalue_table hands out one route's values, squares and error estimate together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .characters import CharacterTable, dft_all_characters
from .errors import DomainError

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
# Riemann zeta by Euler-Maclaurin
# ---------------------------------------------------------------------------

def _em_terms(im_s: float) -> int:
    # main-sum length grows with |Im s| to keep the correction series decaying
    return int(max(28, 1.3 * abs(im_s) + 24))


def _em_tail(out: np.ndarray, s, Na) -> np.ndarray:
    """Add the Euler-Maclaurin tail sum_{n >= Na} n^{-s} into the running main sum out.

    The in-place steps round exactly as bf * poch * fac and
    poch * (s + 2k - 1) * (s + 2k) would, without their temporaries.
    """
    ln = np.log(Na)
    out += np.exp((1 - s) * ln) / (s - 1) + 0.5 * np.exp(-s * ln)
    fac = np.exp(-s * ln) / Na
    if not np.any(fac):  # every correction is 0 * poch, and poch may overflow first
        return out
    poch = s
    for k, bf in enumerate(_BERN_FACT, start=1):
        term = bf * poch
        term *= fac
        out += term
        fac /= Na * Na
        poch = poch * (s + 2 * k - 1)
        poch *= s + 2 * k
    return out


def zeta_progression(s0: complex, ds: complex, count: int) -> np.ndarray:
    """Riemann zeta at the arithmetic progression s_k = s0 + k ds, k < count.

    sum_{n <= terms} n^{-s} plus the _em_tail from N = terms + 1, with the main
    sum over all points as one product: for k = j B + r, n^{-s_k} =
    n^{-(s0 + j B ds)} n^{-r ds}, so a (J x terms) and a (terms x B) table of
    exps, B ~ sqrt(count), replace terms full-length exps.
    """
    s0, ds = complex(s0), complex(ds)
    s = s0 + np.arange(count) * ds
    if np.any(s == 1):
        raise DomainError("zeta(s) has a pole at s = 1")
    # at a = 1 the tail starts at N = terms + 1, so N itself follows _em_terms
    terms = _em_terms(float(np.max(np.abs(s.imag), initial=0.0))) - 1
    B = math.isqrt(count) + 1
    J = -(-count // B)
    logn = np.log(np.arange(1, terms + 1))
    rows = np.exp(-np.outer(s0 + np.arange(J) * B * ds, logn))
    cols = np.exp(-np.outer(logn, np.arange(B) * ds))
    out = np.einsum("jn,nr->jr", rows, cols).reshape(-1)[:count]
    return _em_tail(out, s, terms + 1.0)


# ---------------------------------------------------------------------------
# The smooth cutoff W
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WWeightSpec:
    """The grid the W table is built on: v = log t = -2 log x over [umin, umax]
    in cells of width step, each integrated by a nodes-point Gauss-Legendre rule."""

    umin: float = -40.0
    umax: float = 12.0
    step: float = 0.005
    nodes: int = 8


_WSPEC = WWeightSpec()
# the largest q at which the AFE's Dmax = int(q e^{umax/2}/pi) (default xmin) is at most 2^25
AFE_QMAX = int(((1 << 25) + 1) * math.pi / math.exp(_WSPEC.umax / 2))


# e^z K_0(z) by three methods (DLMF 10.31.2, 10.32.9, 10.40.2), each used where
# it holds to about an ulp.  Below z = 1 the power series, whose two parts
# cancel more as z grows (5e-15 at z = 2).  Up to z = 17 the trapezoid rule on
# int_0^inf exp(-2 z sinh^2(u/2)) du at 20 nodes of step pi^2/(z + 40): its
# discretization error is about e^{z - pi^2/step} = e^-40, and the integrand
# is below e^-49 past the last node.  Past z = 17 the asymptotic series to 29
# terms, whose first omitted term is below 4e-16 of the sum there.
_K0_SERIES_BELOW, _K0_ASYMPTOTIC_FROM = 1.0, 17.0
_I0_SERIES = np.array([1.0 / math.factorial(k) ** 2 for k in range(11)])  # 1/(k!)^2
_H_SERIES = _I0_SERIES * np.array([math.fsum(1.0 / j for j in range(1, k + 1)) for k in range(11)])  # H_k/(k!)^2
_K0_ASYMPTOTIC = np.cumprod([1.0] + [-((2 * k - 1) ** 2) / (8.0 * k) for k in range(1, 29)])


def _k0e(z: np.ndarray) -> np.ndarray:
    """e^z K_0(z) for an array of z > 0."""
    polyval = np.polynomial.polynomial.polyval
    out = np.empty_like(z)
    small, large = z < _K0_SERIES_BELOW, z >= _K0_ASYMPTOTIC_FROM
    mid = ~(small | large)
    zs = z[small]
    y = zs * zs / 4  # K_0 = sum_k y^k/(k!)^2 (H_k - log(z/2) - gamma)
    k0 = polyval(y, _H_SERIES) - (np.log(zs / 2) + np.euler_gamma) * polyval(y, _I0_SERIES)
    out[small] = k0 * np.exp(zs)
    zm = z[mid][:, None]
    step = np.pi**2 / (zm + 40.0)
    sh = np.sinh(step * np.arange(0.5, 10.0, 0.5))  # sinh(u/2) at the nodes u = step, ..., 19 step
    out[mid] = step[:, 0] * (0.5 + np.exp(-2.0 * zm * sh * sh).sum(axis=1))
    zl = z[large]
    out[large] = np.sqrt(np.pi / (2.0 * zl)) * polyval(1.0 / zl, _K0_ASYMPTOTIC)
    return out


def _w_densities(v: np.ndarray) -> list[np.ndarray]:
    """(2/Gamma(s)^2) e^{sv} K_0(2 e^{v/2}) for s = 1/4 and s = 3/4, the
    v-densities of W_0 and W_1 at v = -2 log x, from one K_0 evaluation."""
    z = 2.0 * np.exp(v / 2)
    k0e = _k0e(z)
    return [2.0 * np.exp(s * v - z - 2.0 * math.lgamma(s)) * k0e for s in (0.25, 0.75)]


def _w_build() -> list[tuple[np.ndarray, float]]:
    """[(C, residual) for parity 0 and 1]: F(v) = int_v^inf f summed cell by
    cell down from umax (f < 1e-340 there); C[:, k] = cell k's cubic in t from
    F and F' = -f at both ends; residual = the largest gap of that cubic from
    the Gauss value at a cell midpoint."""
    h = _WSPEC.step
    v = _WSPEC.umin + h * np.arange(round((_WSPEC.umax - _WSPEC.umin) / h) + 1)
    g, gw = np.polynomial.legendre.leggauss(_WSPEC.nodes)
    cell_f = _w_densities(v[:-1, None] + h / 2 * (1 + g))
    grid_f = _w_densities(v)
    upper_f = _w_densities(v[:-1, None] + h / 4 * (3 + g))
    tables = []
    for cf, f, uf in zip(cell_f, grid_f, upper_f):
        cells = cf @ gw * (h / 2)
        F = np.append(np.cumsum(cells[::-1])[::-1], 0.0)
        hf, dF = h * f, np.diff(F)
        C = np.stack([F[:-1], -hf[:-1], 3 * dF + 2 * hf[:-1] + hf[1:], -2 * dF - hf[:-1] - hf[1:]])
        upper_half = uf @ gw * (h / 4)
        mid = C[0] + (C[1] + (C[2] + C[3] / 2) / 2) / 2
        tables.append((C, float(np.max(np.abs(mid - F[1:] - upper_half)))))
    return tables


_W_TABLES: dict = {}


def _w_table(parity: int) -> tuple[np.ndarray, float]:
    """The (C, residual) of one parity; both are built by one _w_build() call
    and kept read-only until clear_caches()."""
    if not _W_TABLES:
        for par, table in enumerate(_w_build()):
            table[0].setflags(write=False)
            _W_TABLES[par] = table
    return _W_TABLES[parity]


def clear_caches() -> None:
    """Drop the W tables; the next lookup rebuilds them."""
    _W_TABLES.clear()


def w_weight_many(x: np.ndarray, parity: int) -> np.ndarray:
    """W_parity(x) = (1/2 pi i) int_(c) Gamma(s + w/2)^2/Gamma(s)^2 x^w dw/w, s = 1/4 + parity/2.

    Since 2 K_0(2 sqrt t) has Mellin transform Gamma(u)^2, W(x) is
    (2/Gamma(s)^2) int_{x^-2}^inf t^{s-1} K_0(2 sqrt t) dt, read from one
    q-independent table per parity by cubic Hermite interpolation in
    v = -2 log x.  Past the table W is 0 for small x (W < 1e-340) and, for
    large x, 1 minus the integral of K_0's small-t series to order t^0 (the
    next term is smaller by e^v < e^umin).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x > 0)):
        raise DomainError("W weight requires finite x > 0")
    if parity not in (0, 1):
        raise DomainError("parity must be 0 (even) or 1 (odd)")
    C, _ = _w_table(parity)
    v = -2.0 * np.log(x)
    p = (v - _WSPEC.umin) / _WSPEC.step
    k = np.clip(p.astype(np.int64), 0, C.shape[1] - 1)
    t = p - k
    out = np.where(v > _WSPEC.umax, 0.0, C[0][k] + t * (C[1][k] + t * (C[2][k] + t * C[3][k])))
    big = v < _WSPEC.umin
    s, vb = 0.25 + parity / 2, v[big]
    out[big] = 1.0 - np.exp(s * vb - 2.0 * math.lgamma(s)) / s * (1 / s - 2 * np.euler_gamma - vb)
    return out


# ---------------------------------------------------------------------------
# The three routes, batched over all characters
# ---------------------------------------------------------------------------

_DIRECT = 10  # direct terms per class; at X = inf the first omitted (B_18) term is then 4e-18 f(u0)


def _em_rows(rho: float) -> np.ndarray:
    """Row j - 1, j = 1..9: the coefficients in w = q/u of -B_2j/(2j)! q^{2j-1} f^{(2j-1)}(u)/f(u)
    for f(u) = u^{-1/2} e^{-u/X}; by Leibniz's rule B_2j/(2j)! C(2j-1, i) (1/2)_i rho^{2j-1-i}, rho = q/X,
    so at rho = 0 (X = inf) only i = 2j - 1 is left (comb = 0 past it, where rho^(2j-1-i) is inf)."""
    n, i = np.arange(1, 18, 2)[:, None], np.arange(18)
    comb = np.array([[math.comb(a, b) for b in range(18)] for a in range(1, 18, 2)])
    poch = np.cumprod(np.r_[1.0, i[1:] - 0.5])  # (1/2)_i
    return np.array(_BERN_FACT[:9])[:, None] * comb * poch * rho ** np.maximum(n - i, 0)


def _residue_sums(q: int, X: float) -> np.ndarray:
    """S_c = sum_{k >= 0} f(c + kq), f(u) = u^{-1/2} e^{-u/X}, for c = 1..q-1: k < _DIRECT
    directly, the rest by Euler-Maclaurin in steps of q from u0 = c + _DIRECT q (DLMF 2.10.1),
    in place on one array of u.  That is the integral (sqrt(pi X)/q) erfc(sqrt(u0/X)), continued
    to -2 sqrt(u0)/q at X = inf where S_c = zeta(1/2, c/q)/sqrt(q), f(u0)/2 and the B_2..B_16 rows."""
    u, out = np.arange(1.0, q), np.zeros(q - 1)
    for _ in range(_DIRECT):  # exact: u < 2^53; at X = inf, e^{-u/X} = 1 exactly
        out += np.exp(-u / X) / np.sqrt(u)
        u += q
    if math.isfinite(X):
        out += math.sqrt(math.pi * X) / q * np.fromiter(map(math.erfc, np.sqrt(u / X).tolist()), float, q - 1)
    else:  # over q/2, which is exact: a rounded 2/q would bias every class alike
        out -= np.sqrt(u) / (q / 2)
    w, tail = q / u, np.zeros(q - 1)
    for coef in np.trim_zeros(_em_rows(q / X)[:-1].sum(axis=0), "b")[::-1]:
        tail *= w
        tail += coef
    tail += 0.5
    tail *= np.exp(-u / X)
    tail /= np.sqrt(u)
    out += tail
    return out


def oracle_values(table: CharacterTable) -> np.ndarray:
    """L(1/2, chi_j) = q^{-1/2} sum_c chi_j(c) zeta(1/2, c/q) for every j, as one
    DFT of the residue-class sums at X = inf.

    Slot 0 carries the principal-character value zeta(1/2)(1 - q^{-1/2}).
    """
    return dft_all_characters(table, _residue_sums(table.q, math.inf))


def smoothed_values(table: CharacterTable) -> np.ndarray:
    """Smoothed sums sum_{m >= 1} chi_j(m) m^{-1/2} e^{-m/X}, X = q^{5/4}, for all j,
    as one DFT of the residue-class sums S_c."""
    return dft_all_characters(table, _residue_sums(table.q, table.q**1.25))


def smoothed_band(q: int) -> float:
    """10 q^{-1/8} log q: the bound checked on |smoothed sum - L|, and the main part of its error estimate."""
    return 10.0 * q ** (-0.125) * math.log(q)


def _afe_batch(table: CharacterTable, xmin: float) -> tuple[np.ndarray, np.ndarray, float]:
    """AFE double sums for both parities, all characters at once.

    Pairs (m, n) with q/(pi m n) >= xmin are folded onto the exponent group,
    up to the D = mn past which q/(pi D) < e^{-umax/2} and the W table is
    exactly 0:
    m > n lands at k = dlog m - dlog n + (q - 1) of one bincount, the reversed
    pair at -k, the diagonal at exponent 0.  Mapped back to residues
    v = g^k, the two DFTs then give
    2 sum_v S_v^{(par)} chi_j(v) = |L(1/2, chi_j)|^2 for chi_j of that parity.
    Returns (even_squares, odd_squares, error_estimate).
    """
    q = table.q
    Dmax = int(q / (math.pi * xmin)) if math.isfinite(xmin) and xmin > 0 else 0
    if Dmax < 1:
        raise DomainError("the AFE needs a finite xmin > 0 with q/(pi xmin) >= 1")
    Dmax = min(Dmax, int(q * math.exp(_WSPEC.umax / 2) / math.pi))
    if Dmax > 1 << 25:  # the weight rows alone would take 3 * 8 * Dmax bytes
        raise DomainError(f"the AFE needs at most 2^25 products mn (q <= {AFE_QMAX}), got {Dmax}")
    size = 2 * (q - 1)
    # rows: W_0(D)/sqrt(D), W_1(D)/sqrt(D), 1/sqrt(D), built in cache-sized
    # blocks; a pair with q | mn has q | D and weight 0
    wD = np.empty((3, Dmax))
    for lo in range(0, Dmax, 1 << 17):
        D = np.arange(lo + 1, min(lo + (1 << 17), Dmax) + 1)
        block = wD[:, lo : lo + D.size]
        block[2] = 1.0 / np.sqrt(D)
        for par in (0, 1):
            block[par] = w_weight_many(q / (math.pi * D), par) * block[2]
    wD[:, q - 1 :: q] = 0.0
    km = np.resize(table.dlog.astype(np.int32) + (q - 1), Dmax + 1)
    # for fixed n the m > n are one slice of km and one stride-n slice of wD;
    # short slices are pooled so each O(q) bincount covers at least 2(q - 1) pairs
    A, pairsum, ks, ws, last = np.zeros((2, size)), 0.0, [], [], math.isqrt(Dmax)
    for n in range(1, last + 1):
        top = Dmax // n
        if n % q and top > n:  # q | n: weights 0, and dlog n = -1 would overrun k
            ks.append(km[n + 1 : top + 1] - int(table.dlog[n % q]))
            ws.append(wD[:, n * (n + 1) - 1 : n * top : n])
        if ks and (sum(map(len, ks)) >= size or n == last):
            k, w = (ks[0], ws[0]) if len(ks) == 1 else (np.concatenate(ks), np.concatenate(ws, axis=1))
            for par in (0, 1):
                A[par] += np.bincount(k, weights=w[par], minlength=size)
            pairsum += float(np.sum(w[2]))
            ks, ws = [], []
    diag = wD[:, np.arange(1, last + 1) ** 2 - 1].sum(axis=1)
    S = A + np.roll(A[:, ::-1], 1, axis=1)
    S = S[:, : q - 1] + S[:, q - 1 :]
    S[:, 0] += diag[:2]
    coeffs = np.empty((2, q - 1))
    coeffs[:, table.powers - 1] = S
    outs = [2.0 * dft_all_characters(table, c.astype(complex)).real for c in coeffs]
    # each pair's W is off by at most the table residual and |chi| = 1, so the
    # pair sum of 1/sqrt(mn) carries it to |L|^2; log2(q) eps covers the FFT
    resid = max(_w_table(par)[1] for par in (0, 1))
    err = 2.0 * (2.0 * pairsum + diag[2]) * (resid + math.log2(q) * np.finfo(float).eps)
    return outs[0], outs[1], err


def afe_squares(table: CharacterTable, xmin: float = 1e-3) -> np.ndarray:
    """|L(1/2, chi_j)|^2 for every j from the AFE route, parity-matched."""
    even, odd, _ = _afe_batch(table, xmin)
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
        # f is completely monotone, so each S_c's remainder is at most the first
        # omitted (B_18) term: f(u0) < S_c times its row at w < 1/10, summed over
        # c as sum_c S_c = values[0] (every S_c > 0); log2(q) eps covers the FFT
        values = smoothed_values(table)
        rem = np.polynomial.polynomial.polyval(1 / _DIRECT, _em_rows(q / q**1.25)[-1])
        err = smoothed_band(q) + (rem + math.log2(q) * np.finfo(float).eps) * values[0].real
    elif method == "afe":
        even, odd, err = _afe_batch(table, 1e-3)
        return None, np.where(table.parity == 0, even, odd), err
    else:
        raise DomainError(f"unknown L-value method {method!r}")
    return values, np.abs(values) ** 2, err
