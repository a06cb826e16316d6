"""Three routes to Dirichlet L-values at the critical point.

Routes 1 and 2 are one DFT each of the residue-class sums S_c = sum_{k >= 0} f(c + kq),
f(u) = u^{-1/2} e^{-u/X}: ten terms of each class directly, then the rest by
_em_tail, the one Euler-Maclaurin tail sum_k u^{-s} e^{-u/X} over u0 + kq with
its exact integral, which also ends zeta(s)'s main sum (q = 1, X = inf).

Route 1 (oracle): X = inf, continued analytically, so S_c = q^{-1/2} zeta(1/2, c/q), the exact
finite decomposition of L(1/2, chi); the reference everything else is compared against.

Route 2 (smoothed): X = q^{5/4}, the smoothed Dirichlet sum sum_m chi(m) m^{-1/2} e^{-m/X},
which approximates L(1/2, chi) with an O(q^{-1/8} log q) error.

Route 3 (afe): the exact approximate-functional-equation identity
|L(1/2, chi)|^2 = 2 sum_{m,n} chi(m) chibar(n) (mn)^{-1/2} W_par(q/(pi m n)),
valid for primitive chi, summed up to the one cut mn = q e^{V/2}/pi ~ 13.5 q
(V = 7.5), where W < 1.4e-37; the error estimate bounds the dropped tail by
4 W_par(e^{-V/2}) + (2q/pi) J_par(V), J_par(V) = int_V^inf W_par(e^{-v/2}) e^{v/2} dv
from the W table.  The pairs are binned by the exponent dlog m - dlog n of
m/n in the cyclic group, with one bincount per block of pairs and no modular
inverse.  Both parities ride one pass: one W lookup gives both weight rows,
one DFT of S_0 + i S_1 both transforms, and only the last step reads which
character has which parity.  The smooth cutoff W_par, the inverse Mellin
transform of Gamma(s + w/2)^2/Gamma(s)^2 with s = 1/4 + par/2, equals the
Bessel-K integral (2/Gamma(s)^2) int_{x^-2}^inf t^{s-1} K_0(2 sqrt t) dt; it
is read from one q-independent cumulative table per parity for x < 2, and for
x >= 2 comes from K_0's power series integrated term by term.  K_0 is computed
here in numpy at the table's nodes, which all have z >= 1 (the scaled e^z K_0(z)
by a trapezoid rule or its asymptotic series, each where it holds to about an
ulp), once per node set for both parities, since K_0(2 sqrt t) does not depend
on the parity.

All-character batches ride on the group DFT from the character engine, in its
exponent order: the class sums are evaluated at c = g^m and the AFE's exponent
sums are indexed by m already, so neither is permuted.  They are computed on
each call; only the q-independent W tables are kept between calls.  The smoothed
and AFE estimates bound the DFT by characters.dft_rounding, log2(q - 1) eps sum|input|
+ (q - 1) 2^-1074.  lvalue_table hands out one route's values, squares and error
estimate together, and ROUTES maps each route's name to its one function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .characters import CharacterTable, dft_all_characters, dft_rounding
from .errors import DomainError

# B_2, B_4, ..., B_26 as floats, the rows of _em_tail: zeta(s) takes all 13, which push
# the remainder far below double precision for the |Im s| ranges used here; the
# residue-class sums take 8 (B_2..B_16), and the smoothed error estimate reads the 9th.
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
# C(2j - 1, i) at row j - 1 and column i < 2 len(_BERN), which _em_rows slices
_EM_COMB = np.array([[math.comb(a, b) for b in range(2 * len(_BERN))] for a in range(1, 2 * len(_BERN), 2)])


# ---------------------------------------------------------------------------
# Riemann zeta by Euler-Maclaurin
# ---------------------------------------------------------------------------

def _em_terms(im_s: float) -> int:
    # main-sum length grows with |Im s| to keep the correction series decaying
    return int(max(28, 1.3 * abs(im_s) + 24))


def _em_rows(rho: float, rows: int) -> np.ndarray:
    """Row j - 1, j = 1..rows: b_ji = B_2j/(2j)! C(2j-1, i) rho^{2j-1-i} for i < 2 rows, so that
    sum_i b_ji (s)_i w^i f(u) = -B_2j/(2j)! q^{2j-1} f^{(2j-1)}(u) for f(u) = u^{-s} e^{-u/X}, w = q/u,
    rho = q/X (Leibniz's rule); at rho = 0 (X = inf) only i = 2j - 1 is left (comb = 0 past it)."""
    n, i = np.arange(1, 2 * rows, 2)[:, None], np.arange(2 * rows)
    return np.array(_BERN_FACT[:rows])[:, None] * _EM_COMB[:rows, : 2 * rows] * rho ** np.maximum(n - i, 0)


def _em_poly(s, b: np.ndarray) -> list:
    """[(s)_i b_i for i < len(b)], the coefficients of a correction polynomial in w; s a scalar or an array."""
    poch, coef = 1.0, []
    for i, bi in enumerate(b):
        coef.append(bi * poch)
        poch = poch * (s + i)
    return coef


def _em_tail(s, u0, q: float = 1.0, X: float = math.inf, rows: int = len(_BERN)):
    """sum_{k >= 0} f(u0 + k q), f(u) = u^{-s} e^{-u/X}, by Euler-Maclaurin (DLMF 2.10.1): the integral,
    f(u0)/2 and the B_2..B_2rows corrections f(u0) sum_i b_i(rho) (s)_i w^i, w = q/u0.

    The integral is u0^{1-s}/((s - 1) q) at X = inf, continued analytically, and
    (sqrt(pi X)/q) erfc(sqrt(u0/X)) at finite X, which holds for s = 1/2 only.
    """
    r = u0 ** (1 - s)  # numpy takes the exact sqrt at s = 1/2; exp(log(u0)/2) would bias every class alike
    f = r / u0
    if math.isfinite(X):
        f *= np.exp(-u0 / X)
        out = math.sqrt(math.pi * X) / q * np.fromiter(map(math.erfc, np.sqrt(u0 / X).tolist()), float, u0.size)
    else:  # (s - 1) q = -q/2 at s = 1/2 is exact: a rounded 2/q would bias every class alike
        out = r / ((s - 1) * q)
    if not np.any(f):  # every correction is 0 * (s)_i, and (s)_i may overflow first
        return out
    w, coef = q / u0, _em_poly(s, _em_rows(q / X, rows).sum(axis=0))
    acc = coef[-1] * w
    for c in coef[-2:0:-1]:
        acc += c
        acc *= w
    acc += coef[0] + 0.5
    acc *= f
    out += acc
    return out


def zeta_progression(s0: complex, ds: complex, count: int) -> np.ndarray:
    """Riemann zeta at the arithmetic progression s_k = s0 + k ds, k < count.

    sum_{n <= terms} n^{-s} plus the _em_tail from N = terms + 1, with the main
    sum over all points as one product: for k = j B + r, n^{-s_k} =
    n^{-(s0 + j B ds)} n^{-r ds}, so a (J x terms) and a (terms x B) table of
    exps, B ~ sqrt(count), replace terms full-length exps.
    """
    s0, ds = complex(s0), complex(ds)
    if not np.isfinite([s0, ds]).all():
        raise DomainError(f"zeta needs a finite progression, got s0 = {s0}, ds = {ds}")
    s = s0 + np.arange(count) * ds
    if np.any(s == 1):
        raise DomainError("zeta(s) has a pole at s = 1")
    # the tail starts at N = terms + 1, so N itself follows _em_terms
    terms = _em_terms(float(np.max(np.abs(s.imag), initial=0.0))) - 1
    B = math.isqrt(count) + 1
    J = -(-count // B)
    logn = np.log(np.arange(1, terms + 1))
    rows = np.exp(-np.outer(s0 + np.arange(J) * B * ds, logn))
    cols = np.exp(-np.outer(logn, np.arange(B) * ds))
    return np.einsum("jn,nr->jr", rows, cols).reshape(-1)[:count] + _em_tail(s, terms + 1.0)


# ---------------------------------------------------------------------------
# The smooth cutoff W
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WWeightSpec:
    """The grid the W table is built on: v = log t = -2 log x over [umin, umax]
    in cells of width step, each integrated by a nodes-point Gauss-Legendre
    rule.  umin = -1.385 lies just past -2 log 2 = -1.3863 (x = 1.9988);
    below it W comes from K_0's small-t series instead, so every node has
    z = 2 e^{v/2} >= 1.

    The n-point rule's error on a cell of width h is
    h^{2n+1} (n!)^4 / ((2n + 1) ((2n)!)^3) f^{(2n)}: at n = 4 and h = 0.005
    that is 5.6e-10 h^9 f^{(8)} = 1.1e-30 f^{(8)}, and the densities' eighth
    derivatives in v stay below 3 on the table, far below one ulp of W.
    """

    umin: float = -1.385
    umax: float = 12.0
    step: float = 0.005
    nodes: int = 4


_WSPEC = WWeightSpec()
# the AFE's cut v = -2 log(q/(pi mn)) <= V, a grid point of the W table (cell 1777):
# its products stop at mn = q e^{V/2}/pi, 1.36e7 < 2^24 at q = QMAX
_AFE_V = 7.5


# e^z K_0(z) for z >= 1 by two methods (DLMF 10.32.9, 10.40.2), each used where
# it holds to about an ulp.  Up to z = 17 the trapezoid rule on
# int_0^inf exp(-2 z sinh^2(u/2)) du at 20 nodes of step pi^2/(z + 40): its
# discretization error is about e^{z - pi^2/step} = e^-40, and the integrand
# is below e^-49 past the last node.  Past z = 17 the asymptotic series to 29
# terms, whose first omitted term is below 4e-16 of the sum there.
_K0_ASYMPTOTIC_FROM = 17.0
_K0_ASYMPTOTIC = np.cumprod([1.0] + [-((2 * k - 1) ** 2) / (8.0 * k) for k in range(1, 29)])


def _k0e(z: np.ndarray) -> np.ndarray:
    """e^z K_0(z) for an array of z >= 1; the table's nodes have z >= 2 e^{umin/2} = 1.0006."""
    out = np.empty_like(z)
    large = z >= _K0_ASYMPTOTIC_FROM
    zm = z[~large][:, None]
    step = np.pi**2 / (zm + 40.0)
    sh = np.sinh(step * np.arange(0.5, 10.0, 0.5))  # sinh(u/2) at the nodes u = step, ..., 19 step
    out[~large] = step[:, 0] * (0.5 + np.exp(-2.0 * zm * sh * sh).sum(axis=1))
    zl = z[large]
    out[large] = np.sqrt(np.pi / (2.0 * zl)) * np.polynomial.polynomial.polyval(1.0 / zl, _K0_ASYMPTOTIC)
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


def _w_tail(C: np.ndarray) -> tuple[float, float]:
    """(F(V), J(V)) for one parity's table: F(V) = W(e^{-V/2}) and
    J(V) = int_V^inf W(e^{-v/2}) e^{v/2} dv, each cell's cubic F times e^{v/2}
    integrated by the table's Gauss rule; past umax F < 1e-340."""
    h, k = _WSPEC.step, round((_AFE_V - _WSPEC.umin) / _WSPEC.step)
    g, gw = np.polynomial.legendre.leggauss(_WSPEC.nodes)
    t = (1 + g) / 2
    v = _WSPEC.umin + h * (np.arange(k, C.shape[1])[:, None] + t)
    F = np.polynomial.polynomial.polyval(t, C[:, k:])
    return float(C[0, k]), float(np.sum(F * np.exp(v / 2) @ gw) * (h / 2))


@functools.cache
def _w_tables() -> tuple[tuple[np.ndarray, float, tuple[float, float]], ...]:
    """(C, residual, (F(V), J(V))) for parity 0 and 1 from one _w_build() call,
    C read-only, each with its _w_tail; kept until clear_caches()."""
    tables = _w_build()
    for C, _ in tables:
        C.setflags(write=False)
    return tuple((C, resid, _w_tail(C)) for C, resid in tables)


clear_caches = _w_tables.cache_clear  # drops the W tables; the next lookup rebuilds them


# K_0(2 sqrt T) = sum_k T^k/(k!)^2 (H_k - log(T)/2 - gamma) (DLMF 10.31.2)
_I0_SERIES = np.array([1.0 / math.factorial(k) ** 2 for k in range(11)])  # 1/(k!)^2
_H_SERIES = _I0_SERIES * np.array([math.fsum(1.0 / j for j in range(1, k + 1)) for k in range(11)])  # H_k/(k!)^2


def _w_series(v: np.ndarray, s: float) -> np.ndarray:
    """W at v = log T, T = x^-2, from K_0's power series integrated term by term over [0, T]:
    1 - (2/Gamma(s)^2) sum_k T^{s+k} (H_k - gamma - v/2 + 1/(2(s + k))) / ((k!)^2 (s + k)),
    as one Horner loop in T; at T < 0.251 its 11 terms reach rounding."""
    T, lead = np.exp(v), -0.5 * v - np.euler_gamma
    acc = np.zeros_like(v)
    for k in range(_I0_SERIES.size - 1, -1, -1):
        acc *= T
        acc += (_H_SERIES[k] + _I0_SERIES[k] * (lead + 0.5 / (s + k))) / (s + k)
    return 1.0 - 2.0 * np.exp(s * v - 2.0 * math.lgamma(s)) * acc


def w_weight_many(x: np.ndarray) -> np.ndarray:
    """[W_0(x), W_1(x)], W_par(x) = (1/2 pi i) int_(c) Gamma(s + w/2)^2/Gamma(s)^2 x^w dw/w, s = 1/4 + par/2.

    Since 2 K_0(2 sqrt t) has Mellin transform Gamma(u)^2, W(x) is
    (2/Gamma(s)^2) int_{x^-2}^inf t^{s-1} K_0(2 sqrt t) dt.  In v = -2 log x
    it is read from one q-independent table per parity on [umin, umax] by
    cubic Hermite interpolation, with one cell index for both; past umax W
    is 0 (W < 1e-340), and below umin (x > 1.9988) it comes from K_0's
    small-t series.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x > 0)):
        raise DomainError("W weight requires finite x > 0")
    tables = _w_tables()
    v = -2.0 * np.log(x)
    p = (v - _WSPEC.umin) / _WSPEC.step
    k = np.clip(p.astype(np.int64), 0, tables[0][0].shape[1] - 1)
    t = p - k
    out = np.stack([np.where(v > _WSPEC.umax, 0.0, C[0][k] + t * (C[1][k] + t * (C[2][k] + t * C[3][k])))
                    for C, _, _ in tables])
    series = v < _WSPEC.umin
    out[:, series] = [_w_series(v[series], s) for s in (0.25, 0.75)]
    return out


# ---------------------------------------------------------------------------
# The three routes, batched over all characters
# ---------------------------------------------------------------------------

_DIRECT = 10  # direct terms per class; at X = inf the first omitted (B_18) term is then 4e-18 f(u0)


def _residue_sums(table: CharacterTable, X: float) -> np.ndarray:
    """S_c = sum_{k >= 0} f(c + kq), f(u) = u^{-1/2} e^{-u/X}, in exponent order: slot m
    holds the class c = g^m.  k < _DIRECT directly, the rest by the B_2..B_16 _em_tail
    from u0 = c + _DIRECT q; at X = inf S_c = zeta(1/2, c/q)/sqrt(q)."""
    q = table.q
    u, out = table.powers.astype(float), np.zeros(q - 1)
    for _ in range(_DIRECT):  # exact: u < 2^53; at X = inf, e^{-u/X} = 1, so it is left out
        out += 1 / np.sqrt(u) if X == math.inf else np.exp(-u / X) / np.sqrt(u)
        u += q
    out += _em_tail(0.5, u, q, X, 8)
    return out


def smoothed_band(q: int) -> float:
    """10 q^{-1/8} log q: the bound checked on |smoothed sum - L|, and the main part of its error estimate."""
    return 10.0 * q ** (-0.125) * math.log(q)


def _afe_dmax(q: int) -> int:
    """The AFE's largest product mn, the cut q e^{V/2}/pi."""
    return int(q * math.exp(_AFE_V / 2) / math.pi)


def _afe_batch(table: CharacterTable) -> tuple[np.ndarray, float]:
    """|L(1/2, chi_j)|^2 for every j by the AFE, and its error estimate.

    Pairs (m, n) are folded onto the exponent group up to the cut
    D = mn <= Dmax = q e^{V/2}/pi, past which W < 1.4e-37:
    m > n lands at k = dlog m - dlog n + (q - 1) of one bincount, the reversed
    pair at -k, the diagonal at exponent 0.  Both parities ride one pass:
    the weights are two rows, 2 W_par(q/(pi D))/sqrt(D) for D <= Dmax, from
    one W lookup per block, and the exponent sums S_0, S_1 are even, so one
    DFT of S_0 + i S_1 has sum_v S_v^{(par)} chi_j(v) = |L(1/2, chi_j)|^2
    as its real part for an even chi_j and as its imaginary part for an odd
    one; the parity pick is the last step.  The error estimate bounds its pair count,
    sum 1/sqrt(mn), in closed form, the DFT by dft_rounding of S_0 + i S_1, and the
    tail past the cut by 4 W_par(e^{-V/2}) + (2q/pi) J_par(V).  Returns (squares, error_estimate).
    """
    q = table.q
    Dmax = _afe_dmax(q)
    size = 2 * (q - 1)
    # rows: 2 W_0(D)/sqrt(D), 2 W_1(D)/sqrt(D), the identity's factor 2 included,
    # built in cache-sized blocks of one lookup each; a pair with q | mn has
    # q | D and weight 0
    wD = np.empty((2, Dmax))
    for lo in range(0, Dmax, 1 << 15):
        D = np.arange(lo + 1, min(lo + (1 << 15), Dmax) + 1)
        wD[:, lo : lo + D.size] = w_weight_many(q / (math.pi * D)) * (2.0 / np.sqrt(D))
    wD[:, q - 1 :: q] = 0.0
    # for fixed n the m > n are one slice of km and one stride-n slice of wD,
    # copied into one pair of buffers of B pairs, cut where the buffers fill;
    # each full buffer is one O(q) bincount per parity over at least 2(q - 1)
    # pairs (and 4096, so a small q takes few calls), and no array but wD is
    # Dmax long
    A, B = np.zeros((2, size)), max(size, 1 << 12)
    kbuf, wbuf, pos = np.empty(B, dtype=np.intp), np.empty((2, B)), 0
    # dlog m + (q - 1) for m < q + B: any run of at most B consecutive m is one slice
    km = np.resize(table.dlog + (q - 1), q + B)

    def fold(count):
        for par in (0, 1):
            A[par] += np.bincount(kbuf[:count], weights=wbuf[par, :count], minlength=size)

    last = math.isqrt(Dmax)
    for n in range(1, last + 1):
        if n % q == 0:  # weights 0, and dlog n = -1 would overrun k
            continue
        dn, m, top = table.dlog[n % q], n + 1, Dmax // n
        while m <= top:
            run = min(top + 1 - m, B - pos)
            np.subtract(km[m % q : m % q + run], dn, out=kbuf[pos : pos + run])
            wbuf[:, pos : pos + run] = wD[:, n * m - 1 : n * (m + run - 1) : n]
            pos, m = pos + run, m + run
            if pos == B:
                fold(B)
                pos = 0
    fold(pos)
    S = A + np.roll(A[:, ::-1], 1, axis=1)
    S = S[:, : q - 1] + S[:, q - 1 :]
    S[:, 0] += wD[:, np.arange(1, last + 1) ** 2 - 1].sum(axis=1)
    del wD, wbuf  # the largest arrays go before the FFT
    coeffs = S[0] + 1j * S[1]
    out = dft_all_characters(table, coeffs)
    squares = np.where(table.parity == 0, out.real, out.imag)
    # each pair's W is off by at most the table residual and |chi| = 1, so the sum of
    # 1/sqrt(mn) over the pairs carries it to |L|^2.  That sum is bounded per
    # n <= sqrt(Dmax): (n, n) adds 1/n, and the m > n with mn <= Dmax, counted twice, add
    # n^{-1/2} sum_{n < m <= top} m^{-1/2} <= 2 (sqrt(top) - sqrt(n))/sqrt(n), top = Dmax // n
    n = np.arange(1, last + 1)
    pairs = float(np.sum(4.0 * (np.sqrt(Dmax // n) - np.sqrt(n)) / np.sqrt(n) + 1.0 / n))
    tables = _w_tables()
    resid = max(r for _, r, _ in tables)
    # the dropped pairs: |chi| = 1 and d(D) <= 2 sqrt(D) give 4 sum_{D > Dmax} W(q/(pi D));
    # W falls in D and Dmax + 1 > D* = q e^{V/2}/pi, so that sum is at most
    # W(e^{-V/2}) + int_{D*}^inf W(q/(pi D)) dD = F(V) + (q/(2 pi)) J(V)
    tail = max(4.0 * F + 2.0 * q / math.pi * J for _, _, (F, J) in tables)
    err = 2.0 * pairs * resid + dft_rounding(table, coeffs) + tail
    return squares, err


def afe_squares(table: CharacterTable, xmin: float = 1e-3) -> np.ndarray:
    """|L(1/2, chi_j)|^2 for every j from the AFE route.  xmin is validated only: every xmin
    in (0, e^{-V/2}] gives the sum to the cut, and a larger one, which would drop pairs the
    error estimate does not cover, is refused."""
    if not 0 < xmin <= math.exp(-_AFE_V / 2):
        raise DomainError(f"the AFE needs 0 < xmin <= e^(-V/2) = {math.exp(-_AFE_V / 2):.4g}, got {xmin}")
    return _afe_batch(table)[0]


def _oracle_table(table: CharacterTable) -> tuple[np.ndarray, np.ndarray, float]:
    """L(1/2, chi_j) = q^{-1/2} sum_c chi_j(c) zeta(1/2, c/q) for every j, as one DFT of the
    residue-class sums at X = inf, with their squares and error estimate.  Slot 0 carries
    the principal-character value zeta(1/2)(1 - q^{-1/2})."""
    values = dft_all_characters(table, _residue_sums(table, math.inf))
    return values, np.abs(values) ** 2, max(1e-12, math.sqrt(table.q) * 1e-13)


def _smoothed_table(table: CharacterTable) -> tuple[np.ndarray, np.ndarray, float]:
    """Smoothed sums sum_{m >= 1} chi_j(m) m^{-1/2} e^{-m/X}, X = q^{5/4}, for all j, as one
    DFT of the residue-class sums S_c, with their squares and error estimate.  f is completely
    monotone, so each S_c's remainder is at most the first omitted (B_18) term: f(u0) < S_c
    times its row at w < 1/10, summed over c as sum S = values[0] (every S_c > 0)."""
    q = table.q
    S = _residue_sums(table, q**1.25)
    values = dft_all_characters(table, S)
    rem = np.polynomial.polynomial.polyval(1 / _DIRECT, _em_poly(0.5, _em_rows(q / q**1.25, 9)[-1]))
    err = smoothed_band(q) + rem * values[0].real + dft_rounding(table, S)
    return values, np.abs(values) ** 2, err


# The one list of routes, in the order the CLI offers them: name -> (its table, whether
# it gives the complex values L(1/2, chi)); the afe route gives the squares only.
ROUTES = {"oracle": (_oracle_table, True), "smoothed": (_smoothed_table, True),
          "afe": (lambda table: (None, *_afe_batch(table)), False)}
COMPLEX_ROUTES = tuple(name for name, (_, gives_values) in ROUTES.items() if gives_values)


def lvalue_table(table: CharacterTable, method: str) -> tuple[Optional[np.ndarray], np.ndarray, float]:
    """(L(1/2, chi_j), |L(1/2, chi_j)|^2, error estimate) for every j by one route of ROUTES; slot 0 is
    the principal character, and a route outside COMPLEX_ROUTES yields squares only, its values None."""
    if method not in ROUTES:
        raise DomainError(f"unknown L-value method {method!r}")
    return ROUTES[method][0](table)
