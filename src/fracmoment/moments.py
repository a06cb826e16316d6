"""Fractional moments, short Dirichlet polynomials, and the Holder chain.

For a prime q, rational k = r/s in lowest terms with 0 < r < s, and cutoffs
x = y^a, this module evaluates for every non-principal character chi:

    P(chi) = sum_{n <= x} d_{1/2s}(n) chi(n) n^{-1/2} log(x/n)/log(x)
    M(chi) = (1/2) sum_{n <= y} d_{1/s}(n) mu(n) chi(n) n^{-1/2} log^2(y/n)/log^2(y)

and from them the fractional moment M_k(q) = sum |L|^{2k}, the twisted sums

    S_l = sum L(1/2, chi) conj(P)^{2s} |M|^{2(s-r)}
    S_u = sum |L|^2 |P|^{4s} |M|^{2(2s-r)}

the diagonal bound for sum |P|^{4r}, and the Holder/Cauchy chain

    |S_l| <= M_k(q)^{1/(2(2-k))} (sum |P|^{4r})^{1/(2(2-k))} S_u^{(1-k)/(2-k)}.

`character_values` evaluates L, |L|^2, P and M for all characters once (one
`lvalue_table` call, and one group DFT of P + iM for both polynomials, whose
coefficients `fold_residues` lays onto the group in exponent order) into a frozen
`CharacterValues`; `holder_chain_check` and `p4_bound_check` are plain
functions of it, and `power_sum` is the moment alone, from the squares |L|^2.
Per-character powers are taken on the evaluated polynomial values, never by
expanding coefficient convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .characters import CharacterTable, build_table, check_modulus, dft_all_characters, fold_residues
from .errors import DomainError
from .lvalues import COMPLEX_ROUTES, lvalue_table
from .sieve import mollifier_coeffs, weighted_poly_coeffs
from .util import exact_sum

SQUARE_FLOOR = 1e-30  # |L|^2 floor before taking fractional powers


@dataclass(frozen=True)
class MomentParams:
    """Parameter bundle (q, k = r/s, x = y^a) with the support checks baked in (q by check_modulus);
    y defaults to q^{1/(4as)}, clamped to >= 2, and y and a are stored as floats.

    The asymptotic regime x^{4s} <= q^{1/20} is unreachable for x > 1 at any
    computable q; regime_ok records whether it holds, and reports carry the
    flag rather than enforcing it.
    """

    q: int
    r: int = 1
    s: int = 2
    y: Optional[float] = None
    a: float = 4.0

    def __post_init__(self):
        check_modulus(self.q)  # first: q^{1/(4as)} below is complex for q < 0
        if self.y is None:  # y = 2 when a < 1, which is refused below
            object.__setattr__(self, "y", max(2.0, self.q ** (1.0 / (4.0 * self.a * self.s))) if self.a >= 1 else 2.0)
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "a", float(self.a))
        if self.r < 1 or self.s < 1 or math.gcd(self.r, self.s) != 1 or self.r >= self.s:
            raise DomainError("need k = r/s in lowest terms with 0 < r < s")
        if not (math.isfinite(self.y) and math.isfinite(self.a)):
            raise DomainError(f"y and a must be finite, got y = {self.y}, a = {self.a}")
        if self.y <= 1 or self.a < 1:
            raise DomainError("need y > 1 and a >= 1")
        try:
            self.x ** (4 * self.s)  # regime_ok's power; the largest one any check takes
        except OverflowError:
            raise DomainError(f"x^(4s) = (y^a)^{4 * self.s} overflows at y = {self.y}, a = {self.a}") from None

    @property
    def x(self) -> float:
        return self.y**self.a

    @property
    def k(self) -> Fraction:
        return Fraction(self.r, self.s)

    @property
    def regime_ok(self) -> bool:
        return self.x ** (4 * self.s) <= self.q ** (1 / 20)

    def diagonal_length(self) -> float:
        """x^{2r}, the length of the diagonal P4 sum; DomainError outside x^{2r} < q."""
        xpow = self.x ** (2 * self.r)
        if xpow >= self.q:
            raise DomainError("diagonal regime requires x^{2r} < q")
        return xpow


def polynomial_series(params: MomentParams) -> np.ndarray:
    """Coefficients of P: d_{1/2s}(n) log(x/n)/log(x) on n <= x."""
    cutoff = int(math.floor(params.x))
    return weighted_poly_coeffs(1, 2 * params.s, params.x, cutoff)


def mollifier_series(params: MomentParams) -> np.ndarray:
    """Coefficients of M: (1/2) d_{1/s}(n) mu(n) log^2(y/n)/log^2(y) on n <= y."""
    cutoff = int(math.floor(params.y))
    return mollifier_coeffs(1, params.s, params.y, cutoff)


def _residue_weights(table: CharacterTable, coeffs: np.ndarray) -> np.ndarray:
    """c_n n^{-1/2} laid out on the group in exponent order (fold_residues refuses support >= q)."""
    n = np.arange(1, coeffs.size)
    return fold_residues(table, coeffs[1:] / np.sqrt(n))


def power_sum(squares: np.ndarray, k: Fraction) -> tuple[float, np.ndarray, list[int]]:
    """sum over non-principal chi of (|L|^2)^k, k in (0, 1], from the squares of all characters.

    Fractional powers go through exp(k log |L|^2) with |L|^2 floored at
    1e-30; floored characters (numerically vanishing L) are flagged.
    Returns (value, per-character contributions, floored character indices).
    """
    k = Fraction(k)
    if not (0 < k <= 1):
        raise DomainError(f"k must lie in (0, 1], got {k}")
    sq = squares[1:]
    floored = [int(j) for j in (np.nonzero(sq < SQUARE_FLOOR)[0] + 1)]
    contrib = np.exp(float(k) * np.log(np.maximum(sq, SQUARE_FLOOR)))
    return exact_sum(contrib), contrib, floored


@dataclass(frozen=True)
class CharacterValues:
    """L(1/2, chi), |L|^2, P(chi) and M(chi) over all characters (slot 0 principal),
    p4 = sum_{chi != chi0} |P|^{4r}, and the L-value route's error estimate err.

    Built once per (params, table, method) by `character_values`; the Holder
    chain and the diagonal P4 check read every per-character value from here.
    """

    params: MomentParams
    L: np.ndarray = field(repr=False)
    sq: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    M: np.ndarray = field(repr=False)
    p4: float
    err: float


def character_values(params: MomentParams, table: CharacterTable, method: str = "oracle") -> CharacterValues:
    """One lvalue_table call, and one DFT Z of P + iM for both polynomials.

    P and M have real coefficients, so conj P(chi_j) = P(chi_{-j}), and
    P = (Z_j + conj Z_{-j})/2, M = (Z_j - conj Z_{-j})/2i.
    """
    if table.q != params.q:
        raise DomainError("table modulus does not match params")
    if method not in COMPLEX_ROUTES:
        raise DomainError("twisted sums need complex L-values: method " + " or ".join(map(repr, COMPLEX_ROUTES)))
    L, sq, err = lvalue_table(table, method)
    Z = dft_all_characters(table, _residue_weights(table, polynomial_series(params))
                           + 1j * _residue_weights(table, mollifier_series(params)))
    Zbar = np.conj(np.roll(Z[::-1], 1))  # conj Z_{-j}
    P = (Z + Zbar) / 2
    p4 = exact_sum(np.abs(P[1:]) ** (4 * params.r))
    return CharacterValues(params, L, sq, P, (Z - Zbar) / 2j, p4, err)


@dataclass
class P4Report:
    lhs: float
    rhs: float
    ratio: float
    holds: bool


def p4_bound_check(values: CharacterValues) -> P4Report:
    """Diagonal majorant for the fourth-type polynomial sum.

    lhs = sum_{chi != chi0} |P|^{4r}; rhs = phi(q) sum_{n <= x^{2r}} of the
    squared 2r-fold weighted coefficients over n.  In the diagonal regime
    x^{2r} < q orthogonality makes lhs <= rhs exactly (the dropped terms are
    the principal square and nothing else), so holds is lhs <= rhs(1 + 1e-9).
    """
    params = values.params
    cutoff = int(math.floor(params.diagonal_length()))
    lhs = values.p4
    d2 = weighted_poly_coeffs(2 * params.r, 2 * params.s, params.x, cutoff)
    n = np.arange(1, cutoff + 1)
    rhs = (params.q - 1) * float(np.sum(d2[1:] ** 2 / n))
    return P4Report(lhs=lhs, rhs=rhs, ratio=lhs / rhs, holds=lhs <= rhs * (1 + 1e-9))


def holder_exponents(k: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The three chain exponents (1/(2(2-k)), 1/(2(2-k)), (1-k)/(2-k)); they sum to 1."""
    k = Fraction(k)
    e1 = 1 / (2 * (2 - k))
    return e1, e1, (1 - k) / (2 - k)


@dataclass
class HolderReport:
    s_l: complex
    moment: float
    p4: float
    s_u: float
    f1: float
    f2: float
    f3: float
    slack: float
    holds: bool


def holder_chain_check(values: CharacterValues) -> HolderReport:
    """Verify |S_l| <= F1 F2 F3 with the chain's exponents on M_k, sum|P|^{4r}, S_u.

    All four sums read the same per-character L, P, M values, so the
    inequality is exact arithmetic and any slack below -1e-9 * F1 F2 F3
    indicates a bug rather than a tolerance issue.
    """
    L, sq, P, M = values.L, values.sq, values.P, values.M
    r, s, k = values.params.r, values.params.s, values.params.k
    e1, e2, e3 = (float(e) for e in holder_exponents(k))
    t = (L * np.conj(P) ** (2 * s) * np.abs(M) ** (2 * (s - r)))[1:]
    sl = exact_sum(t)
    mk = power_sum(sq, k)[0]
    p4 = values.p4
    su = exact_sum((sq * np.abs(P) ** (4 * s) * np.abs(M) ** (2 * (2 * s - r)))[1:])
    f1, f2, f3 = mk**e1, p4**e2, su**e3
    slack = f1 * f2 * f3 - abs(sl)
    return HolderReport(sl, mk, p4, su, f1, f2, f3, slack, holds=slack >= -1e-9 * f1 * f2 * f3)


@dataclass
class SurveyRow:
    q: int
    moment_over_phi: float
    logq_pow_k2: float
    ratio: float
    band_ok: bool


def scaling_survey(k: Fraction, primes: Sequence[int], method: str = "oracle") -> list[SurveyRow]:
    """M_k(q)/phi(q) against (log q)^{k^2} across a list of primes.

    The ratio column is a sanity band [0.1, 10], not an asymptotic claim:
    the asymptotic constants are not reproducible at desk scale.
    """
    k = Fraction(k)
    rows = []
    for q in (int(q) for q in primes):
        per_phi = power_sum(lvalue_table(build_table(q), method)[1], k)[0] / (q - 1)
        target = math.log(q) ** float(k * k)
        ratio = per_phi / target
        rows.append(SurveyRow(q=q, moment_over_phi=per_phi, logq_pow_k2=target, ratio=ratio,
                              band_ok=0.1 <= ratio <= 10.0))
    return rows
