"""Exact Dirichlet-character arithmetic modulo a prime q.

A character table stores the smallest primitive root g and the discrete-log
table of (Z/qZ)*, so chi_j(a) = exp(2 pi i * j * dlog(a) / (q-1)) is one entry
of a table of q-1 precomputed roots of unity.  Character values are never
materialized as a q x q matrix.

Every all-character array is in exponent order: slot m holds the coefficient
of a = g^m, in the DFT's input, in the inverse's output and in the direct
reference, and `fold_residues` is the one place that lays a sequence indexed
by n onto the group, at slot dlog[n].  Evaluating a coefficient sum over all
characters at once is then one DFT of length n = q-1.  Where the largest
prime factor p of n has p^2 > n, numpy's pocketfft would take all of n
through Bluestein's reduction, at several times a smooth length's cost;
there the DFT splits as (n/p) x p (Good 1958; Thomas 1963), so Bluestein runs
only on rows of length p.  A direct evaluation is kept as the quadratic-time
reference: characters come in blocks of 64, since
chi_{j0 + t}(g^m) = chi_t(g^m) chi_{j0}(g^m), so all the blocks together are
one matrix product of gathered roots, taken over slices of m.
Since chi_j(g^k) = chi_k(g^j), the same reference also sums characters at every
residue, as the orthogonality check does against `parity_sum_expected`.  Error
estimates and tests read the DFT's rounding from one model, `dft_rounding`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .util import exact_sum

QMAX = 10**6


def is_prime(n: int) -> bool:
    """Whether n is prime, by _prime_factors' trial division; DomainError for n > QMAX."""
    if n > QMAX:
        raise DomainError(f"is_prime decides n <= {QMAX} only, got {n}")
    return _prime_factors(n) == [n]


def check_modulus(q: int) -> None:
    """The one modulus rule: q must be a prime in [3, QMAX] (DomainError otherwise)."""
    if q < 3 or q > QMAX or not is_prime(q):
        raise DomainError(f"modulus must be a prime in [3, {QMAX}], got {q}")


@dataclass(frozen=True)
class CharacterTable:
    """Precomputed data for the q-1 Dirichlet characters modulo a prime q.

    Fields:
        q:      prime modulus
        g:      smallest positive primitive root mod q
        dlog:   dlog[a] = k with g^k = a (mod q), for 1 <= a < q; dlog[0] = -1
        powers: powers[k] = g^k mod q for 0 <= k < q-1 (inverse of dlog)
        parity: parity[j] = 0 if chi_j(-1) = 1 (even), 1 otherwise
    """

    q: int
    g: int
    dlog: np.ndarray
    powers: np.ndarray
    parity: np.ndarray

    @property
    def order(self) -> int:
        return self.q - 1

    @cached_property
    def roots(self) -> np.ndarray:
        """roots[m] = exp(2 pi i m/n), n = q-1, built on first read: only the quadratic
        reference reads it.

        On the grid of the D-th roots, D = lcm(n, 4), cos and sin (one complex exp)
        are evaluated at 2 pi k/D for k <= D/8 only, and e(1/4 - k/D) = i conj(e(k/D))
        fills the rest of the first quadrant; the n-th roots take every (D/n)-th
        point of it.  The second quadrant is -conj of the first, mirrored about n/4,
        and the lower half conj of the upper, mirrored about n/2, so
        roots[n - m] = conj(roots[m]), roots[n/2 - m] = -conj(roots[m]) and, when
        4 | n, roots[n/4] = i hold exactly.
        """
        n = self.order
        step = 1 if n % 4 == 0 else 2
        quarter, eighth = n * step // 4, n * step // 8
        octant = np.exp((2j * math.pi / (n * step)) * np.arange(eighth + 1))
        first = np.concatenate((octant, 1j * np.conj(octant[quarter - eighth - 1 :: -1])))[::step]
        half = n // 2
        upper = np.concatenate((first, -np.conj(first[half - first.size :: -1])))
        roots = np.concatenate((upper, np.conj(upper[half - 1 : 0 : -1])))
        roots.setflags(write=False)
        return roots

    @cached_property
    def good_thomas(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Good-Thomas index maps (gather, crt) of the group DFT, built on first read;
        None where one FFT of length n = q-1 runs.  Both depend on n alone.

        n = n1 n2 splits off n2 = p, the largest prime factor of n, exactly where
        pocketfft may choose Bluestein: n >= 50 and p^2 > n, so p divides n once
        and n1 = n/p >= 2 (n is even) is coprime to it.  gather[k1, k2] =
        (k1 n2 + k2 n1) % n, and crt[j1, j2] = j with j = j1 (mod n1) and
        j = j2 (mod n2).
        """
        n = self.order
        n2 = _prime_factors(n)[-1]
        if n < 50 or n2 * n2 <= n:
            return None
        n1 = n // n2
        k1, k2 = np.arange(n1)[:, None], np.arange(n2)
        gather = (k1 * n2 + k2 * n1) % n
        crt = (k1 * (n2 * pow(n2, -1, n1)) + k2 * (n1 * pow(n1, -1, n2))) % n
        for arr in (gather, crt):
            arr.setflags(write=False)
        return gather, crt


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending, by trial division; [] for n < 2."""
    fac = []
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    return fac


def build_table(q: int) -> CharacterTable:
    """Character table for a modulus q that passes check_modulus, smallest primitive root."""
    check_modulus(q)
    n = q - 1
    fac = _prime_factors(n)
    g = 0
    for cand in range(2, q):
        if all(pow(cand, n // p, q) != 1 for p in fac):
            g = cand
            break
    # baby steps g^r and giant steps g^{Bj}: powers[jB + r] = g^{Bj} g^r mod q,
    # exact in int64 since q^2 < 2^63
    B = math.isqrt(n) + 1
    baby = np.array([pow(g, r, q) for r in range(B)], dtype=np.int64)
    giant = np.array([pow(g, B * j, q) for j in range(-(-n // B))], dtype=np.int64)
    powers = (np.outer(giant, baby) % q).reshape(-1)[:n]
    dlog = np.full(q, -1, dtype=np.int64)
    dlog[powers] = np.arange(n, dtype=np.int64)
    # chi_j(-1) = exp(2 pi i j dlog(-1)/n) with dlog(-1) = n/2, so parity is j mod 2
    parity = (np.arange(n) % 2).astype(np.int8)
    for arr in (powers, dlog, parity):
        arr.setflags(write=False)
    return CharacterTable(q=q, g=g, dlog=dlog, powers=powers, parity=parity)


def parity_sum_expected(q: int, parity: int, a: int | np.ndarray) -> np.ndarray:
    """Case table for the even (parity 0) or odd (parity 1) primitive character
    sums at prime q, at one residue a or elementwise over an array of residues;
    parity is CharacterTable.parity's bit."""
    a = np.asarray(a) % q
    half = (q - 1) / 2
    if parity == 0:
        return np.where((a == 1) | (a == q - 1), half - 1, -1.0)
    return np.where(a == 1, half, np.where(a == q - 1, -half, 0.0))


def dft_all_characters(table: CharacterTable, coeffs: np.ndarray) -> np.ndarray:
    """out[j] = sum_m coeffs[m] chi_j(g^m) for every j at once, coeffs in exponent order.

    One unscaled inverse FFT of length q-1, or its Good-Thomas split (see
    CharacterTable.good_thomas); each output is off by at most dft_rounding(table, coeffs).
    """
    n = table.order
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (n,):
        raise DomainError(f"coefficient array must have length q-1 = {n}, got {coeffs.shape}")
    if (maps := table.good_thomas) is not None:
        return _split_dft(coeffs, *maps)
    return np.fft.ifft(coeffs, norm="forward")


def inverse_dft_all_characters(table: CharacterTable, char_sums: np.ndarray) -> np.ndarray:
    """Recover the exponent-order coefficients from the full vector of character sums:
    conj(DFT(conj z))/(q-1)."""
    return np.conj(dft_all_characters(table, np.conj(char_sums))) / table.order


def dft_rounding(table: CharacterTable, coeffs: np.ndarray) -> float:
    """log2(n) eps sum|coeffs| + n 2^-1074, n = q-1: the bound on each output's absolute rounding
    error in dft_all_characters(table, coeffs); the inverse's is this over n.  The eps term has the
    form of Higham's bound for radix-2 Cooley-Tukey (Accuracy and Stability of Numerical Algorithms,
    2002, section 24.1); for pocketfft's mixed radices and the Bluestein rows of the Good-Thomas split
    it is a model that tests check.  The second term covers products that round to subnormals."""
    return math.log2(table.order) * np.finfo(float).eps * float(np.sum(np.abs(coeffs))) + table.order * 2.0**-1074


def _split_dft(x: np.ndarray, gather: np.ndarray, crt: np.ndarray) -> np.ndarray:
    """out[crt] = the unscaled two-dimensional inverse FFT of x[gather]: rows (the
    prime length) first, then the columns in place in the rows' buffer."""
    a = np.fft.ifft(x[gather], axis=1, norm="forward")
    np.fft.ifft(a, axis=0, norm="forward", out=a)
    out = np.empty(x.size, dtype=complex)
    out[crt] = a
    return out


_NAIVE_BLOCK = 64
# cells of the two gathered factors of one slice of m: bounds the reference's working set
_NAIVE_CELLS = 1 << 16


def naive_character_sums(table: CharacterTable, coeffs: np.ndarray) -> np.ndarray:
    """Direct evaluation of sum_m coeffs[m] chi_j(g^m), 64 characters at a time.

    Quadratic-time reference for dft_all_characters, built from the table's
    roots without any FFT: with j = j0 + t, t < 64 and j0 a multiple of 64,
    chi_j(g^m) = roots[(j0 m) % n] roots[(t m) % n], so the sums, as an
    (n/64) x 64 matrix, are G F with G[j0, m] = roots[(j0 m) % n] coeffs[m]
    and F[m, t] = roots[(t m) % n].  The product runs through BLAS over slices
    of m, each sized so that its slices of G and F hold about _NAIVE_CELLS
    cells together.
    """
    n = table.order
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (n,):
        raise DomainError(f"coefficient array must have length q-1 = {n}")
    roots = table.roots
    t = np.arange(min(n, _NAIVE_BLOCK))
    j0 = np.arange(0, n, _NAIVE_BLOCK)[:, None]
    span = _NAIVE_CELLS // (j0.size + t.size)
    sums = np.zeros((j0.size, t.size), dtype=complex)
    for lo in range(0, n, span):
        m = np.arange(lo, min(lo + span, n))
        sums += (roots[_mod(j0 * m, n)] * coeffs[lo : lo + span]) @ roots[_mod(m[:, None] * t, n)]
    return sums.reshape(-1)[:n]


def _mod(k: np.ndarray, n: int) -> np.ndarray:
    """k % n for k >= 0, in place: numpy divides by a scalar faster than it takes its remainder."""
    k -= k // n * n
    return k


def fold_residues(table: CharacterTable, values: np.ndarray) -> np.ndarray:
    """Lay out an array indexed by n = 1..len on the group in exponent order:
    the value at n goes to slot dlog[n], and every other slot is zero.

    The support must lie below q, where each n is its own residue; this is
    the one place that refuses support at n >= q.
    """
    q = table.q
    values = np.asarray(values)
    if np.any(values[q - 1 :] != 0):
        raise DomainError(f"coefficient support must be < q = {q}")
    values = values[: q - 1]
    out = np.zeros(q - 1, dtype=np.result_type(values.dtype, np.float64))
    out[table.dlog[1 : values.size + 1]] += values  # 0 + v, so a -0.0 lands as 0.0
    return out


@dataclass
class DiagonalReport:
    lhs: complex
    rhs: complex
    diff: float
    scale: float


def diagonal_decomposition_check(
    table: CharacterTable, c: np.ndarray, e: np.ndarray
) -> DiagonalReport:
    """Check the orthogonality identity that extracts diagonal terms.

    lhs = sum over all characters of (sum_m c_m chi(m)) (sum_n e_n chibar(n));
    rhs = phi(q) * sum over pairs m = n (mod q), both coprime to q, of c_m e_n.
    Both sides are computed independently; arrays are indexed by n starting
    at 1 and must be supported below q.  scale = phi(q) ||c||_2 ||e||_2 bounds
    both |lhs| (Cauchy-Schwarz and Parseval) and |rhs| (Cauchy-Schwarz), so
    diff/scale reads a relative error of the identity itself.
    """
    q = table.q
    c = np.asarray(c, dtype=complex)
    e = np.asarray(e, dtype=complex)
    fc = fold_residues(table, c)
    fe = fold_residues(table, e)
    A = dft_all_characters(table, fc)
    Bbar = np.conj(dft_all_characters(table, np.conj(fe)))
    lhs = exact_sum(A * Bbar)
    rhs = complex(q - 1) * exact_sum(fc * fe)
    scale = float((q - 1) * np.linalg.norm(fc) * np.linalg.norm(fe))
    return DiagonalReport(lhs=lhs, rhs=rhs, diff=abs(lhs - rhs), scale=max(scale, 1.0))
