"""Exact Dirichlet-character arithmetic modulo a prime q.

A character table stores the smallest primitive root g and the discrete-log
table of (Z/qZ)*, so chi_j(a) = exp(2 pi i * j * dlog(a) / (q-1)) is one entry
of a table of q-1 precomputed roots of unity.  Character values are never
materialized as a q x q matrix.

Evaluating a coefficient sum over all characters at once is a DFT of length
n = q-1 after permuting residues into the cyclic group generated by g.  Where
the largest prime factor p of n has p^2 > n, numpy's pocketfft would take all
of n through Bluestein's reduction, at several times a smooth length's cost;
there the DFT splits as (n/p) x p (Good 1958; Thomas 1963), so Bluestein runs
only on rows of length p.  A direct evaluation is kept as the quadratic-time
reference: characters come in blocks of 16, since
chi_{j0 + t}(g^m) = chi_t(g^m) chi_{j0}(g^m), so one gather of exact roots and
one matrix-vector product against the first 16 characters serve a block.
Since chi_j(g^k) = chi_k(g^j), the same reference also sums characters at
every residue, as the orthogonality check does against `parity_sum_expected`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .util import exact_sum

QMAX = 10**6

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the q <= 10^6 range used here."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
        """roots[m] = exp(2 pi i m/(q-1)), built on first read: only the quadratic reference reads it."""
        roots = np.exp(2j * math.pi * np.arange(self.order) / self.order)
        roots.setflags(write=False)
        return roots

    @cached_property
    def good_thomas(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Good-Thomas index maps (gather, crt) of the group DFT, built on first read;
        None where one FFT of length n = q-1 runs.

        n = n1 n2 splits off n2 = p, the largest prime factor of n, exactly where
        pocketfft may choose Bluestein: n >= 50 and p^2 > n, so p divides n once
        and n1 = n/p >= 2 (n is even) is coprime to it.  gather[k1, k2] =
        powers[(k1 n2 + k2 n1) % n] - 1, and crt[j1, j2] = j with j = j1 (mod n1)
        and j = j2 (mod n2).
        """
        n = self.order
        n2 = _prime_factors(n)[-1]
        if n < 50 or n2 * n2 <= n:
            return None
        n1 = n // n2
        k1, k2 = np.arange(n1)[:, None], np.arange(n2)
        gather = (self.powers - 1)[(k1 * n2 + k2 * n1) % n]
        crt = (k1 * (n2 * pow(n2, -1, n1)) + k2 * (n1 * pow(n1, -1, n2))) % n
        for arr in (gather, crt):
            arr.setflags(write=False)
        return gather, crt


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 2, ascending, by trial division."""
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
    """Character table for prime q, 3 <= q <= 10^6, smallest primitive root."""
    if q < 3 or q > QMAX or not is_prime(q):
        raise DomainError(f"modulus must be a prime in [3, {QMAX}], got {q}")
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


def _csum(values: np.ndarray) -> complex:
    """Correctly rounded complex sum (exact_sum of the real and imaginary parts)."""
    return complex(exact_sum(values.real), exact_sum(values.imag))


def parity_sum_expected(q: int, parity: str, a: int | np.ndarray) -> np.ndarray:
    """Case table for the even/odd primitive character sums at prime q, at one
    residue a or elementwise over an array of residues."""
    a = np.asarray(a) % q
    half = (q - 1) / 2
    if parity == "even":
        return np.where((a == 1) | (a == q - 1), half - 1, -1.0)
    return np.where(a == 1, half, np.where(a == q - 1, -half, 0.0))


def dft_all_characters(table: CharacterTable, coeffs: np.ndarray) -> np.ndarray:
    """out[j] = sum_{a=1}^{q-1} coeffs[a-1] chi_j(a) for every j at once.

    Permutes coefficients to the cyclic group (index m with a = g^m) and runs
    one inverse FFT of length q-1, or its Good-Thomas split (see
    CharacterTable.good_thomas); matches the naive evaluation to ~1e-13.
    """
    n = table.order
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (n,):
        raise DomainError(f"coefficient array must have length q-1 = {n}, got {coeffs.shape}")
    if (maps := table.good_thomas) is not None:
        return _split_dft(np.fft.ifft, coeffs, *maps)
    b = coeffs[table.powers - 1]
    return np.fft.ifft(b) * n


def inverse_dft_all_characters(table: CharacterTable, char_sums: np.ndarray) -> np.ndarray:
    """Recover residue coefficients from the full vector of character sums."""
    n = table.order
    char_sums = np.asarray(char_sums)
    if char_sums.shape != (n,):
        raise DomainError(f"character-sum array must have length q-1 = {n}")
    if (maps := table.good_thomas) is not None:
        return _split_dft(np.fft.fft, char_sums, *maps[::-1])
    b = np.fft.fft(char_sums) / n
    coeffs = np.empty(n, dtype=complex)
    coeffs[table.powers - 1] = b
    return coeffs


def _split_dft(fft, x: np.ndarray, gather: np.ndarray, scatter: np.ndarray) -> np.ndarray:
    """out[scatter] = the two-dimensional fft of x[gather], unscaled for np.fft.ifft
    and scaled by 1/n for np.fft.fft: rows (the prime length) first, then the
    columns in place in the rows' buffer."""
    a = fft(x[gather], axis=1, norm="forward")
    fft(a, axis=0, norm="forward", out=a)
    out = np.empty(x.size, dtype=complex)
    out[scatter] = a
    return out


_NAIVE_BLOCK = 16


def naive_character_sums(table: CharacterTable, coeffs: np.ndarray) -> np.ndarray:
    """Direct evaluation of sum_a coeffs[a-1] chi_j(a), 16 characters at a time.

    Quadratic-time reference for dft_all_characters, built from the table's
    roots without any FFT: with a = g^m and j = j0 + t, t < 16,
    chi_j(a) = roots[(t m) % n] roots[(j0 m) % n], so each block j0 (a
    multiple of 16) is one gather and one product with the 16 x n matrix of
    the first 16 characters.

    The product goes through BLAS.  At q = 7013 on 2 vCPUs, a fresh process
    took 0.044-0.055 s (first call) and 0.045-0.053 s (second) with
    OpenBLAS's default 2 threads, and 0.058-0.097 s for either with
    OPENBLAS_NUM_THREADS=1.  With one core held by another process, the
    default threads took 0.09-0.23 s and one thread 0.068 s.
    """
    n = table.order
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (n,):
        raise DomainError(f"coefficient array must have length q-1 = {n}")
    b = coeffs[table.powers - 1]
    m = np.arange(n, dtype=np.int64)
    first = table.roots[np.outer(np.arange(_NAIVE_BLOCK), m) % n]
    blocks = range(0, n, _NAIVE_BLOCK)
    sums = np.empty((len(blocks), _NAIVE_BLOCK), dtype=complex)
    for i, j0 in enumerate(blocks):
        sums[i] = first @ (table.roots[(j0 * m) % n] * b)
    return sums.reshape(-1)[:n]


def fold_residues(q: int, values: np.ndarray) -> np.ndarray:
    """Lay out an array indexed by n = 1..len as residues 1..q-1 mod q,
    zero-padded to length q-1.

    The support must lie below q, where each n is its own residue; this is
    the one place that refuses support at n >= q.
    """
    values = np.asarray(values)
    if np.any(values[q - 1 :] != 0):
        raise DomainError(f"coefficient support must be < q = {q}")
    out = np.zeros(q - 1, dtype=np.result_type(values.dtype, np.float64))
    out[: values.size] += values[: q - 1]  # 0 + v, so a -0.0 lands as 0.0
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
    at 1 and must be supported below q.
    """
    q = table.q
    c = np.asarray(c, dtype=complex)
    e = np.asarray(e, dtype=complex)
    fc = fold_residues(q, c)
    fe = fold_residues(q, e)
    A = dft_all_characters(table, fc)
    Bbar = np.conj(dft_all_characters(table, np.conj(fe)))
    lhs = _csum(A * Bbar)
    rhs = complex(q - 1) * _csum(fc * fe)
    scale = float((q - 1) * np.sum(np.abs(fc)) * np.sum(np.abs(fe)))
    return DiagonalReport(lhs=lhs, rhs=rhs, diff=abs(lhs - rhs), scale=max(scale, 1.0))
