import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import fracmoment
from fracmoment.characters import (
    build_table,
    dft_all_characters,
    dft_rounding,
    fold_residues,
    inverse_dft_all_characters,
)
from fracmoment.errors import DomainError

_TABLES: dict = {}

# one line per acceptance criterion, echoed after the run (fd-level capture
# would swallow plain prints from passing tests)
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def table_for(q: int):
    if q not in _TABLES:
        _TABLES[q] = build_table(q)
    return _TABLES[q]


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def run_python(code: str, *args: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this fracmoment, with text output captured;
    with check, a nonzero exit raises an AssertionError that carries the child's stderr."""
    src = str(Path(fracmoment.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    if check and out.returncode:
        raise AssertionError(f"child exited {out.returncode}:\n{out.stderr}")
    return out


def peak_rise_kib(setup: str, call: str, *argv: str) -> int:
    """How far call lifts the peak resident set, in KiB, after setup (imports and warm-up).

    Both run in a fresh interpreter of their own (run_python, argv its sys.argv[1:]), so the
    peak is this call's and no other test's.  The peak is VmHWM from /proc/self/status, read
    after setup and after call; not ru_maxrss, which in a child starts at the parent's RSS at
    exec, so after a large test it would read 0.  The rise is the last line of stdout, so a
    call that prints first (a CLI command) still works.
    """
    code = (
        "def peak():\n"
        "    return int(next(r for r in open('/proc/self/status') if r.startswith('VmHWM')).split()[1])\n"
        f"{setup}\nbefore = peak()\n{call}\nprint(peak() - before)\n"
    )
    return int(run_python(code, *argv).stdout.splitlines()[-1])


# References the program itself does not call: each reads the same tables or
# identities as the program by another road.


def chi(table, j: int, a: int) -> complex:
    """chi_j(a) = e(j dlog a/(q - 1)) from the table's roots; zero when q divides a."""
    a = a % table.q
    if a == 0:
        return 0j
    return complex(table.roots[(j * int(table.dlog[a])) % table.order])


def assert_within_dft_rounding(label: str, cases) -> None:
    """Each (table, coeffs, name) of cases: every output of dft_all_characters(table, coeffs)
    within dft_rounding(table, coeffs), and of the inverse within that over n, against np.fft
    in clongdouble (eps 1.1e-19, with room for every double's products); the worst ratio of
    each direction is echoed after the run."""
    worst = {"forward": (0.0, ""), "inverse": (0.0, "")}
    for table, coeffs, name in cases:
        n, c = table.order, np.asarray(coeffs)
        exact = np.fft.ifft(c.astype(np.clongdouble)) * n
        # a real input's inverse transform is the conjugate of its forward one over n
        back = np.conj(exact) / n if np.isrealobj(c) else np.fft.fft(c.astype(np.clongdouble)) / n
        bound = dft_rounding(table, c)
        errors = (np.abs(dft_all_characters(table, c) - exact), np.abs(inverse_dft_all_characters(table, c) - back) * n)
        for kind, err in zip(worst, errors):
            worst[kind] = max(worst[kind], (float(np.max(err)) / bound, f"q={table.q} {name}"))
    line = ", ".join(f"{kind} {r:.3f} at {where}" for kind, (r, where) in worst.items())
    ok = max(r for r, _ in worst.values()) <= 1
    ACCEPTANCE_LINES.append(f"[{'PASS' if ok else 'FAIL'}] dft_rounding over {label}: worst {line}")
    assert ok, line


def direct_character_sums(table, coeffs) -> np.ndarray:
    """sum_m coeffs[m] chi_j(g^m) for every j, each character value one root gathered
    directly, roots[(j m) % n], and each sum of the rounded products correctly rounded."""
    n = table.order
    m = np.arange(n)
    c = np.asarray(coeffs, dtype=complex)
    out = np.empty(n, dtype=complex)
    for j in range(n):
        terms = c * table.roots[(j * m) % n]
        out[j] = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return out


def divisor_coeff(alpha, n: int) -> float:
    """d_alpha(n) = prod over p^e || n of prod_{i<e} (alpha+i)/(i+1), exact, rounded once.

    n is factored by trial division, independently of the sieve behind the series.
    """
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    a, acc = Fraction(alpha), Fraction(1)
    m, p = int(n), 2
    while m > 1:
        if p * p > m:
            p = m  # what is left is prime
        i = 0
        while m % p == 0:
            m, acc, i = m // p, acc * (a + i) / (i + 1), i + 1
        p += 1
    return float(acc)


def prime_sieve(N: int) -> np.ndarray:
    """is_prime[n] for n <= N by the sieve of Eratosthenes."""
    sieve = np.ones(N + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


def primes_upto(N: int) -> list:
    """The primes p <= N, by trial division."""
    return [p for p in range(2, N + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


@cache
def _least_prime_powers(N: int) -> tuple:
    """(p, e) for each n = 2..N, with p the least prime factor of n, found by trial division, and p^e || n."""
    out = []
    for n in range(2, N + 1):
        p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
        e = 1
        while n % p ** (e + 1) == 0:
            e += 1
        out.append((p, e))
    return tuple(out)


def multiplicative_reference(local, N: int, dtype=float) -> np.ndarray:
    """f(n) = f(p^e) f(n/p^e) for n <= N, p the least prime factor of n and f(p^e) = local(p, e)
    the left operand, so f(n) = f(p1^e1) (f(p2^e2) (...)) in increasing primes; slot 0 is 0
    and every zero +0.

    Each product is a one-element numpy multiply: numpy's complex product is fused and
    rounds its operands unevenly, so neither Python's complex product nor the swapped
    order reproduces the series bit for bit.
    """
    f = np.zeros(N + 1, dtype=dtype)
    f[1:2] = 1
    for n, (p, e) in enumerate(_least_prime_powers(N), start=2):
        f[n] = local(p, e)
        if p**e < n:
            f[n] = np.multiply(f[n : n + 1], f[n // p**e : n // p**e + 1])[0]
    return f + 0.0


def shifted_local_reference(ws, zs, s: int):
    """local(p, e) for multiplicative_reference: f(p^e) of shifted_series(ws, zs, s, N), the Cauchy
    product in e of one factor d_{1/2s}(p^j) p^{-j w} per w of ws and one (1, -1/s, 0, ...)[j] p^{-j z}
    per z of zs, every degree up to e rebuilt at each call, in complex on one-element arrays as the
    series' own products are.  Re w is capped at 1100, past which every p^{-w} is 0 in double."""
    specs = [(lambda j: divisor_coeff(Fraction(1, 2 * s), 2**j), w) for w in (ws.shifts if ws else ())]
    specs += [(lambda j: (1.0, -1 / s, 0.0)[min(j, 2)], z) for z in (zs.shifts if zs else ())]

    @cache
    def local(p: int, e: int) -> complex:
        logp = np.log(np.array([p]))
        acc = [np.ones(1, dtype=complex)] + [0] * e
        for coef, w in specs:
            w = complex(min(complex(w).real, 1100.0), complex(w).imag)
            fac = [coef(j) * np.exp(-w * j * logp) for j in range(e + 1)]
            acc = [sum(acc[i] * fac[j - i] for i in range(j + 1)) for j in range(e + 1)]
        return acc[e][0]

    return local


def evaluate_polynomial_all(table, coeffs: np.ndarray) -> np.ndarray:
    """sum_n c_n chi_j(n) n^{-1/2} for every j, slot 0 principal, as one group DFT of
    its own; fold_residues refuses support at n >= q."""
    n = np.arange(1, coeffs.size)
    return dft_all_characters(table, fold_residues(table, coeffs[1:] / np.sqrt(n)).astype(complex))


def walk_log_zeta(s: complex) -> complex:
    """log zeta(s) continued from the real ray s > 1 by a walk, at 30 digits: mpmath's principal log
    at 1.1 + i Im s, where the Euler product keeps |Im log zeta| <= log zeta(1.1) < pi, plus the
    principal log of each step's ratio zeta(s_{k+1})/zeta(s_k) along the horizontal segment to s.

    Near the pole zeta ~ 1/(s - 1) turns by about the step over the distance to it, so a step is a
    tenth of that distance (at most 0.02), and each must turn zeta by under 0.5 rad for the summed
    logs to follow the branch.
    """
    with mp.workdps(30):
        target = mp.mpc(s)
        at = mp.mpc(1.1, target.imag)
        zeta = mp.zeta(at)
        log = mp.log(zeta)
        while at != target:
            gap = abs(target - at)
            h = min(0.1 * abs(at - 1), 0.02)
            at = target if gap <= h else at + h * (target - at) / gap
            nxt = mp.zeta(at)
            step = mp.log(nxt / zeta)
            assert abs(step.imag) < 0.5, f"zeta turns by {step.imag} rad in one step at {at}"
            log, zeta = log + step, nxt
        return complex(log)
