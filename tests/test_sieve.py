import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import divisor_coeff, multiplicative_reference, peak_rise_kib, primes_upto, shifted_local_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracmoment import sieve
from fracmoment.errors import DomainError
from fracmoment.sieve import (
    SIEVE_CAP,
    ShiftVector,
    dirichlet_convolve,
    divisor_series,
    mobius_series,
    mollifier_coeffs,
    shifted_series,
    weighted_poly_coeffs,
)


SERIES = {
    "dalpha": lambda N: divisor_series(Fraction(1, 2), N),
    "mobius": mobius_series,
    "sigma": lambda N: shifted_series(ShiftVector((0.25 + 0.5j,)), None, 2, N),
}


class TestCutoff:
    @pytest.mark.parametrize("series", SERIES.values(), ids=SERIES)
    def test_cutoff_cap(self, series):
        assert series(0).tolist() == [0]
        assert series(1).tolist() == [0, 1]
        for bad in (-1, SIEVE_CAP + 1):
            with pytest.raises(DomainError):
                series(bad)


class TestDivisorCoeff:
    def test_alpha_one_is_all_ones(self):
        assert divisor_coeff(1, 360) == 1.0

    def test_half_power_values(self):
        # binomial expansion of (1-t)^{-1/2}: coefficients 1/2 and 3/8
        assert divisor_coeff(Fraction(1, 2), 2) == 0.5
        assert divisor_coeff(Fraction(1, 2), 4) == 0.375

    def test_trial_division_past_the_square_root(self):
        # 2^3 * 9973: the cofactor left after trial division up to its square root is prime
        assert divisor_coeff(Fraction(1, 2), 8 * 9973) == float(Fraction(5, 16) * Fraction(1, 2))
        with pytest.raises(DomainError):
            divisor_coeff(Fraction(1, 2), 0)

    def test_series_matches_scalar(self):
        # past 2^16 the primes are found, and each prime's multiples updated, in blocks of 2^16
        d = divisor_series(Fraction(1, 3), 3 << 16)
        for n in (1, 2, 8, 12, 60, 499, 1 << 16, 65537, 65539, 131071, 1 << 17, 131073, 3**10 * 3, 3 << 16):
            assert d[n] == pytest.approx(divisor_coeff(Fraction(1, 3), n), abs=1e-14)

    def test_series_peak_memory_1e6(self):
        # the float64 result is 7.6 MB and the int32 cofactor table 3.8 MB
        setup = "from fracmoment.sieve import divisor_series\ndivisor_series(0.5, 1000)"
        assert peak_rise_kib(setup, "divisor_series(0.5, 10**6)") < 24 * 1024

    def test_mobius_peak_memory_4e6(self):
        # 30.5 MiB of float64 and 15.3 MiB of cofactors; the rest is the primes, their
        # f(p), and temporaries of at most 2^16 entries (an unblocked first update, of
        # 2 x 10^6 entries, and an unblocked prime scan read about 82 MiB)
        setup = "from fracmoment.sieve import mobius_series\nmobius_series(1000)"
        assert peak_rise_kib(setup, "mobius_series(4 * 10**6)") < 72 * 1024

    def test_multiplicativity(self, rng):
        d = divisor_series(Fraction(1, 2), 10**4)
        pairs = 0
        while pairs < 50:
            m = int(rng.integers(2, 100))
            n = int(rng.integers(2, 100))
            if math.gcd(m, n) != 1:
                continue
            pairs += 1
            assert d[m * n] == pytest.approx(d[m] * d[n], rel=1e-12)


class TestConvolution:
    def test_half_squared_is_one(self):
        d = divisor_series(Fraction(1, 2), 10)
        c = dirichlet_convolve(d, d, 10)
        # 0.375 + 0.25 + 0.375
        assert c[4] == pytest.approx(1.0, abs=1e-15)

    def test_identity_element(self, rng):
        g = np.concatenate([[0.0], rng.standard_normal(50)])
        delta = np.concatenate([[0.0, 1.0], np.zeros(49)])
        out = dirichlet_convolve(delta, g, 50)
        np.testing.assert_allclose(out, g, atol=0)

    def test_divisor_count(self):
        d1 = divisor_series(1, 10)
        c = dirichlet_convolve(d1, d1, 10)
        assert c[6] == 4.0

    def test_cutoff_mismatch(self):
        d = divisor_series(1, 10)
        with pytest.raises(DomainError):
            dirichlet_convolve(d, d, 11)

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_sfold_identity_small(self, s):
        N = 2000
        d = divisor_series(Fraction(1, s), N)
        acc = d
        for _ in range(s - 1):
            acc = dirichlet_convolve(acc, d, N)
        assert np.max(np.abs(acc[1:] - 1.0)) < 1e-10

    @pytest.mark.parametrize("a,b", [(Fraction(1, 2), Fraction(1, 2)),
                                     (Fraction(1, 3), Fraction(2, 3)),
                                     (Fraction(1, 4), Fraction(1, 4))])
    def test_exponent_additivity(self, a, b):
        N = 10**4
        da = divisor_series(a, N)
        db = divisor_series(b, N)
        dab = divisor_series(a + b, N)
        conv = dirichlet_convolve(da, db, N)
        assert np.max(np.abs(conv[1:] - dab[1:])) < 1e-10


class TestWeightedPoly:
    def test_single_factor_log_weight(self):
        w = weighted_poly_coeffs(1, 1, 10.0, 20)
        assert w[5] == pytest.approx(math.log(2) / math.log(10), rel=1e-14)
        assert w[11] == 0.0
        assert w[1] == 1.0

    def test_two_factor_enumeration(self):
        # decompositions of 2 as (1,2) and (2,1), each d_{1/2}(2) * log(4/2)/log 4
        w = weighted_poly_coeffs(2, 2, 4.0, 8)
        assert w[2] == pytest.approx(0.5, rel=1e-14)

    def test_x_at_most_one_rejected(self):
        with pytest.raises(DomainError):
            weighted_poly_coeffs(1, 1, 1.0, 10)

    @pytest.mark.parametrize("A,B,n", [(1, 2, 7), (2, 2, 12), (2, 3, 30)])
    def test_degenerate_weight_rate(self, A, B, n):
        # as x -> infinity the weights tend to 1 and the A-fold convolution of
        # d_{1/B} remains; since the factor logs sum to log n, the deviation is
        # log n / log x = 1/e to first order at x = n^e (1e-3 needs e ~ 1000)
        d = divisor_series(Fraction(1, B), n)
        acc = d
        for _ in range(A - 1):
            acc = dirichlet_convolve(acc, d, n)
        limit = acc[n]
        rel = {}
        for exp in (10, 20, 40):
            w = weighted_poly_coeffs(A, B, float(n) ** exp, n)
            rel[exp] = abs(w[n] / limit - 1.0)
        assert rel[10] > rel[20] > rel[40]
        for exp in (10, 20, 40):
            assert rel[exp] == pytest.approx(1.0 / exp, rel=0.1)

    def test_degenerate_weight_limit_reached(self):
        # n = 2 keeps x = 2^900 within float range, deep enough for 1e-3
        d = divisor_series(Fraction(1, 2), 2)
        w = weighted_poly_coeffs(1, 2, 2.0**900, 2)
        assert w[2] == pytest.approx(d[2], rel=2e-3)


class TestMollifier:
    def test_prefactor_at_one(self):
        m = mollifier_coeffs(1, 1, 10.0, 10)
        assert m[1] == 0.5
        m2 = mollifier_coeffs(2, 1, 10.0, 10)
        assert m2[1] == 0.25

    def test_direct_formula_value(self):
        m = mollifier_coeffs(1, 2, 10.0, 10)
        want = 0.5 * 0.5 * (-1.0) * (math.log(5) / math.log(10)) ** 2
        assert m[2] == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(-0.12213976674037352, rel=1e-12)

    def test_square_factor_killed_by_mu(self):
        m = mollifier_coeffs(1, 1, 10.0, 10)
        assert m[4] == 0.0

    def test_y_at_most_one_rejected(self):
        with pytest.raises(DomainError):
            mollifier_coeffs(1, 1, 0.5, 10)


class TestShiftedSeries:
    def test_sigma_zero_shift_is_plain(self):
        s = shifted_series(ShiftVector((0.0,)), None, 1, 50)
        d = divisor_series(Fraction(1, 2), 50)
        np.testing.assert_allclose(s, d.astype(complex), atol=0)
        assert s[7] == 0.5

    def test_rho_zero_shift(self):
        s = shifted_series(None, ShiftVector((0.0,)), 1, 10)
        assert s[2] == -1.0

    def test_sigma_two_shifts(self):
        # two ordered factorizations 2 = 2*1 = 1*2, each d_{1/2}(2) * 2^{-1}
        s = shifted_series(ShiftVector((1.0, 1.0)), None, 1, 10)
        assert s[2] == pytest.approx(0.5, rel=1e-14)

    def test_zero_shift_matches_unshifted_convolution(self):
        s = shifted_series(ShiftVector((0.0, 0.0)), None, 2, 200)
        d = divisor_series(Fraction(1, 4), 200)
        conv = dirichlet_convolve(d, d, 200)
        np.testing.assert_allclose(s, conv.astype(complex), atol=1e-14)

    def test_multiplicative(self):
        s = shifted_series(ShiftVector((0.25 + 0.5j, 0.1)), None, 2, 100)
        for m, n in ((2, 3), (4, 9), (5, 12)):
            assert s[m * n] == pytest.approx(s[m] * s[n], rel=1e-12)

    def test_needs_a_shift_vector(self):
        with pytest.raises(DomainError, match="needs a w or a z shift vector"):
            shifted_series(None, None, 1, 10)

    def test_psi_combines_sigma_and_rho(self):
        w = ShiftVector((0.0,))
        z = ShiftVector((0.0,))
        psi = shifted_series(w, z, 1, 50)
        sig = shifted_series(w, None, 1, 50)
        rho = shifted_series(None, z, 1, 50)
        conv = dirichlet_convolve(sig, rho, 50)
        np.testing.assert_allclose(psi, conv, atol=1e-14)

    def test_empty_and_out_of_domain_shifts(self):
        with pytest.raises(DomainError):
            ShiftVector(())
        with pytest.raises(DomainError):
            ShiftVector((-0.25,))
        for bad in (math.nan, math.inf, complex(0.3, math.inf), complex(math.nan, 0.0)):
            with pytest.raises(DomainError):
                ShiftVector((0.3, bad))


N_EXACT = 3000
# series with a negative f(p^e) and zeros, which a product of the two can make -0
ZERO_PRONE = {
    "mobius": lambda: mobius_series(10**5),
    "d_-1": lambda: divisor_series(-1, 10**4),
    "d_-2": lambda: divisor_series(-2, 10**4),
    "rho": lambda: shifted_series(None, ShiftVector((0.3 - 1j,)), 2, 10**4),
    "rho at a huge shift": lambda: shifted_series(None, ShiftVector((1e308,)), 1, 100),
    "psi": lambda: shifted_series(ShiftVector((0.1,)), ShiftVector((0.2 + 1j,)), 1, 10**4),
    "mollifier at y = 30": lambda: mollifier_coeffs(1, 1, 30.0, 100),
}


class TestBitExact:
    """Every series equals f(p1^e1) (f(p2^e2) (...)) in increasing primes, bit for bit."""

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), 0, -1, 0.3, Fraction(5, 2)])
    def test_divisor_series(self, alpha):
        want = multiplicative_reference(lambda p, e: divisor_coeff(alpha, p**e), N_EXACT)
        assert divisor_series(alpha, N_EXACT).tobytes() == want.tobytes()

    def test_mobius_series(self):
        want = multiplicative_reference(lambda p, e: -1.0 if e == 1 else 0.0, N_EXACT)
        assert mobius_series(N_EXACT).tobytes() == want.tobytes()

    @pytest.mark.parametrize("A, B, y", [(1, 2, 30.0), (1, 1, 2310.0), (2, 3, 100.5)])
    def test_mollifier(self, A, B, y):
        # at n = y = 30 and 2310 the weight is 0 and mu(n) = -1
        base = multiplicative_reference(lambda p, e: -1 / B if e == 1 else 0.0, N_EXACT)
        n = np.arange(1, int(y) + 1)
        head = np.zeros(N_EXACT + 1)
        head[n] = base[n] * (np.log(y / n) / math.log(y)) ** 2 + 0.0
        want = head
        for _ in range(A - 1):
            want = dirichlet_convolve(want, head, N_EXACT)
        assert mollifier_coeffs(A, B, y, N_EXACT).tobytes() == (want * 0.5**A).tobytes()

    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("ws, zs", [(ShiftVector((0.25 + 0.5j, 0.1)), None),
                                        (None, ShiftVector((0.3 - 1j, 0.2 + 2j))),
                                        (ShiftVector((0.1 + 1j, 0.2)), ShiftVector((0.3 - 0.5j,)))],
                             ids=["sigma", "rho", "psi"])
    def test_shifted_series(self, ws, zs, s):
        # f(p^e) is read off the series; the products are what is checked
        got = shifted_series(ws, zs, s, N_EXACT)
        assert got.tobytes() == multiplicative_reference(lambda p, e: got[p**e], N_EXACT, complex).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(st.data(), st.integers(1, 3), st.integers(0, 3000))
    def test_shifted_series_is_the_per_degree_cauchy_product(self, data, s, N):
        # the float path for real shifts and the kept lower degrees against every degree rebuilt in complex
        real = st.builds(complex, st.one_of(st.floats(-0.18, 1.0), st.just(1e308)), st.sampled_from([0.0, -0.0]))
        values = data.draw(st.sampled_from([real, st.one_of(real, shift_values)]))  # all real, or mixed
        shifts = data.draw(st.lists(values, min_size=1, max_size=3))
        k = data.draw(st.integers(0, len(shifts)))  # the first k are sigma's, the rest rho's
        ws, zs = (ShiftVector(tuple(v)) if v else None for v in (shifts[:k], shifts[k:]))
        want = multiplicative_reference(shifted_local_reference(ws, zs, s), N, complex)
        assert shifted_series(ws, zs, s, N).astype(complex).tobytes() == want.tobytes()

    def test_local_is_asked_for_rising_degrees_on_shrinking_primes(self):
        calls = []
        sieve._multiplicative(lambda p, e: calls.append((e, p.copy())) or 1.0, 10**4)
        assert [e for e, _ in calls] == list(range(1, 14))  # 2^13 <= 10^4 < 2^14
        assert all(b.size <= a.size and np.array_equal(a[: b.size], b) for (_, a), (_, b) in zip(calls, calls[1:]))

    @pytest.mark.parametrize("name", ZERO_PRONE)
    def test_every_zero_is_positive(self, name):
        values = ZERO_PRONE[name]().view(np.float64)  # a complex series as its real and imaginary parts
        assert not np.signbit(values[values == 0]).any()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

PROPS = settings(deadline=None, max_examples=40)
alphas = st.fractions(min_value=-3, max_value=3, max_denominator=12)
shift_values = st.builds(complex, st.floats(-0.18, 1.0), st.floats(-5.0, 5.0))


def coprime_pairs(limit):
    """Lists of coprime (m, n) with m n <= limit."""
    pairs = st.integers(1, limit).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, limit // m)))
    return st.lists(pairs.filter(lambda mn: math.gcd(*mn) == 1), min_size=1, max_size=20)


def _reference_factor(alpha, shift, twist, N):
    """One factor d_alpha(n) [mu(n)] n^{-shift}, built term by term."""
    d = divisor_series(alpha, N).astype(complex)
    if twist:
        d *= mobius_series(N)
    d[1:] *= np.exp(-complex(shift) * np.log(np.arange(1, N + 1)))
    return d


def _reference_shifted(ws, zs, s, N):
    """The shifted series as a chain of Dirichlet convolutions of its factors."""
    specs = [(Fraction(1, 2 * s), w, False) for w in (ws.shifts if ws else ())]
    specs += [(Fraction(1, s), z, True) for z in (zs.shifts if zs else ())]
    out = _reference_factor(*specs[0], N)
    for spec in specs[1:]:
        out = dirichlet_convolve(out, _reference_factor(*spec, N), N)
    return out


@st.composite
def shifted_args(draw):
    mode = draw(st.sampled_from(["sigma", "rho", "psi"]))
    s = draw(st.integers(1, 3))
    if mode == "psi":
        k = draw(st.integers(1, 3))
        ws, zs = (ShiftVector(tuple(draw(st.lists(shift_values, min_size=n, max_size=n)))) for n in (k, 4 - k))
    else:
        shifts = ShiftVector(tuple(draw(st.lists(shift_values, min_size=1, max_size=4))))
        ws, zs = (shifts, None) if mode == "sigma" else (None, shifts)
    return ws, zs, s


class TestProperties:
    @PROPS
    @given(alpha=alphas, ns=st.lists(st.integers(1, 10**4), min_size=1, max_size=30))
    def test_divisor_series_matches_exact_coefficients(self, alpha, ns):
        d = divisor_series(alpha, 10**4)
        for n in ns:
            assert d[n] == pytest.approx(divisor_coeff(alpha, n), rel=1e-14, abs=0)

    @PROPS
    @given(alpha=alphas | st.floats(-3, 3))
    @example(alpha=0.3)  # the float product of the factors misses d_{0.3}(4) by an ulp
    def test_divisor_coeff_is_the_series_at_prime_powers(self, alpha):
        N = 2000
        d = divisor_series(alpha, N)
        for p in primes_upto(N):
            q = p
            while q <= N:
                assert divisor_coeff(alpha, q) == d[q], (alpha, q)
                q *= p

    @PROPS
    @given(alpha=alphas, pairs=coprime_pairs(2000))
    def test_divisor_and_mobius_multiplicative(self, alpha, pairs):
        d = divisor_series(alpha, 2000)
        mu = mobius_series(2000)
        for m, n in pairs:
            assert d[m * n] == pytest.approx(d[m] * d[n], rel=1e-14, abs=0)
            assert mu[m * n] == mu[m] * mu[n]

    @PROPS
    @given(args=shifted_args(), pairs=coprime_pairs(2000))
    def test_shifted_series_multiplicative(self, args, pairs):
        f = shifted_series(*args, 2000)
        for m, n in pairs:
            assert abs(f[m * n] - f[m] * f[n]) <= 1e-13 * max(1.0, abs(f[m] * f[n]))

    @PROPS
    @given(args=shifted_args(), N=st.integers(1, 2000))
    def test_shifted_series_matches_convolution_chain(self, args, N):
        got = shifted_series(*args, N)
        want = _reference_shifted(*args, N)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.max(np.abs(want)))

    @PROPS
    @given(N=st.integers(1, 600), seed=st.integers(0, 2**32 - 1), complex_f=st.booleans())
    def test_convolution_commutes_and_matches_divisor_loop(self, N, seed, complex_f):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(N + 1) + (1j * rng.standard_normal(N + 1) if complex_f else 0)
        g = rng.standard_normal(N + 1)
        f[0] = g[0] = 0
        fg = dirichlet_convolve(f, g, N)
        naive = np.zeros(N + 1, dtype=fg.dtype)
        for n in range(1, N + 1):
            naive[n] = sum(f[d] * g[n // d] for d in range(1, n + 1) if n % d == 0)
        np.testing.assert_allclose(fg, naive, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dirichlet_convolve(g, f, N), fg, rtol=1e-12, atol=1e-12)
