import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import run_python, table_for
from fracmoment import lvalues
from fracmoment.characters import QMAX, build_table, is_prime
from fracmoment.errors import DomainError
from fracmoment.lvalues import (
    AFE_QMAX,
    _afe_batch,
    afe_squares,
    clear_caches,
    lvalue_table,
    oracle_values,
    smoothed_values,
    w_weight_many,
    zeta_progression,
)
from fracmoment.moments import moment_sum

mp.mp.dps = 30


class TestHurwitzZeta:
    def test_zeta_two(self):
        assert zeta_progression(2.0, 0.0, 1)[0] == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_zeta_half(self):
        # frozen from high-precision evaluation; also the eta-function
        # acceleration gives the same digits.  The classes mod q sum to
        # q^{-1/2} (q^{1/2} - 1) zeta(1/2), the principal character's L-value.
        total = math.fsum(lvalues._residue_sums(101, math.inf))
        assert total / (1 - 101**-0.5) == pytest.approx(-1.4603545088095868, abs=1e-10)

    def test_half_shift(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s): the one class mod 2 is 2^{-1/2} zeta(1/2, 1/2)
        got = lvalues._residue_sums(2, math.inf)[0]
        assert got == pytest.approx((1 - 2**-0.5) * -1.4603545088095868, rel=1e-12)

    def test_zeta_values_line(self):
        # the second line is the one the contour checks use at y = 1e4, up to |Im s| = 87
        L = math.log(1e4)
        for s0, ds, count in ((1.1 - 30j, 10j, 7), (1 + (2 - 800j) / L, 100j / L, 17)):
            for k, gv in enumerate(zeta_progression(s0, ds, count)):
                assert abs(gv - complex(mp.zeta(s0 + k * ds))) < 1e-11

    # S_c = zeta(1/2, c/q)/sqrt(q), the X = inf residue-class sums behind the oracle
    @given(n=st.integers(3, QMAX), u=st.floats(0.0, 1.0))
    @example(n=3, u=0.0)
    @example(n=3, u=1.0)
    @example(n=5, u=0.0)
    @example(n=5, u=1.0)
    @example(n=QMAX, u=0.0)
    @example(n=QMAX, u=1.0)
    @settings(max_examples=40, deadline=None)
    def test_hurwitz_against_mpmath_at_random_points(self, n, u):
        q = next(p for p in range(n, 2, -1) if is_prime(p))  # 999983 at n = QMAX
        c = 1 + min(int(u * (q - 1)), q - 2)
        want = mp.zeta(0.5, mp.mpf(c) / q) / mp.sqrt(q)
        got = lvalues._residue_sums(q, math.inf)[c - 1]
        assert abs(got - want) <= 1e-15 * max(1, abs(want)), (q, c)

    @given(ends=st.lists(st.tuples(st.floats(1.02, 3.0), st.floats(-130.0, 130.0)), min_size=2, max_size=2),
           count=st.integers(2, 5000), picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    @example(ends=[(1.02, -130.0), (3.0, 130.0)], count=5000, picks=[0.0, 1.0])
    @example(ends=[(1.5, 0.0), (1.5, 1.0)], count=2, picks=[0.0, 1.0])
    def test_zeta_progression_against_mpmath(self, ends, count, picks):
        s0, s1 = (complex(*p) for p in ends)
        ds = (s1 - s0) / (count - 1)
        got = zeta_progression(s0, ds, count)
        assert got.shape == (count,)
        s = s0 + np.arange(count) * ds
        terms = lvalues._em_terms(np.max(np.abs(s.imag))) - 1
        direct = lvalues._em_tail(sum(np.exp(-s * math.log(n)) for n in range(1, terms + 1)), s, terms + 1.0)
        assert np.all(np.abs(got - direct) < 1e-11 * np.maximum(1.0, np.abs(direct)))
        for k in {round(u * (count - 1)) for u in picks}:
            want = complex(mp.zeta(s0 + k * ds))
            assert abs(got[k] - want) < 1e-11 * max(1.0, abs(want)), k

    def test_zeta_progression_refuses_the_pole(self):
        with pytest.raises(DomainError):
            zeta_progression(1.0 - 0.5j, 0.25j, 4)  # the third point is s = 1


class TestWWeight:
    def test_large_x_tends_to_one(self):
        w0, w1 = (w_weight_many(np.array([1e6]), par)[0] for par in (0, 1))
        assert w0 == pytest.approx(1.0, abs=1e-2)
        # frozen from an independent mpmath quadrature of the defining integral
        assert w0 == pytest.approx(0.990726061517, abs=1e-9)
        assert w1 == pytest.approx(0.999999975307, abs=1e-9)

    def test_small_x_vanishes(self):
        for par in (0, 1):
            assert w_weight_many(np.array([1e-6]), par)[0] == pytest.approx(0.0, abs=1e-6)

    def test_transition_values_at_one(self):
        w0, w1 = (w_weight_many(np.array([1.0]), par)[0] for par in (0, 1))
        assert 0 < w0 < 1 and 0 < w1 < 1
        assert w0 != w1
        # frozen mpmath references
        assert w0 == pytest.approx(0.0126583230362, abs=1e-10)
        assert w1 == pytest.approx(0.1536671960362, abs=1e-10)

    @staticmethod
    def _mpmath_w(x: float, parity: int):
        # W(x) = (2/Gamma(s)^2) int_{x^-2}^inf t^{s-1} K_0(2 sqrt t) dt; t = r^{1/s}
        # turns t^{s-1} dt into dr/s and leaves only K_0's log singularity
        s = mp.mpf(1) / 4 + mp.mpf(parity) / 2
        c = 2 / (s * mp.gamma(s) ** 2)
        k = lambda r: mp.besselk(0, 2 * r ** (1 / (2 * s)))  # noqa: E731
        b = mp.mpf(x) ** (-2 * s)
        return 1 - c * mp.quad(k, [0, b]) if b < 1 else c * mp.quad(k, [b, mp.inf])

    def test_against_mpmath_bessel_k0(self):
        # 1e12 lies past the table's large-x end (x = e^20), where W comes from
        # the small-t series of K_0
        xs = [1e-3, 0.05, 0.3, 1.0, 3.0, 10.0, 1e3, 1e6, 1e12]
        with mp.workdps(15):
            for par in (0, 1):
                for x, got in zip(xs, w_weight_many(np.array(xs), par)):
                    assert abs(got - float(self._mpmath_w(x, par))) < 1e-11, (x, par)

    # each mpmath quadrature takes up to 0.4 s, hence the few examples
    @given(log_x=st.floats(-7.0, 28.0))
    @settings(max_examples=5, deadline=None)
    def test_against_mpmath_at_random_x(self, log_x):
        x = math.exp(log_x)
        with mp.workdps(15):
            for par in (0, 1):
                assert abs(w_weight_many(np.array([x]), par)[0] - float(self._mpmath_w(x, par))) < 1e-11, (x, par)

    # z = 2 sqrt(t) over the table's v = log t in [-40, 12], and the three
    # methods' boundaries at z = 1 and z = 17
    @given(z=st.lists(st.floats(math.log(1e-9), math.log(800.0)).map(math.exp), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    @example(z=[1e-9, 1.0 - 1e-12, 1.0, 2.0, 17.0 - 1e-12, 17.0, 800.0])
    def test_k0e_against_mpmath(self, z):
        got = lvalues._k0e(np.array(z))
        for zv, gv in zip(z, got):
            want = mp.besselk(0, zv) * mp.exp(zv)
            assert abs(gv / want - 1) < 4e-15, zv

    def test_tables_built_once_per_cache_lifetime(self, monkeypatch):
        # one build makes both parities' tables from one K_0 evaluation per node set
        builds = []
        real = lvalues._w_build

        def counted():
            builds.append(1)
            return real()

        monkeypatch.setattr(lvalues, "_w_build", counted)
        clear_caches()
        for _ in range(3):
            for par in (0, 1):
                w_weight_many(np.array([0.5, 2.0]), par)
        afe_squares(table_for(7))
        assert len(builds) == 1
        clear_caches()
        assert not lvalues._W_TABLES
        w_weight_many(np.array([2.0]), 1)
        assert len(builds) == 2 and sorted(lvalues._W_TABLES) == [0, 1]

    def test_positive_x_required(self):
        for x, par in ((0.0, 0), (-1.0, 1), (math.nan, 0), (math.inf, 0)):
            with pytest.raises(DomainError):
                w_weight_many(np.array([x]), par)


class TestLValueTable:
    def test_squares_are_abs_values_squared(self):
        t = table_for(31)
        for method in ("oracle", "smoothed"):
            values, squares, _ = lvalue_table(t, method)
            assert np.array_equal(squares, np.abs(values) ** 2)
        values, squares, _ = lvalue_table(t, "afe")
        assert values is None
        assert np.array_equal(squares, afe_squares(t))

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            lvalue_table(table_for(5), "hurwitz")

    def test_mutating_a_returned_array_leaves_later_sums_unchanged(self):
        t = table_for(101)
        before, _, _ = moment_sum(t, Fraction(1, 2))
        for arr in (oracle_values(t), smoothed_values(t)):
            arr[1:] *= 2
        after, _, _ = moment_sum(t, Fraction(1, 2))
        assert after == before


class TestOracle:
    def test_quadratic_q5_real_and_frozen(self):
        t = table_for(5)
        values, squares, err = lvalue_table(t, "oracle")
        v = values[2]
        assert abs(v.imag) < 1e-9
        # independent: L(1/2, chi) = 5^{-1/2} sum chi(a) zeta(1/2, a/5) with
        # the Legendre-symbol character, evaluated in mpmath
        want = (mp.zeta(0.5, mp.mpf(1) / 5) - mp.zeta(0.5, mp.mpf(2) / 5)
                - mp.zeta(0.5, mp.mpf(3) / 5) + mp.zeta(0.5, mp.mpf(4) / 5)) / mp.sqrt(5)
        assert v.real == pytest.approx(float(want), abs=1e-10)
        assert squares[2] == pytest.approx(abs(v) ** 2, abs=1e-12)
        assert err < 1e-9

    def test_conjugate_pair_q7(self):
        values, _, _ = lvalue_table(table_for(7), "oracle")
        assert values[1] == pytest.approx(np.conj(values[5]), abs=1e-9)

    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_error_estimate_bounds_mpmath(self, q):
        t = table_for(q)
        values, _, err = lvalue_table(t, "oracle")
        hz = [mp.zeta(0.5, mp.mpf(a) / q) for a in range(1, q)]
        for j in range(q - 1):
            want = sum(mp.mpc(t.chi(j, a)) * z for a, z in zip(range(1, q), hz)) / mp.sqrt(q)
            assert abs(values[j] - complex(want)) <= err, (q, j)


class TestSmoothed:
    def test_within_error_bound_q101(self):
        t = table_for(101)
        L = oracle_values(t)
        S = smoothed_values(t)
        bound = 10.0 * 101 ** (-0.125) * math.log(101)
        assert np.max(np.abs(S[1:] - L[1:])) <= bound

    def test_error_estimate_bounds_observed(self):
        for q in [q for q in range(5, 62) if is_prime(q)] + [1009]:
            t = table_for(q)
            values, _, err = lvalue_table(t, "smoothed")
            assert np.max(np.abs(values[1:] - oracle_values(t)[1:])) <= err, q

    # rho = q^{-1/4}, and with it each Euler-Maclaurin correction, is largest at q = 3 and 5;
    # the B_16 row alone adds 1.6e-14 of S_c at q = 3, and the first omitted row 2.5e-15
    @given(q=st.sampled_from([p for p in range(3, 30012) if is_prime(p)]), u=st.floats(0.0, 1.0))
    @example(q=3, u=0.0)
    @example(q=3, u=1.0)
    @example(q=5, u=0.5)
    @settings(max_examples=25, deadline=None)
    def test_residue_sums_match_mpmath(self, q, u):
        c = 1 + min(int(u * (q - 1)), q - 2)
        X = mp.mpf(q) ** mp.mpf(1.25)
        want = mp.nsum(lambda k: mp.exp(-(c + k * q) / X) / mp.sqrt(c + k * q), [0, mp.inf])
        got = lvalues._residue_sums(q, q**1.25)[c - 1]
        assert abs(got - want) <= 1e-14 * want, (q, c)


class TestAfe:
    def test_q5_matches_oracle(self):
        t = table_for(5)
        values, squares, _ = lvalue_table(t, "afe")
        assert values is None
        assert squares[2] == pytest.approx(lvalue_table(t, "oracle")[1][2], abs=1e-6)

    def test_q61_full_sweep(self):
        t = table_for(61)
        sq = np.abs(oracle_values(t)) ** 2
        afe = afe_squares(t)
        assert np.max(np.abs(afe[1:] - sq[1:])) < 1e-6

    def test_nonnegative_everywhere(self):
        afe = afe_squares(table_for(31))
        assert np.all(afe[1:] > -1e-12)

    def test_parity_mismatch_breaks_identity(self):
        t = table_for(31)
        j = 3  # odd character
        assert t.parity[j] == 1
        good = lvalue_table(t, "afe")[1][j]
        even, _, _ = _afe_batch(t, 1e-3)
        bad = even[j]
        want = lvalue_table(t, "oracle")[1][j]
        assert abs(good - want) < 1e-6
        assert abs(bad - want) > 1e-3

    def test_error_estimate_bounds_observed(self):
        for q in [q for q in range(5, 62) if is_prime(q)] + [1009]:
            t = table_for(q)
            _, squares, err = lvalue_table(t, "afe")
            dev = np.max(np.abs(squares[1:] - np.abs(oracle_values(t)[1:]) ** 2))
            assert dev <= err < 1e-8, q

    def test_truncation_insensitive(self):
        # both xmin lie above e^-6, where the W table ends, so each truncates
        # at its own q/(pi xmin)
        t = table_for(31)
        a = afe_squares(t, xmin=5e-3)
        b = afe_squares(t, xmin=1e-2)
        assert np.max(np.abs(a[1:] - b[1:])) < 1e-8

    def test_conjugate_characters_same_square(self):
        t = table_for(11)
        for method in ("oracle", "smoothed"):
            vals = oracle_values(t) if method == "oracle" else smoothed_values(t)
            for j in range(1, 10):
                assert abs(vals[j]) ** 2 == pytest.approx(abs(vals[10 - j]) ** 2, abs=1e-9)
        afe = afe_squares(t)
        for j in range(1, 10):
            assert afe[j] == pytest.approx(afe[10 - j], abs=1e-9)

    def test_total_square_sum_positive(self):
        afe = afe_squares(table_for(31))
        total = float(np.sum(afe[1:]))
        assert total > 0

    @pytest.mark.parametrize("xmin", [0.0, -1e-3, math.nan, math.inf, 5.0])
    def test_malformed_xmin_rejected(self, xmin):
        # at q = 7, xmin = 5 leaves no pair: q/(pi xmin) < 1
        with pytest.raises(DomainError):
            afe_squares(table_for(7), xmin)

    def test_tiny_xmin_stops_at_the_table_end(self):
        # products past q e^6/pi carry W = 0 exactly, so xmin = 1e-9 sums the
        # same pairs as 1e-3
        t = table_for(7)
        assert np.array_equal(afe_squares(t, 1e-9), afe_squares(t, 1e-3))

    def test_product_range_past_2_25_refused(self):
        # q e^6/pi > 2^25 from q = 261297 on: refused before allocating the weights
        t = build_table(261301)
        with pytest.raises(DomainError, match="2\\^25"):
            afe_squares(t, 1e-3)

    def test_afe_qmax_is_the_last_modulus_within_2_25(self):
        # _afe_batch's Dmax at the default xmin, where the W-table cap binds
        def dmax(q):
            return min(int(q / (math.pi * 1e-3)), int(q * math.exp(lvalues._WSPEC.umax / 2) / math.pi))
        assert dmax(AFE_QMAX) <= 1 << 25 < dmax(AFE_QMAX + 1)
        assert AFE_QMAX == 261296

    @staticmethod
    def _pair_loop(t, xmin):
        """2 sum_{mn <= Dmax} chi_j(m) chibar_j(n) W_par(q/(pi mn))/sqrt(mn) for every
        j and both parities over the whole range Dmax = q/(pi xmin), and sum
        1/sqrt(mn) over the pairs with q not dividing mn up to the table end
        q e^6/pi, which are the pairs the AFE evaluates."""
        q = t.q
        Dmax = int(q / (math.pi * xmin))
        cap = int(q * math.exp(6.0) / math.pi)
        chi = np.array([[t.chi(j, a) for a in range(q)] for j in range(q - 1)])
        D = np.arange(1, Dmax + 1)
        W = [np.r_[0.0, w_weight_many(q / (math.pi * D), par) / np.sqrt(D)] for par in (0, 1)]
        sums = np.zeros((2, q - 1), dtype=complex)
        pairsum = 0.0
        for m in range(1, Dmax + 1):
            for n in range(1, Dmax // m + 1):
                c = chi[:, m % q] * np.conj(chi[:, n % q])
                for par in (0, 1):
                    sums[par] += 2.0 * W[par][m * n] * c
                if (m * n) % q and m * n <= cap:
                    pairsum += 1.0 / math.sqrt(m * n)
        return sums, pairsum

    @pytest.mark.parametrize("xmin", [1e-3, 0.05])
    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_pair_fold_matches_double_loop(self, q, xmin):
        t = table_for(q)
        even, odd, err = _afe_batch(t, xmin)
        sums, pairsum = self._pair_loop(t, xmin)
        assert np.max(np.abs(sums.imag)) < 1e-12
        for par, got in ((0, even), (1, odd)):
            assert np.max(np.abs(got - sums[par].real)) < 1e-12, par
        resid = max(lvalues._W_TABLES[par][1] for par in (0, 1))
        got_pairsum = err / (2.0 * (resid + math.log2(q) * np.finfo(float).eps))
        assert got_pairsum == pytest.approx(pairsum, rel=1e-12)

    def test_peak_memory_q5003(self):
        # one process of its own, so the peak is this call's and no other test's
        # the peak is VmHWM, in KiB: a child's ru_maxrss starts at its parent's
        # RSS at exec, so inside a large test process it would read 0
        code = (
            "from fracmoment.characters import build_table\n"
            "from fracmoment.lvalues import afe_squares\n"
            "def peak():\n"
            "    return int(next(r for r in open('/proc/self/status') if r.startswith('VmHWM')).split()[1])\n"
            "t = build_table(5003)\n"
            "before = peak()\n"
            "afe_squares(t)\n"
            "print(peak() - before)\n"
        )
        assert int(run_python(code).stdout) < 50 * 1024
