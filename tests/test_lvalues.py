import dataclasses
import math
import types
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import assert_within_dft_rounding, chi, peak_rise_kib, table_for
from fracmoment import lvalues
from fracmoment.characters import QMAX, build_table, dft_rounding, is_prime
from fracmoment.errors import DomainError
from fracmoment.lvalues import (
    _afe_batch,
    afe_squares,
    clear_caches,
    lvalue_table,
    w_weight_many,
    zeta_progression,
)
from fracmoment.moments import power_sum

mp.mp.dps = 30


class TestHurwitzZeta:
    def test_zeta_two(self):
        assert zeta_progression(2.0, 0.0, 1)[0] == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_zeta_half(self):
        # The classes mod q sum to (1 - q^{-1/2}) zeta(1/2), the principal character's
        # L-value.  A bias shared by every class, which the per-class 1e-15 property
        # cannot see, adds up here: 1/sqrt(u0) taken as exp(-log(u0)/2) in the tail
        # moves the sum by about 5e-14 at q = 999983.
        for q in (101, 1009, 10007, 100003, 999983):
            total = math.fsum(lvalues._residue_sums(build_table(q), math.inf))
            assert abs(total - (1 - 1 / mp.sqrt(q)) * mp.zeta(0.5)) <= 5e-15, q

    def test_half_shift(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s): the one class mod 2 is 2^{-1/2} zeta(1/2, 1/2);
        # build_table refuses q = 2, so a stand-in table holds its one power g^0 = 1
        got = lvalues._residue_sums(types.SimpleNamespace(q=2, powers=np.array([1])), math.inf)[0]
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
        t = build_table(q)  # not table_for: up to 33 MB a table, kept for no later test
        got = lvalues._residue_sums(t, math.inf)[t.dlog[c]]
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
        direct = sum(np.exp(-s * math.log(n)) for n in range(1, terms + 1)) + lvalues._em_tail(s, terms + 1.0)
        assert np.all(np.abs(got - direct) < 1e-11 * np.maximum(1.0, np.abs(direct)))
        for k in {round(u * (count - 1)) for u in picks}:
            want = complex(mp.zeta(s0 + k * ds))
            assert abs(got[k] - want) < 1e-11 * max(1.0, abs(want)), k

    @pytest.mark.parametrize("s", [50.0, 300.0, 1e3, 1e5, 1e300])
    def test_huge_real_s_is_the_rounded_limit_without_a_warning(self, s):
        # from s = 300 on f(u0) = N^{-s} underflows to 0 before (s)_i overflows, and the
        # tail must skip its corrections rather than form 0 * inf; at s = 50 the sum is
        # 1 + 2^-50 + ..., which rounds to 1 + 4 ulp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = zeta_progression(s, 0.0, 1)
        assert got[0] == float(mp.zeta(s)) == (1.0 if s > 50 else 1.0 + 2.0**-50)

    def test_zeta_progression_refuses_the_pole(self):
        with pytest.raises(DomainError):
            zeta_progression(1.0 - 0.5j, 0.25j, 4)  # the third point is s = 1


class TestWWeight:
    def test_large_x_tends_to_one(self):
        w0, w1 = (w_weight_many(np.array([1e6]))[par][0] for par in (0, 1))
        assert w0 == pytest.approx(1.0, abs=1e-2)
        # frozen from an independent mpmath quadrature of the defining integral
        assert w0 == pytest.approx(0.990726061517, abs=1e-9)
        assert w1 == pytest.approx(0.999999975307, abs=1e-9)

    def test_small_x_vanishes(self):
        for par in (0, 1):
            assert w_weight_many(np.array([1e-6]))[par][0] == pytest.approx(0.0, abs=1e-6)

    def test_transition_values_at_one(self):
        w0, w1 = (w_weight_many(np.array([1.0]))[par][0] for par in (0, 1))
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
        # from 3.0 on, past the table's large-x end (x = 2), W comes from the
        # small-t series of K_0
        xs = [1e-3, 0.05, 0.3, 1.0, 3.0, 10.0, 1e3, 1e6, 1e12]
        with mp.workdps(15):
            for par in (0, 1):
                for x, got in zip(xs, w_weight_many(np.array(xs))[par]):
                    assert abs(got - float(self._mpmath_w(x, par))) < 1e-11, (x, par)

    # each mpmath quadrature takes up to 0.4 s, hence the few examples
    @given(log_x=st.floats(-7.0, 28.0))
    @settings(max_examples=5, deadline=None)
    def test_against_mpmath_at_random_x(self, log_x):
        x = math.exp(log_x)
        with mp.workdps(15):
            for par in (0, 1):
                assert abs(w_weight_many(np.array([x]))[par][0] - float(self._mpmath_w(x, par))) < 1e-11, (x, par)

    # z in [1, 800], which covers z = 2 sqrt(t) over the table's v = log t in
    # [umin, 12], and the two methods' boundary at z = 17
    @given(z=st.lists(st.floats(0.0, math.log(800.0)).map(math.exp), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    @example(z=[1.0, 2.0, 17.0 - 1e-12, 17.0, 800.0])
    def test_k0e_against_mpmath(self, z):
        got = lvalues._k0e(np.array(z))
        for zv, gv in zip(z, got):
            want = mp.besselk(0, zv) * mp.exp(zv)
            assert abs(gv / want - 1) < 4e-15, zv

    def test_table_nodes_lie_in_k0e_domain(self):
        # _k0e holds for z >= 1; the lowest node, at v = umin, has z = 2 e^{umin/2}
        assert 2 * math.exp(lvalues._WSPEC.umin / 2) >= 1

    @pytest.mark.parametrize("par", [0, 1])
    def test_series_against_mpmath(self, par):
        # the small-t series, also at x = 1.9 inside the table, where T = 0.277
        xs = [1.9, 2.0, 2.0005, 2.5, 5.0, 30.0, 1e3, 1e6, 1e12]
        got = lvalues._w_series(-2.0 * np.log(xs), 0.25 + par / 2)
        for x, gv in zip(xs, got):
            assert abs(gv - self._mpmath_w(x, par)) < 1e-15, x

    def test_series_meets_table_at_the_switch(self):
        spec = lvalues._WSPEC
        v0 = spec.umin
        # the table's nodes, all past v0, have z = 2 e^{v/2} >= 1
        assert -2 * math.log(2) < v0 < -2 * math.log(2) + spec.step
        # the first point below the switch, then table points from v0 to one cell past it
        x = np.exp(-(v0 + np.array([-1e-9, 1e-9, spec.step / 2, spec.step])) / 2)
        for par in (0, 1):
            C, resid, _ = lvalues._w_tables()[par]
            series = lvalues._w_series(np.r_[v0, -2.0 * np.log(x)], 0.25 + par / 2)
            assert abs(series[0] - C[0, 0]) <= resid, par
            got = w_weight_many(x)[par]
            assert got[0] == series[1], par
            assert np.all(np.abs(got[1:] - series[2:]) <= resid), par

    def test_four_nodes_match_an_eight_node_build(self, monkeypatch):
        # 4-point Gauss is at rounding on a 0.005-wide cell
        four = lvalues._w_build()
        monkeypatch.setattr(lvalues, "_WSPEC", dataclasses.replace(lvalues._WSPEC, nodes=8))
        eight = lvalues._w_build()
        for (C4, r4), (C8, r8) in zip(four, eight):
            assert C4.shape == C8.shape
            assert np.max(np.abs(C4 - C8)) <= 4e-16
            assert r4 == pytest.approx(r8, rel=1e-3)

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
            w_weight_many(np.array([0.5, 2.0]))
        afe_squares(table_for(7))
        assert len(builds) == 1
        clear_caches()
        assert lvalues._w_tables.cache_info().currsize == 0
        w_weight_many(np.array([2.0]))
        assert len(builds) == 2 and len(lvalues._w_tables()) == 2

    def test_positive_x_required(self):
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                w_weight_many(np.array([x]))


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
        before, _, _ = power_sum(lvalue_table(t, "oracle")[1], Fraction(1, 2))
        for arr in (lvalue_table(t, method)[0] for method in ("oracle", "smoothed")):
            arr[1:] *= 2
        after, _, _ = power_sum(lvalue_table(t, "oracle")[1], Fraction(1, 2))
        assert after == before


class TestDftRounding:
    def test_bounds_the_dft_of_each_routes_input(self, monkeypatch):
        # the oracle's and the smoothed route's class sums and the AFE's S_0 + i S_1, which
        # _afe_batch hands to dft_rounding, against a long-double DFT
        seen = []
        monkeypatch.setattr(lvalues, "dft_rounding", lambda t, c: seen.append(c) or dft_rounding(t, c))

        def cases():
            for q in (101, 1009, 7013, 10007, 100237):
                t = build_table(q)
                _afe_batch(t)
                yield t, lvalues._residue_sums(t, math.inf), "oracle"
                yield t, lvalues._residue_sums(t, q**1.25), "smoothed"
                yield t, seen[-1], "afe"

        assert_within_dft_rounding("the routes' inputs", cases())

    # the oracle's estimate is still a constant, max(1e-12, sqrt(q) 1e-13); it must at least
    # hold the model's rounding of the oracle's own DFT
    @pytest.mark.parametrize("q", [3, 5, 101, 10007, 100003, 999983])
    def test_oracle_constant_covers_its_dft(self, q):
        t = table_for(q) if q < 10**5 else build_table(q)
        assert lvalue_table(t, "oracle")[2] >= dft_rounding(t, lvalues._residue_sums(t, math.inf))


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
            want = sum(mp.mpc(chi(t, j, a)) * z for a, z in zip(range(1, q), hz)) / mp.sqrt(q)
            assert abs(values[j] - complex(want)) <= err, (q, j)


class TestSmoothed:
    def test_within_error_bound_q101(self):
        t = table_for(101)
        L = lvalue_table(t, "oracle")[0]
        S = lvalue_table(t, "smoothed")[0]
        bound = 10.0 * 101 ** (-0.125) * math.log(101)
        assert np.max(np.abs(S[1:] - L[1:])) <= bound

    def test_error_estimate_bounds_observed(self):
        for q in [q for q in range(5, 62) if is_prime(q)] + [1009]:
            t = table_for(q)
            values, _, err = lvalue_table(t, "smoothed")
            assert np.max(np.abs(values[1:] - lvalue_table(t, "oracle")[0][1:])) <= err, q

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
        t = build_table(q)
        got = lvalues._residue_sums(t, q**1.25)[t.dlog[c]]
        assert abs(got - want) <= 1e-14 * want, (q, c)


class TestAfe:
    def test_q5_matches_oracle(self):
        t = table_for(5)
        values, squares, _ = lvalue_table(t, "afe")
        assert values is None
        assert squares[2] == pytest.approx(lvalue_table(t, "oracle")[1][2], abs=1e-6)

    def test_q61_full_sweep(self):
        t = table_for(61)
        sq = np.abs(lvalue_table(t, "oracle")[0]) ** 2
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
        bad = _afe_batch(dataclasses.replace(t, parity=1 - t.parity))[0][j]
        want = lvalue_table(t, "oracle")[1][j]
        assert abs(good - want) < 1e-6
        assert abs(bad - want) > 1e-3

    def test_error_estimate_bounds_observed(self):
        # 5003: the AFE band of the benchmark's few_large_q workload
        for q in [q for q in range(3, 62) if is_prime(q)] + [1009, 5003]:
            t = table_for(q)
            _, squares, err = lvalue_table(t, "afe")
            dev = np.max(np.abs(squares[1:] - np.abs(lvalue_table(t, "oracle")[0][1:]) ** 2))
            assert dev <= err < 1e-8, q

    def test_xmin_above_the_cut_refused(self):
        # an xmin above e^{-V/2} = 0.0235 would stop short of the cut and drop
        # pairs the error estimate does not cover; the cut itself is accepted
        t = table_for(31)
        for xmin in (0.03, 0.05):
            with pytest.raises(DomainError):
                afe_squares(t, xmin=xmin)
        assert afe_squares(t, xmin=math.exp(-lvalues._AFE_V / 2)).tobytes() == afe_squares(t).tobytes()

    def test_conjugate_characters_same_square(self):
        t = table_for(11)
        for method in ("oracle", "smoothed"):
            vals = lvalue_table(t, method)[0]
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
        # 5 lies above the cut e^{-V/2}, the others outside (0, inf)
        with pytest.raises(DomainError):
            afe_squares(table_for(7), xmin)

    def test_tiny_xmin_stops_at_the_cut(self):
        # products past the cut q e^{V/2}/pi are not summed, so xmin = 1e-9
        # sums the same pairs as 1e-3
        t = table_for(7)
        assert np.array_equal(afe_squares(t, 1e-9), afe_squares(t, 1e-3))

    @pytest.mark.parametrize("xmin", [1e-310, 5e-324])
    def test_subnormal_xmin_stops_at_the_cut(self, xmin):
        # q/(pi xmin) is inf here, and the sum still runs to the cut
        t = table_for(7)
        assert afe_squares(t, xmin).tobytes() == afe_squares(t).tobytes()

    def test_products_at_qmax_stay_below_2_24(self):
        # the largest prime below QMAX, where Dmax = 999983 e^{3.75}/pi
        assert lvalues._afe_dmax(999983) == 13534650 < 1 << 24

    @pytest.mark.parametrize("q", [5, 31, 101, 1009])
    def test_dropped_tail_within_its_bound(self, q):
        # 2 sum chi(m) chibar(n) W_par(q/(pi mn))/sqrt(mn) over Dmax < mn <= q e^6/pi,
        # where the W table ends: each pair m >= n binned at dlog m - dlog n
        # mod q - 1, its reverse (m > n) at the negative, then one FFT per parity
        t = table_for(q)
        _, err = _afe_batch(t)
        Dmax, cap = lvalues._afe_dmax(q), int(q * math.exp(6.0) / math.pi)
        bins = np.zeros((2, q - 1))
        for n in range(1, math.isqrt(cap) + 1):
            m = np.arange(max(n, Dmax // n + 1), cap // n + 1)
            m = m[(m * n) % q != 0]
            D = m * n
            k = (t.dlog[m % q] - t.dlog[n % q]) % (q - 1)
            for par, w in enumerate(w_weight_many(q / (math.pi * D)) / np.sqrt(D)):
                bins[par] += np.bincount(k, weights=w, minlength=q - 1)
                bins[par] += np.bincount(-k % (q - 1), weights=np.where(m > n, w, 0.0), minlength=q - 1)
        tails = [2.0 * np.fft.ifft(b) * (q - 1) for b in bins]
        tail = np.abs(np.where(t.parity == 0, tails[0], tails[1]))[1:]
        bound = max(4.0 * F + 2.0 * q / math.pi * J for _, _, (F, J) in lvalues._w_tables())
        assert 0 < np.max(tail) <= bound <= err, q
        assert bound <= 1e-30

    def test_tail_integral_against_mpmath(self):
        # J_par(V) = int_V^inf F(v) e^{v/2} dv = int_V^inf f(t) 2 (e^{t/2} - e^{V/2}) dt
        # with f the v-density (2/Gamma(s)^2) e^{st} K_0(2 e^{t/2}) of W
        V = lvalues._AFE_V
        assert (V - lvalues._WSPEC.umin) / lvalues._WSPEC.step == 1777
        for par in (0, 1):
            s = mp.mpf(1) / 4 + mp.mpf(par) / 2
            f = lambda v: 2 / mp.gamma(s) ** 2 * mp.exp(s * v) * mp.besselk(0, 2 * mp.exp(v / 2))  # noqa: E731
            J = mp.quad(lambda v: f(v) * 2 * (mp.exp(v / 2) - mp.exp(V / 2)), [V, V + 0.25, V + 0.5, V + 1, V + 2, 12])
            F = mp.quad(f, [V, V + 0.25, V + 0.5, V + 1, V + 2, 12])
            got_F, got_J = lvalues._w_tables()[par][2]
            assert got_F == pytest.approx(float(F), rel=1e-9), par
            assert got_J == pytest.approx(float(J), rel=1e-9), par

    @staticmethod
    def _pair_loop(t, xmin):
        """2 sum_{mn <= Dmax} chi_j(m) chibar_j(n) W_par(q/(pi mn))/sqrt(mn) for every
        j and both parities over the whole range Dmax = q/(pi xmin), and sum
        1/sqrt(mn) over the pairs with q not dividing mn up to the cut
        q e^{V/2}/pi, which are the pairs the AFE evaluates."""
        q = t.q
        Dmax = int(q / (math.pi * xmin))
        cap = int(q * math.exp(lvalues._AFE_V / 2) / math.pi)
        chis = np.array([[chi(t, j, a) for a in range(q)] for j in range(q - 1)])
        D = np.arange(1, Dmax + 1)
        W = [np.r_[0.0, w / np.sqrt(D)] for w in w_weight_many(q / (math.pi * D))]
        sums = np.zeros((2, q - 1), dtype=complex)
        pairsum = 0.0
        for m in range(1, Dmax + 1):
            for n in range(1, Dmax // m + 1):
                c = chis[:, m % q] * np.conj(chis[:, n % q])
                for par in (0, 1):
                    sums[par] += 2.0 * W[par][m * n] * c
                if (m * n) % q and m * n <= cap:
                    pairsum += 1.0 / math.sqrt(m * n)
        return sums, pairsum

    # the reference sums to q/(pi xmin) = 318 q, past the cut
    @pytest.mark.parametrize("xmin", [1e-3])
    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_pair_fold_matches_double_loop(self, q, xmin, monkeypatch):
        # with the DFT's term at 0 the estimate is 2 pairs resid plus a tail below 1e-30
        monkeypatch.setattr(lvalues, "dft_rounding", lambda table, coeffs: 0.0)
        t = table_for(q)
        squares, err = _afe_batch(t)
        sums, pairsum = self._pair_loop(t, xmin)
        assert np.max(np.abs(sums.imag)) < 1e-12
        assert np.max(np.abs(squares - np.where(t.parity == 0, sums[0].real, sums[1].real))) < 1e-12
        # the estimate's pair count is a closed-form bound on the exact pair sum,
        # 1.39 times it at q = 5 and closer from there on
        resid = max(r for _, r, _ in lvalues._w_tables())
        count = err / (2.0 * resid)
        assert pairsum <= count <= 1.4 * pairsum

    def test_peak_memory_q5003(self):
        setup = ("from fracmoment.characters import build_table\nfrom fracmoment.lvalues import afe_squares\n"
                 "t = build_table(5003)")
        # two weight rows of 67,715 doubles, cut at q e^{V/2}/pi, peak at
        # 5,796-5,900 KiB over 5 fresh processes; rows to the table end,
        # q e^6/pi (642,470 doubles), read 22,768-22,832
        assert peak_rise_kib(setup, "afe_squares(t)") < 7 * 1024
