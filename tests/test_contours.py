import math

import mpmath as mp
import numpy as np
import pytest
from conftest import divisor_coeff, peak_rise_kib, walk_log_zeta
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracmoment import contours
from fracmoment.contours import (
    _POLE_DISC,
    _PRINCIPAL_FROM,
    QUARTER,
    _self_convolve,
    eta_stability,
    hankel_recip_gamma,
    paired_shift_check,
    paired_shift_numeric,
    paired_shift_oracle,
    perron_weight,
    perron_weight_closed_form,
    zeta_power_line,
)
from fracmoment.errors import DomainError
from fracmoment.lvalues import zeta_progression
from fracmoment.sieve import ShiftVector, divisor_series, shifted_series


class TestPerronWeight:
    @pytest.mark.parametrize("order,x,want", [
        (2, math.e, 1.0),
        (2, 1 / math.e, 0.0),
        (3, math.e**2, 2.0),
    ])
    def test_examples(self, order, x, want):
        assert perron_weight(order, x) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("x", [2.0, math.e, 10.0, 100.0])
    def test_closed_forms(self, order, x):
        got = perron_weight(order, x)
        assert abs(got - perron_weight_closed_form(order, x)) < 1e-6

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("x", [2.0, math.e, 10.0, 100.0, 1 / math.e, 0.5])
    def test_axis_error(self, order, x):
        # the Euler-summed grid tail leaves the aliasing term, e^{c - 2 pi c/h} of the terms
        assert abs(perron_weight(order, x) - perron_weight_closed_form(order, x)) < 1e-11

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            perron_weight(2, 1.0)


class TestHankel:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 2.25, 2.5])
    def test_reciprocal_gamma(self, alpha):
        got = hankel_recip_gamma(alpha)
        assert abs(got * math.gamma(alpha) - 1.0) < 1e-12

    @given(alpha=st.floats(1e-3, 171.0))
    @settings(max_examples=100, deadline=None)
    @example(alpha=1e-3)
    @example(alpha=1.0)
    @example(alpha=2.5)
    @example(alpha=170.0)
    def test_reciprocal_gamma_over_the_double_range(self, alpha):
        # on the line c = max(6, alpha - 1) no digits cancel
        assert abs(hankel_recip_gamma(alpha) * math.gamma(alpha) - 1.0) < 1e-8

    @given(alpha=st.floats(math.log(5e-324), 0.0).map(math.exp))
    @settings(max_examples=100, deadline=None)
    @example(alpha=5e-324)
    @example(alpha=1e-300)
    @example(alpha=1e-10)
    @example(alpha=0.5)
    def test_reciprocal_gamma_relative_error_near_zero(self, alpha):
        # 1/Gamma ~ alpha as alpha -> 0, so the line's absolute error of about 5e-13 would flip its sign
        # below alpha ~ 5e-13; alpha/Gamma(alpha + 1) keeps the error relative
        assert abs(mp.mpf(hankel_recip_gamma(alpha)) / mp.rgamma(alpha) - 1) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hankel_recip_gamma(-1.0)


class TestZetaFracPower:
    def test_square_at_two(self):
        want = float(mp.zeta(2)) ** 2
        assert zeta_power_line(2.0, 2.0)[0].real == pytest.approx(want, rel=1e-10)
        assert zeta_power_line(2.0, 2.0)[0].real == pytest.approx(2.705808084277845, rel=1e-10)

    def test_quarter_power_near_pole(self):
        z = 1e-3
        val = zeta_power_line(0.25, 1 + z)[0]
        assert abs(val * z**0.25 - 1) < 1e-2

    def test_reciprocal_root_consistency(self):
        a = zeta_power_line(0.5, 2.0)[0]
        b = zeta_power_line(-0.5, 2.0)[0]
        assert (a * b).real == pytest.approx(1.0, rel=1e-10)
        assert abs((a * b).imag) < 1e-12

    def test_alpha_one_reduces_to_zeta(self):
        for s in (2.0, 1.5, 1.2 + 0.7j, 0.8 + 0.5j):
            assert abs(zeta_power_line(1.0, s)[0] - complex(mp.zeta(s))) < 1e-10

    @pytest.mark.parametrize("s", [2.0, 1.1, 1 + 0.01j])
    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1 / 3, 2 / 3), (0.25, 0.25)])
    def test_power_addition(self, s, a, b):
        lhs = zeta_power_line(a, s)[0] * zeta_power_line(b, s)[0]
        rhs = zeta_power_line(a + b, s)[0]
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    @given(alpha=st.floats(-1.0, 1.0),
           s=st.tuples(st.floats(1.1, 3.0), st.floats(-40.0, 40.0)).map(lambda p: complex(*p)))
    @settings(max_examples=100, deadline=None)
    @example(alpha=0.25, s=1 + 0.01j)
    @example(alpha=0.25, s=1.001)
    def test_matches_principal_power_right_of_1_1(self, alpha, s):
        # on Re s > 1 the continued log is the Euler product's, |Im log zeta(s)| <= log zeta(Re s),
        # under pi from Re s = 1.1 on, so there mpmath's principal power is an independent oracle;
        # the two examples lie on the disc, where zeta ~ 1/(s - 1) keeps |arg zeta| < pi/2, so there too
        with mp.workdps(30):
            want = complex(mp.exp(alpha * mp.log(mp.zeta(s))))
        assert abs(zeta_power_line(alpha, s)[0] - want) < 1e-13 * abs(want)

    @given(alpha=st.floats(-1.0, 1.0), r=st.floats(1e-3, 0.999), theta=st.floats(-math.pi, math.pi))
    @settings(max_examples=25, deadline=None)
    @example(alpha=0.25, r=0.5, theta=math.pi - 2e-3)  # 1e-3 above the cut at s = 1/2
    @example(alpha=-0.75, r=0.9, theta=-math.pi + 1e-3)  # 9e-4 below the cut at s = 0.1
    @example(alpha=1.0, r=0.999, theta=3.0)  # Re s = 0.011, next to the circle's minimum at s = 0
    @example(alpha=0.5, r=1e-3, theta=1.5)  # near the pole, Re s < 1
    @example(alpha=0.25, r=0.3, theta=-0.01)  # Re s = 1.3, where the principal log is taken
    def test_matches_the_walk_on_the_disc(self, alpha, r, theta):
        s = 1 + r * complex(math.cos(theta), math.sin(theta))
        assume(s.imag != 0)
        with mp.workdps(30):
            want = complex(mp.exp(alpha * mp.mpc(walk_log_zeta(s))))
        assert abs(zeta_power_line(alpha, s)[0] - want) < 1e-13 * abs(want)

    def test_regions_are_where_the_principal_branch_is_proven(self):
        # right of _PRINCIPAL_FROM, |Im log zeta| <= log zeta(Re s) must stay under pi; on the disc,
        # Re((s - 1) zeta(s)) is harmonic, so its minimum is on the circle: 1/2, at s = 0
        with mp.workdps(20):
            assert mp.log(mp.zeta(_PRINCIPAL_FROM)) < mp.pi
            circle = [1 + _POLE_DISC * mp.expjpi(mp.mpf(k) / 500) for k in range(1000)]
            assert min(mp.re((s - 1) * mp.zeta(s)) for s in circle) >= 0.5

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            zeta_power_line(0.5, 1.0)
        with pytest.raises(DomainError):
            zeta_power_line(0.5, 0.3)
        with pytest.raises(DomainError):
            zeta_power_line(0.5, 0.8)  # real, left of the pole: ambiguous branch

    @pytest.mark.parametrize("s", [math.inf, complex(2, math.inf)])
    def test_infinite_s_refused(self, s):
        # at s = inf the Euler-Maclaurin tail read nan; at s = 2 + inf j sizing it overflowed
        with pytest.raises(DomainError):
            zeta_power_line(0.5, s)

    @pytest.mark.parametrize("s", [0.8 + 2j, 0.6 + 5j, 0.55 + 10j])
    def test_strip_above_the_disc_refused(self, s):
        with pytest.raises(DomainError):
            zeta_power_line(0.25, s)

    def test_line_left_of_1_1_refused(self):
        # Re s = 0.6, off the disc: zeta turns by 2.03 rad between t = 14 and 14.5, past its first zero
        # at 1/2 + 14.13i
        with pytest.raises(DomainError):
            zeta_power_line(0.25, 0.6 + 13.5j, 0.5j, 4)

    @pytest.mark.parametrize("beta", [0.25, -0.75])
    def test_line_through_both_regions(self, beta):
        # Re s from 0.95 to 1.5: the first three points lie on the disc left of _PRINCIPAL_FROM, the rest
        # right of it, where mpmath's principal power is the oracle
        s0, ds, count = 0.95 + 0.2j, 0.05, 12
        got = zeta_power_line(beta, s0, ds, count)
        for k in range(count):
            s = s0 + k * ds
            with mp.workdps(30):
                log = mp.log(mp.zeta(s)) if s.real >= _PRINCIPAL_FROM else mp.mpc(walk_log_zeta(s))
                want = complex(mp.exp(beta * log))
            assert abs(got[k] - want) < 1e-13 * abs(want), s

    @pytest.mark.parametrize("s", [1.1, 1.1 + 0.3j, 1.1 - 0.99j, 1.5 + 0.5j, 1.9 + 0.4j, 1.99 + 0.05j])
    def test_branch_formulas_agree_where_the_regions_overlap(self, s):
        # right of _PRINCIPAL_FROM on the disc both formulas hold, so which one a point takes at the seam
        # Re s = _PRINCIPAL_FROM moves no more than rounding
        assert s.real >= _PRINCIPAL_FROM and abs(s - 1) < _POLE_DISC
        zeta = zeta_progression(s, 0, 1)[0]
        principal, disc = np.log(zeta), np.log((s - 1) * zeta) - np.log(s - 1)
        assert abs(principal - disc) < 1e-15 * abs(principal)

    @pytest.mark.parametrize("s0,ds,count", [
        (0.9 + 0.75j, -0.25j, 4),  # on the disc down to the real s = 0.9
        (2.0 + 0.5j, -0.1, 20),  # right of 1.1 and on the disc down to 0.2 + 0.5j, then 0.1 + 0.5j off it
    ])
    def test_line_with_one_bad_point_refused_whole(self, s0, ds, count, monkeypatch):
        # without its last point the line is accepted; with it, the line is refused before any zeta is
        # summed, so no point of it is returned
        assert np.isfinite(zeta_power_line(0.25, s0, ds, count - 1)).all()

        def no_zeta(*args):
            raise AssertionError("zeta summed on a refused line")

        monkeypatch.setattr(contours, "zeta_progression", no_zeta)
        with pytest.raises(DomainError):
            zeta_power_line(0.25, s0, ds, count)


class TestPairedShift:
    def test_tiny_y_numeric_matches_oracle(self):
        rep = paired_shift_check(1, 3.0, 1.0, 10.0)
        assert rep.rel_err < 1e-3
        assert rep.gamma == 5.0
        assert abs(paired_shift_numeric(3.0, 1.0, 10.0).imag) < 1e-9 * abs(rep.numeric)

    def test_y_1e4_numeric_matches_oracle(self):
        rep = paired_shift_check(1, 3.0, 1.0, 1e4)
        assert rep.rel_err < 1e-3

    @pytest.mark.parametrize("alpha,beta,y", [(2.5, 0.5, 1e3), (4.0, 1.0, 1e3), (3.0, 0.25, 100.0)])
    def test_more_parameter_triples(self, alpha, beta, y):
        rep = paired_shift_check(1, alpha, beta, y)
        assert rep.rel_err < 1e-3

    def test_oracle_sweep_band(self):
        rows = paired_shift_check(1, 3.0, 1.0, 1e3, sweep=[1e3, 1e4, 1e5, 1e6]).sweep_rows
        ratios = [r[2] for r in rows]
        assert max(ratios) / min(ratios) < 3.0

    @given(alpha=st.floats(2.0, 5.0, exclude_min=True), beta=st.floats(0.0, 2.0, exclude_min=True),
           y=st.integers(3, 40).map(float) | st.floats(3.0, 40.0))
    @settings(max_examples=40, deadline=None)
    @example(alpha=3.0, beta=1.0, y=20.0)
    @example(alpha=2.5, beta=0.25, y=37.0)  # N = 36 = 6^2: a = b = 6 sits on the split, and 6 * 6 < y
    def test_m2_oracle_against_direct_enumeration(self, alpha, beta, y):
        # independent four-loop enumeration over n11 n12 < y and n21 n22 < y,
        # with d_beta by trial division
        got = paired_shift_oracle(2, alpha, divisor_series(beta, math.ceil(y) - 1), y)
        N = math.ceil(y) - 1
        D = [0.0] + [divisor_coeff(beta, n) / n for n in range(1, N + 1)]

        def w(u):
            return math.log(u) ** (alpha - 1) / math.gamma(alpha) if u > 1 else 0.0

        want = 0.0
        for n11 in range(1, N + 1):
            for n12 in range(1, N + 1):
                if n11 * n12 >= y:
                    break
                for n21 in range(1, N + 1):
                    for n22 in range(1, N + 1):
                        if n21 * n22 >= y:
                            break
                        want += (
                            D[n11] * D[n12] * D[n21] * D[n22]
                            * w(y / (n11 * n12)) * w(y / (n21 * n22))
                            * w(y / (n11 * n21)) * w(y / (n12 * n22))
                        )
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("alpha", [1.5, 2.5, 3.0, 3.7, 4.0])
    @pytest.mark.parametrize("T,h", [(400, 0.01), (400, 0.02), (200, 0.01), (100, 0.05)])
    def test_self_convolution_bit_identical_to_fftconvolve(self, alpha, T, h):
        from scipy.signal import fftconvolve

        # an axis factor e^{it} (1 + it)^{-alpha} on a trapezoid grid, one to four times the numeric's length
        t = np.arange(-T, T + h / 2, h)
        ends = np.ones(t.size)
        ends[0] = ends[-1] = 0.5
        phi = np.exp(1j * t) * (1 + 1j * t) ** (-alpha) * ends
        assert np.array_equal(_self_convolve(phi), fftconvolve(phi, phi))

    def test_numeric_frozen(self):
        # frozen on the Perron axis (h = 1, T = 500, J = 8, c = max(6, alpha - 1))
        assert paired_shift_numeric(3.0, 1.0, 1e4).real == pytest.approx(4408.048188316394, rel=1e-12)
        assert paired_shift_numeric(*QUARTER[1:], 1e4).real == pytest.approx(585.5847573335079, rel=1e-12)

    @pytest.mark.parametrize("triple", [(1, 3.0, 1.0), QUARTER])
    def test_numeric_at_the_criteria_points(self, triple):
        # criteria 7 and 8: the axis leaves no truncation error the 1e-3 and 1e-2 gates could see
        assert paired_shift_check(*triple, 1e4).rel_err < 1e-9

    @pytest.mark.parametrize("alpha", [12.0, 20.0, 26.0, 100.0])
    def test_numeric_takes_any_alpha(self, alpha):
        # on the saddle line the terms are about the size of the integral, so no digits cancel
        rep = paired_shift_check(1, alpha, 1.0, 100.0)
        assert rep.rel_err < 1e-12

    @given(alpha=st.floats(2.0, 40.0, exclude_min=True), beta=st.floats(0.1, 3.0),
           y=st.floats(2.01, 1e4))
    @settings(max_examples=30, deadline=None)
    @example(alpha=2.01, beta=3.0, y=10.0)  # the worst corner of a 0.3-step axis at 1,013 nodes
    @example(alpha=2.0001, beta=3.0, y=12.01)  # where that axis erred by 2.3e-5
    def test_numeric_matches_oracle(self, alpha, beta, y):
        # the grid tail of the zeta terms at n ~ y keeps no oscillation for Euler's
        # transformation to sum; at alpha -> 2 it decays slowest
        assert paired_shift_check(1, alpha, beta, y).rel_err < 1e-5

    @pytest.mark.parametrize("m,alpha,y,sweep", [(2, 60.0, 2.5, [2.5, 3.0]), (1, 100.0, 2.01, []),
                                                 (1, 120.0, 1e3, [1e3])])
    def test_underflowed_oracle_refused(self, m, alpha, y, sweep):
        # an oracle (or its sweep ratio to (log y)^gamma) of 0 leaves no relative error or band
        with pytest.raises(DomainError):
            paired_shift_check(m, alpha, 1.0, y, sweep)

    def test_m2_oracle_peak_memory(self):
        setup = (
            "from fracmoment.contours import M2_ORACLE_YMAX, paired_shift_oracle\n"
            "from fracmoment.sieve import divisor_series\n"
            "d = divisor_series(1.0, M2_ORACLE_YMAX - 1)\n"
            "paired_shift_oracle(2, 3.0, d, 20.0)"
        )
        call = "paired_shift_oracle(2, 3.0, d, 500.0)\npaired_shift_oracle(2, 3.0, d, M2_ORACLE_YMAX)"
        assert peak_rise_kib(setup, call) < 20 * 1024

    def test_m2_has_no_numeric_path(self):
        rep = paired_shift_check(2, 3.0, 1.0, 100.0)
        assert rep.numeric is None
        assert rep.gamma == 2 * 2 * 3.0 + 4 * 1.0 - 4
        # and takes any alpha whose oracle is a normal double
        assert paired_shift_check(2, 26.0, 1.0, 100.0).oracle > 0

    def test_hypothesis_violations(self):
        with pytest.raises(DomainError):
            paired_shift_check(1, 2.0, 1.0, 100.0)  # alpha must exceed 2
        with pytest.raises(DomainError):
            paired_shift_check(1, 3.0, -1.0, 100.0)
        with pytest.raises(DomainError):
            paired_shift_check(3, 3.0, 1.0, 100.0)
        with pytest.raises(DomainError):
            paired_shift_check(1, 3.0, 1.0, 100.0, sweep=[1e3, 1.0])  # (log 1)^gamma = 0
        for bad in (math.nan, math.inf):
            for args in ((1, bad, 1.0, 100.0), (1, 3.0, bad, 100.0), (1, 3.0, 1.0, bad)):
                with pytest.raises(DomainError):
                    paired_shift_check(*args)
            with pytest.raises(DomainError):
                paired_shift_check(1, 3.0, 1.0, 100.0, sweep=[bad, 1e4])


class TestQuarterPower:
    def test_y_1e4(self):
        rep = paired_shift_check(*QUARTER, 1e4)
        assert rep.rel_err < 1e-2
        assert rep.numeric > 0 and rep.oracle > 0
        assert rep.gamma == pytest.approx(13.0 / 4.0)

    def test_oracle_summands_nonnegative(self):
        d = divisor_series(0.25, 1000)
        assert np.all(d[1:] >= 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            paired_shift_check(*QUARTER, 0.5)


class TestEtaStability:
    def test_single_shift_settles_to_one(self):
        rep = eta_stability(1, 0.5, ShiftVector((0.3,)), [10**5, 10**6])
        assert rep.drift < 1e-3
        assert abs(rep.estimates[-1] - 1.0) < 1e-3

    def test_s2_four_shifts(self):
        rep = eta_stability(2, 0.5, ShiftVector((0.3, 0.3, 0.3, 0.3)), [10**5, 10**6])
        assert rep.drift < 1e-3

    def test_large_shifts_euler_factors(self):
        # with Re shifts = 5 the tail beyond p = 3 is provably tiny and the
        # estimate equals the (trivial) product of the p = 2, 3 factors
        rep = eta_stability(1, 5.0, ShiftVector((5.0,)), [10**3, 10**4])
        assert rep.drift < 1e-6
        assert abs(rep.estimates[-1] - 1.0) < 1e-6

    @pytest.mark.parametrize("s", [1, 2])
    def test_matches_the_directly_weighted_sum(self, s):
        # n^{-(1+w0)} applied to the unweighted series term by term
        w0, shifts, levels = 0.3 + 0.2j, ShiftVector((0.1 + 1j, 0.05)), (1000, 30000)
        n = np.arange(1, levels[-1] + 1)
        partial = np.cumsum(shifted_series(shifts, None, s, levels[-1])[1:] * np.exp(-(1 + w0) * np.log(n)))
        denom = np.prod([zeta_power_line(1 / (2 * s), 1 + w0 + w)[0] for w in shifts.shifts])
        got = eta_stability(s, w0, shifts, levels).estimates
        for N, est in zip(levels, got):
            assert abs(est - partial[N - 1] / denom) <= 1e-13 * abs(est)

    def test_readme_example_peak_memory(self):
        # the 10^6 cutoff rises 36 MiB with n^{-(1+w0)} in the shifts, and 57 MiB when the
        # terms are weighted one by one through per-n arange, log and exp temporaries
        setup = (
            "from fracmoment.contours import eta_stability\n"
            "from fracmoment.sieve import ShiftVector\n"
            "eta_stability(1, 0.5, ShiftVector((0.3,)), [10, 100])"
        )
        assert peak_rise_kib(setup, "eta_stability(1, 0.5, ShiftVector((0.3,)), [10**5, 10**6])") < 48 * 1024

    def test_overflowing_moved_shift_is_an_overflow(self):
        # finite w0 and w whose 1 + w0 + w is past the largest double: an overflow, not a bad shift
        with pytest.raises(OverflowError):
            eta_stability(1, 1.7e308, ShiftVector((1e308,)), [10, 100])

    def test_non_finite_input_rejected(self):
        for bad in (math.nan, math.inf, complex(0.5, math.nan)):
            with pytest.raises(DomainError):
                eta_stability(1, bad, ShiftVector((0.3,)), [10**3, 10**4])
            with pytest.raises(DomainError):
                eta_stability(1, 0.5, ShiftVector((0.3, bad)), [10**3, 10**4])

    def test_convergence_precondition(self):
        with pytest.raises(DomainError):
            eta_stability(1, 0.1, ShiftVector((0.05,)), [10**3, 10**4])
