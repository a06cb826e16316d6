import math

import mpmath as mp
import numpy as np
import pytest
from conftest import run_python
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracmoment.contours import (
    QUARTER,
    _self_convolve,
    eta_stability,
    hankel_recip_gamma,
    paired_shift_check,
    paired_shift_numeric,
    paired_shift_oracle,
    perron_weight,
    perron_weight_closed_form,
    zeta_frac_power,
    zeta_power_line,
)
from fracmoment.errors import ConvergenceError, DomainError
from fracmoment.sieve import ShiftVector, divisor_coeff, divisor_series


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
        assert zeta_frac_power(2.0, 2.0).real == pytest.approx(want, rel=1e-10)
        assert zeta_frac_power(2.0, 2.0).real == pytest.approx(2.705808084277845, rel=1e-10)

    def test_quarter_power_near_pole(self):
        z = 1e-3
        val = zeta_frac_power(0.25, 1 + z)
        assert abs(val * z**0.25 - 1) < 1e-2

    def test_reciprocal_root_consistency(self):
        a = zeta_frac_power(0.5, 2.0)
        b = zeta_frac_power(-0.5, 2.0)
        assert (a * b).real == pytest.approx(1.0, rel=1e-10)
        assert abs((a * b).imag) < 1e-12

    def test_alpha_one_reduces_to_zeta(self):
        for s in (2.0, 1.5, 1.2 + 0.7j, 0.8 + 2.0j):
            assert abs(zeta_frac_power(1.0, s) - complex(mp.zeta(s))) < 1e-10

    @pytest.mark.parametrize("s", [2.0, 1.1, 1 + 0.01j])
    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1 / 3, 2 / 3), (0.25, 0.25)])
    def test_power_addition(self, s, a, b):
        lhs = zeta_frac_power(a, s) * zeta_frac_power(b, s)
        rhs = zeta_frac_power(a + b, s)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    @given(alpha=st.floats(-1.0, 1.0),
           s=st.tuples(st.floats(1.25, 3.0), st.floats(-40.0, 40.0)).map(lambda p: complex(*p)))
    @settings(max_examples=100, deadline=None)
    @example(alpha=0.25, s=0.8 + 2j)
    @example(alpha=0.25, s=0.6 + 5j)
    @example(alpha=0.25, s=0.55 + 10j)
    @example(alpha=0.25, s=1 + 0.01j)
    @example(alpha=0.25, s=1.001)
    def test_matches_principal_power_where_zeta_has_positive_real_part(self, alpha, s):
        # on Re s > 1 the continued log is the Euler product's, |Im log zeta(s)| <= log zeta(Re s),
        # under pi/2 from Re s = 1.25 on, so there mpmath's principal power is an independent
        # oracle; the examples left of that line are points where the continued branch is principal too
        with mp.workdps(30):
            zeta = mp.zeta(s)
            assume(zeta.real > 0)
            want = complex(mp.exp(alpha * mp.log(zeta)))
        assert abs(zeta_frac_power(alpha, s) - want) < 1e-13 * abs(want)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            zeta_frac_power(0.5, 1.0)
        with pytest.raises(DomainError):
            zeta_frac_power(0.5, 0.3)
        with pytest.raises(DomainError):
            zeta_frac_power(0.5, 0.8)  # real, left of the pole: ambiguous branch

    def test_branch_jump_refused(self):
        # zeta turns by 2.03 rad between t = 14 and 14.5, past its first zero
        with pytest.raises(ConvergenceError):
            zeta_power_line(0.25, 0.6 + 13.5j, 0.5j, 4)


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
        # one process of its own, so the peak is this call's and no other test's
        # the peak is VmHWM, in KiB: a child's ru_maxrss starts at its parent's
        # RSS at exec, so after a large test it would read 0
        code = (
            "from fracmoment.contours import M2_ORACLE_YMAX, paired_shift_oracle\n"
            "from fracmoment.sieve import divisor_series\n"
            "def peak():\n"
            "    return int(next(r for r in open('/proc/self/status') if r.startswith('VmHWM')).split()[1])\n"
            "d = divisor_series(1.0, M2_ORACLE_YMAX - 1)\n"
            "paired_shift_oracle(2, 3.0, d, 20.0)\n"
            "before = peak()\n"
            "paired_shift_oracle(2, 3.0, d, 500.0)\n"
            "paired_shift_oracle(2, 3.0, d, M2_ORACLE_YMAX)\n"
            "print(peak() - before)\n"
        )
        assert int(run_python(code).stdout) < 20 * 1024

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

    def test_non_finite_input_rejected(self):
        for bad in (math.nan, math.inf, complex(0.5, math.nan)):
            with pytest.raises(DomainError):
                eta_stability(1, bad, ShiftVector((0.3,)), [10**3, 10**4])
            with pytest.raises(DomainError):
                eta_stability(1, 0.5, ShiftVector((0.3, bad)), [10**3, 10**4])

    def test_convergence_precondition(self):
        with pytest.raises(DomainError):
            eta_stability(1, 0.1, ShiftVector((0.05,)), [10**3, 10**4])
