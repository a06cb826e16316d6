import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import table_for
from fracmoment.errors import DomainError
from fracmoment.lvalues import lvalue_table, oracle_values
from fracmoment.moments import (
    MomentParams,
    evaluate_polynomial_all,
    holder_chain_check,
    holder_exponents,
    moment_k,
    moment_sum,
    mollifier_series,
    p4_bound_check,
    polynomial_series,
    s_lower,
    s_upper,
    scaling_survey,
)
from fracmoment.sieve import FactorSieve


@pytest.fixture(scope="module")
def fs():
    return FactorSieve.build(10**4)


class TestMomentParams:
    def test_default_bundle(self):
        p = MomentParams.make(1009)
        assert p.y == 2.0 and p.a == 4.0 and p.x == 16.0
        assert not p.regime_ok

    def test_validation(self):
        with pytest.raises(DomainError):
            MomentParams.make(1000)  # composite
        with pytest.raises(DomainError):
            MomentParams.make(1009, r=2, s=4)  # not reduced
        with pytest.raises(DomainError):
            MomentParams.make(1009, r=3, s=2)  # k > 1
        with pytest.raises(DomainError):
            MomentParams(q=1009, r=1, s=2, y=2.0, a=4.0, x=17.0)  # x != y^a


class TestEvaluatePolynomial:
    def test_delta_one_gives_all_ones(self):
        t = table_for(101)
        coeffs = np.array([0.0, 1.0])
        out = evaluate_polynomial_all(t, coeffs)
        np.testing.assert_allclose(out, np.ones(100), atol=1e-12)

    def test_principal_slot_direct_sum(self, fs):
        # ten-term direct sum of d_{1/2}(n) n^{-1/2} log(10/n)/log 10
        from fracmoment.sieve import weighted_poly_coeffs

        t = table_for(101)
        coeffs = weighted_poly_coeffs(1, 2, 10.0, 10, fs)
        out = evaluate_polynomial_all(t, coeffs)
        direct = sum(
            coeffs[n] / math.sqrt(n) for n in range(1, 11)
        )
        assert out[0].real == pytest.approx(direct, rel=1e-12)
        assert abs(out[0].imag) < 1e-12
        assert direct > 0

    def test_conjugate_flag_reindexes(self, fs, rng):
        t = table_for(101)
        coeffs = np.concatenate([[0.0], rng.standard_normal(50)])
        out = evaluate_polynomial_all(t, coeffs)
        outc = evaluate_polynomial_all(t, coeffs, conjugate=True)
        np.testing.assert_allclose(outc, np.conj(out), atol=1e-12)
        np.testing.assert_allclose(outc[1:], out[1:][::-1], atol=1e-12)

    def test_support_must_stay_below_q(self, fs):
        t = table_for(7)
        vals = np.zeros(8)
        vals[7] = 1.0
        with pytest.raises(DomainError):
            evaluate_polynomial_all(t, vals)


class TestMomentK:
    def test_q5_half_moment_is_sum_of_roots(self):
        t = table_for(5)
        p = MomentParams.make(5)
        rep = moment_k(p, t)
        sq = lvalue_table(t, "oracle")[1]
        want = math.fsum(math.sqrt(sq[j]) for j in (1, 2, 3))
        assert rep.value == pytest.approx(want, rel=1e-12)
        # q - 2 non-principal characters contribute
        assert rep.contributions.size == 3

    def test_k_one_equals_square_sum(self):
        t = table_for(101)
        value, _, _ = moment_sum(t, Fraction(1, 1))
        want = float(np.sum(np.abs(oracle_values(t)[1:]) ** 2))
        assert value == pytest.approx(want, rel=1e-12)

    def test_oracle_vs_afe(self):
        t = table_for(5)
        p = MomentParams.make(5)
        a = moment_k(p, t, "oracle").value
        b = moment_k(p, t, "afe").value
        assert a == pytest.approx(b, abs=1e-5)

    def test_oracle_vs_afe_q1009(self):
        t = table_for(1009)
        p = MomentParams.make(1009)
        a = moment_k(p, t, "oracle").value
        b = moment_k(p, t, "afe").value
        assert a == pytest.approx(b, rel=1e-4)

    def test_bad_k_rejected(self):
        with pytest.raises(DomainError):
            moment_sum(table_for(5), Fraction(3, 2))


def _naive_polys(table, coeffs):
    out = np.empty(table.order, dtype=complex)
    for j in range(table.order):
        out[j] = sum(
            coeffs[n] * table.chi(j, n) / math.sqrt(n)
            for n in range(1, coeffs.size)
            if coeffs[n] != 0
        )
    return out


@pytest.fixture(scope="module")
def setup_1009():
    # the x = 10, a = 2 bundle: y = sqrt(10)
    params = MomentParams(q=1009, r=1, s=2, y=math.sqrt(10.0), a=2.0, x=10.0)
    table = table_for(1009)
    fs = FactorSieve.build(200)
    return params, table, fs


class TestTwistedSums:

    def test_s_lower_matches_naive_triple_loop(self, setup_1009):
        params, table, fs = setup_1009
        got = s_lower(params, table, fs)
        L = oracle_values(table)
        P = _naive_polys(table, polynomial_series(params, fs))
        M = _naive_polys(table, mollifier_series(params, fs))
        want = sum(
            L[j] * np.conj(P[j]) ** 4 * abs(M[j]) ** 2 for j in range(1, table.order)
        )
        assert abs(got - want) < 1e-6 * max(1.0, abs(want))

    def test_s_upper_matches_naive_and_nonnegative(self, setup_1009):
        params, table, fs = setup_1009
        got = s_upper(params, table, fs)
        assert got >= 0
        L = oracle_values(table)
        P = _naive_polys(table, polynomial_series(params, fs))
        M = _naive_polys(table, mollifier_series(params, fs))
        want = sum(
            abs(L[j]) ** 2 * abs(P[j]) ** 8 * abs(M[j]) ** 6 for j in range(1, table.order)
        )
        assert got == pytest.approx(float(want.real), rel=1e-6)

    def test_s_lower_imag_small(self, setup_1009):
        # contributions pair conjugately, so the sum is essentially real
        params, table, fs = setup_1009
        val = s_lower(params, table, fs)
        assert abs(val.imag) < 1e-9 * max(1.0, abs(val))

    def test_degenerate_polynomials_reduce_to_l_sum(self):
        q = 101
        table = table_for(q)
        fs = FactorSieve.build(10)
        eps = 1e-9
        params = MomentParams(q=q, r=1, s=2, y=1 + eps, a=1.0, x=1 + eps)
        got = s_lower(params, table, fs)
        want = 0.25 * sum(oracle_values(table)[1:])  # |M|^2 = (1/2)^2, P = 1
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


class TestP4Bound:
    def test_degenerate_counts(self):
        q = 101
        table = table_for(q)
        fs = FactorSieve.build(10)
        params = MomentParams(q=q, r=1, s=2, y=1 + 1e-9, a=1.0, x=1 + 1e-9)
        rep = p4_bound_check(params, table, fs)
        assert rep.lhs == pytest.approx(q - 2, rel=1e-9)
        assert rep.rhs == pytest.approx(q - 1, rel=1e-12)
        assert rep.holds

    def test_default_bundle_q1009(self, fs):
        params = MomentParams.make(1009)
        rep = p4_bound_check(params, table_for(1009), fs)
        assert rep.holds
        assert rep.rhs > 0

    def test_diagonal_regime_required(self, fs):
        params = MomentParams(q=101, r=1, s=2, y=math.sqrt(11.0), a=2.0, x=11.0)
        with pytest.raises(DomainError):
            p4_bound_check(params, table_for(101), fs)  # x^2 = 121 > 101


class TestHolderChain:
    def test_exponent_identity_exact(self):
        for r, s in ((1, 2), (1, 3), (2, 3), (3, 4), (5, 7)):
            e1, e2, e3 = holder_exponents(Fraction(r, s))
            assert e1 + e2 + e3 == 1

    def test_chain_q1009_default(self, fs):
        params = MomentParams.make(1009)
        rep = holder_chain_check(params, table_for(1009), fs)
        assert rep.holds
        assert rep.slack >= -1e-9 * rep.f1 * rep.f2 * rep.f3

    def test_chain_degenerate(self):
        params = MomentParams(q=101, r=1, s=2, y=1 + 1e-9, a=1.0, x=1 + 1e-9)
        rep = holder_chain_check(params, table_for(101), FactorSieve.build(10))
        assert rep.holds


class TestSurvey:
    def test_band_small(self):
        rows = scaling_survey(Fraction(1, 2), [1009])
        assert len(rows) == 1
        assert rows[0].band_ok
        assert 0.1 <= rows[0].ratio <= 10

    def test_empty(self):
        assert scaling_survey(Fraction(1, 2), []) == []
