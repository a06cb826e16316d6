import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chi, evaluate_polynomial_all, table_for
from fracmoment.characters import is_prime
from fracmoment.errors import DomainError
from fracmoment.lvalues import lvalue_table
from fracmoment.moments import (
    CharacterValues,
    MomentParams,
    character_values,
    holder_chain_check,
    holder_exponents,
    mollifier_series,
    p4_bound_check,
    polynomial_series,
    power_sum,
    scaling_survey,
)


class TestMomentParams:
    def test_default_bundle(self):
        p = MomentParams(1009)
        assert p.y == 2.0 and p.a == 4.0 and p.x == 16.0
        assert not p.regime_ok

    def test_regime_compares_in_logs(self):
        # x^{4s} <= q^{1/20} is x <= q^{1/(80 s)}: 1.044 at q = 1009 and s = 2; at s = 64 the
        # default x^{4s} = 16^256 passes a double, and the bundle stands with the flag off
        assert MomentParams(1009, y=1.001, a=1.0).regime_ok
        assert not MomentParams(1009, y=1.05, a=1.0).regime_ok
        assert not MomentParams(1009, r=1, s=64).regime_ok
        # x^{2r} = 16^1998 passes a double, so it is outside the diagonal regime, not an overflow
        with pytest.raises(DomainError, match="diagonal regime requires"):
            MomentParams(1009, r=999, s=1000).diagonal_length()

    def test_the_constructor_fills_in_y_and_stores_floats(self):
        assert [f.name for f in dataclasses.fields(MomentParams)] == ["q", "r", "s", "y", "a"]
        p = MomentParams(100003, 1, 2, None, 1)
        assert p.y == 100003 ** (1 / 8) > 2 and (type(p.y), type(p.a)) == (float, float)
        p = MomentParams(1009, y=3)
        assert p.y == 3.0 and type(p.y) is float
        assert not hasattr(MomentParams, "make")
        with pytest.raises(DomainError, match="need y > 1 and a >= 1"):
            MomentParams(1009, a=0.5)  # y defaults to 2 there, so a is what is refused

    def test_validation(self):
        with pytest.raises(DomainError):
            MomentParams(1000)  # composite
        with pytest.raises(DomainError):
            MomentParams(1009, r=2, s=4)  # not reduced
        with pytest.raises(DomainError):
            MomentParams(1009, r=3, s=2)  # k > 1
        for q in (-5, -7, 0):
            with pytest.raises(DomainError):
                MomentParams(q)  # q^{1/(4as)} would be complex or 0
        for y, a in ((math.nan, 4.0), (math.inf, 4.0), (2.0, math.nan), (2.0, math.inf), (1e300, 4.0)):
            with pytest.raises(DomainError):
                MomentParams(q=1009, r=1, s=2, y=y, a=a)  # non-finite, or y^a overflows


class TestEvaluatePolynomial:
    def test_delta_one_gives_all_ones(self):
        t = table_for(101)
        coeffs = np.array([0.0, 1.0])
        out = evaluate_polynomial_all(t, coeffs)
        np.testing.assert_allclose(out, np.ones(100), atol=1e-12)

    def test_principal_slot_direct_sum(self):
        # ten-term direct sum of d_{1/2}(n) n^{-1/2} log(10/n)/log 10
        from fracmoment.sieve import weighted_poly_coeffs

        t = table_for(101)
        coeffs = weighted_poly_coeffs(1, 2, 10.0, 10)
        out = evaluate_polynomial_all(t, coeffs)
        direct = sum(
            coeffs[n] / math.sqrt(n) for n in range(1, 11)
        )
        assert out[0].real == pytest.approx(direct, rel=1e-12)
        assert abs(out[0].imag) < 1e-12
        assert direct > 0

    def test_support_must_stay_below_q(self):
        t = table_for(7)
        vals = np.zeros(8)
        vals[7] = 1.0
        with pytest.raises(DomainError):
            evaluate_polynomial_all(t, vals)


class TestMomentK:
    def test_q5_half_moment_is_sum_of_roots(self):
        t = table_for(5)
        value, contributions, _ = power_sum(lvalue_table(t, "oracle")[1], MomentParams(5).k)
        sq = lvalue_table(t, "oracle")[1]
        want = math.fsum(math.sqrt(sq[j]) for j in (1, 2, 3))
        assert value == pytest.approx(want, rel=1e-12)
        # q - 2 non-principal characters contribute
        assert contributions.size == 3

    def test_k_one_equals_square_sum(self):
        t = table_for(101)
        value, _, _ = power_sum(lvalue_table(t, "oracle")[1], Fraction(1, 1))
        want = float(np.sum(np.abs(lvalue_table(t, "oracle")[0][1:]) ** 2))
        assert value == pytest.approx(want, rel=1e-12)

    def test_oracle_vs_afe(self):
        t = table_for(5)
        k = MomentParams(5).k
        a = power_sum(lvalue_table(t, "oracle")[1], k)[0]
        b = power_sum(lvalue_table(t, "afe")[1], k)[0]
        assert a == pytest.approx(b, abs=1e-5)

    def test_oracle_vs_afe_q1009(self):
        t = table_for(1009)
        k = MomentParams(1009).k
        a = power_sum(lvalue_table(t, "oracle")[1], k)[0]
        b = power_sum(lvalue_table(t, "afe")[1], k)[0]
        assert a == pytest.approx(b, rel=1e-4)

    def test_bad_k_rejected(self):
        with pytest.raises(DomainError):
            power_sum(lvalue_table(table_for(5), "oracle")[1], Fraction(3, 2))

    def test_one_power_keeps_the_square_and_its_root(self):
        # np.power of the floored square: at k = 1 the square itself, at k = 1/2 numpy's correctly
        # rounded sqrt, bit for bit, where exp(k log x) moves the last bit of many
        sq = lvalue_table(table_for(1009), "oracle")[1]
        floored = np.maximum(sq[1:], 1e-30)
        assert np.array_equal(power_sum(sq, Fraction(1))[1], floored)
        assert np.array_equal(power_sum(sq, Fraction(1, 2))[1], np.sqrt(floored))


def _naive_polys(table, coeffs):
    out = np.empty(table.order, dtype=complex)
    for j in range(table.order):
        out[j] = sum(
            coeffs[n] * chi(table, j, n) / math.sqrt(n)
            for n in range(1, coeffs.size)
            if coeffs[n] != 0
        )
    return out


@pytest.fixture(scope="module")
def setup_1009():
    # the x = 10, a = 2 bundle: y = sqrt(10)
    params = MomentParams(q=1009, r=1, s=2, y=math.sqrt(10.0), a=2.0)
    return params, table_for(1009)


def chain(params, table):
    return holder_chain_check(character_values(params, table))


class TestTwistedSums:

    def test_s_lower_matches_naive_triple_loop(self, setup_1009):
        params, table = setup_1009
        got = chain(params, table).s_l
        L = lvalue_table(table, "oracle")[0]
        P = _naive_polys(table, polynomial_series(params))
        M = _naive_polys(table, mollifier_series(params))
        want = sum(
            L[j] * np.conj(P[j]) ** 4 * abs(M[j]) ** 2 for j in range(1, table.order)
        )
        assert abs(got - want) < 1e-6 * max(1.0, abs(want))

    def test_s_upper_matches_naive_and_nonnegative(self, setup_1009):
        params, table = setup_1009
        got = chain(params, table).s_u
        assert got >= 0
        L = lvalue_table(table, "oracle")[0]
        P = _naive_polys(table, polynomial_series(params))
        M = _naive_polys(table, mollifier_series(params))
        want = sum(
            abs(L[j]) ** 2 * abs(P[j]) ** 8 * abs(M[j]) ** 6 for j in range(1, table.order)
        )
        assert got == pytest.approx(float(want.real), rel=1e-6)

    def test_s_lower_imag_small(self, setup_1009):
        # contributions pair conjugately, so the sum is essentially real
        params, table = setup_1009
        val = chain(params, table).s_l
        assert abs(val.imag) < 1e-9 * max(1.0, abs(val))

    def test_degenerate_polynomials_reduce_to_l_sum(self):
        q = 101
        table = table_for(q)
        eps = 1e-9
        params = MomentParams(q=q, r=1, s=2, y=1 + eps, a=1.0)
        got = chain(params, table).s_l
        want = 0.25 * sum(lvalue_table(table, "oracle")[0][1:])  # |M|^2 = (1/2)^2, P = 1
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


class TestP4Bound:
    def test_degenerate_counts(self):
        q = 101
        table = table_for(q)
        params = MomentParams(q=q, r=1, s=2, y=1 + 1e-9, a=1.0)
        rep = p4_bound_check(character_values(params, table))
        assert rep.lhs == pytest.approx(q - 2, rel=1e-9)
        assert rep.rhs == pytest.approx(q - 1, rel=1e-12)
        assert rep.holds

    def test_default_bundle_q1009(self):
        params = MomentParams(1009)
        rep = p4_bound_check(character_values(params, table_for(1009)))
        assert rep.holds
        assert rep.rhs > 0

    def test_p4_is_one_field_both_checks_read(self):
        assert "p4" in {f.name for f in dataclasses.fields(CharacterValues)}
        values = character_values(MomentParams(1009), table_for(1009))
        assert holder_chain_check(values).p4 == p4_bound_check(values).lhs == values.p4

    def test_diagonal_regime_required(self):
        params = MomentParams(q=101, r=1, s=2, y=math.sqrt(11.0), a=2.0)
        with pytest.raises(DomainError):
            p4_bound_check(character_values(params, table_for(101)))  # x^2 = 121 > 101


class TestHolderChain:
    def test_exponent_identity_exact(self):
        for r, s in ((1, 2), (1, 3), (2, 3), (3, 4), (5, 7)):
            e1, e2, e3 = holder_exponents(Fraction(r, s))
            assert e1 + e2 + e3 == 1

    def test_chain_q1009_default(self):
        params = MomentParams(1009)
        rep = chain(params, table_for(1009))
        assert rep.holds
        assert rep.slack >= -1e-9 * rep.f1 * rep.f2 * rep.f3

    def test_chain_degenerate(self):
        params = MomentParams(q=101, r=1, s=2, y=1 + 1e-9, a=1.0)
        rep = chain(params, table_for(101))
        assert rep.holds


class TestBundleProperty:
    @given(
        q=st.sampled_from([p for p in range(5, 401) if is_prime(p)]),
        k=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4)]),
        a=st.floats(1.0, 3.0),
        u=st.floats(0.05, 0.95),
    )
    @settings(max_examples=30, deadline=None)
    def test_bundle_sums_match_naive_loop(self, q, k, a, u):
        # y = q^{u/(2ra)} puts x^{2r} = q^u inside the diagonal regime
        r, s = k.numerator, k.denominator
        params = MomentParams(q=q, r=r, s=s, y=q ** (u / (2 * r * a)), a=a)
        table = table_for(q)
        rep = chain(params, table)
        L = lvalue_table(table, "oracle")[0][1:]
        P = _naive_polys(table, polynomial_series(params))[1:]
        M = _naive_polys(table, mollifier_series(params))[1:]
        terms = L * np.conj(P) ** (2 * s) * np.abs(M) ** (2 * (s - r))
        assert abs(rep.s_l - terms.sum()) <= 1e-9 * abs(terms.sum())
        s_u = np.sum(np.abs(L) ** 2 * np.abs(P) ** (4 * s) * np.abs(M) ** (2 * (2 * s - r)))
        assert rep.s_u == pytest.approx(s_u, rel=1e-9)
        assert rep.p4 == pytest.approx(np.sum(np.abs(P) ** (4 * r)), rel=1e-9)
        assert rep.moment == pytest.approx(np.sum(np.abs(L) ** (2 * float(k))), rel=1e-9)
        assert rep.slack >= -1e-9 * rep.f1 * rep.f2 * rep.f3


    @given(
        q=st.sampled_from([p for p in range(5, 3000) if is_prime(p)] + [10007, 100003]),
        s=st.integers(2, 5),
        a=st.floats(1.0, 3.0),
        u=st.floats(0.05, 0.95),
    )
    @settings(max_examples=30, deadline=None)
    def test_pm_split_matches_two_dfts(self, q, s, a, u):
        # P and M come from one DFT of P + iM; each must agree with its own DFT
        params = MomentParams(q=q, r=1, s=s, y=q ** (u / (2 * a)), a=a)
        table = table_for(q)
        values = character_values(params, table)
        for got, series in ((values.P, polynomial_series), (values.M, mollifier_series)):
            want = evaluate_polynomial_all(table, series(params))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSurvey:
    def test_band_small(self):
        rows = scaling_survey(Fraction(1, 2), [1009])
        assert len(rows) == 1
        assert rows[0].band_ok
        assert 0.1 <= rows[0].ratio <= 10

    def test_empty(self):
        assert scaling_survey(Fraction(1, 2), []) == []

    def test_retains_no_per_modulus_array(self):
        # what a survey leaves allocated is under one modulus's L-values, 16 (q - 1) bytes
        primes = [p for p in range(20001, 21000) if is_prime(p)][:6]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scaling_survey(Fraction(1, 2), primes)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 16 * (primes[0] - 1)
