

import dataclasses
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_within_dft_rounding, chi, direct_character_sums, prime_sieve, table_for
from fracmoment import characters
from fracmoment.characters import (
    QMAX,
    build_table,
    dft_all_characters,
    dft_rounding,
    diagonal_decomposition_check,
    fold_residues,
    inverse_dft_all_characters,
    is_prime,
    parity_sum_expected,
    naive_character_sums,
)
from fracmoment.errors import DomainError


class TestBuildTable:
    def test_q5(self):
        t = table_for(5)
        assert t.g == 2
        assert t.dlog[4] == 2

    def test_q3(self):
        t = table_for(3)
        assert t.g == 2
        assert t.order == 2
        # the non-principal character is the quadratic one
        assert chi(t, 1, 2) == pytest.approx(-1.0)

    def test_rejects_composite_and_small(self):
        for q in (4, 2, 1, 91, 10**6 + 3):
            with pytest.raises(DomainError):
                build_table(q)

    def test_dlog_inverts_powers(self):
        t = table_for(101)
        for a in range(1, 101):
            assert pow(t.g, int(t.dlog[a]), 101) == a

    @given(start=st.integers(3, QMAX), ks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=10, deadline=None)
    @example(start=QMAX, ks=[0.0, 0.5, 1.0])
    def test_powers_against_pow_at_random_primes(self, start, ks):
        q = next(p for p in range(start, 2, -1) if is_prime(p))  # the prime at or below start
        t = build_table(q)  # not table_for: up to 33 MB a table, kept for no later test
        for k in {min(int(u * (q - 1)), q - 2) for u in ks}:
            assert int(t.powers[k]) == pow(t.g, k, q), (q, k)


class TestChiValue:
    def test_principal_is_one(self):
        t = table_for(5)
        assert chi(t, 0, 3) == pytest.approx(1.0)

    def test_zero_on_multiples(self):
        t = table_for(7)
        assert chi(t, 3, 7) == 0
        assert chi(t, 3, 14) == 0

    def test_quadratic_matches_legendre(self):
        # Euler criterion as the independent oracle for the order-2 character
        for q in (5, 7, 11, 13):
            t = table_for(q)
            j = (q - 1) // 2
            for a in range(1, q):
                legendre = 1 if pow(a, (q - 1) // 2, q) == 1 else -1
                assert chi(t, j, a) == pytest.approx(legendre, abs=1e-12)

    def test_complete_multiplicativity(self, rng):
        t = table_for(31)
        for _ in range(40):
            j = int(rng.integers(0, 30))
            a = int(rng.integers(1, 100))
            b = int(rng.integers(1, 100))
            assert chi(t, j, a * b) == pytest.approx(
                chi(t, j, a) * chi(t, j, b), abs=1e-12
            )

    def test_conjugation_symmetry(self):
        t = table_for(11)
        for j in range(10):
            for a in range(1, 11):
                assert chi(t, 10 - j if j else 0, a) == pytest.approx(
                    np.conj(chi(t, j, a)), abs=1e-12
                )

    def test_parity_partition(self):
        t = table_for(101)
        assert int(np.sum(t.parity == 0)) == 50
        assert int(np.sum(t.parity == 1)) == 50


class TestParityRestrictedSum:
    def test_expected_helper(self):
        # parity is CharacterTable.parity's bit: 0 even, 1 odd
        assert parity_sum_expected(7, 0, 6) == 2.0
        assert parity_sum_expected(7, 1, 1) == 3.0
        assert parity_sum_expected(7, 1, 3) == 0.0
        # an array of residues, past q too, reads the scalar calls elementwise
        for q in (3, 7, 101):
            a = np.arange(1, 2 * q)
            for parity in (0, 1):
                want = [parity_sum_expected(q, parity, int(r)) for r in a]
                assert np.array_equal(parity_sum_expected(q, parity, a), want)


class TestDft:
    def test_indicator_of_one(self):
        t = table_for(11)
        coeffs = np.zeros(10, dtype=complex)
        coeffs[0] = 1.0  # residue a = 1
        out = dft_all_characters(t, coeffs)
        np.testing.assert_allclose(out, np.ones(10), atol=1e-12)

    def test_all_ones_orthogonality(self):
        t = table_for(11)
        out = dft_all_characters(t, np.ones(10, dtype=complex))
        want = np.zeros(10, dtype=complex)
        want[0] = 10.0
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_matches_naive_q101(self, rng):
        t = table_for(101)
        coeffs = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        fast = dft_all_characters(t, coeffs)
        slow = naive_character_sums(t, coeffs)
        assert np.max(np.abs(fast - slow)) < 1e-8

    def test_round_trip(self, rng):
        t = table_for(101)
        coeffs = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        back = inverse_dft_all_characters(t, dft_all_characters(t, coeffs))
        assert np.max(np.abs(back - coeffs)) < 1e-9

    def test_length_mismatch(self):
        t = table_for(11)
        with pytest.raises(DomainError):
            dft_all_characters(t, np.ones(9, dtype=complex))


class TestGoodThomasSplit:
    # q - 1 = 2^12 3, 2^16 and 2^6 3^2 5^2 7: pocketfft runs them without Bluestein
    @pytest.mark.parametrize("q", [12289, 65537, 100801])
    def test_smooth_lengths_keep_one_fft_bit_for_bit(self, q, rng):
        t = build_table(q)
        n = q - 1
        assert t.good_thomas is None
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.array_equal(dft_all_characters(t, c), np.fft.ifft(c, norm="forward"))
        assert np.array_equal(inverse_dft_all_characters(t, c), np.conj(np.fft.ifft(np.conj(c), norm="forward")) / n)

    def test_short_lengths_stay_unsplit(self):
        # pocketfft takes no Bluestein below length 50: 46 = 2 23 stays one FFT, 58 = 2 29 splits
        assert table_for(47).good_thomas is None
        assert table_for(59).good_thomas is not None

    @pytest.mark.parametrize("q,n1,p", [(7013, 4, 1753), (10007, 2, 5003), (100237, 12, 8353),
                                        (999983, 158, 6329)])
    def test_split_lengths_match_one_fft(self, q, n1, p, rng):
        t = build_table(q)
        n = q - 1
        gather, crt = t.good_thomas
        assert gather.shape == crt.shape == (n1, p)
        assert np.array_equal(np.sort(crt, axis=None), np.arange(n))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fast = dft_all_characters(t, c)
        assert np.max(np.abs(fast - np.fft.ifft(c) * n)) < dft_rounding(t, c)
        # a real input, as the oracle and smoothed routes pass
        r = c.real.copy()
        assert np.max(np.abs(dft_all_characters(t, r) - np.fft.ifft(r) * n)) < dft_rounding(t, r)
        assert np.max(np.abs(inverse_dft_all_characters(t, fast) - c)) < dft_rounding(t, c)

    def test_naive_agrees_at_every_prime_below_2000(self, rng):
        split = 0
        for q in filter(is_prime, range(3, 2000)):
            t = build_table(q)
            split += t.good_thomas is not None
            c = rng.standard_normal(q - 1) + 1j * rng.standard_normal(q - 1)
            fast = dft_all_characters(t, c)
            assert np.max(np.abs(fast - naive_character_sums(t, c))) < dft_rounding(t, c), q
            assert np.max(np.abs(inverse_dft_all_characters(t, fast) - c)) < dft_rounding(t, c), q
        assert 0 < split < 302  # both sides of the rule are covered


class TestDftRounding:
    def test_bounds_every_output_against_long_double(self, rng):
        # every prime below 2000 and the four split lengths; normal, wide (1e-320 to 1e300)
        # and subnormal folded inputs, real and complex.  A long-double FFT takes 0.1 s at
        # 100237 and 1 s at 999983, so those take the wide inputs only, and 999983 the real one
        def cases():
            for q in [*filter(is_prime, range(3, 2000)), 7013, 10007, 100237, 999983]:
                t = table_for(q) if q < 2000 else build_table(q)
                n = t.order
                wide = 10.0 ** rng.uniform(-320, 300, n)
                sub = rng.integers(-1000, 1000, (2, rng.integers(1, n + 1))) * 5e-324
                inputs = {"wide": wide * np.exp(2j * np.pi * rng.random(n)),
                          "normal": rng.standard_normal(n) + 1j * rng.standard_normal(n),
                          "subnormal fold": fold_residues(t, sub[0] + 1j * sub[1])}
                for name, c in inputs.items() if q < 10**5 else [("wide", inputs["wide"])]:
                    if q != 999983:
                        yield t, c, name
                    yield t, c.real.copy(), f"{name}, real"

        assert_within_dft_rounding("random inputs", cases())


class TestRootTable:
    # n = q - 1 is 2, 4, 6, 0, 4, 2 and 2 mod 8
    @pytest.mark.parametrize("q", [3, 5, 7, 17, 7013, 7019, 100003])
    def test_reflections_are_exact(self, q):
        r = build_table(q).roots
        n = q - 1
        assert r[0] == 1 and r[n // 2] == -1
        if n % 4 == 0:
            assert r[n // 4] == 1j
        # bit for bit, off the points a reflection fixes, where only the sign of a zero could differ
        m = np.arange(1, n)
        m = m[m != n // 2]
        assert np.array_equal(r[n - m].view(np.uint64), np.conj(r[m]).view(np.uint64))
        m = np.arange(n // 2 + 1)
        m = m[2 * m != n // 2]
        assert np.array_equal(r[n // 2 - m].view(np.uint64), (-np.conj(r[m])).view(np.uint64))

    @pytest.mark.parametrize("q", [3, 5, 7, 17, 7013, 7019])
    def test_every_root_within_eps_of_exp(self, q):
        # cos and sin are evaluated at angles below pi/4 only; np.exp over all of the
        # circle erred by 1.5e-15 at n = 7012
        r = build_table(q).roots
        n = q - 1
        with mp.workdps(30):
            err = max(abs(mp.mpc(complex(r[m])) - mp.expjpi(mp.mpf(2 * m) / n)) for m in range(n))
        assert err <= 2.0**-52


def _direct_bound(c: np.ndarray) -> float:
    """(n + 13) u sum |c|, u = 2^-53, to first order in u: any order of adding the n
    terms rounds n - 1 times, each time by at most u sum |term|; the kernel's two
    complex products per term and the reference's one each err by under sqrt(5) u;
    roots[a] roots[b] against roots[(a + b) % n] carries three root errors, each
    under 2^-52 = 2u (TestRootTable); and the reference rounds each sum once."""
    return (c.size + 13) * 2.0**-53 * float(np.sum(np.abs(c)))


class TestNaiveCharacterSums:
    # n = 2 and 4 take the one product below 64; 66 leaves a ragged last block; 192 and
    # 256 are whole blocks; 1008 is ragged and takes two slices of m
    @pytest.mark.parametrize("q", [3, 5, 67, 193, 257, 1009])
    @pytest.mark.parametrize("cells", [None, 1 << 10], ids=["default-slices", "many-slices"])
    def test_against_one_rounding_definition(self, q, cells, rng, monkeypatch):
        if cells is not None:  # many slices of m
            monkeypatch.setattr(characters, "_NAIVE_CELLS", cells)
        t = table_for(q)
        c = rng.standard_normal(q - 1) + 1j * rng.standard_normal(q - 1)
        for coeffs in (c, c.real.copy()):
            got = naive_character_sums(t, coeffs)
            assert got.shape == (q - 1,)
            assert np.max(np.abs(got - direct_character_sums(t, coeffs))) <= _direct_bound(coeffs)

    def test_working_set_is_one_slice(self, rng):
        t = table_for(10007)
        n = t.order
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        t.roots  # built on first read, outside the trace
        tracemalloc.start()
        try:
            naive_character_sums(t, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # per cell of a slice: one gathered root and its product with the coefficients
        # (16 B each), the int64 exponent and the temporary of its reduction mod n (8 B
        # each); O(n): the sums, one slice's product and the result
        bound = characters._NAIVE_CELLS * 48 + 8 * 16 * n
        assert peak < bound < 64 * 16 * n


def _assert_fold_matches_chi_sums(q, v):
    """The DFT of v folded onto the group against the direct sums of v(n) chi_j(n), within
    the DFT's dft_rounding plus the direct sums' own rounding: each of q - 1 products has a
    root 2u off (TestRootTable) and rounds once, and the running sum rounds q - 2 times, at
    most (q + 2) eps sum|v| together.  Products that round to subnormals are left to the
    model's (q - 1) 2^-1074 term."""
    t = table_for(q)
    folded = fold_residues(t, v)
    got = dft_all_characters(t, folded)
    want = [sum(v[n - 1] * chi(t, j, n) for n in range(1, v.size + 1)) for j in range(q - 1)]
    assert np.max(np.abs(got - want)) <= dft_rounding(t, folded) + (q + 2) * np.finfo(float).eps * np.sum(np.abs(v))


class TestExponentOrder:
    # n = 100 keeps one FFT; n = 10006 = 2 5003 splits
    @pytest.mark.parametrize("q", [101, 10007])
    def test_transforms_read_no_residue_map(self, q, rng):
        # every all-character array is in exponent order, so another permutation in the
        # table's powers and dlog leaves each transform's bits as they are
        t = build_table(q)
        powers = rng.permutation(np.arange(1, q))
        dlog = np.full(q, -1)
        dlog[powers] = np.arange(q - 1)
        other = dataclasses.replace(t, powers=powers, dlog=dlog)
        c = rng.standard_normal(q - 1) + 1j * rng.standard_normal(q - 1)
        for transform in (dft_all_characters, inverse_dft_all_characters, naive_character_sums):
            assert np.array_equal(transform(other, c), transform(t, c)), transform.__name__

    @given(q=st.sampled_from([p for p in range(3, 200) if is_prime(p)]), data=st.data(), is_complex=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_fold_residues_against_chi(self, q, data, is_complex):
        pairs = np.array(data.draw(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                                            max_size=q - 1)), dtype=float).reshape(-1, 2)
        _assert_fold_matches_chi_sums(q, pairs[:, 0] + 1j * pairs[:, 1] if is_complex else pairs[:, 0])

    @pytest.mark.parametrize("q", [3, 5, 7, 101, 199])
    @pytest.mark.parametrize("v", [[5e-324], [5e-324, 5e-324]])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_fold_residues_against_chi_on_subnormals(self, q, v, dtype):
        # the DFT and the chi sums round these products a subnormal apart, where the eps term is 0
        _assert_fold_matches_chi_sums(q, np.array(v, dtype=dtype))

    def test_fold_residues_lands_negative_zero_as_zero_and_refuses_support_at_q(self):
        t = table_for(7)
        out = fold_residues(t, np.array([-0.0, -0.0, 2.0]))
        assert out[t.dlog[3]] == 2.0 and not np.signbit(out).any()
        assert np.array_equal(fold_residues(t, np.r_[np.ones(6), np.zeros(3)]), np.ones(6))
        with pytest.raises(DomainError):
            fold_residues(t, np.r_[np.zeros(6), 1.0])


class TestDiagonalDecomposition:
    def test_single_diagonal_pair(self):
        t = table_for(7)
        c = np.zeros(5)
        c[1] = 1.0  # n = 2
        rep = diagonal_decomposition_check(t, c, c)
        assert rep.lhs == pytest.approx(6.0, abs=1e-9)
        assert rep.rhs == pytest.approx(6.0, abs=1e-9)

    def test_off_diagonal_only(self):
        t = table_for(7)
        c = np.zeros(5)
        c[1] = 1.0  # n = 2
        e = np.zeros(5)
        e[2] = 1.0  # n = 3
        rep = diagonal_decomposition_check(t, c, e)
        assert abs(rep.lhs) < 1e-9
        assert abs(rep.rhs) < 1e-12

    def test_random_pairs_q101(self, rng):
        t = table_for(101)
        for _ in range(5):
            c = rng.standard_normal(100)
            e = rng.standard_normal(100)
            rep = diagonal_decomposition_check(t, c, e)
            assert rep.diff < 1e-8

    def test_support_beyond_q_rejected(self):
        t = table_for(7)
        c = np.zeros(8)
        c[6] = 1.0  # n = 7 = q
        with pytest.raises(DomainError):
            diagonal_decomposition_check(t, c, c)


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(10007) and is_prime(100003)
    assert not is_prime(1) and not is_prime(91) and not is_prime(100001)
    # Carmichael numbers, 997^2, and composites and primes next to QMAX
    assert not any(map(is_prime, (561, 1105, 1729, 41041, 825265, 994009, 999981, QMAX)))
    assert is_prime(999979) and is_prime(999983)


def test_is_prime_matches_a_sieve():
    N = 10**5
    assert [is_prime(n) for n in range(-3, N + 1)] == [False] * 3 + prime_sieve(N).tolist()


def test_is_prime_refuses_past_qmax():
    with pytest.raises(DomainError):
        is_prime(QMAX + 1)
