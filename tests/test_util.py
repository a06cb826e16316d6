import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracmoment.util import _FSUM_BELOW, exact_sum


def outcome(f, x):
    """The bits f returns on x (signed zeros and NaN told apart), or the exception type it raises."""
    try:
        return f(x).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def sample(n: int, seed: int, spread: float, kind: str) -> np.ndarray:
    """n doubles of magnitude e^{+-spread} with about 1% subnormals: mixed signs, positive,
    cancelling in pairs, or all -0.0."""
    rng = np.random.default_rng(seed)
    if kind == "negzero":
        return np.full(n, -0.0)
    x = rng.standard_normal(n) * np.exp(rng.uniform(-spread, spread, n))
    sub = rng.random(n) < 0.01
    x[sub] = 5e-324 * rng.integers(-(2**20), 2**20, np.count_nonzero(sub))  # subnormals
    if kind == "positive":
        return np.abs(x)
    if kind == "cancel":  # the exact sum is 0
        x = np.concatenate([x[: n // 2], -x[: n // 2], [0.0] * (n % 2)])
        rng.shuffle(x)
    return x


class TestExactSum:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 200_000),
        seed=st.integers(0, 2**32 - 1),
        spread=st.floats(0.0, 700.0),
        kind=st.sampled_from(["mixed", "positive", "cancel", "negzero"]),
    )
    @example(n=_FSUM_BELOW - 1, seed=1, spread=700.0, kind="mixed")
    @example(n=_FSUM_BELOW, seed=1, spread=700.0, kind="mixed")
    @example(n=_FSUM_BELOW, seed=2, spread=30.0, kind="cancel")
    @example(n=_FSUM_BELOW, seed=3, spread=0.0, kind="negzero")
    @example(n=10**6, seed=4, spread=50.0, kind="mixed")
    def test_bits_match_fsum(self, n, seed, spread, kind):
        x = sample(n, seed, spread, kind)
        assert outcome(exact_sum, x) == outcome(math.fsum, x)

    def test_subnormal_totals(self):
        x = np.full(4 * _FSUM_BELOW, 5e-324)
        x[::3] = -1.5e-323
        assert exact_sum(x).hex() == math.fsum(x).hex()
        assert exact_sum(np.full(_FSUM_BELOW, 5e-324)) == _FSUM_BELOW * 5e-324

    @pytest.mark.parametrize("head", [[math.inf, -math.inf], [1e308, 1e308], [1e308, 1e308, -1e308]])
    def test_raises_what_fsum_raises(self, head):
        for x in (head, np.concatenate([head, np.zeros(2 * _FSUM_BELOW)])):
            want = outcome(math.fsum, x)
            assert want in (ValueError, OverflowError)
            with pytest.raises(want):
                exact_sum(x)

    @pytest.mark.parametrize("n", [_FSUM_BELOW - 1, 4 * _FSUM_BELOW])
    def test_complex_sums_each_part(self, n):
        z = sample(n, 5, 300.0, "mixed") + 1j * sample(n, 6, 300.0, "cancel")
        got = exact_sum(z)
        assert (got.real.hex(), got.imag.hex()) == (math.fsum(z.real).hex(), math.fsum(z.imag).hex())

    def test_non_finite_terms(self):
        x = np.ones(2 * _FSUM_BELOW)
        x[7] = math.inf
        assert exact_sum(x) == math.inf
        x[8] = math.nan
        assert math.isnan(exact_sum(x))
