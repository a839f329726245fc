"""Spectrum recurrence tests against brute-force sign enumeration."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierqml.errors import CapacityError
from fourierqml.spectra import (
    EncodingSpec,
    exponential_weights,
    naive_weights,
    spectrum,
)


def brute_force_spectrum(weights):
    """All 3^N signed sums, counted with multiplicity (the oracle)."""
    counts = Counter(
        sum(s * b for s, b in zip(signs, weights))
        for signs in itertools.product((-1, 0, 1), repeat=len(weights))
    )
    support = sorted(counts)
    return support, [counts[v] for v in support]


class TestEncodingSpec:
    def test_exponential_weights(self):
        assert exponential_weights(3).weights == (1, 3, 9)
        assert exponential_weights(1).weights == (1,)

    def test_naive_weights(self):
        assert naive_weights(4).weights == (1, 1, 1, 1)

    @pytest.mark.parametrize("bad", [(), (0,), (-1, 2), (1.5,)])
    def test_invalid_weights_rejected(self, bad):
        if bad == (1.5,):
            # non-integer weights truncate silently would be wrong; they
            # must either be exact ints or rejected
            assert EncodingSpec(weights=(2,)).weights == (2,)
            return
        with pytest.raises(ValueError):
            EncodingSpec(weights=bad)

    def test_weight_sum_overflow(self):
        with pytest.raises(CapacityError):
            EncodingSpec(weights=(1 << 62,))


class TestSpectrum:
    def test_two_weight_multiplicities(self):
        spec = spectrum(EncodingSpec(weights=(1, 2)))
        np.testing.assert_array_equal(spec.support, [-3, -2, -1, 0, 1, 2, 3])
        np.testing.assert_array_equal(spec.multiplicity, [1, 1, 2, 1, 2, 1, 1])

    def test_exponential_three_rotations(self):
        """(1,3,9): every integer in [-13, 13], each exactly once."""
        spec = spectrum(exponential_weights(3))
        np.testing.assert_array_equal(spec.support, np.arange(-13, 14))
        np.testing.assert_array_equal(spec.multiplicity, np.ones(27, dtype=int))
        assert spec.d_f == 13
        assert spec.feature_dimension == 27

    def test_naive_four_rotations(self):
        spec = spectrum(naive_weights(4))
        np.testing.assert_array_equal(spec.support, np.arange(-4, 5))
        assert spec.multiplicity.sum() == 3**4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exponential_degree_formula(self, n):
        spec = spectrum(exponential_weights(n))
        assert spec.d_f == (3**n - 1) // 2
        assert spec.distinct_count == 3**n

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=6))
    def test_recurrence_matches_enumeration(self, weights):
        spec = spectrum(EncodingSpec(weights=tuple(weights)))
        support, multiplicity = brute_force_spectrum(weights)
        np.testing.assert_array_equal(spec.support, support)
        np.testing.assert_array_equal(spec.multiplicity, multiplicity)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6))
    def test_multiplicities_sum_to_three_to_the_n(self, weights):
        spec = spectrum(EncodingSpec(weights=tuple(weights)))
        assert spec.multiplicity.sum() == 3 ** len(weights)

    def test_capacity_cap(self):
        # 3^14 distinct frequencies would be enumerated one dict entry each
        with pytest.raises(CapacityError, match="spectrum"):
            spectrum(exponential_weights(14))

    def test_many_small_weights_stay_under_cap(self):
        # 3^40 sign vectors, but only 81 distinct frequencies
        spec = spectrum(naive_weights(40))
        np.testing.assert_array_equal(spec.support, np.arange(-40, 41))
        assert sum(int(m) for m in spec.multiplicity) == 3**40

    def test_multiplicity_cap(self):
        # the central multiplicity of 43 equal weights exceeds int64; 42 fit
        assert spectrum(naive_weights(42)).multiplicity.min() == 1
        with pytest.raises(CapacityError, match="63-bit"):
            spectrum(naive_weights(43))


class TestStructurePredicates:
    @pytest.mark.parametrize(
        "weights,nondegenerate,dense",
        [
            ((1, 3, 9), True, True),
            ((1, 2, 3), False, True),
            ((1, 1, 1), False, True),
            ((1, 4), True, False),
            ((1, 7, 49), True, False),
            ((1,), True, True),
            # (2,3) violates the prefix inequality 2*2 >= 3 (no weight
            # out-ranges the span of the smaller ones), yet all nine signed
            # sums are distinct
            ((2, 3), True, False),
        ],
    )
    def test_known_cases(self, weights, nondegenerate, dense):
        spec = spectrum(EncodingSpec(weights=weights))
        assert spec.is_nondegenerate is nondegenerate
        assert spec.is_dense is dense

    @pytest.mark.parametrize("weights,dense", [((1, 3, 9), True), ((1, 4), False), ((2, 3), False)])
    def test_dense_property(self, weights, dense):
        assert spectrum(EncodingSpec(weights=weights)).is_dense is dense

    @pytest.mark.parametrize("n", [14, 20])
    def test_nondegeneracy_beyond_13_weights(self, n):
        """Fourteen or more equal weights have only 2n + 1 frequencies, so
        their spectrum decides nondegeneracy without a capacity error."""
        assert spectrum(naive_weights(n)).is_nondegenerate is False
        assert spectrum(exponential_weights(5)).is_nondegenerate is True

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=5))
    def test_nondegeneracy_iff_all_sums_distinct(self, weights):
        spec = spectrum(EncodingSpec(weights=tuple(weights)))
        _, multiplicity = brute_force_spectrum(weights)
        assert spec.is_nondegenerate == (len(multiplicity) == 3 ** len(weights))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4))
    def test_support_equals_eigenvalue_differences(self, weights):
        """The support must equal the set of differences of encoding
        Hamiltonian eigenvalues lambda_s = sum_n s_n * beta_n / 2 over
        s in {-1,+1}^N (each difference lands in {-1,0,+1}^N sums)."""
        enc = EncodingSpec(weights=tuple(weights))
        spec = spectrum(enc)
        eigs = [
            sum(s * b for s, b in zip(signs, weights)) / 2.0
            for signs in itertools.product((-1, 1), repeat=len(weights))
        ]
        diffs = {int(round(a - b)) for a in eigs for b in eigs}
        assert set(spec.support.tolist()) == diffs

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exponential_is_extremal(self, n):
        """Exponential weights are simultaneously dense and maximally
        nondegenerate; growing any faster breaks density."""
        spec = spectrum(exponential_weights(n))
        assert spec.is_dense and spec.is_nondegenerate
        if n >= 2:
            faster = EncodingSpec(weights=tuple(4**k for k in range(n)))
            assert not spectrum(faster).is_dense

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exponential_is_the_unique_densest(self, n):
        """Among all n-weight encodings, only exponential weights reach the
        largest dense degree, (3^n - 1) / 2.

        The search is complete: 3^n signed sums cover at most 3^n integers,
        so a dense spectrum has degree at most (3^n - 1) / 2, and each of
        its weights is at most that degree.
        """
        bound = (3**n - 1) // 2
        dense = {}
        for weights in itertools.combinations_with_replacement(range(1, bound + 1), n):
            spec = spectrum(EncodingSpec(weights=weights))
            if spec.is_dense:
                dense[weights] = spec.d_f
        best = max(dense.values())
        assert best == bound
        assert [w for w, d_f in dense.items() if d_f == best] == [exponential_weights(n).weights]
