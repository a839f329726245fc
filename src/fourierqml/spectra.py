"""Frequency spectra of data-encoding strategies.

A single variable ``x`` encoded through rotations ``RZ(beta_n x)`` with
integer weights ``beta_1..beta_N`` produces model functions supported on
the frequency set

    Omega = { sum_n s_n beta_n : s in {-1, 0, +1}^N }

counted with multiplicity.  The set obeys the recurrence
``Omega_k = (Omega_{k-1} - beta_k) u Omega_{k-1} u (Omega_{k-1} + beta_k)``,
which is how it is computed here; the brute-force enumeration over all
3^N sign vectors serves as the test oracle.

Exponential weights ``beta_n = 3^(n-1)`` are the distinguished case: they
are the fastest-growing integer weights for which the spectrum stays
*dense* (covers every integer in ``[-sum(beta), sum(beta)]``) while being
*maximally nondegenerate* (all 3^N frequency sums distinct), giving
degree ``d_F = (3^N - 1) / 2``.  This is the sense in which the encoding
is optimal: 3^N sign sums cover at most 3^N integers, so no N encoding
gates reach a larger dense degree, and only the weights ``3^(k-1)``
reach this one.  The test suite checks this by exhaustive search for
N <= 3.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

__all__ = [
    "EncodingSpec",
    "FrequencySpectrum",
    "exponential_weights",
    "naive_weights",
    "spectrum",
]

# exact integer bookkeeping is kept within 63 bits
_SUM_CAP = 1 << 62
# 3^13 dictionary entries bound a spectrum
_MAX_EXACT_ROTATIONS = 13


@dataclass(frozen=True)
class EncodingSpec:
    """Integer encoding weights for one variable, in circuit order."""

    weights: tuple[int, ...]

    def __post_init__(self):
        weights = tuple(int(w) for w in self.weights)
        if not weights:
            raise ValueError("weights must be non-empty")
        if any(w < 1 for w in weights):
            raise ValueError(f"weights must be positive integers, got {weights}")
        if sum(weights) >= _SUM_CAP:
            raise CapacityError("sum of weights exceeds the 63-bit bookkeeping budget")
        object.__setattr__(self, "weights", weights)

    @property
    def n_rotations(self) -> int:
        return len(self.weights)

    @property
    def weight_sum(self) -> int:
        return sum(self.weights)


def exponential_weights(n: int) -> EncodingSpec:
    """Weights ``3^(k-1)`` for ``k = 1..n``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return EncodingSpec(weights=tuple(3**k for k in range(n)))


def naive_weights(n: int) -> EncodingSpec:
    """All-ones weights; n rotations give only ``2n + 1`` frequencies."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return EncodingSpec(weights=(1,) * n)


@dataclass(frozen=True)
class FrequencySpectrum:
    """Sorted support with multiplicities of a single-variable spectrum."""

    support: np.ndarray
    multiplicity: np.ndarray

    @property
    def d_f(self) -> int:
        """Largest frequency; the degree of the enclosing dense lattice."""
        return int(self.support[-1])

    @property
    def feature_dimension(self) -> int:
        """``K = 2 d_F + 1``, the real feature count of the dense lattice."""
        return 2 * self.d_f + 1

    @property
    def distinct_count(self) -> int:
        return len(self.support)

    @property
    def is_dense(self) -> bool:
        """True iff the support covers every integer in ``[-d_F, d_F]``."""
        return self.distinct_count == self.feature_dimension

    @property
    def is_nondegenerate(self) -> bool:
        """True iff every sign combination lands on its own frequency."""
        return bool((self.multiplicity == 1).all())


def _recurrence(weights: tuple[int, ...]) -> Iterator[Counter[int]]:
    """Frequency multiplicities after each weight of the three-shift recurrence."""
    counts: Counter[int] = Counter({0: 1})
    for beta in weights:
        step: Counter[int] = Counter()
        for value, count in counts.items():
            step[value - beta] += count
            step[value] += count
            step[value + beta] += count
        counts = step
        yield counts


def spectrum(enc: EncodingSpec) -> FrequencySpectrum:
    """Frequency support and multiplicities via the three-shift recurrence."""
    if min(3**enc.n_rotations, 2 * enc.weight_sum + 1) > 3**_MAX_EXACT_ROTATIONS:
        raise CapacityError(
            f"spectrum of {enc.n_rotations} weights exceeds 3^{_MAX_EXACT_ROTATIONS} frequencies"
        )
    for counts in _recurrence(enc.weights):
        pass  # weights are non-empty, so the last step is the full spectrum
    if max(counts.values()) > np.iinfo(np.int64).max:
        raise CapacityError(
            f"the spectrum of {enc.n_rotations} weights has a multiplicity beyond the "
            "63-bit bookkeeping budget"
        )
    support = np.array(sorted(counts), dtype=np.int64)
    multiplicity = np.array([counts[int(v)] for v in support], dtype=np.int64)
    return FrequencySpectrum(support=support, multiplicity=multiplicity)
