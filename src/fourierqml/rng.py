"""Deterministic random number generation.

All stochastic operations in this package take an explicit
``numpy.random.Generator``.  Generators are built on the counter-based
Philox bit generator seeded through ``SeedSequence``, which gives
bit-identical streams across platforms.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int | Sequence[int] | np.random.SeedSequence) -> np.random.Generator:
    """Return a Philox-backed Generator for ``seed``.

    ``seed`` may be an integer, a tuple of integers (useful for deriving
    per-task seeds from a base seed plus task coordinates), or an existing
    ``SeedSequence``.
    """
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seq))
