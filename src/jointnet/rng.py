"""Deterministic random streams.

Every random draw in the package comes from numpy's PCG64 seeded through
``SeedSequence([seed, purpose])``. The purpose ids below keep weight
initialization, epoch shuffling, data synthesis, fold assignment, and the
gradcheck battery statistically independent for the same user-facing seed,
so changing one consumer never perturbs another.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

WEIGHTS = 0
SHUFFLE = 1
SYNTH = 2
FOLDS = 3
GRADCHECK = 4


def make_rng(seed: int, purpose: int) -> np.random.Generator:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, purpose])))
