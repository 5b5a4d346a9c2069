"""Seeded randomness.

Every stochastic component takes an explicit ``numpy.random.Generator``
(or a seed), never the global NumPy state, so that experiments are
reproducible and components can be reseeded independently (the classic
"independent streams" discipline from parallel Monte-Carlo codes).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a Generator; pass through if one is given already."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` statistically independent child streams."""
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def categorical(rng: np.random.Generator, probs: Sequence[float], size: Optional[int] = None):
    """Sample category indices from ``probs`` (normalised defensively)."""
    p = np.asarray(probs, dtype=float)
    if (p < 0).any():
        raise ValueError("probabilities must be non-negative")
    total = p.sum()
    if total <= 0:
        raise ValueError("probabilities must sum to a positive value")
    p = p / total
    return rng.choice(len(p), size=size, p=p)
