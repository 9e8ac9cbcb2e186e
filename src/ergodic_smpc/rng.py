"""Deterministic random-source construction.

All stochastic routines in the package draw from generators built here.
Streams are keyed by integer tuples: equal key tuples give identical draw
sequences, distinct tuples give statistically independent streams.  This
makes every result reproducible and independent of scheduling order.
"""

from __future__ import annotations

import numpy as np

from .errors import check_integer

_MASK64 = (1 << 64) - 1


def _seed_sequence(keys: tuple) -> np.random.SeedSequence:
    """The seed sequence of ``keys``, each an integer folded to 64 bits."""
    if not keys:
        raise ValueError("at least one seed key is required")
    return np.random.SeedSequence(tuple(check_integer("seed", k) & _MASK64 for k in keys))


def make_rng(*keys: int) -> np.random.Generator:
    """Return a generator keyed by ``keys``.

    Equal keys always produce bit-identical draw sequences; any change in
    a key yields an independent stream.  Keys are folded to 64 bits.
    """
    return np.random.default_rng(_seed_sequence(keys))


def derive_seed(*keys: int) -> int:
    """Collapse a key tuple into a single 64-bit subseed."""
    return int(_seed_sequence(keys).generate_state(1, np.uint64)[0])
